//! Golden index pin for the regret-LP greedies: `F-Greedy`, `Greedy`
//! (RDP-Greedy) and `G-Greedy` (per-group RDP-Greedy).
//!
//! The expectations below were recorded from the eager loops, which solve
//! one regret LP per candidate per pick. Any later speed-up of those loops
//! (lazy bounds, closed-form seeding, dropped refusals) must select exactly
//! the same indices; a change that moves a single index fails here.
//!
//! Instances: generated anti-correlated data (n = 1 200, C = 3,
//! normalized) for d = 3–6, in full-table and group-skyline form, with
//! k ∈ {5, 8}. `F-Greedy` and `G-Greedy` run at α ∈ {0.1, 0.3}; `Greedy`
//! ignores the bounds, so it runs once per instance.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms::core::registry::{by_name, DEFAULT_SEED};
use fairhms::core::types::FairHmsInstance;
use fairhms::data::gen::anti_correlated_dataset;
use fairhms::data::skyline::group_skyline_indices;
use fairhms::data::Dataset;
use fairhms::matroid::proportional_bounds;

const N: usize = 1_200;
const C: usize = 3;

/// `(label, indices)` per configuration.
type Golden = (&'static str, &'static [usize]);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("greedy d=3 sky=false k=5 alpha=0.1", &[73, 119, 546, 976, 1085]),
    ("f-greedy d=3 sky=false k=5 alpha=0.1", &[73, 119, 330, 492, 976]),
    ("g-greedy d=3 sky=false k=5 alpha=0.1", &[73, 330, 363, 585, 658]),
    ("f-greedy d=3 sky=false k=5 alpha=0.3", &[73, 119, 492, 976, 1085]),
    ("g-greedy d=3 sky=false k=5 alpha=0.3", &[73, 330, 363, 585, 658]),
    ("greedy d=3 sky=false k=8 alpha=0.1", &[73, 74, 106, 119, 546, 954, 976, 1085]),
    ("f-greedy d=3 sky=false k=8 alpha=0.1", &[73, 119, 234, 472, 486, 492, 976, 1085]),
    ("g-greedy d=3 sky=false k=8 alpha=0.1", &[25, 73, 330, 363, 492, 585, 658, 1085]),
    ("f-greedy d=3 sky=false k=8 alpha=0.3", &[73, 119, 330, 486, 546, 553, 976, 1085]),
    ("g-greedy d=3 sky=false k=8 alpha=0.3", &[25, 73, 330, 363, 492, 585, 658, 1085]),
    ("greedy d=3 sky=true k=5 alpha=0.1", &[41, 71, 308, 549, 615]),
    ("f-greedy d=3 sky=true k=5 alpha=0.1", &[41, 71, 193, 277, 549]),
    ("g-greedy d=3 sky=true k=5 alpha=0.1", &[41, 193, 211, 277, 331]),
    ("f-greedy d=3 sky=true k=5 alpha=0.3", &[41, 71, 193, 277, 549]),
    ("g-greedy d=3 sky=true k=5 alpha=0.3", &[41, 193, 211, 277, 331]),
    ("greedy d=3 sky=true k=8 alpha=0.1", &[41, 42, 61, 71, 308, 537, 549, 615]),
    ("f-greedy d=3 sky=true k=8 alpha=0.1", &[41, 71, 142, 193, 264, 407, 549, 630]),
    ("g-greedy d=3 sky=true k=8 alpha=0.1", &[3, 12, 41, 193, 211, 277, 331, 368]),
    ("f-greedy d=3 sky=true k=8 alpha=0.3", &[41, 71, 142, 193, 264, 407, 549, 630]),
    ("g-greedy d=3 sky=true k=8 alpha=0.3", &[3, 12, 41, 193, 211, 277, 331, 368]),
    ("greedy d=4 sky=false k=5 alpha=0.1", &[176, 178, 606, 691, 876]),
    ("f-greedy d=4 sky=false k=5 alpha=0.1", &[176, 544, 606, 678, 876]),
    ("g-greedy d=4 sky=false k=5 alpha=0.1", &[176, 249, 876, 1084, 1184]),
    ("f-greedy d=4 sky=false k=5 alpha=0.3", &[176, 178, 544, 606, 876]),
    ("g-greedy d=4 sky=false k=5 alpha=0.3", &[176, 249, 876, 1084, 1184]),
    ("greedy d=4 sky=false k=8 alpha=0.1", &[176, 178, 321, 440, 606, 691, 876, 1125]),
    ("f-greedy d=4 sky=false k=8 alpha=0.1", &[108, 146, 176, 178, 586, 606, 876, 1160]),
    ("g-greedy d=4 sky=false k=8 alpha=0.1", &[176, 178, 249, 544, 617, 876, 1084, 1184]),
    ("f-greedy d=4 sky=false k=8 alpha=0.3", &[176, 178, 198, 440, 586, 606, 691, 876]),
    ("g-greedy d=4 sky=false k=8 alpha=0.3", &[176, 178, 249, 544, 617, 876, 1084, 1184]),
    ("greedy d=4 sky=true k=5 alpha=0.1", &[157, 159, 523, 602, 761]),
    ("f-greedy d=4 sky=true k=5 alpha=0.1", &[157, 469, 523, 589, 761]),
    ("g-greedy d=4 sky=true k=5 alpha=0.1", &[157, 220, 469, 761, 935]),
    ("f-greedy d=4 sky=true k=5 alpha=0.3", &[157, 469, 523, 589, 761]),
    ("g-greedy d=4 sky=true k=5 alpha=0.3", &[157, 220, 469, 761, 935]),
    ("greedy d=4 sky=true k=8 alpha=0.1", &[157, 159, 282, 378, 523, 602, 761, 967]),
    ("f-greedy d=4 sky=true k=8 alpha=0.1", &[96, 132, 157, 159, 505, 523, 761, 995]),
    ("g-greedy d=4 sky=true k=8 alpha=0.1", &[157, 220, 265, 469, 533, 761, 935, 1018]),
    ("f-greedy d=4 sky=true k=8 alpha=0.3", &[157, 159, 176, 378, 505, 523, 602, 761]),
    ("g-greedy d=4 sky=true k=8 alpha=0.3", &[157, 220, 265, 469, 533, 761, 935, 1018]),
    ("greedy d=5 sky=false k=5 alpha=0.1", &[48, 59, 751, 1054, 1193]),
    ("f-greedy d=5 sky=false k=5 alpha=0.1", &[48, 107, 751, 886, 1193]),
    ("g-greedy d=5 sky=false k=5 alpha=0.1", &[48, 351, 519, 578, 751]),
    ("f-greedy d=5 sky=false k=5 alpha=0.3", &[48, 751, 886, 1054, 1193]),
    ("g-greedy d=5 sky=false k=5 alpha=0.3", &[48, 351, 519, 578, 751]),
    ("greedy d=5 sky=false k=8 alpha=0.1", &[48, 59, 383, 621, 751, 814, 1054, 1193]),
    ("f-greedy d=5 sky=false k=8 alpha=0.1", &[48, 229, 270, 751, 886, 901, 1054, 1193]),
    ("g-greedy d=5 sky=false k=8 alpha=0.1", &[48, 225, 307, 351, 519, 578, 751, 936]),
    ("f-greedy d=5 sky=false k=8 alpha=0.3", &[48, 59, 270, 751, 772, 901, 1054, 1193]),
    ("g-greedy d=5 sky=false k=8 alpha=0.3", &[48, 225, 307, 351, 519, 578, 751, 936]),
    ("greedy d=5 sky=true k=5 alpha=0.1", &[48, 59, 720, 1006, 1140]),
    ("f-greedy d=5 sky=true k=5 alpha=0.1", &[48, 107, 720, 849, 1140]),
    ("g-greedy d=5 sky=true k=5 alpha=0.1", &[48, 335, 497, 555, 896]),
    ("f-greedy d=5 sky=true k=5 alpha=0.3", &[48, 720, 849, 1006, 1140]),
    ("g-greedy d=5 sky=true k=5 alpha=0.3", &[48, 335, 497, 555, 896]),
    ("greedy d=5 sky=true k=8 alpha=0.1", &[48, 59, 367, 595, 720, 780, 1006, 1140]),
    ("f-greedy d=5 sky=true k=8 alpha=0.1", &[48, 220, 259, 720, 849, 863, 1006, 1140]),
    ("g-greedy d=5 sky=true k=8 alpha=0.1", &[48, 293, 306, 335, 497, 555, 720, 896]),
    ("f-greedy d=5 sky=true k=8 alpha=0.3", &[48, 59, 259, 720, 739, 863, 1006, 1140]),
    ("g-greedy d=5 sky=true k=8 alpha=0.3", &[48, 293, 306, 335, 497, 555, 720, 896]),
    ("greedy d=6 sky=false k=5 alpha=0.1", &[13, 734, 842, 986, 1110]),
    ("f-greedy d=6 sky=false k=5 alpha=0.1", &[13, 734, 986, 1110, 1190]),
    ("g-greedy d=6 sky=false k=5 alpha=0.1", &[13, 22, 98, 503, 965]),
    ("f-greedy d=6 sky=false k=5 alpha=0.3", &[13, 734, 986, 1110, 1190]),
    ("g-greedy d=6 sky=false k=5 alpha=0.3", &[13, 22, 98, 503, 965]),
    ("greedy d=6 sky=false k=8 alpha=0.1", &[13, 527, 612, 714, 734, 842, 986, 1110]),
    ("f-greedy d=6 sky=false k=8 alpha=0.1", &[13, 470, 714, 734, 842, 927, 986, 1110]),
    ("g-greedy d=6 sky=false k=8 alpha=0.1", &[13, 22, 98, 120, 412, 503, 923, 965]),
    ("f-greedy d=6 sky=false k=8 alpha=0.3", &[13, 612, 714, 719, 734, 842, 986, 1110]),
    ("g-greedy d=6 sky=false k=8 alpha=0.3", &[13, 22, 98, 120, 412, 503, 923, 965]),
    ("greedy d=6 sky=true k=5 alpha=0.1", &[13, 727, 832, 974, 1096]),
    ("f-greedy d=6 sky=true k=5 alpha=0.1", &[13, 727, 974, 1096, 1176]),
    ("g-greedy d=6 sky=true k=5 alpha=0.1", &[13, 22, 98, 120, 499]),
    ("f-greedy d=6 sky=true k=5 alpha=0.3", &[13, 727, 974, 1096, 1176]),
    ("g-greedy d=6 sky=true k=5 alpha=0.3", &[13, 22, 98, 120, 499]),
    ("greedy d=6 sky=true k=8 alpha=0.1", &[13, 523, 606, 707, 727, 832, 974, 1096]),
    ("f-greedy d=6 sky=true k=8 alpha=0.1", &[13, 467, 707, 727, 832, 915, 974, 1096]),
    ("g-greedy d=6 sky=true k=8 alpha=0.1", &[13, 22, 98, 120, 254, 499, 911, 953]),
    ("f-greedy d=6 sky=true k=8 alpha=0.3", &[13, 606, 707, 712, 727, 832, 974, 1096]),
    ("g-greedy d=6 sky=true k=8 alpha=0.3", &[13, 22, 98, 120, 254, 499, 911, 953]),
];

fn dataset(d: usize, skyline: bool) -> Dataset {
    let mut rng = StdRng::seed_from_u64(90 + d as u64);
    let full = anti_correlated_dataset(N, d, C, &mut rng);
    if skyline {
        full.subset(&group_skyline_indices(&full))
    } else {
        full
    }
}

fn solve(alg: &str, data: &Dataset, k: usize, alpha: f64) -> Vec<usize> {
    let (l, h) = proportional_bounds(&data.group_sizes(), k, alpha);
    let inst = FairHmsInstance::new(data.clone(), k, l, h).unwrap();
    let mut idx = by_name(alg)
        .unwrap()
        .solve(&inst, DEFAULT_SEED)
        .unwrap()
        .indices;
    idx.sort_unstable();
    idx
}

fn runs() -> Vec<(String, Vec<usize>)> {
    let mut out = Vec::new();
    for d in 3..=6 {
        for skyline in [false, true] {
            let data = dataset(d, skyline);
            for k in [5, 8] {
                let label = |alg: &str, alpha: f64| {
                    format!("{alg} d={d} sky={skyline} k={k} alpha={alpha}")
                };
                out.push((label("greedy", 0.1), solve("greedy", &data, k, 0.1)));
                for alpha in [0.1, 0.3] {
                    for alg in ["f-greedy", "g-greedy"] {
                        out.push((label(alg, alpha), solve(alg, &data, k, alpha)));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn lp_greedy_answers_match_the_recorded_indices() {
    let got = runs();
    let table: String = got
        .iter()
        .map(|(label, idx)| format!("    (\"{label}\", &{idx:?}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        GOLDEN.len(),
        "golden table out of date; actual:\n{table}"
    );
    for ((label, idx), &(want_label, want_idx)) in got.iter().zip(GOLDEN) {
        assert_eq!(label, want_label);
        assert_eq!(
            idx.as_slice(),
            want_idx,
            "{label}: indices; actual table:\n{table}"
        );
    }
}
