//! Golden bit-identity pin for `BiGreedy`.
//!
//! Every τ-probe optimisation (uncapped-utility lists, batched heap fills,
//! cross-probe bound seeding) must leave each answer unchanged to the bit.
//! The expectations below were recorded from the plain lazy greedy over
//! the branchy `gain` loop, before any of those optimisations; a change
//! that moves a single index, `mhr` bit or achieved-τ bit fails here.
//!
//! Instances: generated anti-correlated data (n = 1 500, d = 4, C = 3,
//! normalized) in both full-table and group-skyline form, k = 6,
//! α ∈ {0.1, 0.2} and three dataset/net seeds in the default
//! (Feasible, Binary, lazy) configuration, plus Bicriteria mode and the
//! Linear τ sweep on the first seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms::core::bigreedy::{
    bigreedy_on_net, BiGreedyConfig, BiGreedyMode, SampledNet, TauSearch,
};
use fairhms::core::types::FairHmsInstance;
use fairhms::data::gen::anti_correlated_dataset;
use fairhms::data::skyline::group_skyline_indices;
use fairhms::matroid::proportional_bounds;

const N: usize = 1_500;
const D: usize = 4;
const C: usize = 3;
const K: usize = 6;

/// `(label, indices, mhr bits, τ bits)` per configuration.
type Golden = (&'static str, &'static [usize], u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("feasible seed=71 sky=false alpha=0.1", &[26, 201, 531, 1236, 1332, 1427], 0x3feab5399e043f99, 0x3feab456342faea9),
    ("feasible seed=71 sky=false alpha=0.2", &[26, 201, 531, 1236, 1332, 1427], 0x3feab5399e043f99, 0x3feab456342faea9),
    ("feasible seed=71 sky=true alpha=0.1", &[46, 113, 423, 844, 1071, 1153], 0x3fea4d356b13aba2, 0x3fea6ff92e8b5d8e),
    ("feasible seed=71 sky=true alpha=0.2", &[46, 113, 423, 844, 1071, 1153], 0x3fea4d356b13aba2, 0x3fea6ff92e8b5d8e),
    ("feasible seed=72 sky=false alpha=0.1", &[412, 453, 687, 980, 1008, 1185], 0x3feb895a882bdc41, 0x3feb3f245e18e1a4),
    ("feasible seed=72 sky=false alpha=0.2", &[412, 453, 687, 980, 1008, 1185], 0x3feb895a882bdc41, 0x3feb3f245e18e1a4),
    ("feasible seed=72 sky=true alpha=0.1", &[30, 41, 332, 822, 914, 1106], 0x3fea89b5251da0e5, 0x3feab456342faea9),
    ("feasible seed=72 sky=true alpha=0.2", &[30, 41, 332, 822, 914, 1106], 0x3fea89b5251da0e5, 0x3feab456342faea9),
    ("feasible seed=73 sky=false alpha=0.1", &[456, 497, 673, 917, 1147, 1497], 0x3fea65149e236a88, 0x3fea2c4b2b84da0f),
    ("feasible seed=73 sky=false alpha=0.2", &[456, 497, 673, 917, 1147, 1497], 0x3fea65149e236a88, 0x3fea2c4b2b84da0f),
    ("feasible seed=73 sky=true alpha=0.1", &[25, 331, 370, 548, 651, 1043], 0x3fea4e8f9da29744, 0x3fea2c4b2b84da0f),
    ("feasible seed=73 sky=true alpha=0.2", &[25, 331, 370, 548, 651, 1043], 0x3fea4e8f9da29744, 0x3fea2c4b2b84da0f),
    ("bicriteria seed=71 sky=false alpha=0.1", &[57, 70, 143, 186, 198, 261, 379, 439, 447, 529, 531, 564, 620, 626, 739, 872, 885, 1112, 1149, 1236, 1332, 1427, 1467, 1494], 0x3fedb52b9e6d57c1, 0x3fedd37ab55fda2f),
    ("linear seed=71 sky=false alpha=0.1", &[26, 143, 531, 1236, 1332, 1427], 0x3feab5399e043f99, 0x3feab456342faea9),
    ("bicriteria seed=71 sky=true alpha=0.1", &[96, 158, 223, 248, 354, 421, 423, 844, 986, 991, 1070, 1153], 0x3feab5399e043f99, 0x3feaf96400ff0858),
    ("linear seed=71 sky=true alpha=0.1", &[354, 491, 572, 582, 986, 1070], 0x3feab5399e043f99, 0x3fea6ff92e8b5d8e),
];

fn solve(seed: u64, skyline: bool, alpha: f64, cfg: &BiGreedyConfig) -> (Vec<usize>, u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let full = anti_correlated_dataset(N, D, C, &mut rng);
    let data = if skyline {
        full.subset(&group_skyline_indices(&full))
    } else {
        full
    };
    let (l, h) = proportional_bounds(&data.group_sizes(), K, alpha);
    let inst = FairHmsInstance::new(data, K, l, h).unwrap();
    let net = SampledNet::generate(D, cfg.resolve_m(D), cfg.seed);
    let (sol, tau) = bigreedy_on_net(&inst, &net.vectors, cfg).unwrap();
    (sol.indices, sol.mhr.unwrap().to_bits(), tau.to_bits())
}

fn runs() -> Vec<(String, Vec<usize>, u64, u64)> {
    let mut out = Vec::new();
    let mut run = |label: String, seed: u64, skyline: bool, alpha: f64, cfg: BiGreedyConfig| {
        let (idx, mhr, tau) = solve(seed, skyline, alpha, &BiGreedyConfig { seed, ..cfg });
        out.push((label, idx, mhr, tau));
    };
    for seed in [71u64, 72, 73] {
        for skyline in [false, true] {
            for alpha in [0.1, 0.2] {
                let label = format!("feasible seed={seed} sky={skyline} alpha={alpha}");
                run(
                    label,
                    seed,
                    skyline,
                    alpha,
                    BiGreedyConfig::paper_default(K, D),
                );
            }
        }
    }
    for skyline in [false, true] {
        let bicriteria = BiGreedyConfig {
            mode: BiGreedyMode::Bicriteria,
            ..BiGreedyConfig::paper_default(K, D)
        };
        run(
            format!("bicriteria seed=71 sky={skyline} alpha=0.1"),
            71,
            skyline,
            0.1,
            bicriteria,
        );
        let linear = BiGreedyConfig {
            tau_search: TauSearch::Linear,
            ..BiGreedyConfig::paper_default(K, D)
        };
        run(
            format!("linear seed=71 sky={skyline} alpha=0.1"),
            71,
            skyline,
            0.1,
            linear,
        );
    }
    out
}

#[test]
fn bigreedy_answers_match_the_recorded_bits() {
    let got = runs();
    let table: String = got
        .iter()
        .map(|(label, idx, mhr, tau)| {
            format!("    (\"{label}\", &{idx:?}, {mhr:#018x}, {tau:#018x}),\n")
        })
        .collect();
    assert_eq!(
        got.len(),
        GOLDEN.len(),
        "golden table out of date; actual:\n{table}"
    );
    for ((label, idx, mhr, tau), &(want_label, want_idx, want_mhr, want_tau)) in
        got.iter().zip(GOLDEN)
    {
        assert_eq!(label, want_label);
        assert_eq!(
            idx.as_slice(),
            want_idx,
            "{label}: indices; actual table:\n{table}"
        );
        assert_eq!(*mhr, want_mhr, "{label}: mhr bits; actual table:\n{table}");
        assert_eq!(*tau, want_tau, "{label}: τ bits; actual table:\n{table}");
    }
}
