//! Every fair algorithm must return a zero-violation size-`k` set on every
//! dataset family; the unfair originals must violate on skewed data — the
//! claim behind Figure 3.

use fairhms::core::registry::{fair_algorithms, fig3_algorithms, DEFAULT_SEED};
use fairhms::core::types::{CoreError, FairHmsInstance};
use fairhms::data::realsim;
use fairhms::data::skyline::group_skyline_indices;
use fairhms::matroid::proportional_bounds;

fn instance_from(table: fairhms::data::Table, attrs: &[&str], k: usize) -> FairHmsInstance {
    let mut data = table.dataset(attrs).unwrap();
    data.normalize();
    let input = data.subset(&group_skyline_indices(&data));
    let (l, h) = proportional_bounds(&input.group_sizes(), k, 0.1);
    FairHmsInstance::new(input, k, l, h).unwrap()
}

#[test]
fn fair_algorithms_have_zero_violations_everywhere() {
    let instances = vec![
        instance_from(realsim::adult(1), &["gender"], 10),
        instance_from(realsim::compas(1), &["gender"], 12),
        instance_from(realsim::credit(1), &["job"], 10),
        instance_from(realsim::lawschs(1), &["race"], 8),
    ];
    for inst in &instances {
        for alg in fair_algorithms() {
            match alg.solve(inst, DEFAULT_SEED) {
                Ok(sol) => {
                    assert_eq!(sol.len(), inst.k(), "{} returned wrong size", alg.name);
                    assert_eq!(
                        inst.matroid().violations(&sol.indices),
                        0,
                        "{} violated fairness",
                        alg.name
                    );
                }
                // G-DMM / G-Sphere legitimately refuse quotas below d.
                Err(CoreError::ResourceLimit { .. }) => {}
                Err(e) => panic!("{} failed: {e}", alg.name),
            }
        }
    }
}

#[test]
fn unfair_algorithms_violate_on_skewed_data() {
    // The simulated Adult gender groups are heavily skewed towards the
    // advantaged group on the skyline; at least one unfair baseline must
    // produce violations (in the paper, nearly all do, on nearly all data).
    let inst = instance_from(realsim::adult(1), &["gender"], 10);
    let mut total_violations = 0usize;
    for alg in fig3_algorithms() {
        if alg.is_fair {
            continue;
        }
        if let Ok(sol) = alg.solve(&inst, DEFAULT_SEED) {
            total_violations += inst.matroid().violations(&sol.indices);
        }
    }
    assert!(
        total_violations > 0,
        "no unfair baseline violated the bounds — the Figure 3 premise broke"
    );
}

#[test]
fn bigreedy_feasible_across_group_counts() {
    use fairhms::core::bigreedy::{bigreedy, BiGreedyConfig};
    for attrs in [vec!["gender"], vec!["isRecid"], vec!["gender", "isRecid"]] {
        let inst = instance_from(realsim::compas(1), &attrs, 12);
        let sol = bigreedy(&inst, &BiGreedyConfig::paper_default(12, inst.dim())).unwrap();
        assert!(inst.matroid().is_feasible(&sol.indices), "attrs {attrs:?}");
    }
}

#[test]
fn dmm_gate_mirrors_paper_on_compas() {
    // Compas is 9-dimensional: DMM must refuse (paper Section 5.2).
    use fairhms::core::baselines::{dmm, DmmConfig};
    let mut data = realsim::compas(1).dataset(&["gender"]).unwrap();
    data.normalize();
    let input = data.subset(&group_skyline_indices(&data));
    assert!(matches!(
        dmm(&input, 12, &DmmConfig::default()).unwrap_err(),
        CoreError::ResourceLimit { .. }
    ));
}
