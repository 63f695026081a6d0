//! End-to-end pipeline invariants: normalization, skyline restriction, and
//! CSV round-trips compose without changing the answers.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms::core::eval::{mhr_exact_2d, mhr_exact_lp};
use fairhms::core::intcov::intcov;
use fairhms::core::types::FairHmsInstance;
use fairhms::data::gen::anti_correlated_dataset;
use fairhms::data::skyline::{group_skyline_indices, skyline_of};
use fairhms::matroid::proportional_bounds;

#[test]
fn skyline_restriction_is_lossless_for_mhr() {
    // The global skyline realizes every utility's maximum, and it is a
    // subset of the per-group union, so denominators — hence MHRs — are
    // identical on the full and restricted datasets.
    let mut rng = StdRng::seed_from_u64(11);
    let data = anti_correlated_dataset(500, 2, 3, &mut rng);
    let sky = group_skyline_indices(&data);
    let restricted = data.subset(&sky);

    // a selection expressed in both index spaces
    let local: Vec<usize> = vec![0, sky.len() / 2, sky.len() - 1];
    let global: Vec<usize> = local.iter().map(|&i| sky[i]).collect();

    let full = mhr_exact_2d(&data, &global);
    let small = mhr_exact_2d(&restricted, &local);
    assert!(
        (full - small).abs() < 1e-9,
        "restriction changed the MHR: {full} vs {small}"
    );
}

#[test]
fn global_skyline_contained_in_group_union() {
    let mut rng = StdRng::seed_from_u64(12);
    for d in [2, 4, 6] {
        let data = anti_correlated_dataset(400, d, 4, &mut rng);
        let global = skyline_of(data.points_flat(), data.dim());
        let union = group_skyline_indices(&data);
        for g in &global {
            assert!(union.binary_search(g).is_ok(), "d={d}: {g} missing");
        }
    }
}

#[test]
fn scale_invariance_of_mhr() {
    // Scaling any attribute by a positive factor must not change the MHR —
    // the invariance that justifies scale-only normalization (see the
    // `fairhms_data` crate docs).
    let mut rng = StdRng::seed_from_u64(13);
    let data = anti_correlated_dataset(60, 3, 2, &mut rng);
    let sel = vec![0, 10, 20, 30];
    let before = mhr_exact_lp(&data, &sel);

    let scales = [2.5, 0.3, 7.0];
    let scaled_points: Vec<f64> = data
        .points_flat()
        .chunks_exact(3)
        .flat_map(|p| {
            p.iter()
                .zip(&scales)
                .map(|(v, s)| v * s)
                .collect::<Vec<_>>()
        })
        .collect();
    let scaled = fairhms::data::Dataset::new(
        "scaled",
        3,
        scaled_points,
        data.groups().to_vec(),
        data.group_names().to_vec(),
    )
    .unwrap();
    let after = mhr_exact_lp(&scaled, &sel);
    assert!(
        (before - after).abs() < 1e-6,
        "scaling changed mhr: {before} vs {after}"
    );
}

#[test]
fn csv_roundtrip_preserves_solutions() {
    let mut rng = StdRng::seed_from_u64(14);
    let data = anti_correlated_dataset(120, 2, 3, &mut rng);
    let dir = std::env::temp_dir().join("fairhms_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.csv");
    fairhms::data::csv::write_dataset(&path, &data).unwrap();
    let reloaded = fairhms::data::csv::read_dataset(&path, "reloaded", 2).unwrap();
    assert_eq!(reloaded.len(), data.len());
    assert_eq!(reloaded.num_groups(), data.num_groups());

    let (l, h) = proportional_bounds(&data.group_sizes(), 4, 0.1);
    let a = intcov(&FairHmsInstance::new(data, 4, l.clone(), h.clone()).unwrap()).unwrap();
    let b = intcov(&FairHmsInstance::new(reloaded, 4, l, h).unwrap()).unwrap();
    assert_eq!(a.indices, b.indices);
    assert!((a.mhr.unwrap() - b.mhr.unwrap()).abs() < 1e-12);
}

#[test]
fn full_pipeline_anticor_6d() {
    // generate → normalize → skyline → bounds → BiGreedy → evaluate
    use fairhms::core::bigreedy::{bigreedy, BiGreedyConfig};
    let mut rng = StdRng::seed_from_u64(15);
    let data = anti_correlated_dataset(800, 6, 4, &mut rng);
    let input = std::sync::Arc::new(data.subset(&group_skyline_indices(&data)));
    let k = 12;
    let (l, h) = proportional_bounds(&input.group_sizes(), k, 0.1);
    let inst = FairHmsInstance::new(std::sync::Arc::clone(&input), k, l, h).unwrap();
    let sol = bigreedy(&inst, &BiGreedyConfig::paper_default(k, 6)).unwrap();
    assert_eq!(sol.len(), k);
    assert!(inst.matroid().is_feasible(&sol.indices));
    let exact = mhr_exact_lp(&input, &sol.indices);
    let net_est = sol.mhr.unwrap();
    assert!(
        net_est >= exact - 1e-9,
        "Lemma 4.1: net {net_est} < exact {exact}"
    );
    assert!(exact > 0.3, "suspiciously poor solution: {exact}");
}
