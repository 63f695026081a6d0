//! Property tests for the dataset substrate.

use proptest::prelude::*;

use fairhms_data::dataset::Dataset;
use fairhms_data::gen::groups_by_sum;
use fairhms_data::skyline::{dominates, group_skyline_indices, skyline_of};

fn flat_points(d: usize, max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..=1.0, d..=d * max_n).prop_map(move |mut v| {
        v.truncate(v.len() / d * d);
        v
    })
}

/// Coordinates drawn from a five-value grid: exact ties, duplicates and
/// dominators whose coordinate sum rounds to the dominated row's sum
/// (`1e-17` vanishes next to `1.0`) are all common. Up to `max_n` rows;
/// past a few dozen, `skyline_of`'s k-d tree has internal nodes.
fn grid_points(d: usize, max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    const GRID: [f64; 5] = [0.0, 1e-17, 0.25, 0.5, 1.0];
    prop::collection::vec((0usize..GRID.len()).prop_map(|k| GRID[k]), d..=d * max_n).prop_map(
        move |mut v| {
            v.truncate(v.len() / d * d);
            v
        },
    )
}

fn naive_skyline(points: &[f64], dim: usize) -> Vec<usize> {
    let n = points.len() / dim;
    (0..n)
        .filter(|&i| {
            let p = &points[i * dim..(i + 1) * dim];
            !(0..n).any(|j| dominates(&points[j * dim..(j + 1) * dim], p))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn skyline_matches_naive_2d(points in flat_points(2, 40)) {
        prop_assert_eq!(skyline_of(&points, 2), naive_skyline(&points, 2));
    }

    #[test]
    fn skyline_matches_naive_3d(points in flat_points(3, 25)) {
        prop_assert_eq!(skyline_of(&points, 3), naive_skyline(&points, 3));
    }

    #[test]
    fn skyline_matches_naive_5d(points in flat_points(5, 15)) {
        prop_assert_eq!(skyline_of(&points, 5), naive_skyline(&points, 5));
    }

    #[test]
    fn skyline_matches_naive_on_tie_heavy_grids(
        (d, points) in (3usize..=5).prop_flat_map(|d| (Just(d), grid_points(d, 150)))
    ) {
        prop_assert_eq!(skyline_of(&points, d), naive_skyline(&points, d));
    }

    #[test]
    fn normalize_is_idempotent(points in flat_points(3, 20)) {
        if points.is_empty() { return Ok(()); }
        let mut d1 = Dataset::ungrouped("a", 3, points).unwrap();
        d1.normalize();
        let once = d1.points_flat().to_vec();
        d1.normalize();
        for (a, b) in once.iter().zip(d1.points_flat()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn normalize_preserves_dominance(points in flat_points(3, 20)) {
        if points.len() < 6 { return Ok(()); }
        let raw = Dataset::ungrouped("raw", 3, points.clone()).unwrap();
        let mut norm = raw.clone();
        norm.normalize();
        prop_assert_eq!(skyline_of(raw.points_flat(), raw.dim()), skyline_of(norm.points_flat(), norm.dim()));
    }

    #[test]
    fn group_skyline_union_superset_of_global(points in flat_points(4, 20), c in 1usize..=4) {
        if points.is_empty() { return Ok(()); }
        let n = points.len() / 4;
        let groups: Vec<usize> = (0..n).map(|i| i % c).collect();
        let ds = Dataset::new("g", 4, points, groups, (0..c).map(|g| format!("g{g}")).collect()).unwrap();
        let global = skyline_of(ds.points_flat(), ds.dim());
        let union = group_skyline_indices(&ds);
        for g in &global {
            prop_assert!(union.binary_search(g).is_ok());
        }
    }

    #[test]
    fn groups_by_sum_are_balanced_and_ordered(points in flat_points(2, 50), c in 1usize..=5) {
        if points.is_empty() { return Ok(()); }
        let n = points.len() / 2;
        let groups = groups_by_sum(&points, 2, c);
        prop_assert_eq!(groups.len(), n);
        // sizes differ by at most 1 (quantile split)
        let mut sizes = vec![0usize; c];
        for &g in &groups { sizes[g] += 1; }
        let used: Vec<usize> = sizes.iter().copied().filter(|&s| s > 0).collect();
        if n >= c {
            let min = used.iter().min().copied().unwrap_or(0);
            let max = used.iter().max().copied().unwrap_or(0);
            prop_assert!(max - min <= 1, "sizes {:?}", sizes);
        }
        // group index is monotone in attribute sum
        let sum = |i: usize| points[2 * i] + points[2 * i + 1];
        for i in 0..n {
            for j in 0..n {
                if sum(i) < sum(j) {
                    prop_assert!(groups[i] <= groups[j]);
                }
            }
        }
    }

    #[test]
    fn subset_roundtrip(points in flat_points(2, 30)) {
        if points.len() < 4 { return Ok(()); }
        let ds = Dataset::ungrouped("s", 2, points).unwrap();
        let rows: Vec<usize> = (0..ds.len()).step_by(2).collect();
        let sub = ds.subset(&rows);
        prop_assert_eq!(sub.len(), rows.len());
        for (local, &global) in rows.iter().enumerate() {
            prop_assert_eq!(sub.point(local), ds.point(global));
        }
    }
}
