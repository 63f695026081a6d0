//! Dominance and skyline computation.
//!
//! A point `p` dominates `q` when `p ≥ q` coordinate-wise with at least one
//! strict inequality. The skyline (set of non-dominated points) contains
//! the optimum of every nonnegative linear utility, so HMS algorithms can
//! restrict their search to it. FairHMS additionally needs dominated points
//! that are the best *within their group*, hence [`group_skyline_indices`]:
//! the union of per-group skylines, which the paper's experiments
//! precompute as the algorithm input (Table 2's "#skylines" column is the
//! sum of per-group skyline sizes).

use crate::dataset::Dataset;

/// Returns `true` if `p` dominates `q` (`p ≥ q` everywhere, `>` somewhere).
pub fn dominates(p: &[f64], q: &[f64]) -> bool {
    debug_assert_eq!(p.len(), q.len());
    let mut strict = false;
    for (a, b) in p.iter().zip(q) {
        if a < b {
            return false;
        }
        if a > b {
            strict = true;
        }
    }
    strict
}

/// Indices of the skyline of `points` (row-major, `dim` columns), in input
/// order. Duplicates of a skyline point are all kept (none dominates the
/// other), matching the multiset semantics FairHMS needs: two equal points
/// from different groups are distinct choices.
pub fn skyline_of(points: &[f64], dim: usize) -> Vec<usize> {
    let n = points.len().checked_div(dim).unwrap_or(0);
    if n == 0 {
        return vec![];
    }
    if dim == 2 {
        return skyline_2d(points);
    }
    // Block-nested-loop with a sort by coordinate sum: a point can only be
    // dominated by points with a larger or equal sum, so one pass over the
    // sorted order with a window of current skyline members suffices.
    let mut order: Vec<usize> = (0..n).collect();
    let sum = |i: usize| -> f64 { points[i * dim..(i + 1) * dim].iter().sum() };
    order.sort_by(|&a, &b| sum(b).total_cmp(&sum(a)));
    let mut window: Vec<usize> = Vec::new();
    for &i in &order {
        let p = &points[i * dim..(i + 1) * dim];
        if !window
            .iter()
            .any(|&j| dominates(&points[j * dim..(j + 1) * dim], p))
        {
            window.push(i);
        }
    }
    window.sort_unstable();
    window
}

/// 2D skyline by a single sort-and-sweep.
fn skyline_2d(points: &[f64]) -> Vec<usize> {
    let n = points.len() / 2;
    let mut order: Vec<usize> = (0..n).collect();
    // x descending; ties broken y descending so the sweep sees the best
    // duplicate first.
    order.sort_by(|&a, &b| {
        points[b * 2]
            .total_cmp(&points[a * 2])
            .then(points[b * 2 + 1].total_cmp(&points[a * 2 + 1]))
    });
    // Sweep x-descending in tie groups. A point is on the skyline iff it
    // has the maximal y within its x-tie group (same x, higher y dominates)
    // and that y strictly exceeds the best y seen at any larger x (larger x,
    // equal-or-higher y dominates). Duplicates of a skyline point all pass.
    let mut out = Vec::new();
    let mut best_y_strict = f64::NEG_INFINITY;
    let mut i = 0;
    while i < order.len() {
        let x = points[order[i] * 2];
        let mut j = i;
        let mut tie_max = f64::NEG_INFINITY;
        while j < order.len() && points[order[j] * 2] == x {
            tie_max = tie_max.max(points[order[j] * 2 + 1]);
            j += 1;
        }
        // `==` is not reflexive for NaN: a NaN x produces an empty tie
        // group, which would stall the sweep. Consume the row regardless
        // (its tie_max stays -inf, so it is never emitted).
        j = j.max(i + 1);
        if tie_max > best_y_strict {
            for &idx in &order[i..j] {
                if points[idx * 2 + 1] == tie_max {
                    out.push(idx);
                }
            }
            best_y_strict = tie_max;
        }
        i = j;
    }
    out.sort_unstable();
    out
}

/// Skyline of a [`Dataset`] (global, ignoring groups).
pub fn skyline_indices(data: &Dataset) -> Vec<usize> {
    skyline_of(data.points_flat(), data.dim())
}

/// Union of per-group skylines, sorted ascending — the standard FairHMS
/// preprocessing (a group's best points must stay available even when
/// globally dominated).
pub fn group_skyline_indices(data: &Dataset) -> Vec<usize> {
    let mut by_group: Vec<Vec<usize>> = vec![Vec::new(); data.num_groups()];
    for r in 0..data.len() {
        by_group[data.group_of(r)].push(r);
    }
    let mut out: Vec<usize> = by_group
        .iter()
        .flat_map(|bucket| bucket_skyline(data, bucket))
        .collect();
    out.sort_unstable();
    out
}

/// Skyline of one bucket of rows (global ids in, global ids out, bucket
/// order preserved among survivors). The per-group work unit of
/// [`group_skyline_indices`] and of the catalog's delete repair, which
/// recomputes one group's skyline from its remaining rows.
pub fn bucket_skyline(data: &Dataset, rows: &[usize]) -> Vec<usize> {
    let sub: Vec<f64> = rows
        .iter()
        .flat_map(|&r| data.point(r).iter().copied())
        .collect();
    skyline_of(&sub, data.dim())
        .into_iter()
        .map(|local| rows[local])
        .collect()
}

/// Incremental skyline insertion: given `sky` = the skyline of some row
/// set `S` (all rows of `data`, ascending), updates it in place to the
/// skyline of `S ∪ {row}`. Returns `true` when the skyline changed —
/// `row` joined (pruning any members it dominates) — and `false` when
/// `row` is dominated by a current member and `sky` is untouched.
///
/// Exact by dominance transitivity: if no *skyline* member dominates
/// `row`, no member of `S` does (its dominator's dominator chain ends on
/// the skyline); and every row of `S` dominated by a pruned member is
/// also dominated by `row` itself. Duplicates of a member join (neither
/// dominates the other), preserving the multiset semantics of
/// [`skyline_of`]. Callers maintaining *group* skylines pass the
/// single-group bucket.
pub fn skyline_insert(data: &Dataset, sky: &mut Vec<usize>, row: usize) -> bool {
    let p = data.point(row);
    if sky.iter().any(|&j| dominates(data.point(j), p)) {
        return false;
    }
    sky.retain(|&j| !dominates(p, data.point(j)));
    let pos = sky.partition_point(|&j| j < row);
    sky.insert(pos, row);
    true
}

/// Per-group skyline sizes (the addends of Table 2's "#skylines").
pub fn group_skyline_sizes(data: &Dataset) -> Vec<usize> {
    let mut sizes = vec![0usize; data.num_groups()];
    for &i in &group_skyline_indices(data) {
        sizes[data.group_of(i)] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_skyline(points: &[f64], dim: usize) -> Vec<usize> {
        let n = points.len() / dim;
        (0..n)
            .filter(|&i| {
                let p = &points[i * dim..(i + 1) * dim];
                !(0..n).any(|j| dominates(&points[j * dim..(j + 1) * dim], p))
            })
            .collect()
    }

    #[test]
    fn skyline_of_does_not_panic_on_nan() {
        // Regression: skyline_of is a public API over raw &[f64] and used
        // to panic inside partial_cmp(..).unwrap() sorts when fed NaN.
        // Datasets constructed through Dataset::new never contain NaN, but
        // a raw-slice caller may; the sort must stay total. (NaN rows sort
        // via the total order; the dominance semantics of NaN coordinates
        // are unspecified, only panic-freedom is promised.)
        for dim in [2usize, 3] {
            let mut pts = vec![0.5; 4 * dim];
            pts[dim] = f64::NAN; // second row poisoned
            let _ = skyline_of(&pts, dim); // must not panic
        }
    }

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[0.5, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 0.0], &[0.0, 1.0]));
    }

    #[test]
    fn skyline_2d_simple() {
        let pts = [1.0, 0.0, 0.0, 1.0, 0.6, 0.6, 0.5, 0.5, 0.2, 0.9];
        let s = skyline_of(&pts, 2);
        assert_eq!(s, vec![0, 1, 2, 4]);
    }

    #[test]
    fn skyline_keeps_duplicates() {
        let pts = [0.7, 0.7, 0.7, 0.7, 0.2, 0.2];
        let s = skyline_of(&pts, 2);
        assert_eq!(s, vec![0, 1]);
        // ...in any dimension
        let pts3 = [0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.1, 0.1, 0.1];
        let s3 = skyline_of(&pts3, 3);
        assert_eq!(s3, vec![0, 1]);
    }

    #[test]
    fn skyline_matches_naive_2d_and_4d() {
        let mut x = 0.8_f64;
        let mut pts2 = Vec::new();
        let mut pts4 = Vec::new();
        for _ in 0..300 {
            x = (x * 797.77).fract();
            pts2.push(x);
            for k in 0..4 {
                pts4.push(((x + k as f64) * 313.7).fract());
            }
        }
        let fast2 = skyline_of(&pts2, 2);
        let naive2 = naive_skyline(&pts2, 2);
        assert_eq!(fast2, naive2);
        let fast4 = skyline_of(&pts4, 4);
        let naive4 = naive_skyline(&pts4, 4);
        assert_eq!(fast4, naive4);
    }

    #[test]
    fn group_skyline_superset_of_global() {
        let pts = vec![
            1.0, 0.0, // g0, global skyline
            0.0, 1.0, // g0, global skyline
            0.5, 0.5, // g1, dominated globally? no — (1,0) no, (0,1) no: skyline
            0.4, 0.4, // g1, dominated by (0.5,0.5)
            0.3, 0.2, // g2, dominated, but best of its group
        ];
        let d = Dataset::new("g", 2, pts, vec![0, 0, 1, 1, 2], vec![]).unwrap();
        let global = skyline_indices(&d);
        assert_eq!(global, vec![0, 1, 2]);
        let grouped = group_skyline_indices(&d);
        assert_eq!(grouped, vec![0, 1, 2, 4]);
        assert_eq!(group_skyline_sizes(&d), vec![2, 1, 1]);
    }

    #[test]
    fn skyline_insert_matches_from_scratch_recompute() {
        // Build a single-group dataset row by row; after each insertion the
        // incrementally maintained skyline must equal the full recompute.
        let mut x = 0.43_f64;
        let mut pts = Vec::new();
        for _ in 0..120 * 3 {
            x = (x * 653.29).fract();
            // Quantized coordinates force plenty of ties and duplicates.
            pts.push((x * 8.0).floor() / 8.0);
        }
        let d = Dataset::ungrouped("inc", 3, pts).unwrap();
        let mut sky: Vec<usize> = Vec::new();
        for row in 0..d.len() {
            let before = sky.clone();
            let changed = skyline_insert(&d, &mut sky, row);
            assert_eq!(changed, sky != before, "row {row}");
            let rows: Vec<usize> = (0..=row).collect();
            assert_eq!(sky, bucket_skyline(&d, &rows), "row {row}");
        }
    }

    #[test]
    fn skyline_insert_keeps_duplicates_and_reports_dominated() {
        let d = Dataset::ungrouped("dup", 2, vec![0.7, 0.7, 0.2, 0.2, 0.7, 0.7]).unwrap();
        let mut sky = vec![0];
        assert!(
            !skyline_insert(&d, &mut sky, 1),
            "dominated row must not join"
        );
        assert_eq!(sky, vec![0]);
        assert!(skyline_insert(&d, &mut sky, 2), "exact duplicate joins");
        assert_eq!(sky, vec![0, 2]);
    }

    #[test]
    fn empty_dataset_skyline() {
        let d = Dataset::ungrouped("e", 2, vec![]).unwrap();
        assert!(skyline_indices(&d).is_empty());
        assert!(group_skyline_indices(&d).is_empty());
    }
}
