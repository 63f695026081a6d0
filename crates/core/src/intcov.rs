//! `IntCov`: the exact interval-cover algorithm for 2D FairHMS
//! (Algorithms 1 and 2 of the paper).
//!
//! The decision problem — "is there a feasible set with `mhr ≥ τ`?" —
//! reduces to *fair interval cover*: each point's line contributes the
//! sub-interval of `λ ∈ [0, 1]` where it stays above the `τ`-scaled upper
//! envelope, and a feasible cover of `[0, 1]` by intervals respecting the
//! group bounds answers "yes". A binary search over the candidate MHR array
//! `H` (see [`crate::candidates2d`]) finds the optimum.
//!
//! The fair-cover decision is the dynamic program of Algorithm 2: states
//! `IC[k_1, …, k_C]` (points taken per group, `k_c ≤ h_c`) hold the
//! furthest coverage reachable, with the greedy transition of Equation 1.
//! We process states by layers of total count instead of the paper's
//! explicit stack — the recurrence and visit set are identical — and keep
//! parent pointers for solution reconstruction.

use fairhms_data::Dataset;
use fairhms_geometry::envelope::Envelope;
use fairhms_geometry::line::Line;
use fairhms_geometry::EPS;
use fairhms_matroid::FairnessMatroid;

use crate::candidates2d::candidate_mhrs;
use crate::eval::mhr_exact_2d;
use crate::types::{CoreError, FairHmsInstance, Solution};

/// Exact FairHMS in 2D. Returns the optimal feasible solution together with
/// its exact MHR.
///
/// Complexity: `O(n² log n)` to build candidates, `O(log n)` decision
/// rounds, each `O(n log n + n·Π_c(1 + h_c))`.
pub fn intcov(inst: &FairHmsInstance) -> Result<Solution, CoreError> {
    let data = inst.data();
    if data.dim() != 2 {
        return Err(CoreError::Not2D { dim: data.dim() });
    }

    let lines: Vec<Line> = (0..data.len())
        .map(|i| Line::from_point(data.point(i)))
        .collect();
    let env = Envelope::upper(&lines);
    let h = candidate_mhrs(data);

    // Binary search for the largest candidate τ with a feasible fair cover.
    let mut lo = 0usize;
    let mut hi = h.len().saturating_sub(1);
    let mut best: Option<Vec<usize>> = None;
    while lo <= hi {
        let mid = (lo + hi) / 2;
        let tau = h[mid];
        match decide(data, inst.matroid(), &env, &lines, tau) {
            Some(cover) => {
                best = Some(cover);
                lo = mid + 1;
            }
            None => {
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
        }
    }

    let partial = best.unwrap_or_default();
    let sel = inst.complete_to_feasible(&partial)?;
    let mhr = mhr_exact_2d(data, &sel);
    Ok(Solution::new(sel, Some(mhr)))
}

/// The fair interval-cover decision (Algorithm 2): returns point indices
/// covering `[0, 1]` at threshold `tau` whose group counts extend to a
/// feasible selection, or `None`.
fn decide(
    data: &Dataset,
    matroid: &FairnessMatroid,
    env: &Envelope,
    lines: &[Line],
    tau: f64,
) -> Option<Vec<usize>> {
    let c = matroid.num_groups();
    let upper = matroid.upper();

    // τ-intervals per group, sorted by left end with prefix-max right ends
    // for O(log) "best interval starting within coverage" queries.
    struct GroupIntervals {
        /// `(left, right, point)` sorted by `left`.
        ivs: Vec<(f64, f64, usize)>,
        /// `prefix_best[i]` = index (into `ivs`) of the max-right interval
        /// among `ivs[0..=i]`.
        prefix_best: Vec<usize>,
    }
    let mut groups: Vec<GroupIntervals> = (0..c)
        .map(|_| GroupIntervals {
            ivs: Vec::new(),
            prefix_best: Vec::new(),
        })
        .collect();
    for (i, line) in lines.iter().enumerate() {
        if let Some((a, b)) = env.tau_interval(line, tau) {
            groups[data.group_of(i)].ivs.push((a, b, i));
        }
    }
    for g in &mut groups {
        g.ivs.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut best = 0usize;
        g.prefix_best = (0..g.ivs.len())
            .map(|i| {
                if g.ivs[i].1 > g.ivs[best].1 {
                    best = i;
                }
                best
            })
            .collect();
    }
    // Best-right interval of group g with left ≤ v, if any.
    let best_reaching = |g: &GroupIntervals, v: f64| -> Option<(f64, usize)> {
        let cnt = g.ivs.partition_point(|iv| iv.0 <= v + EPS);
        if cnt == 0 {
            return None;
        }
        let idx = g.prefix_best[cnt - 1];
        Some((g.ivs[idx].1, g.ivs[idx].2))
    };

    // Mixed-radix DP over group counts.
    let strides: Vec<usize> = {
        let mut s = vec![0usize; c];
        let mut acc = 1usize;
        for g in 0..c {
            s[g] = acc;
            acc = acc.saturating_mul(upper[g] + 1);
        }
        s
    };
    let n_states: usize = upper.iter().map(|&h| h + 1).product();
    let mut value = vec![f64::NEG_INFINITY; n_states];
    let mut parent: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX); n_states];
    value[0] = 0.0;

    // Check the zero state first: coverage 0 counts as full only if 1 ≤ EPS.
    let mut counts = vec![0usize; c];
    // Iterate states by layers of total count (predecessors always have a
    // smaller total, so each layer only reads finished layers).
    let max_total = matroid.k();
    let mut layer: Vec<usize> = vec![0]; // state indices with total = t
    for _t in 0..max_total {
        let mut next: Vec<usize> = Vec::new();
        for &s in &layer {
            let v = value[s];
            if v == f64::NEG_INFINITY {
                continue;
            }
            // decode counts
            {
                let mut rem = s;
                for g in (0..c).rev() {
                    counts[g] = rem / strides[g];
                    rem %= strides[g];
                }
            }
            for g in 0..c {
                if counts[g] >= upper[g] {
                    continue;
                }
                counts[g] += 1;
                let feasible = matroid.counts_independent(&counts);
                counts[g] -= 1;
                if !feasible {
                    continue; // Algorithm 2, lines 10–11
                }
                let succ = s + strides[g];
                let (new_v, point) = match best_reaching(&groups[g], v) {
                    // Equation 1, with coverage kept monotone: an interval
                    // inside the covered prefix "wastes" the pick.
                    Some((r, p)) => (r.max(v), p),
                    // No interval starts within coverage: the pick is
                    // wasted on an arbitrary group member (needed when
                    // lower bounds force picks from weak groups).
                    None => (v, usize::MAX),
                };
                if new_v > value[succ] + EPS {
                    value[succ] = new_v;
                    parent[succ] = (s, point);
                    if !next.contains(&succ) {
                        next.push(succ);
                    }
                    if new_v >= 1.0 - EPS {
                        return Some(reconstruct(&parent, succ));
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        layer = next;
    }
    None
}

/// Walks parent pointers back to the initial state, collecting the chosen
/// points (skipping wasted picks).
fn reconstruct(parent: &[(usize, usize)], mut state: usize) -> Vec<usize> {
    let mut out = Vec::new();
    while state != 0 {
        let (pred, point) = parent[state];
        debug_assert_ne!(pred, usize::MAX, "broken parent chain");
        if point != usize::MAX {
            out.push(point);
        }
        state = pred;
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_data::realsim::lsac_example;

    fn lsac_instance(k: usize, gender_bounds: Option<(usize, usize)>) -> FairHmsInstance {
        let mut ds = lsac_example().dataset(&["gender"]).unwrap();
        ds.normalize();
        let c = ds.num_groups();
        match gender_bounds {
            Some((l, h)) => FairHmsInstance::new(ds, k, vec![l; c], vec![h; c]).unwrap(),
            None => FairHmsInstance::unconstrained(ds, k).unwrap(),
        }
    }

    #[test]
    fn lsac_unconstrained_k2_matches_paper() {
        // Example 2.2: HMS with k = 2 returns {a4, a5}, mhr 0.9846.
        let inst = lsac_instance(2, None);
        let sol = intcov(&inst).unwrap();
        assert_eq!(sol.indices, vec![3, 4]);
        assert!(
            (sol.mhr.unwrap() - 0.9846).abs() < 5e-4,
            "mhr = {:?}",
            sol.mhr
        );
    }

    #[test]
    fn lsac_fair_k2_matches_paper() {
        // Example 2.2: FairHMS with l = h = 1 per gender returns {a5, a8},
        // mhr 0.9834.
        let inst = lsac_instance(2, Some((1, 1)));
        let sol = intcov(&inst).unwrap();
        assert_eq!(sol.indices, vec![4, 7]);
        assert!(
            (sol.mhr.unwrap() - 0.9834).abs() < 5e-4,
            "mhr = {:?}",
            sol.mhr
        );
    }

    #[test]
    fn lsac_unconstrained_k3_matches_intro() {
        // Introduction: the size-3 HMS is {a4, a5, a7} with mhr 0.9984.
        let inst = lsac_instance(3, None);
        let sol = intcov(&inst).unwrap();
        assert_eq!(sol.indices, vec![3, 4, 6]);
        assert!((sol.mhr.unwrap() - 0.9984).abs() < 5e-4);
    }

    #[test]
    fn intcov_optimal_vs_brute_force() {
        // Enumerate all feasible size-3 subsets and compare.
        let inst = lsac_instance(3, Some((1, 2)));
        let sol = intcov(&inst).unwrap();
        let ds = inst.data();
        let mut best = 0.0_f64;
        let n = ds.len();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let sel = [a, b, c];
                    if !inst.matroid().is_feasible(&sel) {
                        continue;
                    }
                    best = best.max(mhr_exact_2d(ds, &sel));
                }
            }
        }
        assert!(
            (sol.mhr.unwrap() - best).abs() < 1e-7,
            "intcov {} vs brute {best}",
            sol.mhr.unwrap()
        );
    }

    #[test]
    fn fairness_always_satisfied() {
        for k in 2..=5 {
            let inst = lsac_instance(k, Some((1, k - 1)));
            let sol = intcov(&inst).unwrap();
            assert_eq!(sol.len(), k);
            assert!(inst.matroid().is_feasible(&sol.indices));
            assert_eq!(inst.matroid().violations(&sol.indices), 0);
        }
    }

    #[test]
    fn rejects_non_2d() {
        let ds =
            fairhms_data::Dataset::ungrouped("3d", 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]).unwrap();
        let inst = FairHmsInstance::unconstrained(ds, 1).unwrap();
        assert_eq!(intcov(&inst).unwrap_err(), CoreError::Not2D { dim: 3 });
    }

    #[test]
    fn price_of_fairness_is_nonnegative() {
        let unfair = intcov(&lsac_instance(3, None)).unwrap();
        let fair = intcov(&lsac_instance(3, Some((1, 2)))).unwrap();
        assert!(unfair.mhr.unwrap() >= fair.mhr.unwrap() - 1e-9);
    }
}
