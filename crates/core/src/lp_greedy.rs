//! The one regret-LP greedy behind `F-Greedy`, `Greedy` (RDP-Greedy) and
//! `G-Greedy`.
//!
//! Every pick after the seed adds the candidate with the largest
//! `regret(S, p)` (lowest index on ties) that the feasibility predicate
//! accepts. The eager form solves one regret LP per candidate per pick;
//! this loop solves the same LPs only where they can change the pick,
//! using three exact facts:
//!
//! * **Upper bounds.** `regret(S, p)` never increases as `S` grows (each
//!   new row of the LP can only raise `t*`), so a value solved in an
//!   earlier round bounds the next one.
//! * **Closed form against one point.** After each pick `q`, every live
//!   bound drops to `min(bound, regret({q}, p))`
//!   ([`single_point_regret`]: O(d), no LP). Against the seed this gives
//!   every candidate a bound before the first LP.
//! * **Permanent refusals.** The predicate is monotone (the fairness
//!   matroid's group counts only grow), so a refused candidate is dropped
//!   for good.
//!
//! Each round pops candidates by (bound desc, index asc) and solves a
//! candidate's LP only while its bound is at least the best fresh value
//! minus [`MARGIN`]. The simplex's floats need not be monotone to the
//! ulp, and the margin absorbs that. A candidate left unsolved then
//! cannot reach the best fresh value, so picking the largest fresh value
//! (lowest index on ties) selects what the eager scan selects.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use fairhms_data::Dataset;
use fairhms_lp::hms::{point_regret, single_point_regret};

/// How far a fresh LP value may exceed the bound it was computed under.
/// A candidate is skipped only when its bound is below the round's best
/// fresh value by more than this.
const MARGIN: f64 = 1e-9;

/// The result of [`lazy_lp_greedy`].
pub(crate) struct LpGreedy {
    /// The selection in pick order, seed first.
    pub(crate) sel: Vec<usize>,
    /// Regret LPs solved. Only the LP-count tests read it so far.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) lps: usize,
}

/// A live candidate: its row and an upper bound on its current regret.
#[derive(Clone, Copy)]
struct Candidate {
    bound: f64,
    row: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    /// Max-heap order: larger bound first, then lower row.
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| other.row.cmp(&self.row))
    }
}

/// Extends the non-empty `seed` selection to `k` rows (or until the
/// predicate refuses every candidate), each pick maximizing
/// `regret(S, p)` over the rows that `feasible(S, p)` accepts, lowest
/// row index on ties.
pub(crate) fn lazy_lp_greedy<F>(
    data: &Dataset,
    seed: Vec<usize>,
    k: usize,
    mut feasible: F,
) -> LpGreedy
where
    F: FnMut(&[usize], usize) -> bool,
{
    let dim = data.dim();
    let mut sel = seed;
    let mut sel_flat: Vec<f64> = sel.iter().flat_map(|&q| data.point(q)).copied().collect();
    let mut live: Vec<Candidate> = (0..data.len())
        .filter(|i| !sel.contains(i))
        .map(|row| Candidate {
            bound: sel
                .iter()
                .map(|&q| single_point_regret(data.point(q), data.point(row)))
                .fold(1.0, f64::min),
            row,
        })
        .collect();
    let mut lps = 0;
    while sel.len() < k {
        let mut heap = BinaryHeap::from(live);
        let mut solved: Vec<Candidate> = Vec::new();
        let mut best: Option<Candidate> = None;
        while let Some(&top) = heap.peek() {
            if best.is_some_and(|b| top.bound < b.bound - MARGIN) {
                break;
            }
            heap.pop();
            if !feasible(&sel, top.row) {
                continue;
            }
            let fresh = Candidate {
                bound: point_regret(dim, &sel_flat, data.point(top.row)),
                row: top.row,
            };
            lps += 1;
            let wins = best.is_none_or(|b| {
                fresh.bound > b.bound || (fresh.bound == b.bound && fresh.row < b.row)
            });
            if wins {
                best = Some(fresh);
            }
            solved.push(fresh);
        }
        let Some(pick) = best else { break };
        let q = data.point(pick.row);
        sel.push(pick.row);
        sel_flat.extend_from_slice(q);
        live = heap.into_vec();
        live.extend(solved.into_iter().filter(|c| c.row != pick.row));
        for c in &mut live {
            c.bound = c.bound.min(single_point_regret(q, data.point(c.row)));
        }
    }
    LpGreedy { sel, lps }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use fairhms_data::gen::anti_correlated_dataset;
    use fairhms_data::Dataset;
    use fairhms_matroid::proportional_bounds;

    use crate::adapt::{f_greedy, f_greedy_eager, f_greedy_picks};
    use crate::baselines::rdp_greedy::{rdp_greedy, rdp_greedy_eager, rdp_greedy_picks};
    use crate::types::FairHmsInstance;

    /// `n` rows that tie and repeat: coordinates come half from the grid
    /// `{0, ¼, ½, ¾, 1}` and half uniform, about a quarter of the rows
    /// copy an earlier row, and one row is all-zero.
    fn tie_heavy(seed: u64, n: usize, d: usize, c: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let zero = rng.gen_range(0..n);
        let mut points: Vec<f64> = Vec::with_capacity(n * d);
        for i in 0..n {
            if i == zero {
                points.extend(std::iter::repeat_n(0.0, d));
            } else if i > 0 && rng.gen_bool(0.25) {
                let j = rng.gen_range(0..i);
                points.extend_from_within(j * d..(j + 1) * d);
            } else {
                for _ in 0..d {
                    let v = if rng.gen_bool(0.5) {
                        rng.gen_range(0..=4usize) as f64 / 4.0
                    } else {
                        rng.gen::<f64>()
                    };
                    points.push(v);
                }
            }
        }
        let groups = (0..n).map(|_| rng.gen_range(0..c)).collect();
        let names = (0..c).map(|g| format!("g{g}")).collect();
        Dataset::new("ties", d, points, groups, names).unwrap()
    }

    /// Bounds of three kinds: `0` none (`[0, k]`), `1` proportional with
    /// α = 0.1, `2` tight (`l = h`) with one slot for the largest group,
    /// so the matroid refuses most of its rows after one pick.
    fn bounds(data: &Dataset, k: usize, kind: usize) -> (Vec<usize>, Vec<usize>) {
        let sizes = data.group_sizes();
        match kind {
            0 => (vec![0; sizes.len()], vec![k; sizes.len()]),
            1 => proportional_bounds(&sizes, k, 0.1),
            _ => {
                let largest = (0..sizes.len()).max_by_key(|&g| sizes[g]).unwrap();
                let mut quota = vec![0; sizes.len()];
                quota[largest] = 1;
                let mut left = k - 1;
                for (g, &size) in sizes.iter().enumerate() {
                    let take = left.min(size - quota[g]);
                    if g != largest {
                        quota[g] += take;
                        left -= take;
                    }
                }
                quota[largest] += left;
                (quota.clone(), quota)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lazy_matches_eager(
            (seed, n, d, c) in (0u64..1 << 32, 2usize..=20, 2usize..=5, 1usize..=3),
            k_pick in 0usize..8,
            kind in 0usize..3,
        ) {
            let data = tie_heavy(seed, n, d, c);
            // One draw in eight takes k = n, where every row is picked.
            let k = if k_pick == 0 { n } else { k_pick.min(n) };
            prop_assert_eq!(rdp_greedy(&data, k), rdp_greedy_eager(&data, k));
            let (l, h) = bounds(&data, k, kind);
            let inst = FairHmsInstance::new(data, k, l, h);
            prop_assume!(inst.is_ok());
            let inst = inst.unwrap();
            let lazy = f_greedy(&inst).map(|s| s.indices);
            prop_assert_eq!(lazy, f_greedy_eager(&inst).map(|s| s.indices));
        }
    }

    #[test]
    fn lazy_solves_under_a_fifth_of_the_eager_lps() {
        let (n, k) = (20_000, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let data = anti_correlated_dataset(n, 4, 3, &mut rng);
        let eager = n * (k - 1);
        let greedy = rdp_greedy_picks(&data, k).unwrap();
        assert_eq!(greedy.sel.len(), k);
        assert!(
            greedy.lps * 5 < eager,
            "Greedy: {} of {eager} LPs",
            greedy.lps
        );
        let (l, h) = proportional_bounds(&data.group_sizes(), k, 0.1);
        let inst = FairHmsInstance::new(data, k, l, h).unwrap();
        let fair = f_greedy_picks(&inst);
        assert_eq!(fair.sel.len(), k);
        assert!(
            fair.lps * 5 < eager,
            "F-Greedy: {} of {eager} LPs",
            fair.lps
        );
    }
}
