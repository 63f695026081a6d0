//! Monotone submodular maximization under matroid constraints.
//!
//! `BiGreedy` (paper Section 4) reduces FairHMS to maximizing the truncated
//! MHR — a monotone submodular function — under the fairness matroid. This
//! crate provides the generic machinery:
//!
//! * [`IncrementalObjective`] — an objective with `O(1)`-ish incremental
//!   state, so greedy loops never recompute values from scratch;
//! * [`greedy_matroid`] — the classic Fisher–Nemhauser–Wolsey greedy, a
//!   `1/2`-approximation for monotone submodular maximization under a
//!   matroid;
//! * [`lazy_greedy_matroid`] — the same algorithm with lazy (stale-gain)
//!   evaluation, valid because submodularity makes marginal gains
//!   monotonically non-increasing;
//! * [`lazy_greedy_matroid_seeded`] — the lazy greedy started from caller
//!   supplied upper bounds instead of a full evaluation pass.
//!
//! All variants *fill a base*: they keep adding feasible elements while
//! any exist, even at zero marginal gain, matching Algorithm 3's inner
//! loop (`while ∃p: S_i ∪ {p} ∈ I`). The lazy greedy gets there with two
//! shortcuts that cannot change a pick: it stops as soon as the set
//! reaches [`Matroid::rank_upper_bound`] elements (no independent set is
//! larger, so nothing left can extend it), and once
//! [`IncrementalObjective::saturated`] reports every remaining gain to be
//! exactly `+0.0`, it takes the remaining candidates in ascending index
//! order wherever they extend the set — the eager greedy's tie-break
//! among equal gains — without evaluating another gain.
//!
//! # Batched gains and seeded bounds
//!
//! [`IncrementalObjective::gains`] evaluates several candidates at one
//! state; its default loops over [`IncrementalObjective::gain`], and an
//! override may interleave the candidates (independent accumulators) as
//! long as every result is bitwise-equal to `gain`. The lazy greedy uses
//! it for the initial heap fill, for one pass over every feasible
//! candidate before the second pick, and to re-evaluate up to four stale
//! heap tops at a time.
//!
//! The lazy greedy is exact with *any* upper bounds in its heap: it pops
//! the top entry and re-evaluates it if stale; a fresh top's gain is at
//! least every other entry's key, hence every other candidate's true
//! gain, and an equal key with a smaller index would have been popped
//! first — so the pick is the eager greedy's argmax with its tie-break.
//! Heap keys only need to dominate the current gains, which is why
//! (a) re-evaluating a stale entry early is harmless (gains only shrink
//! as the set grows) and (b) a run may start from seeded bounds, e.g. the
//! empty-set gains of an objective that dominates this one pointwise.
//! [`lazy_greedy_matroid_seeded`] starts such entries stale and hands
//! back bounds tightened by every gain it evaluated before its first
//! pick, so a sequence of ever-smaller objectives can chain them.

pub mod streaming;

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use fairhms_matroid::Matroid;

/// A set objective with incremental evaluation state.
///
/// Implementations must be monotone (`gain ≥ 0`); the lazy greedy
/// additionally requires submodularity (gains non-increasing as the state
/// grows) for correctness.
pub trait IncrementalObjective {
    /// Evaluation state for a growing set.
    type State: Clone;

    /// State of the empty set.
    fn empty_state(&self) -> Self::State;

    /// Objective value at `state`.
    fn value(&self, state: &Self::State) -> f64;

    /// Marginal gain of adding `item` to the set represented by `state`.
    fn gain(&self, state: &Self::State, item: usize) -> f64;

    /// Marginal gains of every item in `items` at `state`, written to the
    /// matching slot of `out` (`out.len() == items.len()`).
    ///
    /// Overrides may batch the work (e.g. interleave several candidates)
    /// but must return exactly what [`IncrementalObjective::gain`] would,
    /// bit for bit: the greedy results depend on it.
    fn gains(&self, state: &Self::State, items: &[usize], out: &mut [f64]) {
        assert_eq!(items.len(), out.len(), "one output slot per item");
        for (o, &item) in out.iter_mut().zip(items) {
            *o = self.gain(state, item);
        }
    }

    /// Adds `item` to `state`.
    fn add(&self, state: &mut Self::State, item: usize);

    /// Whether every item's gain at `state`, and at every state grown
    /// from it, is exactly `+0.0`. The lazy greedy then stops evaluating
    /// gains and fills the base in ascending index order, so `true` must
    /// be exact; the default, `false`, is always correct.
    fn saturated(&self, _state: &Self::State) -> bool {
        false
    }
}

/// Outcome of a greedy run.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    /// Selected items in pick order.
    pub items: Vec<usize>,
    /// Objective value of the selection.
    pub value: f64,
}

/// Greedy maximization of `objective` over `candidates` under `matroid`.
///
/// At every step the feasible candidate with the largest marginal gain is
/// added (ties to the smaller index); the loop continues while any feasible
/// extension exists. Already-selected candidates are skipped. Runs in
/// `O(r · |candidates| · gain)` where `r` is the matroid rank.
///
/// ```
/// use fairhms_matroid::FairnessMatroid;
/// use fairhms_submodular::{greedy_matroid, IncrementalObjective};
///
/// /// Weighted sum of distinct picks — modular, hence submodular.
/// struct Weights(Vec<f64>);
/// impl IncrementalObjective for Weights {
///     type State = f64;
///     fn empty_state(&self) -> f64 { 0.0 }
///     fn value(&self, s: &f64) -> f64 { *s }
///     fn gain(&self, _s: &f64, item: usize) -> f64 { self.0[item] }
///     fn add(&self, s: &mut f64, item: usize) { *s += self.0[item]; }
/// }
///
/// let objective = Weights(vec![0.3, 0.9, 0.5]);
/// // One group with l = 0, h = k = 2: at most two picks.
/// let at_most_two = FairnessMatroid::new(vec![0; 3], vec![0], vec![2], 2).unwrap();
/// let result = greedy_matroid(&objective, &at_most_two, &[0, 1, 2]);
/// assert_eq!(result.items, vec![1, 2]); // two largest weights
/// assert_eq!(result.value, 1.4);
/// ```
pub fn greedy_matroid<O: IncrementalObjective, M: Matroid>(
    objective: &O,
    matroid: &M,
    candidates: &[usize],
) -> GreedyResult {
    let mut state = objective.empty_state();
    let mut items: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = candidates.to_vec();
    loop {
        let mut best: Option<(usize, usize, f64)> = None; // (pos, item, gain)
        for (pos, &cand) in remaining.iter().enumerate() {
            if !matroid.can_extend(&items, cand) {
                continue;
            }
            let g = objective.gain(&state, cand);
            // argmax with ties broken towards the smallest item index
            let better = match best {
                None => true,
                Some((_, bi, bg)) => g > bg || (g == bg && cand < bi),
            };
            if better {
                best = Some((pos, cand, g));
            }
        }
        let Some((pos, cand, _)) = best else { break };
        objective.add(&mut state, cand);
        items.push(cand);
        remaining.swap_remove(pos);
    }
    let value = objective.value(&state);
    GreedyResult { items, value }
}

#[derive(Clone, Copy, PartialEq)]
struct HeapEntry {
    gain: f64,
    item: usize,
    /// Position of `item` in the candidate list (its slot in the bounds).
    pos: u32,
    /// Number of picks when `gain` was computed; [`STALE`] for a seeded
    /// upper bound that was never evaluated in this run.
    stamp: u32,
}

/// Stamp of an entry that is stale at every step, including the first.
const STALE: u32 = u32::MAX;

/// Most stale entries [`lazy_greedy_matroid_seeded`] re-evaluates in one
/// [`IncrementalObjective::gains`] call.
const REFRESH_BATCH: usize = 4;

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp keeps the heap's Ord contract total even if a NaN
        // gain ever slips in (partial_cmp + unwrap_or silently broke
        // transitivity instead).
        self.gain
            .total_cmp(&other.gain)
            // prefer smaller item index on ties, like the eager greedy
            .then_with(|| other.item.cmp(&self.item))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy-evaluation variant of [`greedy_matroid`].
///
/// Marginal gains are kept in a max-heap and only re-evaluated when stale;
/// submodularity guarantees a re-evaluated gain can only shrink, so the
/// first up-to-date top of the heap is the true argmax. Behaviour matches
/// the eager greedy exactly (same tie-breaking) for submodular objectives.
pub fn lazy_greedy_matroid<O: IncrementalObjective, M: Matroid>(
    objective: &O,
    matroid: &M,
    candidates: &[usize],
) -> GreedyResult {
    lazy_greedy_matroid_seeded(objective, matroid, candidates, &mut Vec::new())
}

/// [`lazy_greedy_matroid`] with initial upper bounds on the empty-set
/// gains, aligned with `candidates`.
///
/// If `bounds` is empty on entry, the heap is filled with the exact gains
/// from one [`IncrementalObjective::gains`] call and `bounds` receives
/// them. Otherwise it must hold one value per candidate, each `≥` that
/// candidate's gain on the empty set; those entries start stale, so each
/// is evaluated only when it reaches the top of the heap. The lazy
/// argument needs nothing more than upper bounds (a fresh top beats every
/// other entry's bound, hence its true gain, with ties going to the
/// smaller index), so the result is identical to the unseeded run.
///
/// On return `bounds` still holds an upper bound on every candidate's
/// empty-set gain: gains evaluated before the first pick replace their
/// bounds. A later run whose empty-set gains are dominated by this one's
/// can be seeded with it.
///
/// After the first pick every key is still an empty-set value, so the
/// second pick starts with one [`IncrementalObjective::gains`] call over
/// every candidate left that can extend the set, in candidate order, and
/// re-heapifies; refused candidates are dropped unevaluated. This pass
/// is skipped when the set is already at rank or saturated.
///
/// The run ends as soon as the set has [`Matroid::rank_upper_bound`]
/// elements, without popping the rest of the heap. Once the objective
/// reports the state [`IncrementalObjective::saturated`], every remaining
/// gain ties at `+0.0`, where the eager greedy repeatedly takes the
/// smallest feasible index; the run does the same by scanning the
/// remaining candidates in ascending index order (a candidate that cannot
/// extend the set now never can later), with no further gain evaluation.
pub fn lazy_greedy_matroid_seeded<O: IncrementalObjective, M: Matroid>(
    objective: &O,
    matroid: &M,
    candidates: &[usize],
    bounds: &mut Vec<f64>,
) -> GreedyResult {
    assert!(candidates.len() < STALE as usize, "too many candidates");
    let rank = matroid.rank_upper_bound();
    let mut state = objective.empty_state();
    let mut items: Vec<usize> = Vec::new();
    let mut stamp = 0u32; // incremented on every add; entries older are stale
    let first_stamp = if bounds.is_empty() {
        bounds.resize(candidates.len(), 0.0);
        if !objective.saturated(&state) {
            objective.gains(&state, candidates, bounds); // else all +0.0
        }
        stamp
    } else {
        assert_eq!(bounds.len(), candidates.len(), "one bound per candidate");
        STALE
    };
    let mut heap: BinaryHeap<HeapEntry> = candidates
        .iter()
        .zip(bounds.iter())
        .enumerate()
        .map(|(pos, (&item, &gain))| HeapEntry {
            gain,
            item,
            pos: pos as u32,
            stamp: first_stamp,
        })
        .collect();
    loop {
        if items.len() >= rank {
            break; // a base: nothing left can extend it
        }
        if objective.saturated(&state) {
            let mut rest: Vec<usize> = heap.into_iter().map(|e| e.item).collect();
            rest.sort_unstable();
            for item in rest {
                if items.len() >= rank {
                    break;
                }
                if matroid.can_extend(&items, item) {
                    objective.add(&mut state, item);
                    items.push(item);
                }
            }
            break;
        }
        if items.len() == 1 {
            // Every key is still an empty-set value, which the first pick
            // usually cuts far below: refresh all feasible entries with one
            // `gains` call in candidate order (the score rows then stream
            // in sequence) and re-heapify. Early refreshes keep every key an
            // upper bound, and `bounds` is written only before the first
            // pick, so neither the picks nor the bounds change.
            let mut entries = std::mem::take(&mut heap).into_vec();
            // Marks by position put the entries back in candidate order
            // without a sort.
            let mut live = vec![false; candidates.len()];
            for e in &entries {
                live[e.pos as usize] = true;
            }
            entries.clear();
            let mut ids = Vec::with_capacity(entries.capacity());
            for (pos, (&item, live)) in candidates.iter().zip(live).enumerate() {
                if live && matroid.can_extend(&items, item) {
                    ids.push(item);
                    entries.push(HeapEntry {
                        gain: 0.0,
                        item,
                        pos: pos as u32,
                        stamp,
                    });
                }
            }
            let mut gains = vec![0.0; ids.len()];
            objective.gains(&state, &ids, &mut gains);
            for (e, gain) in entries.iter_mut().zip(gains) {
                e.gain = gain;
            }
            heap = BinaryHeap::from(entries);
        }
        let mut chosen: Option<usize> = None;
        while let Some(top) = heap.pop() {
            if !matroid.can_extend(&items, top.item) {
                // Growing S only shrinks the feasible extension set in a
                // matroid, so an infeasible candidate never becomes feasible
                // again — drop it permanently.
                continue;
            }
            if top.stamp == stamp {
                chosen = Some(top.item);
                break;
            }
            // Stale: re-evaluate and re-queue, together with up to three
            // more stale feasible entries from the top of the heap, so one
            // `gains` call can interleave their evaluation. Refreshing an
            // entry early is harmless: its gain can only shrink later, so
            // it stays an upper bound. Refreshed entries compete on heap
            // order (gain, then smaller index), which reproduces the eager
            // greedy's tie-breaking exactly.
            let mut stale = [top; REFRESH_BATCH];
            let mut len = 1;
            while len < REFRESH_BATCH {
                let Some(next) = heap.peek_mut().filter(|e| e.stamp != stamp) else {
                    break;
                };
                let next = PeekMut::pop(next);
                if matroid.can_extend(&items, next.item) {
                    stale[len] = next;
                    len += 1;
                }
            }
            let mut ids = [0usize; REFRESH_BATCH];
            for (id, e) in ids.iter_mut().zip(&stale[..len]) {
                *id = e.item;
            }
            let mut gains = [0.0; REFRESH_BATCH];
            objective.gains(&state, &ids[..len], &mut gains[..len]);
            for (e, &gain) in stale[..len].iter().zip(&gains) {
                if items.is_empty() {
                    bounds[e.pos as usize] = gain; // exact empty-set gain
                }
                heap.push(HeapEntry { gain, stamp, ..*e });
            }
        }
        let Some(item) = chosen else { break };
        objective.add(&mut state, item);
        items.push(item);
        stamp += 1;
    }
    let value = objective.value(&state);
    GreedyResult { items, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_matroid::FairnessMatroid;
    use std::cell::{Cell, RefCell};

    /// `U_{k,n}`: the fairness matroid with one group, `l = 0` and `h = k`.
    fn uniform(n: usize, k: usize) -> FairnessMatroid {
        FairnessMatroid::new(vec![0; n], vec![0], vec![k], k).unwrap()
    }

    /// Weighted coverage: ground set of items, each covering a set of
    /// elements with weights; value = total weight covered.
    struct Coverage {
        covers: Vec<Vec<usize>>,
        weights: Vec<f64>,
    }

    impl IncrementalObjective for Coverage {
        type State = Vec<bool>;
        fn empty_state(&self) -> Vec<bool> {
            vec![false; self.weights.len()]
        }
        fn value(&self, state: &Vec<bool>) -> f64 {
            state
                .iter()
                .zip(&self.weights)
                .filter(|(c, _)| **c)
                .map(|(_, w)| w)
                .sum()
        }
        fn gain(&self, state: &Vec<bool>, item: usize) -> f64 {
            // Folded from +0.0, so a gain with nothing left is +0.0.
            self.covers[item]
                .iter()
                .filter(|&&e| !state[e])
                .fold(0.0, |g, &e| g + self.weights[e])
        }
        fn add(&self, state: &mut Vec<bool>, item: usize) {
            for &e in &self.covers[item] {
                state[e] = true;
            }
        }
        fn saturated(&self, state: &Vec<bool>) -> bool {
            state
                .iter()
                .zip(&self.weights)
                .all(|(&c, &w)| c || w == 0.0)
        }
    }

    /// Counts the `can_extend` calls made once the set is a base.
    struct CountingMatroid<'a> {
        inner: &'a FairnessMatroid,
        at_rank: Cell<usize>,
    }

    impl Matroid for CountingMatroid<'_> {
        fn ground_size(&self) -> usize {
            self.inner.ground_size()
        }
        fn is_independent(&self, items: &[usize]) -> bool {
            self.inner.is_independent(items)
        }
        fn can_extend(&self, items: &[usize], new_item: usize) -> bool {
            if items.len() >= self.inner.rank_upper_bound() {
                self.at_rank.set(self.at_rank.get() + 1);
            }
            self.inner.can_extend(items, new_item)
        }
        fn rank_upper_bound(&self) -> usize {
            self.inner.rank_upper_bound()
        }
    }

    /// Records every gain evaluation a run makes, with the number of
    /// picks before it, and counts those made at saturated states.
    struct CountingObjective<'a> {
        inner: &'a Coverage,
        saturated_gains: Cell<usize>,
        /// Number of `add` calls so far: only the run under test adds.
        picks: Cell<usize>,
        /// `(picks before the call, items, batched)` per `gain`/`gains`.
        calls: RefCell<Vec<(usize, Vec<usize>, bool)>>,
    }

    impl<'a> CountingObjective<'a> {
        fn new(inner: &'a Coverage) -> Self {
            Self {
                inner,
                saturated_gains: Cell::new(0),
                picks: Cell::new(0),
                calls: RefCell::new(Vec::new()),
            }
        }

        fn record(&self, state: &Vec<bool>, items: &[usize], batched: bool) {
            if self.inner.saturated(state) {
                self.saturated_gains
                    .set(self.saturated_gains.get() + items.len());
            }
            let call = (self.picks.get(), items.to_vec(), batched);
            self.calls.borrow_mut().push(call);
        }
    }

    impl IncrementalObjective for CountingObjective<'_> {
        type State = Vec<bool>;
        fn empty_state(&self) -> Vec<bool> {
            self.inner.empty_state()
        }
        fn value(&self, state: &Vec<bool>) -> f64 {
            self.inner.value(state)
        }
        fn gain(&self, state: &Vec<bool>, item: usize) -> f64 {
            self.record(state, &[item], false);
            self.inner.gain(state, item)
        }
        fn gains(&self, state: &Vec<bool>, items: &[usize], out: &mut [f64]) {
            self.record(state, items, true);
            self.inner.gains(state, items, out);
        }
        fn add(&self, state: &mut Vec<bool>, item: usize) {
            self.picks.set(self.picks.get() + 1);
            self.inner.add(state, item);
        }
        fn saturated(&self, state: &Vec<bool>) -> bool {
            self.inner.saturated(state)
        }
    }

    fn example_coverage() -> Coverage {
        Coverage {
            covers: vec![
                vec![0, 1, 2], // item 0
                vec![2, 3],    // item 1
                vec![3, 4, 5], // item 2
                vec![0, 5],    // item 3
                vec![1],       // item 4
            ],
            weights: vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        }
    }

    #[test]
    fn greedy_picks_best_coverage() {
        let cov = example_coverage();
        let m = uniform(5, 2);
        let r = greedy_matroid(&cov, &m, &[0, 1, 2, 3, 4]);
        assert_eq!(r.items, vec![0, 2]);
        assert_eq!(r.value, 6.0);
    }

    #[test]
    fn greedy_fills_base_even_at_zero_gain() {
        let cov = Coverage {
            covers: vec![vec![0], vec![0], vec![0]],
            weights: vec![1.0],
        };
        let m = uniform(3, 2);
        let r = greedy_matroid(&cov, &m, &[0, 1, 2]);
        assert_eq!(r.items.len(), 2, "base should be filled");
        assert_eq!(r.value, 1.0);
    }

    #[test]
    fn greedy_respects_fairness_matroid() {
        let cov = example_coverage();
        // items 0,1 in group 0; items 2,3,4 in group 1; one from each.
        let m = FairnessMatroid::new(vec![0, 0, 1, 1, 1], vec![1, 1], vec![1, 1], 2).unwrap();
        let r = greedy_matroid(&cov, &m, &[0, 1, 2, 3, 4]);
        assert_eq!(r.items.len(), 2);
        assert!(m.is_feasible(&r.items));
        assert_eq!(r.items, vec![0, 2]);
    }

    /// Lazy (unseeded and seeded) equals eager bit for bit on random
    /// coverage instances, and its work is exactly what the shortcuts
    /// allow: no `can_extend` call on a full base, no gain evaluated at a
    /// saturated state or for a candidate the matroid refuses, one batched
    /// pass over exactly the feasible candidates before the second pick
    /// (none at rank or from a saturated state), and `bounds` changed only
    /// by gains evaluated before the first pick.
    #[test]
    fn lazy_matches_eager_on_random_instances() {
        let mut seed = 777u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let (mut early_saturations, mut full_bases, mut runs) = (0, 0, 0);
        let (mut passes, mut refused_at_pass, mut rank_one, mut saturated_first) = (0, 0, 0, 0);
        let mut single_slot_groups = 0;
        for trial in 0..400 {
            let n_items = 6 + rnd() % 10;
            // Few elements make the coverage saturate before k picks.
            let n_elems = 1 + rnd() % 8;
            let covers: Vec<Vec<usize>> = (0..n_items)
                .map(|_| (0..1 + rnd() % 4).map(|_| rnd() % n_elems).collect())
                .collect();
            // Every fifth instance has all-zero weights; the rest mix zeros
            // with positive weights.
            let weights: Vec<f64> = (0..n_elems)
                .map(|_| {
                    if trial % 5 == 0 {
                        0.0
                    } else {
                        (rnd() % 4) as f64
                    }
                })
                .collect();
            let cov = Coverage { covers, weights };
            let c = 1 + rnd() % 3;
            let groups: Vec<usize> = (0..n_items).map(|_| rnd() % c).collect();
            let lower: Vec<usize> = (0..c).map(|_| rnd() % 2).collect();
            // Some groups get h_c = 1: the first pick from such a group
            // makes the second-pick pass drop the rest of it unevaluated.
            let upper: Vec<usize> = lower.iter().map(|&l| l + rnd() % 3).collect();
            let has_single_slot = upper.contains(&1);
            let Ok(m) = FairnessMatroid::new(groups, lower, upper, 1 + rnd() % 5) else {
                continue;
            };
            single_slot_groups += usize::from(has_single_slot);
            let cands: Vec<usize> = (0..n_items).collect();
            let eager = greedy_matroid(&cov, &m, &cands);
            let empty = cov.empty_state();
            // Seeds: the exact empty-set gains, lifted by a random slack.
            let lift = (rnd() % 3) as f64;
            let mut seeded_bounds: Vec<f64> =
                cands.iter().map(|&i| cov.gain(&empty, i) + lift).collect();
            for bounds in [&mut Vec::new(), &mut seeded_bounds] {
                let seeds = bounds.clone();
                let matroid = CountingMatroid {
                    inner: &m,
                    at_rank: Cell::new(0),
                };
                let objective = CountingObjective::new(&cov);
                let lazy = lazy_greedy_matroid_seeded(&objective, &matroid, &cands, bounds);
                assert_eq!(lazy.items, eager.items, "trial {trial}");
                assert_eq!(lazy.value.to_bits(), eager.value.to_bits(), "trial {trial}");
                assert_eq!(
                    matroid.at_rank.get(),
                    0,
                    "trial {trial}: can_extend at rank"
                );
                assert_eq!(objective.saturated_gains.get(), 0, "trial {trial}");
                let calls = objective.calls.into_inner();
                for (before, batch, _) in &calls {
                    for &i in batch.iter().filter(|_| *before > 0) {
                        assert!(
                            m.can_extend(&lazy.items[..*before], i),
                            "trial {trial}: refused candidate {i} evaluated"
                        );
                    }
                    // Later picks refresh only stale heap tops.
                    assert!(*before < 2 || batch.len() <= REFRESH_BATCH, "trial {trial}");
                }
                // The second pick: one batched pass over every candidate
                // that can extend the first pick, in candidate order.
                let at_second: Vec<_> = calls.iter().filter(|c| c.0 == 1).collect();
                let first_state = lazy.items.first().map(|&f| {
                    let mut st = cov.empty_state();
                    cov.add(&mut st, f);
                    st
                });
                match (lazy.items.first(), first_state) {
                    (Some(&first), Some(st)) if m.k() > 1 && !cov.saturated(&st) => {
                        let feasible: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&i| i != first && m.can_extend(&[first], i))
                            .collect();
                        assert_eq!(at_second.len(), 1, "trial {trial}: one pass");
                        assert_eq!(at_second[0].1, feasible, "trial {trial}");
                        assert!(at_second[0].2, "trial {trial}: pass not batched");
                        passes += 1;
                        let heaped = cands.iter().filter(|&&i| {
                            i != first && m.can_extend(&[], i) && !m.can_extend(&[first], i)
                        });
                        refused_at_pass += usize::from(heaped.count() > 0);
                    }
                    (Some(_), Some(st)) => {
                        assert!(at_second.is_empty(), "trial {trial}: pass at rank");
                        rank_one += usize::from(m.k() == 1);
                        saturated_first += usize::from(m.k() > 1 && cov.saturated(&st));
                    }
                    _ => assert!(at_second.is_empty(), "trial {trial}"),
                }
                // Bounds: each is its seed unless evaluated before the first
                // pick, in which case it is the exact empty-set gain.
                let before_first: Vec<usize> = calls
                    .iter()
                    .filter(|c| c.0 == 0)
                    .flat_map(|c| c.1.iter().copied())
                    .collect();
                for (pos, &i) in cands.iter().enumerate() {
                    let want = if seeds.is_empty() || before_first.contains(&i) {
                        cov.gain(&empty, i)
                    } else {
                        seeds[pos]
                    };
                    assert_eq!(bounds[pos].to_bits(), want.to_bits(), "trial {trial}");
                }
                runs += 1;
            }
            let mut st = cov.empty_state();
            for &i in &eager.items {
                if cov.saturated(&st) {
                    early_saturations += 1; // saturated with picks to go
                    break;
                }
                cov.add(&mut st, i);
            }
            full_bases += usize::from(eager.items.len() == m.k());
        }
        assert!(runs >= 300, "only {runs} runs");
        assert!(
            early_saturations >= 50,
            "{early_saturations} early saturations"
        );
        assert!(full_bases >= 100, "{full_bases} full bases");
        assert!(
            single_slot_groups >= 80,
            "{single_slot_groups} with h_c = 1"
        );
        assert!(passes >= 100, "{passes} second-pick passes");
        assert!(
            refused_at_pass >= 25,
            "{refused_at_pass} passes dropped none"
        );
        assert!(rank_one >= 30, "{rank_one} runs at rank after one pick");
        assert!(
            saturated_first >= 30,
            "{saturated_first} saturated first picks"
        );
    }

    #[test]
    fn greedy_half_approximation_holds() {
        // brute-force the optimum over all independent sets and check the
        // 1/2 bound on a handful of instances
        let cov = example_coverage();
        let m = uniform(5, 2);
        let r = greedy_matroid(&cov, &m, &[0, 1, 2, 3, 4]);
        let mut opt = 0.0_f64;
        for a in 0..5 {
            for b in (a + 1)..5 {
                let mut st = cov.empty_state();
                cov.add(&mut st, a);
                cov.add(&mut st, b);
                opt = opt.max(cov.value(&st));
            }
        }
        assert!(r.value >= 0.5 * opt - 1e-12);
    }

    #[test]
    fn empty_candidates_yield_empty_solution() {
        let cov = example_coverage();
        let m = uniform(5, 2);
        let r = greedy_matroid(&cov, &m, &[]);
        assert!(r.items.is_empty());
        assert_eq!(r.value, 0.0);
        let r2 = lazy_greedy_matroid(&cov, &m, &[]);
        assert!(r2.items.is_empty());
    }
}
