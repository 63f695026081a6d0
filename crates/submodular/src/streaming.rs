//! One-pass streaming submodular maximization under a matroid constraint.
//!
//! FairHMS inherits its fairness matroid from Halabi et al.'s *streaming*
//! submodular maximization (NeurIPS 2020); this module implements the
//! classic swap-based streaming algorithm of Chakrabarti & Kale that those
//! results build on. Elements arrive once, in arbitrary order; the
//! algorithm maintains an independent set `S` and, when a new element `e`
//! cannot be added directly, swaps it against the cheapest removable
//! element if `e`'s marginal value is at least [`StreamingConfig::swap_factor`]
//! times larger.
//!
//! For monotone submodular objectives this achieves a constant-factor
//! approximation (1/4 for modular weights, ≈ 1/7.75 for submodular ones);
//! the point here is practical: it lets FairHMS run over data too large to
//! buffer, trading solution quality for a single pass.

use crate::{GreedyResult, IncrementalObjective};
use fairhms_matroid::Matroid;

/// Parameters of [`streaming_matroid`].
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// A swap happens when the newcomer's gain exceeds `swap_factor ×` the
    /// cheapest removable element's recorded weight. The classic analysis
    /// uses 2.0; smaller values swap more aggressively.
    pub swap_factor: f64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self { swap_factor: 2.0 }
    }
}

/// Runs the swap-based streaming algorithm over `stream`.
///
/// Each element's *weight* is its marginal gain at insertion time (the
/// standard convention); weights are not refreshed on later swaps.
pub fn streaming_matroid<O, M, I>(
    objective: &O,
    matroid: &M,
    stream: I,
    config: &StreamingConfig,
) -> GreedyResult
where
    O: IncrementalObjective,
    M: Matroid,
    I: IntoIterator<Item = usize>,
{
    let mut items: Vec<usize> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut state = objective.empty_state();

    for e in stream {
        if items.contains(&e) {
            continue;
        }
        let gain = objective.gain(&state, e);
        if matroid.can_extend(&items, e) {
            objective.add(&mut state, e);
            items.push(e);
            weights.push(gain);
            continue;
        }
        // Find the cheapest element whose removal re-admits `e`.
        let mut cheapest: Option<(usize, f64)> = None; // (position, weight)
        #[allow(clippy::needless_range_loop)]
        for pos in 0..items.len() {
            let mut without: Vec<usize> = items.clone();
            without.swap_remove(pos);
            if matroid.can_extend(&without, e) {
                match cheapest {
                    Some((_, w)) if weights[pos] >= w => {}
                    _ => cheapest = Some((pos, weights[pos])),
                }
            }
        }
        if let Some((pos, w)) = cheapest {
            if gain >= config.swap_factor * w && gain > 0.0 {
                items.swap_remove(pos);
                weights.swap_remove(pos);
                items.push(e);
                weights.push(gain);
                // Rebuild the evaluation state for the new set.
                state = objective.empty_state();
                for &i in &items {
                    objective.add(&mut state, i);
                }
            }
        }
    }
    let value = objective.value(&state);
    GreedyResult { items, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_matroid;
    use fairhms_matroid::FairnessMatroid;

    /// `U_{k,n}`: the fairness matroid with one group, `l = 0` and `h = k`.
    fn uniform(n: usize, k: usize) -> FairnessMatroid {
        FairnessMatroid::new(vec![0; n], vec![0], vec![k], k).unwrap()
    }

    struct Coverage {
        covers: Vec<Vec<usize>>,
        n_elems: usize,
    }

    impl IncrementalObjective for Coverage {
        type State = Vec<bool>;
        fn empty_state(&self) -> Vec<bool> {
            vec![false; self.n_elems]
        }
        fn value(&self, state: &Vec<bool>) -> f64 {
            state.iter().filter(|c| **c).count() as f64
        }
        fn gain(&self, state: &Vec<bool>, item: usize) -> f64 {
            self.covers[item].iter().filter(|&&e| !state[e]).count() as f64
        }
        fn add(&self, state: &mut Vec<bool>, item: usize) {
            for &e in &self.covers[item] {
                state[e] = true;
            }
        }
    }

    fn example() -> Coverage {
        Coverage {
            covers: vec![
                vec![0, 1],
                vec![2, 3, 4],
                vec![0, 5],
                vec![5, 6, 7, 8],
                vec![1, 2],
            ],
            n_elems: 9,
        }
    }

    #[test]
    fn stays_independent_and_dedups() {
        let cov = example();
        let m = uniform(5, 2);
        let r = streaming_matroid(&cov, &m, [0, 0, 1, 2, 3, 4], &StreamingConfig::default());
        assert!(r.items.len() <= 2);
        assert!(m.is_independent(&r.items));
    }

    #[test]
    fn swaps_in_strictly_better_elements() {
        let cov = example();
        let m = uniform(5, 1);
        // Item 0 covers 2 elements; item 3 covers 4 — must swap in.
        let r = streaming_matroid(&cov, &m, [0, 3], &StreamingConfig::default());
        assert_eq!(r.items, vec![3]);
        assert_eq!(r.value, 4.0);
    }

    #[test]
    fn constant_factor_of_offline_greedy() {
        let cov = example();
        let m = FairnessMatroid::new(vec![0, 0, 1, 1, 1], vec![0, 0], vec![1, 2], 3).unwrap();
        let offline = greedy_matroid(&cov, &m, &[0, 1, 2, 3, 4]);
        for order in [
            vec![0, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
            vec![2, 0, 4, 1, 3],
        ] {
            let streamed = streaming_matroid(&cov, &m, order.clone(), &StreamingConfig::default());
            assert!(m.is_independent(&streamed.items), "order {order:?}");
            assert!(
                streamed.value >= 0.25 * offline.value,
                "order {order:?}: streaming {} < 1/4 × offline {}",
                streamed.value,
                offline.value
            );
        }
    }

    #[test]
    fn respects_group_bounds_under_swaps() {
        let cov = example();
        // one slot per group
        let m = FairnessMatroid::new(vec![0, 0, 1, 1, 1], vec![1, 1], vec![1, 1], 2).unwrap();
        let r = streaming_matroid(&cov, &m, [0, 1, 2, 3, 4], &StreamingConfig::default());
        assert!(m.is_independent(&r.items));
        // swaps stay within groups when the group cap binds
        let groups: Vec<usize> = r.items.iter().map(|&i| [0, 0, 1, 1, 1][i]).collect();
        let mut sorted = groups.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), groups.len(), "one per group");
    }
}
