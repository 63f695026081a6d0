//! Matroid substrate for FairHMS.
//!
//! The paper (Section 2, following Halabi et al., NeurIPS 2020) treats the
//! group fairness constraint as a matroid: given groups `D_1, …, D_C`,
//! lower bounds `l_c`, upper bounds `h_c`, and a total budget `k`, the
//! independent sets are
//!
//! ```text
//! I = { S ⊆ D : Σ_c max(|S ∩ D_c|, l_c) ≤ k  ∧  |S ∩ D_c| ≤ h_c ∀c }
//! ```
//!
//! Every feasible size-`k` set satisfying `l_c ≤ |S ∩ D_c| ≤ h_c` is a base
//! of this matroid, and every independent set extends to such a base — the
//! properties the greedy algorithms in `fairhms-submodular` rely on.
//!
//! Besides the [`FairnessMatroid`], the crate provides the [`Matroid`]
//! trait with the incremental oracle the greedy loops use. The classic
//! uniform and partition matroids are special cases: one group with
//! `l = 0, h = k` is `U_{k,n}`, and `l = 0` with `k = Σ_c min(h_c, |D_c|)`
//! is the partition matroid with capacities `h`.

pub mod fairness;

pub use fairness::{
    balanced_bounds, proportional_bounds, FairnessBounds, FairnessError, FairnessMatroid,
};

/// A matroid over the ground set `0..ground_size()`.
///
/// Implementations must satisfy the matroid axioms: `∅` independent,
/// downward closure, and the exchange property (verified by property tests
/// for each implementation in this crate).
pub trait Matroid {
    /// Number of ground-set elements.
    fn ground_size(&self) -> usize;

    /// Whether `items` (distinct indices into the ground set) is
    /// independent.
    fn is_independent(&self, items: &[usize]) -> bool;

    /// Whether `items ∪ {new_item}` is independent, assuming `items`
    /// already is and does not contain `new_item`. Implementations
    /// typically answer in `O(1)` from group counts.
    fn can_extend(&self, items: &[usize], new_item: usize) -> bool {
        let mut extended = items.to_vec();
        extended.push(new_item);
        self.is_independent(&extended)
    }

    /// An upper bound on the rank (maximum independent-set size).
    fn rank_upper_bound(&self) -> usize;
}

/// Brute-force checks the matroid axioms on every subset of a small ground
/// set. Intended for tests (exponential in `ground_size`).
pub fn verify_axioms<M: Matroid>(m: &M) -> Result<(), String> {
    let n = m.ground_size();
    assert!(
        n <= 16,
        "verify_axioms is exponential; keep the ground set small"
    );
    let subsets = 1u32 << n;
    let members = |mask: u32| -> Vec<usize> { (0..n).filter(|&i| mask >> i & 1 == 1).collect() };
    let indep: Vec<bool> = (0..subsets)
        .map(|s| m.is_independent(&members(s)))
        .collect();

    if !indep[0] {
        return Err("empty set is not independent".into());
    }
    for s in 0..subsets {
        if !indep[s as usize] {
            continue;
        }
        // downward closure: removing any element stays independent
        for i in 0..n {
            if s >> i & 1 == 1 && !indep[(s & !(1 << i)) as usize] {
                return Err(format!("downward closure fails at {s:#b} minus {i}"));
            }
        }
        // exchange with every larger independent set
        for t in 0..subsets {
            if !indep[t as usize] || (t.count_ones() <= s.count_ones()) {
                continue;
            }
            let found = (0..n)
                .any(|i| t >> i & 1 == 1 && s >> i & 1 == 0 && indep[(s | (1 << i)) as usize]);
            if !found {
                return Err(format!("exchange fails between {s:#b} and {t:#b}"));
            }
        }
        // incremental oracle consistency
        let sv = members(s);
        for i in 0..n {
            if s >> i & 1 == 0 {
                let fast = m.can_extend(&sv, i);
                let slow = indep[(s | (1 << i)) as usize];
                if fast != slow {
                    return Err(format!("can_extend disagrees at {s:#b} + {i}"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FreeMatroid(usize);
    impl Matroid for FreeMatroid {
        fn ground_size(&self) -> usize {
            self.0
        }
        fn is_independent(&self, _items: &[usize]) -> bool {
            true
        }
        fn rank_upper_bound(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn free_matroid_passes_axioms() {
        verify_axioms(&FreeMatroid(5)).unwrap();
    }
}
