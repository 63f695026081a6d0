//! The group-fairness matroid of the paper (Section 2).
//!
//! Independent sets are
//! `{ S : Σ_c max(|S ∩ D_c|, l_c) ≤ k ∧ |S ∩ D_c| ≤ h_c ∀c }`.
//! Intuitively: a set is independent when it can still be completed to a
//! feasible size-`k` selection — the slack `k − Σ_c max(count_c, l_c)`
//! measures how many "free" picks remain after reserving room for every
//! group's unmet lower bound.

use std::sync::Arc;

use crate::Matroid;

/// Validation failures for fairness bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FairnessError {
    /// `lower.len() != upper.len()` or labels exceed the bound arrays.
    ShapeMismatch,
    /// Some `l_c > h_c`.
    CrossedBounds {
        /// Offending group.
        group: usize,
    },
    /// `Σ_c l_c > k`: lower bounds cannot all be met within the budget.
    LowerExceedsK,
    /// `Σ_c min(h_c, |D_c|) < k`: no size-`k` feasible set exists.
    UpperBelowK,
}

impl std::fmt::Display for FairnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FairnessError::ShapeMismatch => write!(f, "bounds shape mismatch"),
            FairnessError::CrossedBounds { group } => {
                write!(f, "lower bound exceeds upper bound for group {group}")
            }
            FairnessError::LowerExceedsK => write!(f, "sum of lower bounds exceeds k"),
            FairnessError::UpperBelowK => {
                write!(f, "sum of attainable upper bounds is below k")
            }
        }
    }
}

impl std::error::Error for FairnessError {}

/// The fairness matroid `M = (D, I)` for group bounds `l, h` and budget `k`.
///
/// ```
/// use fairhms_matroid::{FairnessMatroid, Matroid};
///
/// // four elements in two groups, one to two picks per group, k = 3
/// let m = FairnessMatroid::new(vec![0, 0, 1, 1], vec![1, 1], vec![2, 2], 3).unwrap();
/// assert!(m.is_independent(&[0, 1]));      // can still satisfy group 1
/// assert!(!m.is_independent(&[0, 1, 2]) || m.is_feasible(&[0, 1, 2]));
/// assert!(m.is_feasible(&[0, 1, 2]));      // counts (2, 1) within bounds
/// assert_eq!(m.violations(&[0, 1]), 1);    // group 1 below its lower bound
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairnessMatroid {
    /// Shared group labels: instances built over an `Arc`-held dataset
    /// hand the matroid the same allocation (see
    /// `Dataset::shared_groups` in `fairhms-data`) instead of an `O(n)`
    /// copy per solve.
    groups: Arc<[usize]>,
    lower: Vec<usize>,
    upper: Vec<usize>,
    k: usize,
}

impl FairnessMatroid {
    /// Builds and validates the matroid. `groups[i]` is element `i`'s
    /// group; pass either an owned `Vec<usize>` or a shared `Arc<[usize]>`
    /// handle (no copy).
    pub fn new(
        groups: impl Into<Arc<[usize]>>,
        lower: Vec<usize>,
        upper: Vec<usize>,
        k: usize,
    ) -> Result<Self, FairnessError> {
        if lower.len() != upper.len() {
            return Err(FairnessError::ShapeMismatch);
        }
        // One O(n) scan: validates every label and counts group sizes.
        let groups = groups.into();
        let mut group_sizes = vec![0usize; lower.len()];
        for &g in groups.iter() {
            if g >= lower.len() {
                return Err(FairnessError::ShapeMismatch);
            }
            group_sizes[g] += 1;
        }
        for (g, (&l, &h)) in lower.iter().zip(&upper).enumerate() {
            if l > h {
                return Err(FairnessError::CrossedBounds { group: g });
            }
        }
        if lower.iter().sum::<usize>() > k {
            return Err(FairnessError::LowerExceedsK);
        }
        // lower bounds must be attainable within each group as well
        if lower.iter().zip(&group_sizes).any(|(&l, &sz)| l > sz) {
            return Err(FairnessError::UpperBelowK);
        }
        let attainable: usize = group_sizes.iter().zip(&upper).map(|(s, h)| s.min(h)).sum();
        if attainable < k {
            return Err(FairnessError::UpperBelowK);
        }
        Ok(Self {
            groups,
            lower,
            upper,
            k,
        })
    }

    /// Group label of element `i`.
    pub fn group_of(&self, i: usize) -> usize {
        self.groups[i]
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.lower.len()
    }

    /// The budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Lower bounds per group.
    pub fn lower(&self) -> &[usize] {
        &self.lower
    }

    /// Upper bounds per group.
    pub fn upper(&self) -> &[usize] {
        &self.upper
    }

    /// A copy of the bounds `(l, h, k)`, without the labels.
    pub fn bounds(&self) -> FairnessBounds {
        FairnessBounds {
            lower: self.lower.clone(),
            upper: self.upper.clone(),
            k: self.k,
        }
    }

    /// Per-group selection counts of `items`.
    pub fn counts(&self, items: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.lower.len()];
        for &i in items {
            counts[self.groups[i]] += 1;
        }
        counts
    }

    /// Whether per-group counts describe an independent set.
    pub fn counts_independent(&self, counts: &[usize]) -> bool {
        debug_assert_eq!(counts.len(), self.lower.len());
        let mut reserved = 0usize;
        for ((&n, &l), &h) in counts.iter().zip(&self.lower).zip(&self.upper) {
            if n > h {
                return false;
            }
            reserved += n.max(l);
        }
        reserved <= self.k
    }

    /// Whether counts describe a *complete feasible* selection:
    /// `l_c ≤ count_c ≤ h_c` and `Σ count_c = k`.
    pub fn counts_feasible(&self, counts: &[usize]) -> bool {
        counts.iter().sum::<usize>() == self.k
            && counts
                .iter()
                .zip(self.lower.iter().zip(&self.upper))
                .all(|(&n, (&l, &h))| l <= n && n <= h)
    }

    /// Whether `items` is a complete feasible FairHMS selection.
    pub fn is_feasible(&self, items: &[usize]) -> bool {
        self.counts_feasible(&self.counts(items))
    }

    /// The number of fairness violations `err(S)` of Equation 3:
    /// `Σ_c max(|S∩D_c| − h_c, l_c − |S∩D_c|, 0)`.
    pub fn violations(&self, items: &[usize]) -> usize {
        self.counts(items)
            .iter()
            .zip(self.lower.iter().zip(&self.upper))
            .map(|(&n, (&l, &h))| n.saturating_sub(h).max(l.saturating_sub(n)))
            .sum()
    }
}

/// A fairness matroid's bounds without its group labels: everything
/// [`Matroid::can_extend`] reads besides the set's per-group counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairnessBounds {
    /// Lower bounds per group.
    pub lower: Vec<usize>,
    /// Upper bounds per group.
    pub upper: Vec<usize>,
    /// The budget `k`.
    pub k: usize,
}

impl FairnessBounds {
    /// Whether an element of group `g` can extend a set whose per-group
    /// counts are `counts`: [`Matroid::can_extend`]'s answer for every
    /// element of `g` under a matroid with these bounds, since that answer
    /// depends on the set only through its counts.
    pub fn group_can_extend(&self, counts: &[usize], g: usize) -> bool {
        let reserved: usize = counts
            .iter()
            .zip(&self.lower)
            .map(|(&n, &l)| n.max(l))
            .sum();
        counts[g] < self.upper[g] && reserved + usize::from(counts[g] >= self.lower[g]) <= self.k
    }
}

/// Groups [`FairnessMatroid::can_extend`] counts per pass over the set.
const COUNT_WINDOW: usize = 16;

impl Matroid for FairnessMatroid {
    fn ground_size(&self) -> usize {
        self.groups.len()
    }

    fn is_independent(&self, items: &[usize]) -> bool {
        if items.iter().any(|&i| i >= self.groups.len()) {
            return false;
        }
        self.counts_independent(&self.counts(items))
    }

    /// Allocation-free: the greedy loops call this once per heap pop or
    /// scanned candidate. Group counts are taken sixteen groups at a
    /// time in a stack array, one pass over `items` per sixteen groups.
    fn can_extend(&self, items: &[usize], new_item: usize) -> bool {
        let Some(&g) = self.groups.get(new_item) else {
            return false;
        };
        let mut reserved = 0usize; // Σ_c max(count_c, l_c)
        let mut count_g = 0usize;
        for first in (0..self.lower.len()).step_by(COUNT_WINDOW) {
            let mut counts = [0usize; COUNT_WINDOW];
            for &i in items {
                if let Some(c) = self.groups[i].checked_sub(first) {
                    if c < COUNT_WINDOW {
                        counts[c] += 1;
                    }
                }
            }
            let lower = &self.lower[first..self.lower.len().min(first + COUNT_WINDOW)];
            reserved += counts
                .iter()
                .zip(lower)
                .map(|(&n, &l)| n.max(l))
                .sum::<usize>();
            if let Some(c) = g.checked_sub(first).filter(|&c| c < COUNT_WINDOW) {
                count_g = counts[c];
            }
        }
        if count_g >= self.upper[g] {
            return false;
        }
        // Adding to group g increases Σ max(count, l) only when the count
        // is already at or above the lower bound.
        let delta = usize::from(count_g >= self.lower[g]);
        reserved + delta <= self.k
    }

    fn rank_upper_bound(&self) -> usize {
        self.k
    }
}

/// Computes the paper's proportional-representation bounds (Section 5.1):
/// `l_c = max(⌊(1−α)·k·|D_c|/|D|⌋, 1)` capped and
/// `h_c = min(⌈(1+α)·k·|D_c|/|D|⌉, k − C + 1)`, with a repair pass that
/// keeps `Σ l_c ≤ k ≤ Σ h_c` attainable.
pub fn proportional_bounds(
    group_sizes: &[usize],
    k: usize,
    alpha: f64,
) -> (Vec<usize>, Vec<usize>) {
    let n: usize = group_sizes.iter().sum();
    let c = group_sizes.len();
    let mut lower = Vec::with_capacity(c);
    let mut upper = Vec::with_capacity(c);
    for &sz in group_sizes {
        let frac = k as f64 * sz as f64 / n.max(1) as f64;
        let l = (((1.0 - alpha) * frac).floor() as usize).max(1).min(sz);
        let h = (((1.0 + alpha) * frac).ceil() as usize)
            .min(k.saturating_sub(c.saturating_sub(1)).max(1))
            .min(sz);
        lower.push(l.min(h));
        upper.push(h);
    }
    repair_bounds(group_sizes, k, &mut lower, &mut upper);
    (lower, upper)
}

/// Computes the paper's balanced-representation bounds:
/// `l_c = ⌊(1−α)k/C⌋, h_c = ⌈(1+α)k/C⌉` (clamped like the proportional
/// variant).
pub fn balanced_bounds(group_sizes: &[usize], k: usize, alpha: f64) -> (Vec<usize>, Vec<usize>) {
    let c = group_sizes.len();
    let frac = k as f64 / c.max(1) as f64;
    let mut lower = Vec::with_capacity(c);
    let mut upper = Vec::with_capacity(c);
    for &sz in group_sizes {
        let l = (((1.0 - alpha) * frac).floor() as usize).max(1).min(sz);
        // No trailing `.max(1)`: a group with zero members must get
        // `h = 0` (an upper bound of 1 on an empty group is vacuous at
        // best and used to survive the `.min(sz)` cap). For non-empty
        // groups `⌈(1+α)k/C⌉ ≥ 1` whenever `k ≥ 1`, so nothing changes.
        let h = (((1.0 + alpha) * frac).ceil() as usize).min(sz);
        lower.push(l.min(h));
        upper.push(h);
    }
    repair_bounds(group_sizes, k, &mut lower, &mut upper);
    (lower, upper)
}

/// Shrinks lower bounds / raises upper bounds minimally until a feasible
/// size-`k` selection exists (`Σ l ≤ k ≤ Σ min(h, |D_c|)`).
fn repair_bounds(group_sizes: &[usize], k: usize, lower: &mut [usize], upper: &mut [usize]) {
    // Lower bounds too demanding: shave the largest ones first.
    while lower.iter().sum::<usize>() > k {
        let (idx, _) = lower
            .iter()
            .enumerate()
            .max_by_key(|&(_, &l)| l)
            .expect("non-empty");
        lower[idx] -= 1;
    }
    // Upper bounds too tight: raise the group with the most headroom.
    loop {
        let attainable: usize = upper.iter().zip(group_sizes).map(|(&h, &s)| h.min(s)).sum();
        if attainable >= k {
            break;
        }
        let candidate = (0..upper.len())
            .filter(|&g| upper[g] < group_sizes[g])
            .max_by_key(|&g| group_sizes[g] - upper[g]);
        match candidate {
            Some(g) => upper[g] += 1,
            None => break, // k > n: caller's validation will reject
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_axioms;

    #[test]
    fn axioms_hold_for_various_bounds() {
        // groups: 0,0,0,1,1,2
        let g = vec![0, 0, 0, 1, 1, 2];
        for (l, h, k) in [
            (vec![1, 1, 1], vec![2, 2, 1], 4),
            (vec![0, 0, 0], vec![3, 2, 1], 3),
            (vec![1, 0, 0], vec![1, 1, 1], 2),
            (vec![2, 2, 1], vec![3, 2, 1], 5),
        ] {
            let m = FairnessMatroid::new(g.clone(), l.clone(), h.clone(), k)
                .unwrap_or_else(|e| panic!("bounds {l:?}/{h:?}/{k}: {e}"));
            verify_axioms(&m).unwrap_or_else(|e| panic!("bounds {l:?}/{h:?}/{k}: {e}"));
        }
    }

    #[test]
    fn validation_rejects_bad_bounds() {
        let g = vec![0, 0, 1];
        assert_eq!(
            FairnessMatroid::new(g.clone(), vec![2, 1], vec![1, 1], 3).unwrap_err(),
            FairnessError::CrossedBounds { group: 0 }
        );
        assert_eq!(
            FairnessMatroid::new(g.clone(), vec![2, 2], vec![2, 2], 3).unwrap_err(),
            FairnessError::LowerExceedsK
        );
        assert_eq!(
            FairnessMatroid::new(g.clone(), vec![0, 0], vec![1, 1], 3).unwrap_err(),
            FairnessError::UpperBelowK
        );
        assert_eq!(
            FairnessMatroid::new(vec![0, 5], vec![1], vec![1], 1).unwrap_err(),
            FairnessError::ShapeMismatch
        );
        assert_eq!(
            FairnessMatroid::new(g.clone(), vec![1, 1], vec![1], 2).unwrap_err(),
            FairnessError::ShapeMismatch
        );
        // lower bound larger than the group itself
        assert_eq!(
            FairnessMatroid::new(g, vec![0, 2], vec![3, 2], 2).unwrap_err(),
            FairnessError::UpperBelowK
        );
    }

    #[test]
    fn feasibility_and_violations() {
        let m = FairnessMatroid::new(vec![0, 0, 1, 1], vec![1, 1], vec![2, 2], 3).unwrap();
        assert!(m.is_feasible(&[0, 1, 2]));
        assert!(!m.is_feasible(&[0, 1])); // size 2 < k
        assert_eq!(m.violations(&[0, 1, 2]), 0);
        assert_eq!(m.violations(&[0, 1]), 1); // group 1 below lower bound
        assert_eq!(m.violations(&[]), 2);
    }

    #[test]
    fn independence_reserves_lower_bounds() {
        // k = 2, two groups each with l = 1: picking two elements of group 0
        // is NOT independent (no room left for group 1's lower bound).
        let m = FairnessMatroid::new(vec![0, 0, 1, 1], vec![1, 1], vec![2, 2], 2).unwrap();
        assert!(m.is_independent(&[0]));
        assert!(!m.is_independent(&[0, 1]));
        assert!(m.is_independent(&[0, 2]));
        assert!(!m.can_extend(&[0], 1));
        assert!(m.can_extend(&[0], 2));
    }

    #[test]
    fn proportional_bounds_match_paper_formula() {
        // |D| = 100, groups 60/40, k = 10, α = 0.1:
        // group 0: l = ⌊0.9·6⌋ = 5, h = ⌈1.1·6⌉ = 7
        // group 1: l = ⌊0.9·4⌋ = 3, h = ⌈1.1·4⌉ = 5
        let (l, h) = proportional_bounds(&[60, 40], 10, 0.1);
        assert_eq!(l, vec![5, 3]);
        assert_eq!(h, vec![7, 5]);
        // bounds always admit a feasible solution
        assert!(FairnessMatroid::new(
            (0..100).map(|i| usize::from(i >= 60)).collect::<Vec<_>>(),
            l,
            h,
            10
        )
        .is_ok());
    }

    #[test]
    fn proportional_bounds_tiny_group_gets_floor_one() {
        let (l, h) = proportional_bounds(&[97, 3], 10, 0.1);
        assert_eq!(l[1], 1); // the "or at least 1" clause of Section 5.1
        assert!(h[1] >= 1);
    }

    #[test]
    fn balanced_bounds_are_uniformish() {
        let (l, h) = balanced_bounds(&[50, 30, 20], 9, 0.1);
        assert_eq!(l, vec![2, 2, 2]);
        assert_eq!(h, vec![4, 4, 4]);
    }

    #[test]
    fn bounds_repair_keeps_feasibility() {
        // k = 10 over three tiny groups: upper bounds must be raised/capped
        // so that a feasible set exists.
        let sizes = [4, 3, 3];
        let (l, h) = proportional_bounds(&sizes, 10, 0.1);
        let attainable: usize = h.iter().zip(&sizes).map(|(&h, &s)| h.min(s)).sum();
        assert!(attainable >= 10, "l={l:?} h={h:?}");
        assert!(l.iter().sum::<usize>() <= 10);
    }

    #[test]
    fn empty_groups_never_get_positive_lower_bounds() {
        // Regression: a group with 0 members must end up with l = 0 (a
        // lower bound ≥ 1 would make every matroid over it vacuously
        // infeasible) — under both bound policies, at several (k, α).
        for sizes in [
            vec![50usize, 0, 30],
            vec![0, 0, 7],
            vec![9, 0, 0, 4],
            vec![0, 12],
        ] {
            for k in [1usize, 3, 5] {
                for alpha in [0.0, 0.1, 0.5] {
                    for (policy, (l, h)) in [
                        ("proportional", proportional_bounds(&sizes, k, alpha)),
                        ("balanced", balanced_bounds(&sizes, k, alpha)),
                    ] {
                        for (g, &sz) in sizes.iter().enumerate() {
                            if sz == 0 {
                                assert_eq!(
                                    l[g], 0,
                                    "{policy}: empty group {g} got lower {} \
                                     (sizes {sizes:?}, k={k}, α={alpha})",
                                    l[g]
                                );
                                assert_eq!(
                                    h[g], 0,
                                    "{policy}: empty group {g} got upper {} \
                                     (sizes {sizes:?}, k={k}, α={alpha})",
                                    h[g]
                                );
                            }
                            assert!(l[g] <= h[g], "{policy}: crossed bounds at {g}");
                        }
                        // The derived bounds must admit a feasible size-k
                        // set whenever one exists at all (k ≤ n).
                        let n: usize = sizes.iter().sum();
                        if k <= n {
                            let groups: Vec<usize> = sizes
                                .iter()
                                .enumerate()
                                .flat_map(|(g, &sz)| std::iter::repeat_n(g, sz))
                                .collect();
                            FairnessMatroid::new(groups, l.clone(), h.clone(), k).unwrap_or_else(
                                |e| {
                                    panic!(
                                        "{policy}: infeasible bounds l={l:?} h={h:?} \
                                         for sizes {sizes:?}, k={k}, α={alpha}: {e}"
                                    )
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn can_extend_matches_independence_across_count_windows() {
        // 40 groups span three count windows; every group has two rows,
        // and group g's row pair is (2g, 2g + 1).
        let c = 40;
        let groups: Vec<usize> = (0..2 * c).map(|i| i / 2).collect();
        let lower: Vec<usize> = (0..c).map(|g| usize::from(g % 3 == 0)).collect();
        let upper: Vec<usize> = (0..c).map(|g| 1 + g % 2).collect();
        let m = FairnessMatroid::new(groups, lower, upper, 20).unwrap();
        let mut items: Vec<usize> = Vec::new();
        for cand in (0..2 * c).rev().step_by(3) {
            for probe in 0..2 * c {
                if items.contains(&probe) {
                    continue;
                }
                let mut extended = items.clone();
                extended.push(probe);
                assert_eq!(
                    m.can_extend(&items, probe),
                    m.is_independent(&extended),
                    "items {items:?} + {probe}"
                );
            }
            if m.can_extend(&items, cand) {
                items.push(cand);
            }
        }
        assert!(items.len() > 10, "the walk should cross windows: {items:?}");
        assert!(!m.can_extend(&items, 2 * c), "out-of-range item");
    }

    #[test]
    fn counts_roundtrip() {
        let m = FairnessMatroid::new(vec![0, 1, 1, 2], vec![0, 0, 0], vec![1, 2, 1], 3).unwrap();
        assert_eq!(m.counts(&[0, 2, 3]), vec![1, 1, 1]);
        assert!(m.counts_independent(&[1, 1, 1]));
        assert!(!m.counts_independent(&[2, 0, 0]));
        assert!(m.counts_feasible(&[1, 1, 1]));
        assert!(!m.counts_feasible(&[1, 2, 1]));
    }
}
