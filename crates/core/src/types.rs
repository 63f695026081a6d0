//! Problem instance and solution types.

use std::sync::Arc;

use fairhms_data::Dataset;
use fairhms_matroid::{FairnessError, FairnessMatroid};

/// Errors shared by the FairHMS algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The fairness bounds are inconsistent (see inner error).
    Bounds(FairnessError),
    /// `k` exceeds the number of points.
    KTooLarge {
        /// Requested size.
        k: usize,
        /// Available points.
        n: usize,
    },
    /// `k` must be positive.
    KZero,
    /// The algorithm requires 2D data but the instance is not 2D.
    Not2D {
        /// Actual dimensionality.
        dim: usize,
    },
    /// The dataset is empty.
    EmptyDataset,
    /// The algorithm could not produce a feasible solution (reported
    /// instead of silently returning an infeasible set).
    NoFeasibleSolution,
    /// The algorithm hit a documented resource gate — e.g. DMM's memory
    /// blowup above seven dimensions (paper Section 5.2) or a `k < d`
    /// requirement of Sphere/DMM.
    ResourceLimit {
        /// Human-readable reason.
        what: &'static str,
    },
    /// No algorithm is registered under the requested name (see
    /// [`crate::registry::by_name`]).
    UnknownAlgorithm {
        /// The name that failed to resolve.
        name: String,
    },
    /// A numeric configuration parameter is out of range or non-finite
    /// (NaN/∞) — reported at config-validation time instead of silently
    /// poisoning thresholds downstream (`NaN.clamp(..)` stays NaN).
    InvalidParameter {
        /// Parameter name, e.g. `"epsilon"`.
        param: &'static str,
        /// The offending value, rendered (kept as a string so the error
        /// stays `Eq`).
        value: String,
        /// The accepted range, e.g. `"(0, 1)"`.
        expected: &'static str,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Bounds(e) => write!(f, "fairness bounds: {e}"),
            CoreError::KTooLarge { k, n } => write!(f, "k = {k} exceeds dataset size {n}"),
            CoreError::KZero => write!(f, "k must be positive"),
            CoreError::Not2D { dim } => write!(f, "algorithm requires 2D data, got d = {dim}"),
            CoreError::EmptyDataset => write!(f, "dataset is empty"),
            CoreError::NoFeasibleSolution => write!(f, "no feasible solution found"),
            CoreError::ResourceLimit { what } => write!(f, "resource limit: {what}"),
            CoreError::UnknownAlgorithm { name } => {
                let keys: Vec<&str> = crate::registry::ALGORITHMS.iter().map(|a| a.key).collect();
                write!(
                    f,
                    "unknown algorithm {name:?} (expected one of: {})",
                    keys.join(", ")
                )
            }
            CoreError::InvalidParameter {
                param,
                value,
                expected,
            } => {
                write!(
                    f,
                    "invalid parameter {param} = {value} (expected {expected})"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<FairnessError> for CoreError {
    fn from(e: FairnessError) -> Self {
        CoreError::Bounds(e)
    }
}

/// A FairHMS problem: a normalized grouped dataset, the solution size `k`,
/// and per-group bounds `l_c ≤ |S ∩ D_c| ≤ h_c`.
///
/// The dataset is typically restricted to the union of per-group skylines
/// before constructing the instance (see
/// [`fairhms_data::skyline::group_skyline_indices`]); the restriction is
/// lossless because the global skyline — which realizes every utility's
/// maximum — is contained in that union.
///
/// The instance holds its dataset behind an [`Arc`], so constructing an
/// instance from already-shared data (a serving catalog, a bench workload)
/// never copies the point matrix: concurrent solves against the same
/// prepared dataset all read one allocation. Cloning an instance is cheap
/// for the same reason.
#[derive(Debug, Clone)]
pub struct FairHmsInstance {
    data: Arc<Dataset>,
    k: usize,
    matroid: FairnessMatroid,
}

impl FairHmsInstance {
    /// Builds an instance, validating `k` and the bounds.
    ///
    /// Accepts either an owned [`Dataset`] (moved into a fresh `Arc`; no
    /// matrix copy) or an `Arc<Dataset>` handle, which is shared
    /// zero-copy:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use fairhms_core::types::FairHmsInstance;
    /// use fairhms_data::Dataset;
    ///
    /// let points = vec![1.0, 0.1, 0.2, 0.9, 0.7, 0.7, 0.9, 0.3];
    /// let data = Arc::new(Dataset::new("toy", 2, points, vec![0, 1, 0, 1], vec![]).unwrap());
    ///
    /// // Two concurrent instances over the same prepared data: both hold
    /// // the *same* allocation — no per-instance matrix copy.
    /// let a = FairHmsInstance::new(Arc::clone(&data), 2, vec![1, 1], vec![1, 1]).unwrap();
    /// let b = FairHmsInstance::unconstrained(Arc::clone(&data), 3).unwrap();
    /// assert!(std::ptr::eq(a.data(), &*data));
    /// assert!(std::ptr::eq(b.data(), &*data));
    /// ```
    pub fn new(
        data: impl Into<Arc<Dataset>>,
        k: usize,
        lower: Vec<usize>,
        upper: Vec<usize>,
    ) -> Result<Self, CoreError> {
        let data = data.into();
        if data.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        if k == 0 {
            return Err(CoreError::KZero);
        }
        if k > data.len() {
            return Err(CoreError::KTooLarge { k, n: data.len() });
        }
        // The matroid shares the dataset's label allocation — together
        // with the `Arc<Dataset>` above, construction allocates nothing
        // proportional to the data; the only remaining O(n) work is the
        // matroid's bounds-validation scan over the labels.
        let matroid = FairnessMatroid::new(data.shared_groups(), lower, upper, k)?;
        Ok(Self { data, k, matroid })
    }

    /// An unconstrained (vanilla HMS) instance: bounds `0 ≤ |S ∩ D_c| ≤ k`.
    pub fn unconstrained(data: impl Into<Arc<Dataset>>, k: usize) -> Result<Self, CoreError> {
        let data = data.into();
        let c = data.num_groups();
        Self::new(data, k, vec![0; c], vec![k; c])
    }

    /// The dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Solution size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The fairness matroid encoding the bounds.
    pub fn matroid(&self) -> &FairnessMatroid {
        &self.matroid
    }

    /// Dimensionality shortcut.
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// Number of points shortcut.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Never empty (validated at construction); required by clippy pairing.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Completes `partial` (an independent set) to a feasible size-`k`
    /// selection: first satisfies unmet lower bounds, then fills remaining
    /// slots from any group with headroom. Points are drawn in index order.
    ///
    /// Returns `Err(NoFeasibleSolution)` only if the instance bounds are
    /// unattainable, which construction-time validation precludes.
    pub fn complete_to_feasible(&self, partial: &[usize]) -> Result<Vec<usize>, CoreError> {
        let mut sel: Vec<usize> = partial.to_vec();
        sel.sort_unstable();
        sel.dedup();
        let mut counts = self.matroid.counts(&sel);
        let in_sel = |sel: &[usize], i: usize| sel.binary_search(&i).is_ok();

        // Pass 1: unmet lower bounds.
        #[allow(clippy::needless_range_loop)]
        for c in 0..self.matroid.num_groups() {
            if counts[c] >= self.matroid.lower()[c] {
                continue;
            }
            for i in 0..self.data.len() {
                if counts[c] >= self.matroid.lower()[c] {
                    break;
                }
                if self.data.group_of(i) == c && !in_sel(&sel, i) {
                    let pos = sel.binary_search(&i).unwrap_err();
                    sel.insert(pos, i);
                    counts[c] += 1;
                }
            }
        }
        // Pass 2: fill to k within upper bounds.
        let mut total: usize = counts.iter().sum();
        if total < self.k {
            for i in 0..self.data.len() {
                if total >= self.k {
                    break;
                }
                let c = self.data.group_of(i);
                if counts[c] < self.matroid.upper()[c] && !in_sel(&sel, i) {
                    let pos = sel.binary_search(&i).unwrap_err();
                    sel.insert(pos, i);
                    counts[c] += 1;
                    total += 1;
                }
            }
        }
        if self.matroid.counts_feasible(&counts) {
            Ok(sel)
        } else {
            Err(CoreError::NoFeasibleSolution)
        }
    }
}

/// A reduced candidate set: the (possibly restricted) dataset a solver
/// actually runs on, plus the map from its row ids back to the originating
/// dataset's row ids.
///
/// This is the seam between preprocessing (skyline reduction) and
/// solving: the reducer materializes the candidate dataset **once** (per
/// dataset, not per query), every solve shares it through the `Arc`, and
/// answers are translated back to original row ids with
/// [`CandidateSet::to_original`]. The serving crate's
/// `PreparedDataset::instance` builds the candidate set for the CLI
/// `solve`, the serving engine and the figure harness alike, so a
/// reduction produces identical answer indices no matter which front end
/// ran it.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    data: Arc<Dataset>,
    /// `row_map[i]` = original row id of candidate row `i`; `None` means
    /// the candidate set *is* the full dataset (identity map).
    row_map: Option<Arc<[usize]>>,
}

impl CandidateSet {
    /// The full dataset as its own candidate set (identity row map).
    pub fn full(data: Arc<Dataset>) -> Self {
        Self {
            data,
            row_map: None,
        }
    }

    /// An already-materialized reduction: `data` holds the candidate rows
    /// and `rows[i]` is the original id of `data`'s row `i`.
    ///
    /// Panics if the map length does not match the candidate count — a
    /// mismatched map would silently translate answers to wrong rows.
    pub fn reduced(data: Arc<Dataset>, rows: Arc<[usize]>) -> Self {
        assert_eq!(
            data.len(),
            rows.len(),
            "candidate row map length must match candidate dataset size"
        );
        Self {
            data,
            row_map: Some(rows),
        }
    }

    /// The candidate dataset (what [`FairHmsInstance`] should be built on).
    pub fn data(&self) -> &Arc<Dataset> {
        &self.data
    }

    /// Number of candidate rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the candidate set holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Translates candidate-local row ids to original row ids, sorted
    /// ascending — the form answers are reported in.
    pub fn to_original(&self, local: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> = match &self.row_map {
            Some(map) => local.iter().map(|&i| map[i]).collect(),
            None => local.to_vec(),
        };
        out.sort_unstable();
        out
    }
}

/// A solution to a FairHMS instance.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Selected row indices (into the instance's dataset), sorted.
    pub indices: Vec<usize>,
    /// The minimum happiness ratio as evaluated by the producing algorithm
    /// (exact for `IntCov`, δ-net-estimated for `BiGreedy`); `None` when
    /// the algorithm does not evaluate it.
    pub mhr: Option<f64>,
}

impl Solution {
    /// Creates a solution, sorting and deduplicating the indices.
    pub fn new(mut indices: Vec<usize>, mhr: Option<f64>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        Self { indices, mhr }
    }

    /// Number of selected points.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_data::Dataset;

    fn four_points() -> Dataset {
        Dataset::new(
            "t",
            2,
            vec![1.0, 0.0, 0.0, 1.0, 0.8, 0.5, 0.5, 0.8],
            vec![0, 0, 1, 1],
            vec!["a".into(), "b".into()],
        )
        .unwrap()
    }

    #[test]
    fn instance_validation() {
        let d = Arc::new(four_points());
        assert!(FairHmsInstance::new(Arc::clone(&d), 2, vec![1, 1], vec![1, 1]).is_ok());
        assert_eq!(
            FairHmsInstance::new(Arc::clone(&d), 0, vec![0, 0], vec![1, 1]).unwrap_err(),
            CoreError::KZero
        );
        assert_eq!(
            FairHmsInstance::new(Arc::clone(&d), 9, vec![0, 0], vec![9, 9]).unwrap_err(),
            CoreError::KTooLarge { k: 9, n: 4 }
        );
        assert!(matches!(
            FairHmsInstance::new(d, 2, vec![2, 2], vec![2, 2]).unwrap_err(),
            CoreError::Bounds(_)
        ));
        let empty = Dataset::ungrouped("e", 2, vec![]).unwrap();
        assert_eq!(
            FairHmsInstance::unconstrained(empty, 1).unwrap_err(),
            CoreError::EmptyDataset
        );
    }

    #[test]
    fn candidate_set_maps_rows_back() {
        let d = four_points();
        // Restrict to rows 1 and 3 (one per group).
        let cand = CandidateSet::reduced(Arc::new(d.subset(&[1, 3])), vec![1usize, 3].into());
        assert_eq!(cand.len(), 2);
        assert_eq!(cand.data().point(0), &[0.0, 1.0]);
        assert_eq!(cand.to_original(&[1, 0]), vec![1, 3]);

        let full = CandidateSet::full(Arc::new(four_points()));
        assert_eq!(full.to_original(&[2, 0]), vec![0, 2]);

        // A reduced set built from parts shares — never copies — the
        // already-materialized candidate dataset.
        let sky = Arc::new(d.subset(&[0, 2]));
        let before = fairhms_data::deep_clone_count();
        let shared = CandidateSet::reduced(Arc::clone(&sky), vec![0usize, 2].into());
        assert_eq!(fairhms_data::deep_clone_count(), before);
        assert!(std::ptr::eq(&**shared.data(), &*sky));
    }

    #[test]
    #[should_panic(expected = "candidate row map length")]
    fn candidate_set_rejects_mismatched_map() {
        let d = Arc::new(four_points());
        let _ = CandidateSet::reduced(d, vec![0usize].into());
    }

    #[test]
    fn complete_to_feasible_meets_bounds() {
        let d = four_points();
        let inst = FairHmsInstance::new(d, 3, vec![1, 1], vec![2, 2]).unwrap();
        let sel = inst.complete_to_feasible(&[0]).unwrap();
        assert_eq!(sel.len(), 3);
        assert!(inst.matroid().is_feasible(&sel));
        // lower bound of group b satisfied
        assert!(sel.iter().any(|&i| inst.data().group_of(i) == 1));
        // from empty
        let sel2 = inst.complete_to_feasible(&[]).unwrap();
        assert!(inst.matroid().is_feasible(&sel2));
    }

    #[test]
    fn instances_share_the_dataset_allocation() {
        let d = Arc::new(four_points());
        let before = fairhms_data::deep_clone_count();
        let a = FairHmsInstance::new(Arc::clone(&d), 2, vec![1, 1], vec![1, 1]).unwrap();
        let b = a.clone();
        // Construction and instance cloning are refcount bumps on the one
        // allocation — never point-matrix copies.
        assert!(std::ptr::eq(a.data(), &*d));
        assert!(std::ptr::eq(b.data(), &*d));
        assert_eq!(fairhms_data::deep_clone_count(), before);
    }

    #[test]
    fn solution_sorts_and_dedups() {
        let s = Solution::new(vec![3, 1, 3, 0], Some(0.5));
        assert_eq!(s.indices, vec![0, 1, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }
}
