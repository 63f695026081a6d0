//! The [`Dataset`] type and the multi-grouping [`Table`] wrapper.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use fairhms_geometry::soa::SoaMatrix;

/// Process-wide count of [`Dataset`] deep copies (`Clone::clone` calls).
///
/// The serving stack shares prepared datasets through `Arc<Dataset>`, so a
/// query must never deep-copy the point matrix; this counter is the probe
/// the zero-copy regression tests assert on. Derived datasets built by
/// [`Dataset::subset`] are *not* counted — they are new (usually smaller)
/// datasets, not copies of an existing one.
static DEEP_CLONES: AtomicUsize = AtomicUsize::new(0);

/// Number of [`Dataset`] deep copies performed by this process so far.
///
/// Monotone; sample it before and after a code path to assert the path
/// performed no full-matrix copies.
pub fn deep_clone_count() -> usize {
    // ordering: test probe; SeqCst so before/after samples taken around
    // a code path observe every clone from every thread, exactly.
    DEEP_CLONES.load(Ordering::SeqCst)
}

/// Errors raised by dataset construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// The flat point buffer length is not a multiple of the dimension.
    RaggedMatrix,
    /// The group label vector length differs from the number of points.
    GroupLengthMismatch,
    /// A group label is out of range.
    GroupOutOfRange {
        /// Offending row.
        row: usize,
    },
    /// A coordinate is negative or non-finite.
    InvalidCoordinate {
        /// Offending row.
        row: usize,
        /// Offending column.
        col: usize,
    },
    /// Requested categorical attribute does not exist on the table.
    UnknownAttribute(String),
    /// A row index is past the end of the dataset.
    RowOutOfRange {
        /// Offending row.
        row: usize,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::RaggedMatrix => write!(f, "point buffer is not a multiple of dim"),
            DatasetError::GroupLengthMismatch => write!(f, "group labels do not match point count"),
            DatasetError::GroupOutOfRange { row } => {
                write!(f, "group label out of range at row {row}")
            }
            DatasetError::InvalidCoordinate { row, col } => {
                write!(f, "negative or non-finite coordinate at ({row}, {col})")
            }
            DatasetError::UnknownAttribute(a) => write!(f, "unknown categorical attribute {a:?}"),
            DatasetError::RowOutOfRange { row } => write!(f, "row {row} out of range"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// A database of `n` points in `R^d_+` partitioned into `C` disjoint groups.
///
/// Points are stored row-major in a flat `Vec<f64>`; `groups[i]` is the
/// group index of row `i` (in `0..num_groups`). All FairHMS algorithms
/// consume this type after [`Dataset::normalize`] (scale-only) and usually
/// after restriction to the union of per-group skylines.
#[derive(Debug)]
pub struct Dataset {
    name: String,
    dim: usize,
    points: Vec<f64>,
    /// Shared so consumers needing owned group labels (e.g. the fairness
    /// matroid) can hold a refcounted handle instead of an `O(n)` copy.
    groups: Arc<[usize]>,
    /// `|D_c|` per group, counted as the labels are written; its length
    /// is the group count `C`.
    group_sizes: Vec<usize>,
    group_names: Vec<String>,
    /// Lazily built block-tiled SoA view of `points`, shared by every
    /// consumer of this dataset (the serving stack holds `Arc<Dataset>`,
    /// so one build serves all queries against a prepared form). Reset by
    /// the in-place mutators ([`Dataset::normalize`]).
    soa: OnceLock<SoaMatrix>,
}

/// Deep copy of the full point matrix (group labels stay shared).
///
/// Counted by [`deep_clone_count`] so tests can assert hot paths share
/// datasets (via `Arc<Dataset>`) instead of copying them. Prefer
/// `Arc::clone` on an already-shared dataset wherever possible.
impl Clone for Dataset {
    fn clone(&self) -> Self {
        // ordering: test probe increment; SeqCst pairs with the sampling
        // loads in deep_clone_count().
        DEEP_CLONES.fetch_add(1, Ordering::SeqCst);
        Self {
            name: self.name.clone(),
            dim: self.dim,
            points: self.points.clone(),
            groups: Arc::clone(&self.groups),
            group_sizes: self.group_sizes.clone(),
            group_names: self.group_names.clone(),
            soa: OnceLock::new(),
        }
    }
}

impl Dataset {
    /// Builds a dataset, validating shapes, labels, and coordinates.
    pub fn new(
        name: impl Into<String>,
        dim: usize,
        points: Vec<f64>,
        groups: Vec<usize>,
        group_names: Vec<String>,
    ) -> Result<Self, DatasetError> {
        if dim == 0 || !points.len().is_multiple_of(dim) {
            return Err(DatasetError::RaggedMatrix);
        }
        let n = points.len() / dim;
        if groups.len() != n {
            return Err(DatasetError::GroupLengthMismatch);
        }
        // With explicit names, labels must index into them; otherwise the
        // group count is inferred from the labels.
        let num_groups = if group_names.is_empty() {
            groups.iter().copied().max().map_or(1, |g| g + 1)
        } else {
            group_names.len()
        };
        let mut group_sizes = vec![0usize; num_groups];
        for (row, &g) in groups.iter().enumerate() {
            if g >= num_groups {
                return Err(DatasetError::GroupOutOfRange { row });
            }
            group_sizes[g] += 1;
        }
        for (i, &v) in points.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(DatasetError::InvalidCoordinate {
                    row: i / dim,
                    col: i % dim,
                });
            }
        }
        let group_names = if group_names.is_empty() {
            (0..num_groups).map(|g| format!("g{g}")).collect()
        } else {
            group_names
        };
        Ok(Self {
            name: name.into(),
            dim,
            points,
            groups: groups.into(),
            group_sizes,
            group_names,
            soa: OnceLock::new(),
        })
    }

    /// A dataset with a single group (vanilla HMS).
    pub fn ungrouped(
        name: impl Into<String>,
        dim: usize,
        points: Vec<f64>,
    ) -> Result<Self, DatasetError> {
        let n = points.len().checked_div(dim).unwrap_or(0);
        Self::new(name, dim, points, vec![0; n], vec!["all".into()])
    }

    /// Dataset name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len() / self.dim
    }

    /// True when the dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of groups `C`.
    pub fn num_groups(&self) -> usize {
        self.group_sizes.len()
    }

    /// Human-readable group names, indexed by group id.
    pub fn group_names(&self) -> &[String] {
        &self.group_names
    }

    /// The `i`-th point as a slice.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// The flat row-major point buffer.
    pub fn points_flat(&self) -> &[f64] {
        &self.points
    }

    /// The block-tiled SoA view of the point matrix, built on first use
    /// and cached for the lifetime of this dataset (see
    /// [`fairhms_geometry::soa::SoaMatrix`]).
    pub fn soa(&self) -> &SoaMatrix {
        self.soa
            .get_or_init(|| SoaMatrix::from_rows(&self.points, self.dim))
    }

    /// `max_{p ∈ D} ⟨u, p⟩` through the blocked SoA kernel.
    ///
    /// Bitwise-equal to the scalar oracle
    /// [`fairhms_geometry::vecmath::max_utility`]: the kernel performs each
    /// row's multiply-adds and the `f64::max` fold in exactly the scalar
    /// order (see [`fairhms_geometry::soa`]). Returns `0.0` on an empty
    /// dataset.
    pub fn max_dot(&self, u: &[f64]) -> f64 {
        self.soa().max_dot(u)
    }

    /// `max_{p ∈ D} ⟨u, p⟩` for every utility in `us` — the `m × n`
    /// extreme-value sweep of BiGreedy setup, in the cache-blocked
    /// batched form: the point matrix streams through memory once for all
    /// utilities instead of once per utility (see
    /// [`fairhms_geometry::soa::SoaMatrix::max_dot_many`]). Bitwise-equal
    /// to mapping [`Dataset::max_dot`] over `us`.
    pub fn max_dot_many(&self, us: &[Vec<f64>]) -> Vec<f64> {
        let mut out = vec![0.0; us.len()];
        self.soa().max_dot_many(us, &mut out);
        out
    }

    /// Writes `⟨p_i, u⟩` for every row `i` into `out` through the blocked
    /// SoA kernel (each element bitwise-equal to
    /// [`fairhms_geometry::vecmath::dot`]).
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    pub fn dot_batch(&self, u: &[f64], out: &mut [f64]) {
        self.soa().dot_batch(u, out);
    }

    /// Group label of row `i`.
    #[inline]
    pub fn group_of(&self, i: usize) -> usize {
        self.groups[i]
    }

    /// All group labels.
    pub fn groups(&self) -> &[usize] {
        &self.groups
    }

    /// A shared handle to the group labels (a refcount bump, never a
    /// copy) — for consumers that must own the labels, like the fairness
    /// matroid built per instance.
    pub fn shared_groups(&self) -> Arc<[usize]> {
        Arc::clone(&self.groups)
    }

    /// `|D_c|` for every group `c`.
    pub fn group_sizes(&self) -> Vec<usize> {
        self.group_sizes.clone()
    }

    /// Row indices belonging to group `c`.
    pub fn group_indices(&self, c: usize) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.groups[i] == c).collect()
    }

    /// Scale-only normalization: divides every attribute by its maximum so
    /// values lie in `[0, 1]`. Returns the scale factors applied.
    ///
    /// Happiness ratios are invariant under this map (scaling attribute `i`
    /// by `s > 0` is a bijection `u[i] ↦ u[i]/s` of the utility space), so
    /// normalized and raw datasets have identical optima. Attributes that
    /// are identically zero are left unchanged.
    pub fn normalize(&mut self) -> Vec<f64> {
        // In-place mutation: drop any previously built SoA view so the
        // next kernel call re-tiles the rescaled matrix.
        self.soa = OnceLock::new();
        let mut maxima = vec![0.0_f64; self.dim];
        for p in self.points.chunks_exact(self.dim) {
            for (m, &v) in maxima.iter_mut().zip(p) {
                *m = m.max(v);
            }
        }
        for p in self.points.chunks_exact_mut(self.dim) {
            for (v, &m) in p.iter_mut().zip(&maxima) {
                if m > 0.0 {
                    *v /= m;
                }
            }
        }
        maxima
    }

    /// The sub-dataset induced by `rows` (order preserved, groups kept).
    pub fn subset(&self, rows: &[usize]) -> Dataset {
        let mut points = Vec::with_capacity(rows.len() * self.dim);
        let mut groups = Vec::with_capacity(rows.len());
        let mut group_sizes = vec![0usize; self.num_groups()];
        for &r in rows {
            points.extend_from_slice(self.point(r));
            groups.push(self.groups[r]);
            group_sizes[self.groups[r]] += 1;
        }
        Dataset {
            name: self.name.clone(),
            dim: self.dim,
            points,
            groups: groups.into(),
            group_sizes,
            group_names: self.group_names.clone(),
            soa: OnceLock::new(),
        }
    }

    /// A new dataset with `coords` appended as the last row, labeled
    /// `group` (which must be an existing group index — mutation never
    /// invents groups). Like [`Dataset::subset`], this is a derivation
    /// constructor — a new dataset, not a copy — so it is not counted by
    /// [`deep_clone_count`], and the derived SoA view starts cold.
    pub fn with_appended_row(&self, coords: &[f64], group: usize) -> Result<Dataset, DatasetError> {
        if coords.len() != self.dim {
            return Err(DatasetError::RaggedMatrix);
        }
        if group >= self.num_groups() {
            return Err(DatasetError::GroupOutOfRange { row: self.len() });
        }
        for (col, &v) in coords.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(DatasetError::InvalidCoordinate {
                    row: self.len(),
                    col,
                });
            }
        }
        let mut points = Vec::with_capacity(self.points.len() + self.dim);
        points.extend_from_slice(&self.points);
        points.extend_from_slice(coords);
        let mut groups = Vec::with_capacity(self.groups.len() + 1);
        groups.extend_from_slice(&self.groups);
        groups.push(group);
        let mut group_sizes = self.group_sizes.clone();
        group_sizes[group] += 1;
        Ok(Dataset {
            name: self.name.clone(),
            dim: self.dim,
            points,
            groups: groups.into(),
            group_sizes,
            group_names: self.group_names.clone(),
            soa: OnceLock::new(),
        })
    }

    /// A new dataset with `row` removed; every later row shifts down by
    /// one (the compacted id space mutation consumers expect). The group
    /// count is preserved even when the removed row was its group's last
    /// member. A derivation constructor like [`Dataset::with_appended_row`]
    /// — not counted by [`deep_clone_count`].
    pub fn with_removed_row(&self, row: usize) -> Result<Dataset, DatasetError> {
        if row >= self.len() {
            return Err(DatasetError::RowOutOfRange { row });
        }
        let mut points = Vec::with_capacity(self.points.len() - self.dim);
        points.extend_from_slice(&self.points[..row * self.dim]);
        points.extend_from_slice(&self.points[(row + 1) * self.dim..]);
        let mut groups = Vec::with_capacity(self.groups.len() - 1);
        groups.extend_from_slice(&self.groups[..row]);
        groups.extend_from_slice(&self.groups[row + 1..]);
        let mut group_sizes = self.group_sizes.clone();
        group_sizes[self.groups[row]] -= 1;
        Ok(Dataset {
            name: self.name.clone(),
            dim: self.dim,
            points,
            groups: groups.into(),
            group_sizes,
            group_names: self.group_names.clone(),
            soa: OnceLock::new(),
        })
    }
}

/// A numeric table carrying several categorical attributes, from which
/// [`Dataset`]s with different group partitions are derived — mirroring the
/// paper's use of e.g. Adult grouped by gender, race, or their combination.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Numeric dimensionality.
    pub dim: usize,
    /// Row-major numeric matrix.
    pub points: Vec<f64>,
    /// Categorical attributes: `(attribute name, per-row value index, value names)`.
    pub cats: Vec<(String, Vec<usize>, Vec<String>)>,
}

impl Table {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.points.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Derives a [`Dataset`] grouped by the cross product of the named
    /// categorical attributes (e.g. `["gender", "race"]` gives the paper's
    /// "G+R" partition with `C = C_gender × C_race` groups). Only group
    /// combinations that actually occur get a group id.
    pub fn dataset(&self, attrs: &[&str]) -> Result<Dataset, DatasetError> {
        let n = self.len();
        let mut selected = Vec::with_capacity(attrs.len());
        for &a in attrs {
            let cat = self
                .cats
                .iter()
                .find(|(name, _, _)| name == a)
                .ok_or_else(|| DatasetError::UnknownAttribute(a.to_string()))?;
            selected.push(cat);
        }
        let mut combo_ids: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
        let mut groups = Vec::with_capacity(n);
        for row in 0..n {
            let key: Vec<usize> = selected.iter().map(|(_, vals, _)| vals[row]).collect();
            let next = combo_ids.len();
            let id = *combo_ids.entry(key).or_insert(next);
            groups.push(id);
        }
        let mut group_names = vec![String::new(); combo_ids.len()];
        for (key, &id) in &combo_ids {
            let name = key
                .iter()
                .zip(&selected)
                .map(|(&v, (_, _, names))| names[v].clone())
                .collect::<Vec<_>>()
                .join("+");
            group_names[id] = name;
        }
        let label = format!("{} ({})", self.name, attrs.join("+"));
        Dataset::new(label, self.dim, self.points.clone(), groups, group_names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_geometry::vecmath;
    use std::sync::Mutex;

    /// Serializes the tests that assert on the process-global deep-clone
    /// counter: a concurrent `clone()` in another test would move it
    /// inside their measurement window.
    static CLONE_PROBE: Mutex<()> = Mutex::new(());

    fn tiny() -> Dataset {
        Dataset::new(
            "tiny",
            2,
            vec![2.0, 0.0, 0.0, 4.0, 1.0, 1.0],
            vec![0, 1, 0],
            vec!["a".into(), "b".into()],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.num_groups(), 2);
        assert_eq!(d.point(1), &[0.0, 4.0]);
        assert_eq!(d.group_sizes(), vec![2, 1]);
        assert_eq!(d.group_indices(0), vec![0, 2]);
    }

    #[test]
    fn clone_moves_the_deep_clone_probe() {
        let _probe = CLONE_PROBE.lock().unwrap_or_else(|e| e.into_inner());
        let d = tiny();
        let before = deep_clone_count();
        let copy = d.clone();
        assert_eq!(copy.points_flat(), d.points_flat());
        // Monotone global counter: our clone adds at least one.
        assert!(deep_clone_count() > before);
        // Derivations are new datasets, not copies — not counted.
        let mid = deep_clone_count();
        let _sub = d.subset(&[0, 1]);
        assert_eq!(deep_clone_count(), mid);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            Dataset::new("x", 2, vec![1.0], vec![], vec![]).unwrap_err(),
            DatasetError::RaggedMatrix
        );
        assert_eq!(
            Dataset::new("x", 1, vec![1.0], vec![0, 1], vec![]).unwrap_err(),
            DatasetError::GroupLengthMismatch
        );
        assert_eq!(
            Dataset::new("x", 1, vec![-1.0], vec![0], vec![]).unwrap_err(),
            DatasetError::InvalidCoordinate { row: 0, col: 0 }
        );
        assert_eq!(
            Dataset::new("x", 1, vec![f64::NAN], vec![0], vec![]).unwrap_err(),
            DatasetError::InvalidCoordinate { row: 0, col: 0 }
        );
        assert_eq!(
            Dataset::new("x", 1, vec![1.0], vec![3], vec!["only".into()]).unwrap_err(),
            DatasetError::GroupOutOfRange { row: 0 }
        );
    }

    #[test]
    fn normalize_is_scale_only() {
        let mut d = tiny();
        let scales = d.normalize();
        assert_eq!(scales, vec![2.0, 4.0]);
        assert_eq!(d.point(0), &[1.0, 0.0]);
        assert_eq!(d.point(1), &[0.0, 1.0]);
        assert_eq!(d.point(2), &[0.5, 0.25]);
    }

    #[test]
    fn normalize_zero_column_noop() {
        let mut d = Dataset::ungrouped("z", 2, vec![0.0, 1.0, 0.0, 2.0]).unwrap();
        let scales = d.normalize();
        assert_eq!(scales[0], 0.0);
        assert_eq!(d.point(0), &[0.0, 0.5]);
    }

    #[test]
    fn soa_view_matches_scalar_and_resets_on_normalize() {
        // All three kernel entry points agree bitwise with the scalar
        // oracles, before and after normalize.
        fn assert_matches_oracle(d: &Dataset) {
            // Five utilities: one group of four plus a remainder in the
            // batched sweep.
            let us: Vec<Vec<f64>> = (0..5)
                .map(|t| vec![0.3 + 0.1 * t as f64, 0.7 - 0.2 * t as f64])
                .collect();
            let many = d.max_dot_many(&us);
            assert_eq!(many.len(), us.len());
            let mut out = vec![0.0; d.len()];
            for (u, got) in us.iter().zip(&many) {
                let expect = vecmath::max_utility(d.points_flat(), d.dim(), u);
                assert_eq!(d.soa().max_dot(u).to_bits(), expect.to_bits());
                assert_eq!(d.max_dot(u).to_bits(), expect.to_bits());
                assert_eq!(got.to_bits(), expect.to_bits());
                d.dot_batch(u, &mut out);
                for (i, &v) in out.iter().enumerate() {
                    assert_eq!(v.to_bits(), vecmath::dot(d.point(i), u).to_bits());
                }
            }
        }
        let mut d = tiny();
        assert_matches_oracle(&d);
        // normalize mutates the matrix in place: the cached view must be
        // rebuilt, not served stale.
        d.normalize();
        assert_matches_oracle(&d);
    }

    #[test]
    fn subset_preserves_groups() {
        let d = tiny();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), &[1.0, 1.0]);
        assert_eq!(s.group_of(0), 0);
        assert_eq!(s.num_groups(), 2);
    }

    #[test]
    fn appended_and_removed_rows_derive_new_datasets() {
        let _probe = CLONE_PROBE.lock().unwrap_or_else(|e| e.into_inner());
        let d = tiny();
        let before = deep_clone_count();
        let a = d.with_appended_row(&[3.0, 3.0], 1).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.point(3), &[3.0, 3.0]);
        assert_eq!(a.group_of(3), 1);
        assert_eq!(a.num_groups(), 2);
        let r = a.with_removed_row(1).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.point(1), &[1.0, 1.0]); // old row 2 shifted down
        assert_eq!(r.point(2), &[3.0, 3.0]);
        assert_eq!(r.group_sizes(), vec![2, 1]);
        // Derivations, not copies: the clone probe must not move.
        assert_eq!(deep_clone_count(), before);
        // Removing a group's last member keeps the group around (empty).
        let only_b_gone = tiny().with_removed_row(1).unwrap();
        assert_eq!(only_b_gone.num_groups(), 2);
        assert_eq!(only_b_gone.group_sizes(), vec![2, 0]);
    }

    #[test]
    fn row_mutation_validation_errors() {
        let d = tiny();
        assert_eq!(
            d.with_appended_row(&[1.0], 0).unwrap_err(),
            DatasetError::RaggedMatrix
        );
        assert_eq!(
            d.with_appended_row(&[1.0, 1.0], 9).unwrap_err(),
            DatasetError::GroupOutOfRange { row: 3 }
        );
        assert_eq!(
            d.with_appended_row(&[1.0, -0.5], 0).unwrap_err(),
            DatasetError::InvalidCoordinate { row: 3, col: 1 }
        );
        assert_eq!(
            d.with_appended_row(&[1.0, f64::NAN], 0).unwrap_err(),
            DatasetError::InvalidCoordinate { row: 3, col: 1 }
        );
        assert_eq!(
            d.with_removed_row(3).unwrap_err(),
            DatasetError::RowOutOfRange { row: 3 }
        );
    }

    #[test]
    fn table_cross_product_grouping() {
        let t = Table {
            name: "t".into(),
            dim: 1,
            points: vec![1.0, 2.0, 3.0, 4.0],
            cats: vec![
                ("g".into(), vec![0, 1, 0, 1], vec!["f".into(), "m".into()]),
                ("r".into(), vec![0, 0, 1, 1], vec!["x".into(), "y".into()]),
            ],
        };
        let by_g = t.dataset(&["g"]).unwrap();
        assert_eq!(by_g.num_groups(), 2);
        let by_gr = t.dataset(&["g", "r"]).unwrap();
        assert_eq!(by_gr.num_groups(), 4);
        assert!(by_gr.group_names().contains(&"f+x".to_string()));
        assert!(t.dataset(&["nope"]).is_err());
    }
}
