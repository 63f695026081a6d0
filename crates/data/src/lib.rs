//! Dataset substrate for FairHMS.
//!
//! * [`dataset`] — the [`Dataset`] type: a dense numeric matrix with group
//!   labels and scale-only normalization (dividing each attribute by its
//!   maximum; shifting is forbidden because minimum happiness ratios are
//!   invariant under per-attribute scaling but *not* under translation).
//! * [`skyline`] — dominance and skyline computation; the paper precomputes
//!   the union of per-group skylines as the input to every algorithm.
//! * [`gen`] — synthetic generators, including the Börzsönyi et al.
//!   anti-correlated generator used throughout the paper's evaluation, and
//!   the paper's group-assignment scheme (attribute-sum quantiles).
//! * [`realsim`] — simulators standing in for the paper's real datasets
//!   (Lawschs, Adult, Compas, Credit), which cannot be downloaded in this
//!   environment. Each matches the published n, d, group structure, and
//!   approximate skyline scale (documented per simulator), plus the literal 8-row
//!   LSAC example of Table 1.
//! * [`csv`] — minimal CSV import/export for datasets and result series.
//! * [`stats`] — dataset statistics used to regenerate Table 2.

pub mod csv;
pub mod dataset;
pub mod gen;
pub mod realsim;
pub mod skyline;
pub mod stats;

pub use dataset::{deep_clone_count, Dataset, DatasetError, Table};
