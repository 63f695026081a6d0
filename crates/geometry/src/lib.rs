//! Geometric substrate for FairHMS.
//!
//! This crate provides the computational-geometry building blocks the
//! FairHMS algorithms rely on:
//!
//! * [`vecmath`] — dense vector kernels (dot products, norms, scaling) on
//!   `&[f64]` slices, shared by every other crate.
//! * [`mod@line`] / [`envelope`] — lines over the 2D utility parameter
//!   `λ ∈ [0, 1]` and their *upper envelope*, the core structure behind the
//!   paper's `IntCov` algorithm (Section 3): each 2D point maps to the line
//!   `λ ↦ p[2] + (p[1] − p[2])λ`, the database maximum is the upper
//!   envelope, and the `τ`-envelope decides which utilities a point keeps
//!   happy.
//! * [`sphere`] — uniform sampling on the nonnegative unit sphere
//!   `S^{d−1}_+` and `δ`-net construction (Section 4.1 of the paper).
//! * [`kernel`] — ε-kernel style direction sets used by the `Sphere`
//!   baseline.
//! * [`soa`] — cache-blocked structure-of-arrays evaluation kernels
//!   (`SoaMatrix`), bitwise-equal to the scalar `vecmath` loops and the
//!   backbone of the service's `m × n` utility-evaluation hot path.
//!
//! All floating-point comparisons go through the crate-level [`EPS`]
//! tolerance; the algorithms in `fairhms-core` depend on the exact
//! tie-breaking rules documented on each function.

pub mod envelope;
pub mod kernel;
pub mod line;
pub mod soa;
pub mod sphere;
pub mod vecmath;

pub use envelope::{Envelope, Segment};
pub use line::Line;

/// Global absolute tolerance for floating-point comparisons.
///
/// The FairHMS inputs are normalized to `[0, 1]`, so an absolute tolerance
/// is appropriate: all envelope intersections, happiness ratios, and LP
/// reduced costs live in `O(1)` magnitude.
pub const EPS: f64 = 1e-9;
