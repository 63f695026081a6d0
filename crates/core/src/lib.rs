//! FairHMS: happiness maximizing sets under group fairness constraints.
//!
//! This crate implements the algorithms of *"Happiness Maximizing Sets
//! under Group Fairness Constraints"* (Zheng, Ma, Ma, Wang, Wang — VLDB
//! 2022) together with the state-of-the-art RMS/HMS baselines they are
//! evaluated against:
//!
//! * [`mod@intcov`] — the exact 2D algorithm (Algorithm 1 + the fair
//!   interval-cover dynamic program of Algorithm 2);
//! * [`mod@bigreedy`] — the bicriteria approximation for any dimension
//!   (Algorithm 3), reducing FairHMS to multi-objective submodular
//!   maximization over a δ-net under the fairness matroid;
//! * [`adaptive`] — `BiGreedy+`, the adaptive-sampling variant
//!   (Algorithm 4);
//! * [`baselines`] — `RDP-Greedy`, `DMM`, `Sphere`, and the hitting-set
//!   algorithm `HS`, implemented from their original papers;
//! * [`adapt`] — the paper's fair adaptations: per-group `G-<Alg>`
//!   wrappers and the LP-based `F-Greedy`;
//! * [`eval`] — exact (2D-envelope and LP-based) and δ-net-sampled
//!   minimum-happiness-ratio evaluators plus the `err(S)` fairness
//!   violation count;
//! * [`registry`] — one table of every algorithm, by name, for the CLI,
//!   the server and the experiment harness.
//!
//! The entry type is [`FairHmsInstance`]: a normalized grouped dataset plus
//! the solution size `k` and per-group bounds. Instances hold their
//! dataset behind an `Arc`, so building many instances over one prepared
//! dataset (the serving catalog's pattern) shares a single allocation —
//! construction never copies the point matrix. See the crate-level
//! examples in the repository's `examples/` directory for end-to-end
//! usage.

pub mod adapt;
pub mod adaptive;
pub mod baselines;
pub mod bigreedy;
pub mod candidates2d;
#[cfg(test)]
mod edge_tests;
pub mod eval;
pub mod intcov;
mod lp_greedy;
pub mod objective;
pub mod registry;
pub mod streaming;
pub mod types;

pub use adaptive::{bigreedy_plus, BiGreedyPlusConfig};
pub use bigreedy::{
    bigreedy, BiGreedyConfig, BiGreedyMode, CachedDbMax, ProbeLog, SampledNet, TauSearch,
};
pub use intcov::intcov;
pub use registry::WarmStart;
pub use streaming::{streaming_fairhms, StreamingFairHmsConfig};
pub use types::{CoreError, FairHmsInstance, Solution};
