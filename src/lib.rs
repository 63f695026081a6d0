//! # fairhms — Happiness Maximizing Sets under Group Fairness Constraints
//!
//! A production-quality Rust reproduction of *"Happiness Maximizing Sets
//! under Group Fairness Constraints"* (Zheng, Ma, Ma, Wang, Wang — VLDB
//! 2022). Given a database of tuples scored by unknown nonnegative linear
//! utilities and partitioned into demographic groups, **FairHMS** selects
//! `k` tuples that maximize the worst-case happiness ratio while keeping
//! every group's representation within prescribed bounds.
//!
//! ## Quickstart
//!
//! ```
//! use fairhms::prelude::*;
//!
//! // The paper's Table-1 LSAC sample, grouped by gender.
//! let mut data = fairhms::data::realsim::lsac_example()
//!     .dataset(&["gender"])
//!     .unwrap();
//! data.normalize(); // scale-only: divide each attribute by its max
//!
//! // One male and one female applicant, k = 2.
//! let inst = FairHmsInstance::new(data, 2, vec![1, 1], vec![1, 1]).unwrap();
//! let sol = intcov(&inst).unwrap(); // exact in 2D
//! assert_eq!(sol.indices, vec![4, 7]); // {a5, a8}, as in Example 2.2
//! assert!((sol.mhr.unwrap() - 0.9834).abs() < 5e-4);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`core`] | `IntCov`, `BiGreedy`, `BiGreedy+`, baselines, fair adapters, evaluators |
//! | [`data`] | datasets, skylines, generators, simulated real datasets |
//! | [`geometry`] | envelopes, δ-nets, ε-kernel directions |
//! | [`lp`] | two-phase simplex + happiness-ratio LPs |
//! | [`matroid`] | the group-fairness matroid and its bounds |
//! | [`submodular`] | greedy & lazy greedy under matroid constraints |
//! | [`service`] | resident query engine: catalog, solution cache, TCP server with a solve worker pool |
//!
//! See `docs/ARCHITECTURE.md` for the system inventory, `docs/PROTOCOL.md`
//! for the wire protocol, and the README's "Reproduction record" for the
//! per-figure experiment binaries.

pub use fairhms_core as core;
pub use fairhms_data as data;
pub use fairhms_geometry as geometry;
pub use fairhms_lp as lp;
pub use fairhms_matroid as matroid;
pub use fairhms_service as service;
pub use fairhms_submodular as submodular;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use fairhms_core::adapt::{f_greedy, g_adapt};
    pub use fairhms_core::adaptive::{bigreedy_plus, BiGreedyPlusConfig};
    pub use fairhms_core::bigreedy::{bigreedy, BiGreedyConfig, BiGreedyMode};
    pub use fairhms_core::eval::{mhr_exact_2d, mhr_exact_lp, NetEvaluator};
    pub use fairhms_core::intcov::intcov;
    pub use fairhms_core::registry::{by_name, Algorithm};
    pub use fairhms_core::types::{CoreError, FairHmsInstance, Solution};
    pub use fairhms_data::dataset::{Dataset, Table};
    pub use fairhms_data::skyline::group_skyline_indices;
    pub use fairhms_matroid::{balanced_bounds, proportional_bounds, FairnessMatroid, Matroid};
    pub use fairhms_service::{Catalog, Query, QueryEngine, ServiceError, SolutionCache};
}
