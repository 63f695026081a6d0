//! One-pass (plus one aggregate pass) streaming FairHMS.
//!
//! For datasets too large to buffer, FairHMS can be answered in two passes:
//!
//! 1. an *aggregate* pass computing `max_{p∈D} ⟨u,p⟩` for every utility in
//!    the δ-net (a `m`-vector of running maxima — constant memory);
//! 2. a *selection* pass feeding each tuple once to the swap-based
//!    streaming algorithm ([`fairhms_submodular::streaming`]) under the
//!    fairness matroid with the truncated MHR objective.
//!
//! The output is always feasible (`|S| = k`, bounds met); quality carries
//! the constant-factor streaming guarantee instead of the offline greedy's
//! `1/2`, which is the price of not buffering the data. This extends the
//! paper along the direction of its own foundation — Halabi et al.'s
//! streaming fair submodular maximization.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_geometry::sphere::random_net_with_basis;
use fairhms_geometry::vecmath::dot;
use fairhms_submodular::streaming::{streaming_matroid, StreamingConfig};

use crate::objective::TruncatedMhrObjective;
use crate::types::{CoreError, FairHmsInstance, Solution};

/// Configuration for [`streaming_fairhms`].
#[derive(Debug, Clone)]
pub struct StreamingFairHmsConfig {
    /// δ-net size; defaults to the paper's `10·k·d` when `None`.
    pub sample_size: Option<usize>,
    /// Cap `τ` of the truncated objective. `1.0` (default) maximizes the
    /// plain average happiness; smaller caps focus on the worst case at the
    /// cost of swap sensitivity.
    pub tau: f64,
    /// Swap aggressiveness (see [`StreamingConfig`]).
    pub swap_factor: f64,
    /// RNG seed for the net.
    pub seed: u64,
}

impl Default for StreamingFairHmsConfig {
    fn default() -> Self {
        Self {
            sample_size: None,
            tau: 1.0,
            swap_factor: 2.0,
            seed: 42,
        }
    }
}

impl StreamingFairHmsConfig {
    /// Validates the numeric parameters, mirroring
    /// [`BiGreedyConfig::validate`](crate::bigreedy::BiGreedyConfig::validate):
    /// `tau` must be finite in `(0, 1]` and `swap_factor` finite and
    /// `> 0`. The solver runs at exactly these values — there is no clamp
    /// between validation and use. (A NaN cap would otherwise run the
    /// objective untruncated, and a NaN swap factor disable every swap.)
    pub fn validate(&self) -> Result<(), CoreError> {
        let t = self.tau;
        if !t.is_finite() || t <= 0.0 || t > 1.0 {
            return Err(CoreError::InvalidParameter {
                param: "tau",
                value: format!("{t}"),
                expected: "a finite value in (0, 1]",
            });
        }
        let f = self.swap_factor;
        if !f.is_finite() || f <= 0.0 {
            return Err(CoreError::InvalidParameter {
                param: "swap_factor",
                value: format!("{f}"),
                expected: "a finite value > 0",
            });
        }
        Ok(())
    }
}

/// Runs two-pass streaming FairHMS over the instance's dataset in row
/// order. [`Solution::mhr`] is the δ-net estimate of the result.
pub fn streaming_fairhms(
    inst: &FairHmsInstance,
    config: &StreamingFairHmsConfig,
) -> Result<Solution, CoreError> {
    config.validate()?;
    let data = inst.data();
    let d = inst.dim();
    let m = config.sample_size.unwrap_or(10 * inst.k() * d).max(2);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let net = random_net_with_basis(d, m, &mut rng);

    // Pass 1: running per-utility maxima (the only global aggregate used).
    let mut db_max = vec![0.0_f64; net.len()];
    for i in 0..data.len() {
        let p = data.point(i);
        for (mx, u) in db_max.iter_mut().zip(&net) {
            let s = dot(p, u);
            if s > *mx {
                *mx = s;
            }
        }
    }

    // Pass 2: swap-based streaming selection. The score cache is disabled:
    // a streaming setting cannot precompute an n × m matrix.
    let objective = TruncatedMhrObjective::with_cache_limit(data, &net, &db_max, config.tau, 0);
    let stream_cfg = StreamingConfig {
        swap_factor: config.swap_factor,
    };
    let result = streaming_matroid(&objective, inst.matroid(), 0..data.len(), &stream_cfg);
    let indices = inst.complete_to_feasible(&result.items)?;

    let mhr = objective.mhr_of_state(&objective.state_of(&indices));
    Ok(Solution::new(indices, Some(mhr)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigreedy::{bigreedy, BiGreedyConfig};
    use crate::eval::mhr_exact_2d;
    use fairhms_data::realsim::lsac_example;

    fn lsac_instance(k: usize) -> FairHmsInstance {
        let mut ds = lsac_example().dataset(&["gender"]).unwrap();
        ds.normalize();
        let c = ds.num_groups();
        FairHmsInstance::new(ds, k, vec![1; c], vec![k - 1; c]).unwrap()
    }

    #[test]
    fn always_feasible() {
        for k in 2..=4 {
            let inst = lsac_instance(k);
            let sol = streaming_fairhms(&inst, &StreamingFairHmsConfig::default()).unwrap();
            assert_eq!(sol.len(), k);
            assert!(inst.matroid().is_feasible(&sol.indices));
        }
    }

    #[test]
    fn quality_within_constant_of_offline() {
        let inst = lsac_instance(3);
        let streamed = streaming_fairhms(&inst, &StreamingFairHmsConfig::default()).unwrap();
        let offline = bigreedy(&inst, &BiGreedyConfig::paper_default(3, 2)).unwrap();
        let ms = mhr_exact_2d(inst.data(), &streamed.indices);
        let mo = mhr_exact_2d(inst.data(), &offline.indices);
        assert!(ms >= 0.25 * mo, "streaming {ms} vs offline {mo}");
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = lsac_instance(3);
        let cfg = StreamingFairHmsConfig::default();
        assert_eq!(
            streaming_fairhms(&inst, &cfg).unwrap().indices,
            streaming_fairhms(&inst, &cfg).unwrap().indices
        );
    }

    #[test]
    fn invalid_tau_or_swap_factor_yield_typed_errors() {
        // Regression: τ used to be clamped into [f64::MIN_POSITIVE, 1], so
        // τ ≤ 0 or > 1 ran silently as a different cap, and a NaN τ passed
        // the clamp and ran the objective untruncated; a NaN swap factor
        // silently disabled every swap.
        let inst = lsac_instance(2);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.5, 1.5] {
            let cfg = StreamingFairHmsConfig {
                tau: bad,
                ..StreamingFairHmsConfig::default()
            };
            match streaming_fairhms(&inst, &cfg) {
                Err(CoreError::InvalidParameter { param: "tau", .. }) => {}
                other => panic!("tau = {bad}: expected typed error, got {other:?}"),
            }
        }
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let cfg = StreamingFairHmsConfig {
                swap_factor: bad,
                ..StreamingFairHmsConfig::default()
            };
            match streaming_fairhms(&inst, &cfg) {
                Err(CoreError::InvalidParameter {
                    param: "swap_factor",
                    ..
                }) => {}
                other => panic!("swap_factor = {bad}: expected typed error, got {other:?}"),
            }
        }
        // Both boundaries of the accepted τ range run as given.
        for tau in [f64::MIN_POSITIVE, 1.0] {
            let cfg = StreamingFairHmsConfig {
                tau,
                ..StreamingFairHmsConfig::default()
            };
            assert!(streaming_fairhms(&inst, &cfg).is_ok(), "tau = {tau}");
        }
    }

    #[test]
    fn smaller_tau_accepted() {
        let inst = lsac_instance(2);
        let cfg = StreamingFairHmsConfig {
            tau: 0.9,
            ..StreamingFairHmsConfig::default()
        };
        let sol = streaming_fairhms(&inst, &cfg).unwrap();
        assert!(inst.matroid().is_feasible(&sol.indices));
    }
}
