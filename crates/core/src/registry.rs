//! A uniform algorithm interface for the experiment harness.
//!
//! Every figure in the paper compares a fixed cast of algorithms; the
//! [`Algorithm`] trait lets the harness iterate over them generically.
//! Fair algorithms guarantee `err(S) = 0`; the *unfair* entries run the
//! original baselines ignoring the bounds (used by Figure 3 to measure
//! their violations).

use std::sync::{Arc, Mutex};

use fairhms_obs::sync::lock_or_recover;

use crate::adapt::{f_greedy, g_adapt, g_greedy};
use crate::adaptive::{bigreedy_plus, BiGreedyPlusConfig};
use crate::baselines::{dmm, hitting_set, rdp_greedy, sphere, DmmConfig, HsConfig};
use fairhms_data::Dataset;

use crate::bigreedy::{
    bigreedy, bigreedy_on_net_with_db_max, BiGreedyConfig, CachedDbMax, SampledNet,
};
use crate::intcov::intcov;
use crate::types::{CoreError, FairHmsInstance, Solution};

/// Reusable intermediate solver state threaded through
/// [`Algorithm::solve_with`] — the warm-start seam.
///
/// The context holds one slot: `BiGreedy`'s `db_max` vector, the `m × n`
/// extreme-value pass of its setup. A serving layer seeds the slot with
/// the vector it cached for the query at hand; `BiGreedy` verifies the
/// vector's `(dim, m, seed, n)` preimage before reusing it, and otherwise
/// computes a fresh one and deposits it in the slot for the caller to
/// cache. The caller tells the two apart by comparing the deposited
/// `Arc` with the seed (`Arc::ptr_eq`). Reuse is **provably inert**:
/// `db_max` is deterministic in its preimage, so a warm solve is
/// bit-identical to a cold one.
///
/// Every other algorithm ignores the context (the default
/// [`Algorithm::solve_with`] does).
#[derive(Debug, Default)]
pub struct WarmStart {
    db_max: Mutex<Option<Arc<CachedDbMax>>>,
}

impl WarmStart {
    /// A context seeded with a previously deposited `db_max` vector, if
    /// any.
    pub fn seeded(db_max: Option<Arc<CachedDbMax>>) -> Self {
        Self {
            db_max: Mutex::new(db_max),
        }
    }

    /// The `db_max` vector for exactly `net` over `data`: the seeded
    /// vector when its `(dim, m, seed, n)` preimage matches
    /// (bit-identical to recomputation, so reuse cannot change answers),
    /// otherwise freshly computed and deposited for the caller to cache.
    pub fn db_max_for(&self, net: &SampledNet, data: &Dataset) -> Arc<CachedDbMax> {
        let mut slot = lock_or_recover(&self.db_max);
        if let Some(cached) = slot.as_ref() {
            if cached.matches(net.dim, net.m, net.seed, data.len()) {
                return Arc::clone(cached);
            }
        }
        let fresh = Arc::new(CachedDbMax::compute(data, net));
        *slot = Some(Arc::clone(&fresh));
        fresh
    }

    /// The vector in the slot: the seed, or the one the solve deposited.
    pub fn db_max(&self) -> Option<Arc<CachedDbMax>> {
        lock_or_recover(&self.db_max).clone()
    }
}

/// An algorithm the harness can run on a [`FairHmsInstance`].
pub trait Algorithm: Send + Sync {
    /// Display name, matching the paper's figures (e.g. `"BiGreedy+"`).
    fn name(&self) -> &'static str;

    /// Whether the output is guaranteed to satisfy the fairness bounds.
    fn is_fair(&self) -> bool;

    /// Solves the instance.
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError>;

    /// Solves the instance, optionally reusing (and depositing)
    /// intermediate state through `warm` — **contractually
    /// bit-identical** to [`Algorithm::solve`] for every input; the
    /// context only changes *how fast* the answer is computed. The
    /// default implementation ignores the context.
    fn solve_with(&self, inst: &FairHmsInstance, warm: &WarmStart) -> Result<Solution, CoreError> {
        let _ = warm;
        self.solve(inst)
    }
}

/// `IntCov` — exact, 2D only.
pub struct IntCovAlg;

impl Algorithm for IntCovAlg {
    fn name(&self) -> &'static str {
        "IntCov"
    }
    fn is_fair(&self) -> bool {
        true
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        intcov(inst)
    }
}

/// `BiGreedy` with the paper's `m = mult·k·d` sampling.
pub struct BiGreedyAlg {
    /// Net-size multiplier (`m = mult·k·d`); the paper uses 10.
    pub m_multiplier: usize,
    /// Cap-search accuracy ε.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BiGreedyAlg {
    fn default() -> Self {
        Self {
            m_multiplier: 10,
            epsilon: 0.02,
            seed: 42,
        }
    }
}

impl BiGreedyAlg {
    fn config(&self, inst: &FairHmsInstance) -> BiGreedyConfig {
        BiGreedyConfig {
            epsilon: self.epsilon,
            sample_size: Some(self.m_multiplier * inst.k() * inst.dim()),
            seed: self.seed,
            ..BiGreedyConfig::default()
        }
    }
}

impl Algorithm for BiGreedyAlg {
    fn name(&self) -> &'static str {
        "BiGreedy"
    }
    fn is_fair(&self) -> bool {
        true
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        bigreedy(inst, &self.config(inst))
    }
    /// Samples the δ-net fresh, then takes its `db_max` vector through
    /// the context ([`WarmStart::db_max_for`]): the `m × n` extreme-value
    /// pass is the costly part of setup. Bit-identical to
    /// [`Self::solve`] because `db_max` is deterministic in its preimage.
    fn solve_with(&self, inst: &FairHmsInstance, warm: &WarmStart) -> Result<Solution, CoreError> {
        let cfg = self.config(inst);
        cfg.validate()?;
        let net = SampledNet::generate(inst.dim(), cfg.resolve_m(inst.dim()), cfg.seed);
        let db_max = warm.db_max_for(&net, inst.data());
        bigreedy_on_net_with_db_max(inst, &net.vectors, &db_max.values, &cfg).map(|(sol, _tau)| sol)
    }
}

/// `BiGreedy+` with the paper's `M = mult·k·d`, `m₀ = 0.05·M`.
pub struct BiGreedyPlusAlg {
    /// Net-size multiplier for `M`.
    pub m_multiplier: usize,
    /// Cap-search accuracy ε.
    pub epsilon: f64,
    /// Stabilization threshold λ.
    pub lambda: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BiGreedyPlusAlg {
    fn default() -> Self {
        Self {
            m_multiplier: 10,
            epsilon: 0.02,
            lambda: 0.04,
            seed: 42,
        }
    }
}

impl Algorithm for BiGreedyPlusAlg {
    fn name(&self) -> &'static str {
        "BiGreedy+"
    }
    fn is_fair(&self) -> bool {
        true
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        let m = self.m_multiplier * inst.k() * inst.dim();
        let cfg = BiGreedyPlusConfig {
            epsilon: self.epsilon,
            lambda: self.lambda,
            m0: Some(((m as f64) * 0.05).ceil() as usize),
            max_m: Some(m),
            seed: self.seed,
            ..BiGreedyPlusConfig::default()
        };
        bigreedy_plus(inst, &cfg)
    }
}

/// `F-Greedy` — the matroid-constrained LP greedy.
pub struct FGreedyAlg;

impl Algorithm for FGreedyAlg {
    fn name(&self) -> &'static str {
        "F-Greedy"
    }
    fn is_fair(&self) -> bool {
        true
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        f_greedy(inst)
    }
}

/// `G-Greedy` — per-group `RDP-Greedy`.
pub struct GGreedyAlg;

impl Algorithm for GGreedyAlg {
    fn name(&self) -> &'static str {
        "G-Greedy"
    }
    fn is_fair(&self) -> bool {
        true
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        g_greedy(inst)
    }
}

/// `G-DMM` — per-group `DMM`.
#[derive(Default)]
pub struct GDmmAlg {
    /// DMM discretization configuration.
    pub config: DmmConfig,
}

impl Algorithm for GDmmAlg {
    fn name(&self) -> &'static str {
        "G-DMM"
    }
    fn is_fair(&self) -> bool {
        true
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        g_adapt(inst, |d, k| dmm(d, k, &self.config))
    }
}

/// `G-Sphere` — per-group `Sphere`.
pub struct GSphereAlg;

impl Algorithm for GSphereAlg {
    fn name(&self) -> &'static str {
        "G-Sphere"
    }
    fn is_fair(&self) -> bool {
        true
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        g_adapt(inst, sphere)
    }
}

/// `G-HS` — per-group hitting set.
#[derive(Default)]
pub struct GHsAlg {
    /// Hitting-set configuration.
    pub config: HsConfig,
}

impl Algorithm for GHsAlg {
    fn name(&self) -> &'static str {
        "G-HS"
    }
    fn is_fair(&self) -> bool {
        true
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        g_adapt(inst, |d, k| hitting_set(d, k, &self.config))
    }
}

/// Two-pass streaming FairHMS (extension; see [`crate::streaming`]).
#[derive(Default)]
pub struct StreamingAlg {
    /// Streaming configuration.
    pub config: crate::streaming::StreamingFairHmsConfig,
}

impl Algorithm for StreamingAlg {
    fn name(&self) -> &'static str {
        "Streaming"
    }
    fn is_fair(&self) -> bool {
        true
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        crate::streaming::streaming_fairhms(inst, &self.config)
    }
}

/// Original (unfair) `Greedy`, ignoring the bounds — Figure 3's subject.
pub struct UnfairGreedyAlg;

impl Algorithm for UnfairGreedyAlg {
    fn name(&self) -> &'static str {
        "Greedy"
    }
    fn is_fair(&self) -> bool {
        false
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        rdp_greedy(inst.data(), inst.k()).map(|v| Solution::new(v, None))
    }
}

/// Original (unfair) `DMM`.
#[derive(Default)]
pub struct UnfairDmmAlg {
    /// DMM discretization configuration.
    pub config: DmmConfig,
}

impl Algorithm for UnfairDmmAlg {
    fn name(&self) -> &'static str {
        "DMM"
    }
    fn is_fair(&self) -> bool {
        false
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        dmm(inst.data(), inst.k(), &self.config).map(|v| Solution::new(v, None))
    }
}

/// Original (unfair) `Sphere`.
pub struct UnfairSphereAlg;

impl Algorithm for UnfairSphereAlg {
    fn name(&self) -> &'static str {
        "Sphere"
    }
    fn is_fair(&self) -> bool {
        false
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        sphere(inst.data(), inst.k()).map(|v| Solution::new(v, None))
    }
}

/// Original (unfair) `HS`.
#[derive(Default)]
pub struct UnfairHsAlg {
    /// Hitting-set configuration.
    pub config: HsConfig,
}

impl Algorithm for UnfairHsAlg {
    fn name(&self) -> &'static str {
        "HS"
    }
    fn is_fair(&self) -> bool {
        false
    }
    fn solve(&self, inst: &FairHmsInstance) -> Result<Solution, CoreError> {
        hitting_set(inst.data(), inst.k(), &self.config).map(|v| Solution::new(v, None))
    }
}

/// Canonical wire/CLI names accepted by [`by_name`], in display order.
///
/// Matching is case-insensitive; `"bigreedy+"`/`"bigreedyplus"` and the
/// paper spellings (`"BiGreedy+"`, `"G-DMM"`, …) resolve to the same
/// algorithms.
pub const ALGORITHM_NAMES: [&str; 13] = [
    "intcov",
    "bigreedy",
    "bigreedy+",
    "f-greedy",
    "g-greedy",
    "g-dmm",
    "g-hs",
    "g-sphere",
    "streaming",
    "greedy",
    "dmm",
    "hs",
    "sphere",
];

/// Index of `name` (any accepted spelling) within [`ALGORITHM_NAMES`],
/// or `None` if unknown.
///
/// This gives telemetry and cost-model layers a stable, dense label
/// space: per-algorithm-family histograms are arrays of length
/// `ALGORITHM_NAMES.len()` indexed by this function, so labels never
/// drift from the registry.
pub fn family_index(name: &str) -> Option<usize> {
    let canon = canonical_name(name)?;
    ALGORITHM_NAMES.iter().position(|n| *n == canon)
}

/// Tunables threaded through [`by_name`] into the constructed algorithm.
///
/// Every field has the default the paper's evaluation uses; callers
/// override only what a query specifies. Algorithms ignore parameters they
/// do not consume (e.g. `seed` for the deterministic `IntCov`).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmParams {
    /// RNG seed for sampling-based algorithms.
    pub seed: u64,
    /// Net-size multiplier for `BiGreedy`/`BiGreedy+` (`m = mult·k·d`).
    pub m_multiplier: usize,
    /// Cap-search accuracy ε for `BiGreedy`/`BiGreedy+`.
    pub epsilon: f64,
}

impl Default for AlgorithmParams {
    fn default() -> Self {
        Self {
            seed: 42,
            m_multiplier: 10,
            epsilon: 0.02,
        }
    }
}

/// Resolves any accepted spelling of an algorithm name (paper display
/// names, CLI names, alias forms — case-insensitive) to its canonical
/// entry in [`ALGORITHM_NAMES`], or `None` if unknown.
///
/// Callers that key caches or fingerprints on an algorithm name must hash
/// the canonical form, not the raw input, so `"BiGreedy+"`,
/// `"bigreedyplus"`, and `"bigreedy+"` share one entry.
pub fn canonical_name(name: &str) -> Option<&'static str> {
    let lower = name.to_ascii_lowercase();
    Some(match lower.as_str() {
        "intcov" => "intcov",
        "bigreedy" => "bigreedy",
        "bigreedy+" | "bigreedyplus" => "bigreedy+",
        "f-greedy" | "fgreedy" => "f-greedy",
        "g-greedy" | "ggreedy" => "g-greedy",
        "g-dmm" | "gdmm" => "g-dmm",
        "g-hs" | "ghs" => "g-hs",
        "g-sphere" | "gsphere" => "g-sphere",
        "streaming" => "streaming",
        "greedy" | "rdp-greedy" => "greedy",
        "dmm" => "dmm",
        "hs" => "hs",
        "sphere" => "sphere",
        _ => return None,
    })
}

/// Constructs the algorithm registered under `name` (case-insensitive,
/// aliases accepted — see [`canonical_name`]).
///
/// This is the single name→algorithm seam shared by the CLI `solve` path
/// and the service wire protocol; new algorithms become reachable from
/// both by extending [`canonical_name`] and the match here. Returns
/// [`CoreError::UnknownAlgorithm`] for unrecognized names.
pub fn by_name(name: &str, params: &AlgorithmParams) -> Result<Box<dyn Algorithm>, CoreError> {
    let Some(canon) = canonical_name(name) else {
        return Err(CoreError::UnknownAlgorithm {
            name: name.to_string(),
        });
    };
    let alg: Box<dyn Algorithm> = match canon {
        "intcov" => Box::new(IntCovAlg),
        "bigreedy" => Box::new(BiGreedyAlg {
            m_multiplier: params.m_multiplier,
            epsilon: params.epsilon,
            seed: params.seed,
        }),
        "bigreedy+" => Box::new(BiGreedyPlusAlg {
            m_multiplier: params.m_multiplier,
            epsilon: params.epsilon,
            seed: params.seed,
            ..BiGreedyPlusAlg::default()
        }),
        "f-greedy" => Box::new(FGreedyAlg),
        "g-greedy" => Box::new(GGreedyAlg),
        "g-dmm" => Box::new(GDmmAlg::default()),
        "g-hs" => Box::new(GHsAlg::default()),
        "g-sphere" => Box::new(GSphereAlg),
        "streaming" => Box::new(StreamingAlg {
            config: crate::streaming::StreamingFairHmsConfig {
                seed: params.seed,
                ..crate::streaming::StreamingFairHmsConfig::default()
            },
        }),
        "greedy" => Box::new(UnfairGreedyAlg),
        "dmm" => Box::new(UnfairDmmAlg::default()),
        "hs" => Box::new(UnfairHsAlg::default()),
        "sphere" => Box::new(UnfairSphereAlg),
        _ => unreachable!("canonical_name returned a name outside ALGORITHM_NAMES"),
    };
    Ok(alg)
}

/// The fair cast of the multi-dimensional figures (5–7): our algorithms
/// plus every adapted baseline.
pub fn fair_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(BiGreedyAlg::default()),
        Box::new(BiGreedyPlusAlg::default()),
        Box::new(FGreedyAlg),
        Box::new(GGreedyAlg),
        Box::new(GDmmAlg::default()),
        Box::new(GHsAlg::default()),
        Box::new(GSphereAlg),
    ]
}

/// The unfair cast of Figure 3 plus our (fair) algorithms for contrast.
pub fn fig3_algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(BiGreedyAlg::default()),
        Box::new(BiGreedyPlusAlg::default()),
        Box::new(UnfairGreedyAlg),
        Box::new(UnfairDmmAlg::default()),
        Box::new(UnfairHsAlg::default()),
        Box::new(UnfairSphereAlg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_data::realsim::lsac_example;

    fn lsac_instance(k: usize) -> FairHmsInstance {
        let mut ds = lsac_example().dataset(&["gender"]).unwrap();
        ds.normalize();
        let c = ds.num_groups();
        FairHmsInstance::new(ds, k, vec![1; c], vec![k - 1; c]).unwrap()
    }

    #[test]
    fn fair_algorithms_produce_feasible_solutions() {
        let inst = lsac_instance(4);
        for alg in fair_algorithms() {
            let sol = match alg.solve(&inst) {
                Ok(s) => s,
                // G-DMM / G-Sphere may legitimately refuse tiny quotas
                Err(CoreError::ResourceLimit { .. }) => continue,
                Err(e) => panic!("{} failed: {e}", alg.name()),
            };
            assert!(alg.is_fair());
            assert_eq!(sol.len(), 4, "{}", alg.name());
            assert!(
                inst.matroid().is_feasible(&sol.indices),
                "{} infeasible",
                alg.name()
            );
        }
    }

    #[test]
    fn unfair_algorithms_report_unfair() {
        for alg in fig3_algorithms() {
            match alg.name() {
                "BiGreedy" | "BiGreedy+" => assert!(alg.is_fair()),
                _ => assert!(!alg.is_fair(), "{}", alg.name()),
            }
        }
    }

    #[test]
    fn by_name_resolves_every_registered_name() {
        let params = AlgorithmParams::default();
        for name in ALGORITHM_NAMES {
            let alg =
                by_name(name, &params).unwrap_or_else(|e| panic!("{name} failed to resolve: {e}"));
            // Paper display names resolve back to the same algorithm.
            let display = alg.name();
            let again = by_name(display, &params)
                .unwrap_or_else(|e| panic!("display name {display} failed: {e}"));
            assert_eq!(again.name(), display);
            assert_eq!(again.is_fair(), alg.is_fair());
        }
    }

    #[test]
    fn canonical_name_covers_registry_and_aliases() {
        // every canonical name maps to itself
        for name in ALGORITHM_NAMES {
            assert_eq!(canonical_name(name), Some(name));
        }
        assert_eq!(canonical_name("BiGreedyPlus"), Some("bigreedy+"));
        assert_eq!(canonical_name("RDP-Greedy"), Some("greedy"));
        assert_eq!(canonical_name("GSphere"), Some("g-sphere"));
        assert_eq!(canonical_name("quantum"), None);
    }

    #[test]
    fn family_index_is_dense_and_alias_stable() {
        for (i, name) in ALGORITHM_NAMES.iter().enumerate() {
            assert_eq!(family_index(name), Some(i));
        }
        assert_eq!(family_index("BiGreedyPlus"), family_index("bigreedy+"));
        assert_eq!(family_index("RDP-Greedy"), family_index("greedy"));
        assert_eq!(family_index("nope"), None);
    }

    #[test]
    fn by_name_rejects_unknown_names() {
        let err = match by_name("no-such-alg", &AlgorithmParams::default()) {
            Ok(alg) => panic!("resolved unexpectedly to {}", alg.name()),
            Err(e) => e,
        };
        assert_eq!(
            err,
            CoreError::UnknownAlgorithm {
                name: "no-such-alg".into()
            }
        );
        assert!(err.to_string().contains("bigreedy+"));
    }

    #[test]
    fn by_name_threads_params() {
        let params = AlgorithmParams {
            seed: 7,
            m_multiplier: 3,
            epsilon: 0.5,
        };
        let inst = lsac_instance(4);
        // Same params → identical solutions from a sampling algorithm.
        let a = by_name("bigreedy", &params).unwrap().solve(&inst).unwrap();
        let b = by_name("BiGreedy", &params).unwrap().solve(&inst).unwrap();
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.mhr.map(f64::to_bits), b.mhr.map(f64::to_bits));
    }

    #[test]
    fn solve_with_matches_solve_for_every_algorithm() {
        // The warm-start contract: an empty context, a populated context,
        // and the plain `solve` path are all bit-identical.
        let inst = lsac_instance(4);
        let params = AlgorithmParams::default();
        for name in ALGORITHM_NAMES {
            let alg = by_name(name, &params).unwrap();
            let cold = alg.solve(&inst);
            let warm_ctx = WarmStart::default();
            let first = alg.solve_with(&inst, &warm_ctx);
            // Second solve reuses whatever the first deposited.
            let second = alg.solve_with(&inst, &warm_ctx);
            for (label, got) in [("fresh ctx", &first), ("reused ctx", &second)] {
                match (&cold, got) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.indices, b.indices, "{name} ({label})");
                        assert_eq!(
                            a.mhr.map(f64::to_bits),
                            b.mhr.map(f64::to_bits),
                            "{name} ({label})"
                        );
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "{name} ({label})"),
                    (a, b) => panic!("{name} ({label}): diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn warm_start_db_max_reuse_and_preimage_verification() {
        let inst = lsac_instance(4);
        let data = inst.data();
        let ctx = WarmStart::default();
        assert!(ctx.db_max().is_none());
        let net = SampledNet::generate(inst.dim(), 60, 42);
        let a = ctx.db_max_for(&net, data);
        assert_eq!(a.values.len(), net.vectors.len());
        // Matching preimage: the same allocation comes back.
        let b = ctx.db_max_for(&net, data);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        // Mismatched preimage (different net seed): recomputed, deposited.
        let other_net = SampledNet::generate(inst.dim(), 60, 7);
        let c = ctx.db_max_for(&other_net, data);
        assert!(!std::sync::Arc::ptr_eq(&a, &c));
        assert_eq!(ctx.db_max().unwrap().seed, 7);
        // Mismatched preimage (different n, e.g. full vs skyline form):
        // never reused, even for the same net.
        let smaller = data.subset(&[0, 1, 2]);
        let d = ctx.db_max_for(&other_net, &smaller);
        assert!(!std::sync::Arc::ptr_eq(&c, &d));
        assert_eq!(d.n, 3);

        // Seeding a context from a cached vector short-circuits the pass,
        // and the slot still holds the seed afterwards.
        let seeded = WarmStart::seeded(Some(a.clone()));
        let e = seeded.db_max_for(&net, data);
        assert!(std::sync::Arc::ptr_eq(&a, &e));
        assert!(std::sync::Arc::ptr_eq(&a, &seeded.db_max().unwrap()));
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = fair_algorithms().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "BiGreedy",
                "BiGreedy+",
                "F-Greedy",
                "G-Greedy",
                "G-DMM",
                "G-HS",
                "G-Sphere"
            ]
        );
    }
}
