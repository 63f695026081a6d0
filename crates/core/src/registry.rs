//! The algorithm registry: one table of the 13 algorithms the CLI, the
//! server and the figure binaries run.
//!
//! Each [`Algorithm`] in [`ALGORITHMS`] is declared once, with its
//! canonical key, the paper's display name, any extra spellings, whether
//! its output is guaranteed fair (`err(S) = 0`) and its solve function.
//! The *unfair* entries run the original baselines ignoring the bounds
//! (Figure 3 measures their violations). The `ALGS` reply, the
//! per-family telemetry labels, the unknown-algorithm message and the
//! figure casts are all read from the table.

use std::sync::{Arc, Mutex};

use fairhms_obs::sync::lock_or_recover;

use crate::adapt::{f_greedy, g_adapt, g_greedy};
use crate::adaptive::{bigreedy_plus, BiGreedyPlusConfig};
use crate::baselines::{dmm, hitting_set, rdp_greedy, sphere, DmmConfig, HsConfig};
use fairhms_data::Dataset;

use crate::bigreedy::{bigreedy_replaying, BiGreedyConfig, CachedDbMax, ProbeLog, SampledNet};
use crate::intcov::intcov;
use crate::streaming::{streaming_fairhms, StreamingFairHmsConfig};
use crate::types::{CoreError, FairHmsInstance, Solution};

/// Reusable intermediate solver state threaded through
/// [`Algorithm::solve_with`] — the warm-start seam.
///
/// The context holds `BiGreedy`'s state for one `(data, net)` pair: its
/// `db_max` vector, the `m × n` extreme-value pass of its setup, and the
/// [`ProbeLog`] of its τ-probes. A serving layer seeds both with what it
/// cached for the query at hand. `BiGreedy` verifies the vector's
/// `(dim, m, seed, n)` preimage before reusing it, and otherwise computes
/// a fresh one and deposits it for the caller to cache; the caller tells
/// the two apart by comparing the deposited `Arc` with the seed
/// (`Arc::ptr_eq`). It then replays every seeded probe that would run the
/// same under the query's bounds, runs the rest, and deposits its own log
/// (a new `Arc` only if some probe ran) with the two counts. The vector
/// is `m` floats (3.2 KB at `m = 400`); the log 752–808 bytes at that
/// shape (see [`ProbeLog`]). Reuse is
/// **provably inert**: `db_max` is deterministic in its preimage and a
/// probe is replayed only when it would make the same picks, so a warm
/// solve is bit-identical to a cold one.
///
/// Every other algorithm ignores the context.
#[derive(Debug, Default)]
pub struct WarmStart {
    db_max: Mutex<Option<Arc<CachedDbMax>>>,
    probes: Mutex<ProbeSlot>,
}

/// The probe half of a [`WarmStart`]: the log, and how the last solve
/// came by its probes.
#[derive(Debug, Default)]
struct ProbeSlot {
    log: Option<Arc<ProbeLog>>,
    replayed: usize,
    run: usize,
}

impl WarmStart {
    /// A context seeded with a previously deposited `db_max` vector and
    /// probe log, if any.
    pub fn seeded(db_max: Option<Arc<CachedDbMax>>, probes: Option<Arc<ProbeLog>>) -> Self {
        Self {
            db_max: Mutex::new(db_max),
            probes: Mutex::new(ProbeSlot {
                log: probes,
                ..ProbeSlot::default()
            }),
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

    /// The probe log in the slot: the seed, or the one the solve
    /// deposited.
    pub fn probes(&self) -> Option<Arc<ProbeLog>> {
        lock_or_recover(&self.probes).log.clone()
    }

    /// `(replayed, run)`: how many τ-probes the solve replayed from the
    /// seeded log and how many it ran; `(0, 0)` before a `BiGreedy` solve.
    pub fn probe_counts(&self) -> (usize, usize) {
        let slot = lock_or_recover(&self.probes);
        (slot.replayed, slot.run)
    }

    /// Deposits a solve's log. A solve that replayed every probe keeps the
    /// seeded log, which made the same picks.
    fn deposit(&self, log: ProbeLog, replayed: usize) {
        let mut slot = lock_or_recover(&self.probes);
        slot.replayed = replayed;
        slot.run = log.probe_count() - replayed;
        if slot.run > 0 || slot.log.is_none() {
            slot.log = Some(Arc::new(log));
        }
    }
}

/// The RNG seed of the paper's evaluation runs: the figures' seed and the
/// CLI's default.
pub const DEFAULT_SEED: u64 = 42;

/// An algorithm the CLI, the server and the figure harness can run on a
/// [`FairHmsInstance`]: one entry of [`ALGORITHMS`].
#[derive(Debug)]
pub struct Algorithm {
    /// Canonical wire/CLI key (e.g. `"bigreedy+"`): the `ALGS` entry, the
    /// `engine.solve.<family>` label and the spelling answer caches key on.
    pub key: &'static str,
    /// Display name, matching the paper's figures (e.g. `"BiGreedy+"`).
    pub name: &'static str,
    /// Spellings accepted besides the key and the display name.
    pub aliases: &'static [&'static str],
    /// Whether the output is guaranteed to satisfy the fairness bounds.
    pub is_fair: bool,
    /// Solves an instance with the given RNG seed (deterministic
    /// algorithms ignore it), reusing and depositing intermediate state
    /// through the context. **Contractually bit-identical** for every
    /// context: the context only changes how fast the answer comes.
    pub solve_with: fn(&FairHmsInstance, u64, &WarmStart) -> Result<Solution, CoreError>,
}

impl Algorithm {
    /// Solves `inst` from scratch: [`Algorithm::solve_with`] with an
    /// empty context.
    pub fn solve(&self, inst: &FairHmsInstance, seed: u64) -> Result<Solution, CoreError> {
        (self.solve_with)(inst, seed, &WarmStart::default())
    }

    fn answers_to(&self, spelling: &str) -> bool {
        std::iter::once(&self.key)
            .chain([&self.name])
            .chain(self.aliases)
            .any(|s| s.eq_ignore_ascii_case(spelling))
    }
}

/// Every registered algorithm, in the order `ALGS` lists them.
///
/// Spellings match case-insensitively, and no spelling names two
/// entries.
pub static ALGORITHMS: [Algorithm; 13] = [
    Algorithm {
        key: "intcov",
        name: "IntCov",
        aliases: &[],
        is_fair: true,
        solve_with: |inst, _, _| intcov(inst),
    },
    Algorithm {
        key: "bigreedy",
        name: "BiGreedy",
        aliases: &[],
        is_fair: true,
        solve_with: solve_bigreedy,
    },
    Algorithm {
        key: "bigreedy+",
        name: "BiGreedy+",
        aliases: &["bigreedyplus"],
        is_fair: true,
        solve_with: |inst, seed, _| {
            let cfg = BiGreedyPlusConfig {
                seed,
                ..BiGreedyPlusConfig::paper_default(inst.k(), inst.dim())
            };
            bigreedy_plus(inst, &cfg)
        },
    },
    Algorithm {
        key: "f-greedy",
        name: "F-Greedy",
        aliases: &["fgreedy"],
        is_fair: true,
        solve_with: |inst, _, _| f_greedy(inst),
    },
    Algorithm {
        key: "g-greedy",
        name: "G-Greedy",
        aliases: &["ggreedy"],
        is_fair: true,
        solve_with: |inst, _, _| g_greedy(inst),
    },
    Algorithm {
        key: "g-dmm",
        name: "G-DMM",
        aliases: &["gdmm"],
        is_fair: true,
        solve_with: |inst, _, _| g_adapt(inst, |d, k| dmm(d, k, &DmmConfig::default())),
    },
    Algorithm {
        key: "g-hs",
        name: "G-HS",
        aliases: &["ghs"],
        is_fair: true,
        solve_with: |inst, _, _| g_adapt(inst, |d, k| hitting_set(d, k, &HsConfig::default())),
    },
    Algorithm {
        key: "g-sphere",
        name: "G-Sphere",
        aliases: &["gsphere"],
        is_fair: true,
        solve_with: |inst, _, _| g_adapt(inst, sphere),
    },
    Algorithm {
        key: "streaming",
        name: "Streaming",
        aliases: &[],
        is_fair: true,
        solve_with: |inst, seed, _| {
            let cfg = StreamingFairHmsConfig {
                seed,
                ..StreamingFairHmsConfig::default()
            };
            streaming_fairhms(inst, &cfg)
        },
    },
    Algorithm {
        key: "greedy",
        name: "Greedy",
        aliases: &["rdp-greedy"],
        is_fair: false,
        solve_with: |inst, _, _| unfair(rdp_greedy(inst.data(), inst.k())),
    },
    Algorithm {
        key: "dmm",
        name: "DMM",
        aliases: &[],
        is_fair: false,
        solve_with: |inst, _, _| unfair(dmm(inst.data(), inst.k(), &DmmConfig::default())),
    },
    Algorithm {
        key: "hs",
        name: "HS",
        aliases: &[],
        is_fair: false,
        solve_with: |inst, _, _| unfair(hitting_set(inst.data(), inst.k(), &HsConfig::default())),
    },
    Algorithm {
        key: "sphere",
        name: "Sphere",
        aliases: &[],
        is_fair: false,
        solve_with: |inst, _, _| unfair(sphere(inst.data(), inst.k())),
    },
];

/// `BiGreedy` at the paper's `m = 10·k·d`, `ε = 0.02`. The δ-net is
/// sampled fresh; its `db_max` vector, the costly `m × n` part of setup,
/// comes through the context ([`WarmStart::db_max_for`]), and so do the
/// τ-probes it may replay ([`WarmStart::probes`]).
fn solve_bigreedy(
    inst: &FairHmsInstance,
    seed: u64,
    warm: &WarmStart,
) -> Result<Solution, CoreError> {
    let cfg = BiGreedyConfig {
        seed,
        ..BiGreedyConfig::paper_default(inst.k(), inst.dim())
    };
    let net = SampledNet::generate(inst.dim(), cfg.resolve_m(inst.dim()), seed);
    let db_max = warm.db_max_for(&net, inst.data());
    let recorded = warm.probes();
    let run = bigreedy_replaying(
        inst,
        &net.vectors,
        &db_max.values,
        &cfg,
        recorded.as_deref(),
    )?;
    warm.deposit(run.log, run.replayed);
    Ok(run.solution)
}

/// An unfair baseline's selection as a [`Solution`] without an MHR value.
fn unfair(sel: Result<Vec<usize>, CoreError>) -> Result<Solution, CoreError> {
    sel.map(|v| Solution::new(v, None))
}

/// Index of the algorithm `name` (any accepted spelling) names within
/// [`ALGORITHMS`], or `None` if unknown.
///
/// This gives telemetry a stable, dense label space: per-algorithm-family
/// histograms are arrays of length `ALGORITHMS.len()` indexed by this
/// function, so labels never drift from the registry.
pub fn family_index(name: &str) -> Option<usize> {
    ALGORITHMS.iter().position(|a| a.answers_to(name))
}

/// The algorithm registered under `name` (any accepted spelling).
///
/// This is the single name→algorithm seam shared by the CLI `solve` path
/// and the service wire protocol. Callers that key caches on an algorithm
/// must key on [`Algorithm::key`], not the raw input, so `"BiGreedy+"`,
/// `"bigreedyplus"` and `"bigreedy+"` share one entry. Returns
/// [`CoreError::UnknownAlgorithm`] for unrecognized names.
pub fn by_name(name: &str) -> Result<&'static Algorithm, CoreError> {
    family_index(name)
        .map(|i| &ALGORITHMS[i])
        .ok_or_else(|| CoreError::UnknownAlgorithm {
            name: name.to_string(),
        })
}

/// The fair cast of the multi-dimensional figures (5–7): our algorithms
/// plus every adapted baseline — every fair entry except `IntCov` (2-D
/// only) and the streaming extension.
pub fn fair_algorithms() -> Vec<&'static Algorithm> {
    ALGORITHMS
        .iter()
        .filter(|a| a.is_fair && !matches!(a.key, "intcov" | "streaming"))
        .collect()
}

/// The unfair cast of Figure 3 plus our (fair) algorithms for contrast.
pub fn fig3_algorithms() -> Vec<&'static Algorithm> {
    ALGORITHMS
        .iter()
        .filter(|a| !a.is_fair || matches!(a.key, "bigreedy" | "bigreedy+"))
        .collect()
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
            let sol = match alg.solve(&inst, DEFAULT_SEED) {
                Ok(s) => s,
                // G-DMM / G-Sphere may legitimately refuse tiny quotas
                Err(CoreError::ResourceLimit { .. }) => continue,
                Err(e) => panic!("{} failed: {e}", alg.name),
            };
            assert!(alg.is_fair);
            assert_eq!(sol.len(), 4, "{}", alg.name);
            assert!(
                inst.matroid().is_feasible(&sol.indices),
                "{} infeasible",
                alg.name
            );
        }
    }

    #[test]
    fn unfair_algorithms_report_unfair() {
        for alg in fig3_algorithms() {
            match alg.name {
                "BiGreedy" | "BiGreedy+" => assert!(alg.is_fair),
                _ => assert!(!alg.is_fair, "{}", alg.name),
            }
        }
    }

    #[test]
    fn by_name_resolves_every_registered_name() {
        for entry in &ALGORITHMS {
            let name = entry.key;
            let alg = by_name(name).unwrap_or_else(|e| panic!("{name} failed to resolve: {e}"));
            assert!(std::ptr::eq(alg, entry), "{name}");
            // Paper display names and aliases resolve back to the same
            // algorithm.
            for spelling in std::iter::once(&alg.name).chain(alg.aliases) {
                let again =
                    by_name(spelling).unwrap_or_else(|e| panic!("spelling {spelling} failed: {e}"));
                assert!(std::ptr::eq(again, alg), "{spelling}");
            }
        }
    }

    #[test]
    fn family_index_is_dense_and_alias_stable() {
        for (i, alg) in ALGORITHMS.iter().enumerate() {
            assert_eq!(family_index(alg.key), Some(i));
        }
        assert_eq!(family_index("BiGreedyPlus"), family_index("bigreedy+"));
        assert_eq!(family_index("RDP-Greedy"), family_index("greedy"));
        assert_eq!(family_index("nope"), None);
    }

    #[test]
    fn by_name_rejects_unknown_names() {
        let err = match by_name("no-such-alg") {
            Ok(alg) => panic!("resolved unexpectedly to {}", alg.name),
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
        let inst = lsac_instance(4);
        // The seed reaches the net: the deposited `db_max` carries it.
        let warm = WarmStart::default();
        let a = (by_name("bigreedy").unwrap().solve_with)(&inst, 7, &warm).unwrap();
        assert_eq!(warm.db_max().unwrap().seed, 7);
        // Same seed → the answer of the library's own `bigreedy` entry
        // point at the paper's configuration, under any spelling.
        let cfg = BiGreedyConfig {
            seed: 7,
            ..BiGreedyConfig::paper_default(inst.k(), inst.dim())
        };
        let b = crate::bigreedy::bigreedy(&inst, &cfg).unwrap();
        let c = by_name("BiGreedy").unwrap().solve(&inst, 7).unwrap();
        for other in [&b, &c] {
            assert_eq!(a.indices, other.indices);
            assert_eq!(a.mhr.map(f64::to_bits), other.mhr.map(f64::to_bits));
        }
    }

    #[test]
    fn solve_with_matches_solve_for_every_algorithm() {
        // The warm-start contract: an empty context, a populated context,
        // and the plain `solve` path are all bit-identical.
        let inst = lsac_instance(4);
        for alg in &ALGORITHMS {
            let name = alg.key;
            let cold = alg.solve(&inst, DEFAULT_SEED);
            let warm_ctx = WarmStart::default();
            let first = (alg.solve_with)(&inst, DEFAULT_SEED, &warm_ctx);
            // Second solve reuses whatever the first deposited.
            let second = (alg.solve_with)(&inst, DEFAULT_SEED, &warm_ctx);
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
        let seeded = WarmStart::seeded(Some(a.clone()), None);
        let e = seeded.db_max_for(&net, data);
        assert!(std::sync::Arc::ptr_eq(&a, &e));
        assert!(std::sync::Arc::ptr_eq(&a, &seeded.db_max().unwrap()));
    }

    #[test]
    fn warm_start_replays_probes_and_keeps_a_fully_replayed_log() {
        let inst = lsac_instance(4);
        let bigreedy = by_name("bigreedy").unwrap();
        let first = WarmStart::default();
        let a = (bigreedy.solve_with)(&inst, 7, &first).unwrap();
        let (replayed, run) = first.probe_counts();
        assert_eq!(replayed, 0);
        assert!(run > 0);
        let log = first.probes().unwrap();
        // The same query, seeded: every probe replays, and the context
        // keeps the seeded log rather than an identical copy.
        let second = WarmStart::seeded(first.db_max(), Some(Arc::clone(&log)));
        let b = (bigreedy.solve_with)(&inst, 7, &second).unwrap();
        assert_eq!(second.probe_counts(), (run, 0));
        assert!(Arc::ptr_eq(&log, &second.probes().unwrap()));
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.mhr.map(f64::to_bits), b.mhr.map(f64::to_bits));
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = fair_algorithms().iter().map(|a| a.name).collect();
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
