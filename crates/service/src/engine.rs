//! The query engine: canonicalize → cache → solve.

use std::sync::Arc;
use std::time::Instant;

use fairhms_core::registry::{self, WarmStart};
use fairhms_core::types::{CandidateSet, FairHmsInstance};
use fairhms_matroid::{balanced_bounds, proportional_bounds};
use fairhms_obs::sync::{lock_or_recover, wait_or_recover};

use crate::cache::{CacheStats, SolutionCache};
use crate::catalog::Catalog;
use crate::metrics::{ServiceMetrics, TelemetryConfig};
use crate::query::Query;
use crate::warmstart::{WarmConfig, WarmKey, WarmStartCache, WarmStats};
use crate::ServiceError;

/// The immutable result of solving one canonical query.
///
/// Cached and shared between identical queries, so it must be *independent
/// of how the query was executed* (worker, batch position, cache state):
/// indices are original row ids of the full dataset, and `mhr` is the
/// solving algorithm's own evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Selected rows, as 0-based indices into the *full* dataset (skyline
    /// restriction already mapped back), sorted.
    pub indices: Vec<usize>,
    /// Minimum happiness ratio as evaluated by the algorithm (exact for
    /// `IntCov`, net-estimated for `BiGreedy`; `None` if not evaluated).
    pub mhr: Option<f64>,
    /// Fairness violation count `err(S)` (0 for fair algorithms).
    pub violations: usize,
    /// Display name of the algorithm that produced the answer.
    pub alg: String,
    /// Wall-clock of the cold solve, microseconds.
    pub solve_micros: u64,
}

/// Per-stage wall-clock breakdown of one execution, nanoseconds.
///
/// Filled only when telemetry is enabled (the engine never reads the
/// clock for it otherwise); consumed by the server's slow-query log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Solution-cache consultations (summed across single-flight
    /// re-checks).
    pub cache_lookup_ns: u64,
    /// Blocked on another worker's identical in-flight solve.
    pub flight_wait_ns: u64,
    /// Warm-start tier lookup.
    pub warm_probe_ns: u64,
    /// The cold solve itself (0 for cache hits).
    pub solve_ns: u64,
}

/// One engine response: the (possibly shared) answer plus how this
/// particular execution obtained it.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The solution payload.
    pub answer: Arc<Answer>,
    /// Whether it came from the solution cache.
    pub cached: bool,
    /// Wall-clock of *this* execution, microseconds (cache hits are
    /// typically ~0; cold solves ≈ `answer.solve_micros`).
    pub micros: u64,
    /// Stage breakdown of this execution; `None` when telemetry is
    /// disabled. Purely informational — answers are bit-identical
    /// either way.
    pub stages: Option<StageTimings>,
}

/// What one catalog mutation did, as reported to the wire `MUTATED`
/// response: the post-mutation dataset shape plus the invalidation
/// fan-out (how many cached entries the delta sweep actually dropped —
/// the observable difference between delta and flat-epoch invalidation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationReport {
    /// Rows in the dataset after the mutation.
    pub rows: usize,
    /// Rows on the group skyline after the mutation.
    pub skyline: usize,
    /// Whether the group skyline changed (membership or row ids).
    pub sky_changed: bool,
    /// Whether the mutation fell back to a full re-prep (a normalization
    /// invariant broke — e.g. an appended coordinate above the current
    /// column max); answers are identical either way.
    pub rebuilt: bool,
    /// Answer-cache entries dropped by the delta sweep.
    pub cache_dropped: u64,
    /// Warm-start entries dropped by the delta sweep.
    pub warm_dropped: u64,
}

/// Catalog + cache + algorithm registry, shared by all workers.
///
/// `&QueryEngine` is `Sync`: the catalog is behind a `RwLock`, each cache
/// tier behind one mutex, and solves touch only shared immutable data —
/// so one engine serves every connection and batch worker concurrently.
pub struct QueryEngine {
    catalog: Arc<Catalog>,
    cache: SolutionCache,
    /// Second cache tier: BiGreedy `db_max` vectors shared by near-miss
    /// queries; answers are contractually identical to a fresh engine's
    /// (see [`crate::warmstart`]).
    warm: WarmStartCache,
    /// Fingerprints currently being solved, for single-flight coalescing:
    /// concurrent identical queries wait for the first solver instead of
    /// stampeding the same cold solve on every worker.
    in_flight: std::sync::Mutex<std::collections::HashSet<u64>>,
    in_flight_done: std::sync::Condvar,
    /// The process-wide telemetry surface, shared with the catalog (for
    /// prep spans), the executor, and the server (see
    /// [`crate::metrics::ServiceMetrics`]).
    metrics: Arc<ServiceMetrics>,
}

/// Removes an in-flight claim even if the solve panics, so waiting
/// queries are never stranded.
struct FlightGuard<'a> {
    engine: &'a QueryEngine,
    key: u64,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        lock_or_recover(&self.engine.in_flight).remove(&self.key);
        self.engine.in_flight_done.notify_all();
    }
}

/// Feeds the wall-clock duration of one [`QueryEngine::execute`] call
/// into the always-on execute-time EWMA on drop — every outcome counts
/// (hits, cold solves, errors), because each occupies a worker for that
/// long and the EWMA exists to price `retry_after_ms` back-off advice.
struct ExecTimeNote<'a> {
    metrics: &'a ServiceMetrics,
    t: Instant,
}

impl Drop for ExecTimeNote<'_> {
    fn drop(&mut self) {
        self.metrics
            .note_execute_micros(self.t.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }
}

impl QueryEngine {
    /// An engine over `catalog` with a solution cache of `cache_capacity`
    /// answers, the default warm-start tier, and telemetry on.
    pub fn new(catalog: Arc<Catalog>, cache_capacity: usize) -> Self {
        Self::with_config(
            catalog,
            cache_capacity,
            WarmConfig::default(),
            TelemetryConfig::default(),
        )
    }

    /// [`QueryEngine::new`] with everything explicit.
    ///
    /// The engine owns the process's [`ServiceMetrics`] and shares it
    /// with the catalog, so dataset-preparation spans land in the same
    /// snapshot as query spans.
    pub fn with_config(
        catalog: Arc<Catalog>,
        cache_capacity: usize,
        warm: WarmConfig,
        telemetry: TelemetryConfig,
    ) -> Self {
        let metrics = Arc::new(ServiceMetrics::new(telemetry.enabled));
        catalog.set_metrics(Arc::clone(&metrics));
        Self {
            catalog,
            cache: SolutionCache::new(cache_capacity),
            warm: WarmStartCache::new(warm.capacity),
            in_flight: std::sync::Mutex::new(std::collections::HashSet::new()),
            in_flight_done: std::sync::Condvar::new(),
            metrics,
        }
    }

    /// The dataset catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The process-wide telemetry surface.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Warm-start tier counters.
    pub fn warm_stats(&self) -> WarmStats {
        self.warm.stats()
    }

    /// Registers a CSV into the catalog at runtime — the engine seam the
    /// wire `LOAD` admin verb lands on (path confinement to the server's
    /// `--load-root` has already happened by the time this runs; see
    /// [`crate::catalog::resolve_under_root`]).
    ///
    /// Replacing an existing name is safe mid-traffic: the fresh
    /// registration epoch orphans every answer cached against the old
    /// data (see [`QueryEngine::execute`]).
    pub fn load_csv(
        &self,
        name: &str,
        path: &std::path::Path,
    ) -> Result<Arc<crate::catalog::PreparedDataset>, ServiceError> {
        self.catalog.load_csv(name, path)
    }

    /// Appends one row to a cataloged dataset — the engine seam the wire
    /// `APPEND` verb lands on. The catalog applies incremental skyline
    /// maintenance and publishes the new prepared snapshot; this seam
    /// then runs the *delta* invalidation sweeps: only cached answers and
    /// warm-start state whose form digest the mutation moved are dropped
    /// (see [`SolutionCache::invalidate_stale`] /
    /// [`WarmStartCache::invalidate_stale`]); everything else keeps
    /// hitting.
    pub fn append_row(
        &self,
        name: &str,
        coords: &[f64],
        group: usize,
    ) -> Result<MutationReport, ServiceError> {
        let out = self.catalog.append_row(name, coords, group)?;
        Ok(self.finish_mutation(name, out))
    }

    /// Deletes one row (by current 0-based id) from a cataloged dataset —
    /// the engine seam for the wire `DELETE` verb. Same invalidation
    /// contract as [`QueryEngine::append_row`]; note row ids above the
    /// deleted one shift down by one, exactly as a re-load of the edited
    /// CSV would renumber them.
    pub fn delete_row(&self, name: &str, row: usize) -> Result<MutationReport, ServiceError> {
        let out = self.catalog.delete_row(name, row)?;
        Ok(self.finish_mutation(name, out))
    }

    /// Post-mutation bookkeeping shared by append/delete: count the
    /// mutation, sweep both cache tiers by digest delta, report.
    fn finish_mutation(&self, name: &str, out: crate::catalog::MutationOutcome) -> MutationReport {
        self.metrics.mutations_total.inc();
        let prep = &out.prep;
        let cache_dropped =
            self.cache
                .invalidate_stale(name, prep.epoch, prep.sky_digest, prep.full_digest);
        let warm_dropped =
            self.warm
                .invalidate_stale(prep.epoch, prep.sky_digest, prep.full_digest);
        self.metrics.cache_invalidated.add(cache_dropped);
        self.metrics.warm_invalidated.add(warm_dropped);
        MutationReport {
            rows: prep.dataset.len(),
            skyline: prep.skyline_rows.len(),
            sky_changed: out.sky_changed,
            rebuilt: out.rebuilt,
            cache_dropped,
            warm_dropped,
        }
    }

    /// Executes one query: canonicalize, consult the cache, otherwise
    /// dispatch through [`registry::by_name`] and cache the answer.
    ///
    /// Identical queries arriving while a solve is in flight block until
    /// it publishes (single flight) and then read the cached answer, so a
    /// burst of the same query costs one solve, not one per worker. Failed
    /// solves are not cached; each waiter retries and surfaces its own
    /// error.
    ///
    /// Stats accounting is per *query outcome*, not per lookup: one
    /// `note_hit` for every `cached=true` response, one `note_miss` per
    /// cold solve attempt — so `hit_rate` reflects solves saved even
    /// though the single-flight path may consult the cache several times.
    #[allow(clippy::disallowed_methods)] // see the R5 waivers below
    pub fn execute(&self, query: &Query) -> Result<QueryResponse, ServiceError> {
        // fairhms-lint: allow(R5) always-on execute EWMA: retry_after_ms
        // back-off advice must price worker time with telemetry off too.
        let t = Instant::now();
        self.metrics.total_queries.inc();
        let _exec_note = ExecTimeNote {
            metrics: &self.metrics,
            t,
        };
        let rec = self.metrics.recorder();
        let mut stages = StageTimings::default();
        let q = query.canonicalized();
        // Resolve the dataset first: the cache key folds in its
        // registration epoch, so answers cached against a replaced
        // dataset of the same name can never be served.
        let prep = self.catalog.get_required(&q.dataset)?;
        // The key folds the registration epoch *and* the group-generation
        // digest of the form this query solves on, so mutations re-key
        // exactly the answers they could have changed.
        let digest = prep.digest_for(q.skyline);
        let key = q.fingerprint_keyed(prep.epoch, digest);
        let hit = |answer, stages: StageTimings| {
            self.cache.note_hit();
            Ok(QueryResponse {
                answer,
                cached: true,
                micros: t.elapsed().as_micros() as u64,
                stages: rec.is_enabled().then_some(stages),
            })
        };
        // Each cache consultation and each single-flight wait records a
        // span; re-check iterations accumulate into the same stages.
        loop {
            let lookup = rec.span(&self.metrics.cache_lookup);
            let peeked = self.cache.peek(key, prep.epoch, digest, &q);
            stages.cache_lookup_ns += lookup.stop().unwrap_or(0);
            if let Some(answer) = peeked {
                return hit(answer, stages);
            }
            // Claim the solve or wait for whoever holds the claim.
            let mut in_flight = lock_or_recover(&self.in_flight);
            if in_flight.insert(key) {
                break;
            }
            let waited = rec.span(&self.metrics.flight_wait);
            while in_flight.contains(&key) {
                in_flight = wait_or_recover(&self.in_flight_done, in_flight);
            }
            stages.flight_wait_ns += waited.stop().unwrap_or(0);
            // Re-check the cache: the claim holder either published an
            // answer or failed (in which case we claim and retry).
        }
        let _guard = FlightGuard { engine: self, key };
        // The previous claim holder may have published between our cache
        // miss and our claim; without this re-check we would re-solve an
        // already-cached query cold.
        let lookup = rec.span(&self.metrics.cache_lookup);
        let peeked = self.cache.peek(key, prep.epoch, digest, &q);
        stages.cache_lookup_ns += lookup.stop().unwrap_or(0);
        if let Some(answer) = peeked {
            return hit(answer, stages);
        }
        self.cache.note_miss();
        let answer = Arc::new(self.solve_cold(&q, &prep, &mut stages)?);
        self.cache
            .insert(key, prep.epoch, digest, q, Arc::clone(&answer));
        Ok(QueryResponse {
            answer,
            cached: false,
            micros: t.elapsed().as_micros() as u64,
            stages: rec.is_enabled().then_some(stages),
        })
    }

    /// Solves `q` from scratch against the prepared dataset, consulting
    /// the warm-start tier for a BiGreedy `db_max` vector.
    ///
    /// Mirrors the CLI `solve` pipeline: optional skyline restriction,
    /// bounds derivation, instance validation, then the shared name→
    /// algorithm factory — so the CLI and every service front end return
    /// identical answers for identical parameters. The warm-start tier is
    /// purely advisory: the solver verifies a cached vector's preimage
    /// before reusing it (see [`WarmStart::db_max_for`]), so a warm solve
    /// is bit-identical to a cold one — pinned by
    /// `tests/warmstart_equivalence.rs`.
    #[allow(clippy::disallowed_methods)] // see the R5 waiver inside
    fn solve_cold(
        &self,
        q: &Query,
        prep: &crate::catalog::PreparedDataset,
        stages: &mut StageTimings,
    ) -> Result<Answer, ServiceError> {
        let rec = self.metrics.recorder();
        // The candidate-set seam: the prepared group-skyline reduction
        // plus the map back to original row ids — both shared by
        // refcount, never copied per query.
        let (cand, group_sizes): (CandidateSet, &[usize]) = if q.skyline {
            (
                CandidateSet::reduced(
                    Arc::clone(&prep.skyline_data),
                    Arc::clone(&prep.skyline_rows),
                ),
                &prep.skyline_group_sizes,
            )
        } else {
            (
                CandidateSet::full(Arc::clone(&prep.dataset)),
                &prep.group_sizes,
            )
        };
        let (lower, upper) = if q.balanced {
            balanced_bounds(group_sizes, q.k, q.alpha)
        } else {
            proportional_bounds(group_sizes, q.k, q.alpha)
        };
        // Zero-copy hand-off: the instance shares the catalog's prepared
        // allocation; concurrent solves against one dataset all read it.
        let inst = FairHmsInstance::new(Arc::clone(cand.data()), q.k, lower, upper)?;
        let alg = registry::by_name(&q.alg)?;

        // Warm-start lookup, BiGreedy only: no other algorithm reads the
        // context. The key fixes the vector's whole preimage: the epoch
        // and per-form digest fix the candidate rows (state for a
        // replaced dataset or a mutated form is unreachable the instant
        // the change publishes), `k` the net size, and the seed the net.
        let warm_key = (alg.key == "bigreedy").then(|| WarmKey {
            epoch: prep.epoch,
            digest: prep.digest_for(q.skyline),
            k: q.k,
            seed: q.seed,
        });
        let seeded = warm_key.as_ref().and_then(|key| {
            let probe = rec.span(&self.metrics.warm_probe);
            let found = self.warm.get(key);
            stages.warm_probe_ns = probe.stop().unwrap_or(0);
            found
        });
        let warm_ctx = WarmStart::seeded(seeded.clone());

        // fairhms-lint: allow(R5) solve_micros is a pre-telemetry wire
        // response field; this read serves it plus the gated span below.
        let t = Instant::now();
        let sol = (alg.solve_with)(&inst, q.seed, &warm_ctx)?;
        // One clock read serves the (pre-existing) micros field, the
        // per-family histogram, and the slow-query stage breakdown.
        let solve_dur = t.elapsed();
        let solve_micros = solve_dur.as_micros() as u64;
        if rec.is_enabled() {
            let ns = solve_dur.as_nanos().min(u64::MAX as u128) as u64;
            stages.solve_ns = ns;
            if let Some(h) = self.metrics.solve_hist(alg.key) {
                h.record(ns);
            }
        }

        // One hit or miss per lookup: the solve either handed back the
        // seeded vector or deposited a fresh one, which the tier keeps.
        if let (Some(key), Some(used)) = (warm_key, warm_ctx.db_max()) {
            if seeded.is_some_and(|s| Arc::ptr_eq(&s, &used)) {
                self.warm.note_hit();
            } else {
                self.warm.note_miss();
                self.warm.insert(key, used);
            }
        }

        let violations = inst.matroid().violations(&sol.indices);
        let indices = cand.to_original(&sol.indices);
        Ok(Answer {
            indices,
            mhr: sol.mhr,
            violations,
            alg: alg.name.to_string(),
            solve_micros,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_data::Dataset;

    fn engine() -> QueryEngine {
        let catalog = Arc::new(Catalog::new());
        let points = vec![
            1.0, 0.1, 0.8, 0.6, 0.2, 0.9, 0.9, 0.3, 0.4, 0.8, 0.7, 0.7, 0.6, 0.75, 0.95, 0.2,
        ];
        let data = Dataset::new("toy", 2, points, vec![0, 1, 0, 1, 0, 1, 0, 1], vec![]).unwrap();
        catalog.insert_dataset(data).unwrap();
        QueryEngine::new(catalog, 64)
    }

    #[test]
    fn cold_then_cached_bit_identical() {
        let eng = engine();
        let q = Query::new("toy", 3);
        let cold = eng.execute(&q).unwrap();
        assert!(!cold.cached);
        let warm = eng.execute(&q).unwrap();
        assert!(warm.cached);
        assert_eq!(cold.answer.indices, warm.answer.indices);
        assert_eq!(
            cold.answer.mhr.map(f64::to_bits),
            warm.answer.mhr.map(f64::to_bits)
        );
        let st = eng.cache_stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    fn algorithm_case_shares_cache_entry() {
        let eng = engine();
        let mut a = Query::new("toy", 3);
        a.alg = "BiGreedy".into();
        let mut b = Query::new("toy", 3);
        b.alg = "bigreedy".into();
        assert!(!eng.execute(&a).unwrap().cached);
        assert!(eng.execute(&b).unwrap().cached);
    }

    #[test]
    fn skyline_answers_reference_full_dataset_rows() {
        let eng = engine();
        let mut with = Query::new("toy", 3);
        with.alg = "intcov".into();
        let mut without = with.clone();
        without.skyline = false;
        let a = eng.execute(&with).unwrap();
        let b = eng.execute(&without).unwrap();
        // IntCov is exact and the restriction lossless: the same MHR, and
        // `with`'s rows are valid row ids of the full dataset.
        let prep = eng.catalog().get("toy").unwrap();
        assert!(a.answer.indices.iter().all(|&i| i < prep.dataset.len()));
        assert!((a.answer.mhr.unwrap() - b.answer.mhr.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn replacing_a_dataset_invalidates_its_cached_answers() {
        let eng = engine();
        let mut q = Query::new("toy", 3);
        q.alg = "intcov".into();
        let first = eng.execute(&q).unwrap();
        assert!(!first.cached);
        assert!(eng.execute(&q).unwrap().cached);

        // Re-register "toy" with different data (previous best rows gone).
        let replacement = Dataset::new(
            "toy",
            2,
            vec![0.3, 0.9, 0.9, 0.2, 0.5, 0.5, 0.6, 0.6],
            vec![0, 1, 0, 1],
            vec![],
        )
        .unwrap();
        eng.catalog().insert_dataset(replacement).unwrap();

        // Same query: the stale answer must not be served.
        let fresh = eng.execute(&q).unwrap();
        assert!(!fresh.cached, "served a stale pre-replacement answer");
        let prep = eng.catalog().get("toy").unwrap();
        assert!(fresh.answer.indices.iter().all(|&i| i < prep.dataset.len()));
        assert!(eng.execute(&q).unwrap().cached, "new answer not cached");
    }

    #[test]
    fn mutations_invalidate_by_delta_not_by_dataset() {
        let eng = engine();
        let mut q_sky = Query::new("toy", 3);
        q_sky.alg = "intcov".into();
        let mut q_full = q_sky.clone();
        q_full.skyline = false;
        assert!(!eng.execute(&q_sky).unwrap().cached);
        assert!(!eng.execute(&q_full).unwrap().cached);

        // Dominated append: the skyline form is untouched, so the
        // skyline-restricted answer must still hit; the full-form answer
        // (whose candidate set grew) must not.
        let rep = eng.append_row("toy", &[0.01, 0.01], 0).unwrap();
        assert!(!rep.sky_changed && !rep.rebuilt);
        assert_eq!(rep.cache_dropped, 1, "only the full-form answer drops");
        assert!(eng.execute(&q_sky).unwrap().cached, "skyline hit lost");
        assert!(!eng.execute(&q_full).unwrap().cached);

        // Deleting that trailing dominated row: same delta.
        let rows = eng.catalog().get("toy").unwrap().dataset.len();
        let rep = eng.delete_row("toy", rows - 1).unwrap();
        assert!(!rep.sky_changed);
        assert_eq!(rep.cache_dropped, 1);
        assert!(eng.execute(&q_sky).unwrap().cached, "skyline hit lost");

        // A skyline-changing append drops both forms.
        let rep = eng.append_row("toy", &[1.0, 1.0], 1).unwrap();
        assert!(rep.sky_changed);
        assert!(!eng.execute(&q_sky).unwrap().cached);
        let m = eng.metrics();
        assert_eq!(m.mutations_total.get(), 3);
        assert!(m.cache_invalidated.get() >= 3);
    }

    #[test]
    fn mutated_answers_match_a_fresh_engine() {
        // After a mutation sequence, every algorithm's answer through the
        // live engine equals a fresh engine built over the same rows.
        let eng = engine();
        eng.append_row("toy", &[0.85, 0.85], 0).unwrap();
        eng.append_row("toy", &[0.05, 0.6], 1).unwrap();
        eng.delete_row("toy", 2).unwrap();
        let prep = eng.catalog().get("toy").unwrap();
        let fresh_cat = Arc::new(Catalog::new());
        fresh_cat
            .insert_dataset(
                Dataset::new(
                    "toy",
                    prep.dataset.dim(),
                    prep.dataset.points_flat().to_vec(),
                    prep.dataset.groups().to_vec(),
                    prep.dataset.group_names().to_vec(),
                )
                .unwrap(),
            )
            .unwrap();
        let fresh = QueryEngine::new(fresh_cat, 64);
        for alg in ["intcov", "bigreedy", "f-greedy"] {
            for skyline in [true, false] {
                let mut q = Query::new("toy", 3);
                q.alg = alg.into();
                q.skyline = skyline;
                let a = eng.execute(&q).unwrap();
                let b = fresh.execute(&q).unwrap();
                assert_eq!(a.answer.indices, b.answer.indices, "{alg} sky={skyline}");
                assert_eq!(
                    a.answer.mhr.map(f64::to_bits),
                    b.answer.mhr.map(f64::to_bits),
                    "{alg} sky={skyline}"
                );
            }
        }
    }

    #[test]
    fn typed_errors_surface() {
        let eng = engine();
        let q = Query::new("absent", 3);
        assert_eq!(
            eng.execute(&q).unwrap_err(),
            ServiceError::UnknownDataset {
                name: "absent".into()
            }
        );
        let mut bad = Query::new("toy", 3);
        bad.alg = "nope".into();
        assert!(matches!(
            eng.execute(&bad).unwrap_err(),
            ServiceError::Core(fairhms_core::types::CoreError::UnknownAlgorithm { .. })
        ));
    }
}
