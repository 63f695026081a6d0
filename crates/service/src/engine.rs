//! The query engine: canonicalize → cache → solve.

use std::sync::Arc;
use std::time::Instant;

use fairhms_core::registry::{self, WarmStart};
use fairhms_obs::sync::{lock_or_recover, wait_or_recover};

use crate::cache::{CacheStats, SolutionCache};
use crate::catalog::{Catalog, PreparedDataset};
use crate::metrics::{ServiceMetrics, TelemetryConfig};
use crate::query::Query;
use crate::warmstart::{WarmConfig, WarmEntry, WarmKey, WarmStartCache, WarmStats};
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

/// Feeds the wall-clock duration of one query's execution into the
/// always-on execute-time EWMA on drop — every outcome counts (hits,
/// cold solves, errors), and the EWMA exists to price `retry_after_ms`
/// back-off advice. Hits the event loop answers count too, so the advice
/// reads as it did when every hit ran on a worker.
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

/// A canonical query resolved against its dataset and keyed for the
/// answer cache.
struct Keyed {
    q: Query,
    prep: Arc<PreparedDataset>,
    generation: u64,
    key: u64,
}

/// One execution after its shared first step ([`QueryEngine::begin`]).
struct Begun {
    /// When the execution started: prices `micros=` and the EWMA.
    t: Instant,
    stages: StageTimings,
    keyed: Result<Keyed, ServiceError>,
    /// What the first cache look found; `None` on a miss, an error, or
    /// when the look was skipped.
    hit: Option<Arc<Answer>>,
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
    ) -> Result<Arc<PreparedDataset>, ServiceError> {
        self.catalog.load_csv(name, path)
    }

    /// Appends one row to a cataloged dataset — the engine seam the wire
    /// `APPEND` verb lands on. The catalog applies incremental skyline
    /// maintenance and publishes the new prepared snapshot; this seam
    /// then runs the *delta* invalidation sweeps: only cached answers and
    /// warm-start state whose form generation the mutation moved are dropped
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
    /// mutation, sweep both cache tiers by generation delta, report.
    fn finish_mutation(&self, name: &str, out: crate::catalog::MutationOutcome) -> MutationReport {
        self.metrics.mutations_total.inc();
        let prep = &out.prep;
        let (sky, full) = (prep.sky_generation, prep.full_generation);
        let cache_dropped = self.cache.invalidate_stale(name, prep.epoch, sky, full);
        let warm_dropped = self.warm.invalidate_stale(prep.epoch, sky, full);
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
    pub fn execute(&self, query: &Query) -> Result<QueryResponse, ServiceError> {
        self.finish(self.begin(query, true))
    }

    /// The hit-only half of [`QueryEngine::execute`]: the same first
    /// cache look, answered only when it hits. A miss, or an error such
    /// as an unknown dataset, returns `None` and counts nothing; the
    /// caller then runs [`QueryEngine::execute_missed`] for the query.
    /// The event loop answers cached queries through this, without a
    /// worker.
    pub(crate) fn cached(&self, query: &Query) -> Option<QueryResponse> {
        let begun = self.begin(query, true);
        begun.hit.as_ref()?; // a miss counts nothing here
        self.finish(begun).ok()
    }

    /// [`QueryEngine::execute`] for a query whose first cache look
    /// ([`QueryEngine::cached`]) already missed: it goes straight to the
    /// single-flight claim, whose re-check keeps the answer exact if one
    /// was published in between. Counters read as if `execute` had run.
    pub(crate) fn execute_missed(&self, query: &Query) -> Result<QueryResponse, ServiceError> {
        self.finish(self.begin(query, false))
    }

    /// The start every execution shares: the clock read that prices
    /// `micros=` and the execute-time EWMA, the keyed query and, when
    /// `peek` is set, the first cache look.
    #[allow(clippy::disallowed_methods)] // see the R5 waiver below
    fn begin(&self, query: &Query, peek: bool) -> Begun {
        // fairhms-lint: allow(R5) always-on execute EWMA: retry_after_ms
        // back-off advice must price worker time with telemetry off too.
        let t = Instant::now();
        let mut stages = StageTimings::default();
        // The key folds in the registration epoch, so answers cached
        // against a replaced dataset of the same name can never be
        // served, and the mutation generation of the form the query
        // solves on, so mutations re-key exactly the answers they could
        // have changed.
        let q = query.canonicalized();
        let keyed = self.catalog.get_required(&q.dataset).map(|prep| {
            let generation = prep.generation(q.skyline);
            let key = q.fingerprint_keyed(prep.epoch, generation);
            Keyed {
                q,
                prep,
                generation,
                key,
            }
        });
        let hit = match &keyed {
            Ok(k) if peek => self.peek(k, &mut stages),
            _ => None,
        };
        Begun {
            t,
            stages,
            keyed,
            hit,
        }
    }

    /// One cache consultation, recorded as an `engine.cache_lookup`
    /// span; single-flight re-checks add to the same stages.
    fn peek(&self, k: &Keyed, stages: &mut StageTimings) -> Option<Arc<Answer>> {
        let lookup = self.metrics.recorder().span(&self.metrics.cache_lookup);
        let peeked = self.cache.peek(k.key, k.prep.epoch, k.generation, &k.q);
        stages.cache_lookup_ns += lookup.stop().unwrap_or(0);
        peeked
    }

    /// Everything after [`QueryEngine::begin`]: count the query, answer
    /// a hit, otherwise claim the solve (or wait for the claim holder and
    /// look again), re-check under the claim, and solve cold.
    fn finish(&self, begun: Begun) -> Result<QueryResponse, ServiceError> {
        let Begun {
            t,
            mut stages,
            keyed,
            hit: mut found,
        } = begun;
        self.metrics.total_queries.inc();
        let _exec_note = ExecTimeNote {
            metrics: &self.metrics,
            t,
        };
        let rec = self.metrics.recorder();
        let k = keyed?;
        let hit = |answer, stages: StageTimings| {
            self.cache.note_hit();
            Ok(QueryResponse {
                answer,
                cached: true,
                micros: t.elapsed().as_micros() as u64,
                stages: rec.is_enabled().then_some(stages),
            })
        };
        loop {
            if let Some(answer) = found {
                return hit(answer, stages);
            }
            // Claim the solve or wait for whoever holds the claim.
            {
                let mut in_flight = lock_or_recover(&self.in_flight);
                if in_flight.insert(k.key) {
                    break;
                }
                let waited = rec.span(&self.metrics.flight_wait);
                while in_flight.contains(&k.key) {
                    in_flight = wait_or_recover(&self.in_flight_done, in_flight);
                }
                stages.flight_wait_ns += waited.stop().unwrap_or(0);
            }
            // Look again: the claim holder either published an answer or
            // failed (in which case we claim and retry).
            found = self.peek(&k, &mut stages);
        }
        let _guard = FlightGuard {
            engine: self,
            key: k.key,
        };
        // An answer may have been published since the last look, or since
        // the event loop's look for a query it missed on; without this
        // re-check we would re-solve an already-cached query cold.
        if let Some(answer) = self.peek(&k, &mut stages) {
            return hit(answer, stages);
        }
        self.cache.note_miss();
        let answer = Arc::new(self.solve_cold(&k.q, &k.prep, &mut stages)?);
        self.cache
            .insert(k.key, k.prep.epoch, k.generation, k.q, Arc::clone(&answer));
        Ok(QueryResponse {
            answer,
            cached: false,
            micros: t.elapsed().as_micros() as u64,
            stages: rec.is_enabled().then_some(stages),
        })
    }

    /// Solves `q` from scratch against the prepared dataset, consulting
    /// the warm-start tier for a BiGreedy `db_max` vector and τ-probe log.
    ///
    /// The instance comes from [`PreparedDataset::instance`], as it does
    /// for the CLI `solve`, and the algorithm from the shared registry —
    /// so the CLI and every service front end return identical answers
    /// for identical parameters. The warm-start tier is
    /// purely advisory: the solver verifies a cached vector's preimage
    /// before reusing it (see [`WarmStart::db_max_for`]) and replays a
    /// cached probe only when it would make the same picks, so a warm
    /// solve is bit-identical to a cold one — pinned by
    /// `tests/warmstart_equivalence.rs`.
    #[allow(clippy::disallowed_methods)] // see the R5 waiver inside
    fn solve_cold(
        &self,
        q: &Query,
        prep: &PreparedDataset,
        stages: &mut StageTimings,
    ) -> Result<Answer, ServiceError> {
        let rec = self.metrics.recorder();
        // Zero-copy hand-off: the instance shares the catalog's prepared
        // allocation; concurrent solves against one dataset all read it.
        let (cand, inst) = prep.instance(q)?;
        let alg = registry::by_name(&q.alg)?;

        // Warm-start lookup, BiGreedy only: no other algorithm reads the
        // context. The key fixes the vector's whole preimage: the epoch,
        // form and that form's generation fix the candidate rows (state
        // for a replaced dataset or a mutated form is unreachable the
        // instant the change publishes), `k` the net size, and the seed
        // the net.
        let warm_key = (alg.key == "bigreedy").then(|| WarmKey {
            epoch: prep.epoch,
            skyline: q.skyline,
            generation: prep.generation(q.skyline),
            k: q.k,
            seed: q.seed,
        });
        let seeded = warm_key.as_ref().and_then(|key| {
            let probe = rec.span(&self.metrics.warm_probe);
            let found = self.warm.get(key);
            stages.warm_probe_ns = probe.stop().unwrap_or(0);
            found
        });
        let warm_ctx = WarmStart::seeded(
            seeded.as_ref().map(|e| Arc::clone(&e.db_max)),
            seeded.as_ref().map(|e| Arc::clone(&e.probes)),
        );

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
        // seeded vector or deposited a fresh one. The tier keeps a fresh
        // vector, and the log of any solve that ran a probe.
        if let (Some(key), Some(db_max), Some(probes)) =
            (warm_key, warm_ctx.db_max(), warm_ctx.probes())
        {
            let (replayed, run) = warm_ctx.probe_counts();
            self.metrics.warm_probes_replayed.add(replayed as u64);
            self.metrics.warm_probes_run.add(run as u64);
            let reused = seeded.is_some_and(|s| Arc::ptr_eq(&s.db_max, &db_max));
            if reused {
                self.warm.note_hit();
            } else {
                self.warm.note_miss();
            }
            if !reused || run > 0 {
                self.warm.insert(key, WarmEntry { db_max, probes });
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
