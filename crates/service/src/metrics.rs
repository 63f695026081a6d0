//! Service-wide telemetry: the named span map of the request lifecycle.
//!
//! [`ServiceMetrics`] owns every histogram, counter, and gauge the
//! serving layer records into, built on the lock-free primitives from
//! [`fairhms_obs`]. One instance lives in the [`crate::QueryEngine`] and
//! is shared (by `Arc`) with the catalog, executor, and server, so a
//! `METRICS` wire request or a JSON snapshot sees one coherent view of
//! the whole process.
//!
//! The span map (all durations in nanoseconds):
//!
//! | name | recorded by | covers |
//! |------|-------------|--------|
//! | `server.decode` | server | parsing one request (text verb or binary frame) |
//! | `server.encode` | server | rendering one response through the negotiated codec |
//! | `engine.cache_lookup` | engine | solution-cache consultation (hit or miss) |
//! | `engine.flight_wait` | engine | blocked on another worker's identical in-flight solve |
//! | `engine.warm_probe` | engine | warm-start tier lookup (BiGreedy cold solves) |
//! | `engine.solve.<family>` | engine | the cold solve, labeled per registry algorithm family |
//! | `catalog.prepare` | catalog | normalize + group skyline + subset (one observation per registration) |
//! | `executor.queue_wait` | executor | job sat in the solve queue before a worker claimed it |
//! | `executor.run` | executor | worker executing one query |
//!
//! Gauges: `conn.active` (open connections), `streams.active` (streamed
//! batches in flight), `queue.depth` (solves waiting in the bounded
//! queue). Counters: `queries.total` (engine executions) and
//! `shed.total` (requests refused by admission control). The admission
//! instruments and `queries.total` record even when telemetry is
//! disabled: `STATS` reports them, and `streams.active` is the stream
//! cap's own counter. `locks.recovered` exports
//! [`fairhms_obs::sync::recovered_lock_count`]: nonzero means a worker
//! panicked while holding a lock and the poison was absorbed.
//!
//! Telemetry is gated by [`TelemetryConfig`]: when disabled, spans never
//! read the clock (a single branch per span site) and answers are
//! bit-identical either way — pinned by `tests/telemetry_equivalence.rs`.

use fairhms_core::registry::{family_index, ALGORITHMS};
use fairhms_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Recorder};

use crate::ServiceError;

/// Whether the telemetry subsystem records (on by default;
/// `fairhms serve --no-telemetry` turns it off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether spans, gauges, and histograms record.
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

/// Every telemetry instrument in the serving layer, by name.
///
/// See the module docs for the span map. Fields are public so recording
/// sites write `metrics.recorder().span(&metrics.cache_lookup)` without
/// a lookup table on the hot path; [`ServiceMetrics::histograms`]
/// provides the name⇢instrument iteration for export.
#[derive(Debug)]
pub struct ServiceMetrics {
    recorder: Recorder,
    /// `server.decode` — request parse.
    pub decode: Histogram,
    /// `server.encode` — response render.
    pub encode: Histogram,
    /// `engine.cache_lookup` — solution-cache consultation.
    pub cache_lookup: Histogram,
    /// `engine.flight_wait` — blocked on an identical in-flight solve.
    pub flight_wait: Histogram,
    /// `engine.warm_probe` — warm-start tier lookup (BiGreedy cold
    /// solves only).
    pub warm_probe: Histogram,
    /// `engine.solve.<family>` — cold solves, indexed by
    /// [`fairhms_core::registry::family_index`].
    pub solve: Vec<Histogram>,
    /// `catalog.prepare` — one dataset registration's preparation.
    pub prepare: Histogram,
    /// `executor.queue_wait` — job queued before a worker claimed it.
    pub queue_wait: Histogram,
    /// `executor.run` — worker executing one query.
    pub run: Histogram,
    /// `conn.active` — open connections.
    pub conn_active: Gauge,
    /// `streams.active` — streamed batches in flight. Always recorded:
    /// the stream cap admits against it.
    pub streams_active: Gauge,
    /// `queries.total` — engine executions. Always recorded (STATS
    /// reports it even with telemetry off).
    pub total_queries: Counter,
    /// `queue.depth` — solves waiting in the bounded global queue.
    /// Always recorded (STATS reports it even with telemetry off).
    pub queue_depth: Gauge,
    /// `shed.total` — requests refused by admission control (`ERR busy`).
    /// Always recorded (STATS reports it even with telemetry off).
    pub shed_total: Counter,
    /// `mutations.total` — catalog mutations applied (`APPEND`/`DELETE`).
    /// Always recorded (STATS reports it even with telemetry off).
    pub mutations_total: Counter,
    /// `cache.invalidated` — answer-cache entries dropped by mutation
    /// delta sweeps. Always recorded.
    pub cache_invalidated: Counter,
    /// `warm.invalidated` — warm-start entries dropped by mutation delta
    /// sweeps. Always recorded.
    pub warm_invalidated: Counter,
    /// `warm.probes_replayed` — BiGreedy τ-probes replayed from a
    /// warm-start entry's log instead of run. Always recorded.
    pub warm_probes_replayed: Counter,
    /// `warm.probes_run` — BiGreedy τ-probes the engine's solves ran.
    /// Always recorded.
    pub warm_probes_run: Counter,
    /// Exponential moving average of `engine.execute` wall time in
    /// microseconds (α = 1/8), always on: the basis for the
    /// `retry_after_ms` advice carried by shed responses.
    avg_execute_us: std::sync::atomic::AtomicU64,
}

impl ServiceMetrics {
    /// Builds the full instrument set; `enabled` gates span recording.
    pub fn new(enabled: bool) -> Self {
        Self {
            recorder: if enabled {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            },
            decode: Histogram::new(),
            encode: Histogram::new(),
            cache_lookup: Histogram::new(),
            flight_wait: Histogram::new(),
            warm_probe: Histogram::new(),
            solve: ALGORITHMS.iter().map(|_| Histogram::new()).collect(),
            prepare: Histogram::new(),
            queue_wait: Histogram::new(),
            run: Histogram::new(),
            conn_active: Gauge::new(),
            streams_active: Gauge::new(),
            total_queries: Counter::new(),
            queue_depth: Gauge::new(),
            shed_total: Counter::new(),
            mutations_total: Counter::new(),
            cache_invalidated: Counter::new(),
            warm_invalidated: Counter::new(),
            warm_probes_replayed: Counter::new(),
            warm_probes_run: Counter::new(),
            avg_execute_us: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The span gate shared by every recording site.
    pub fn recorder(&self) -> Recorder {
        self.recorder
    }

    /// Whether spans record.
    pub fn enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// The per-family solve histogram for `alg` (any accepted spelling),
    /// or `None` for names outside the registry.
    pub fn solve_hist(&self, alg: &str) -> Option<&Histogram> {
        family_index(alg).map(|i| &self.solve[i])
    }

    /// Every histogram with its export name, in stable order. Names
    /// contain no whitespace, `,`, or `:` — the text wire rendering uses
    /// those as delimiters.
    pub fn histograms(&self) -> Vec<(String, &Histogram)> {
        let mut out: Vec<(String, &Histogram)> = vec![
            ("server.decode".into(), &self.decode),
            ("server.encode".into(), &self.encode),
            ("engine.cache_lookup".into(), &self.cache_lookup),
            ("engine.flight_wait".into(), &self.flight_wait),
            ("engine.warm_probe".into(), &self.warm_probe),
        ];
        for (alg, hist) in ALGORITHMS.iter().zip(self.solve.iter()) {
            out.push((format!("engine.solve.{}", alg.key), hist));
        }
        out.extend([
            ("catalog.prepare".into(), &self.prepare),
            ("executor.queue_wait".into(), &self.queue_wait),
            ("executor.run".into(), &self.run),
        ]);
        out
    }

    /// Every counter/gauge with its export name, as `u64` levels (gauges
    /// are instantaneous and never negative here).
    pub fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("conn.active".into(), self.conn_active.get().max(0) as u64),
            (
                "streams.active".into(),
                self.streams_active.get().max(0) as u64,
            ),
            ("queries.total".into(), self.total_queries.get()),
            ("queue.depth".into(), self.queue_depth.get().max(0) as u64),
            ("shed.total".into(), self.shed_total.get()),
            ("mutations.total".into(), self.mutations_total.get()),
            ("cache.invalidated".into(), self.cache_invalidated.get()),
            ("warm.invalidated".into(), self.warm_invalidated.get()),
            (
                "warm.probes_replayed".into(),
                self.warm_probes_replayed.get(),
            ),
            ("warm.probes_run".into(), self.warm_probes_run.get()),
            (
                "locks.recovered".into(),
                fairhms_obs::sync::recovered_lock_count(),
            ),
        ]
    }

    /// Folds one `engine.execute` wall time into the always-on EWMA that
    /// backs [`ServiceMetrics::retry_after_ms`]. One atomic store per
    /// query; never gated by telemetry (shed advice must work with
    /// telemetry off).
    pub fn note_execute_micros(&self, micros: u64) {
        use std::sync::atomic::Ordering;
        // ordering: EWMA cell; a racing lost update only skews back-off
        // advice by one sample, no data is published through it.
        let prev = self.avg_execute_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            micros.max(1)
        } else {
            ((prev * 7 + micros) / 8).max(1)
        };
        // ordering: see the load above — advisory EWMA cell.
        self.avg_execute_us.store(next, Ordering::Relaxed);
    }

    /// The current `engine.execute` EWMA in microseconds (0 until the
    /// first query completes).
    pub fn avg_execute_micros(&self) -> u64 {
        self.avg_execute_us
            // ordering: advisory EWMA read; staleness only skews advice.
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Back-off advice for a shed response: roughly how long the work
    /// already admitted ahead of the client will take to drain
    /// (`(queued / workers + 1) × avg execute time`), clamped to
    /// `[1 ms, 30 s]` so the advice is always positive and never absurd.
    pub fn retry_after_ms(&self, queued: usize, workers: usize) -> u64 {
        let avg_us = self.avg_execute_micros().max(1);
        let rounds = (queued as u64) / (workers.max(1) as u64) + 1;
        (rounds.saturating_mul(avg_us) / 1000).clamp(1, 30_000)
    }

    /// The one admission-control shed: counts it in `shed.total` and
    /// builds its typed busy error, `reason` naming the bound that was
    /// hit and the retry advice priced from `queued` jobs over `workers`.
    pub(crate) fn shed(&self, reason: String, queued: usize, workers: usize) -> ServiceError {
        self.shed_total.inc();
        ServiceError::Busy {
            reason,
            retry_after_ms: self.retry_after_ms(queued, workers),
        }
    }

    /// Point-in-time export of every **non-empty** histogram plus all
    /// counters — the payload behind the `METRICS` wire verb and the
    /// JSON snapshot writer. Empty histograms are elided so the wire
    /// line stays proportional to actual activity.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: self.enabled(),
            counters: self.counters(),
            histograms: self
                .histograms()
                .into_iter()
                .filter_map(|(name, h)| {
                    let s = h.snapshot();
                    (s.count() > 0).then_some((name, s))
                })
                .collect(),
        }
    }
}

/// A coherent point-in-time view of [`ServiceMetrics`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Whether span recording was enabled when captured.
    pub enabled: bool,
    /// Counter and gauge levels, by export name.
    pub counters: Vec<(String, u64)>,
    /// Non-empty histograms, by export name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object:
    /// `{"enabled":…,"counters":{…},"histograms":{name:{count,sum,mean,p50,p90,p99,max},…}}`.
    /// Times are nanoseconds. This is the format the bench harness
    /// embeds in `BENCH_service.json`.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .fold(fairhms_obs::json::Obj::new(), |o, (name, v)| {
                o.u64(name, *v)
            })
            .build();
        let histograms = self
            .histograms
            .iter()
            .fold(fairhms_obs::json::Obj::new(), |o, (name, s)| {
                o.raw(name, &s.to_json())
            })
            .build();
        fairhms_obs::json::Obj::new()
            .raw("enabled", if self.enabled { "true" } else { "false" })
            .raw("counters", &counters)
            .raw("histograms", &histograms)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_names_are_wire_safe() {
        let m = ServiceMetrics::new(true);
        for (name, _) in m.histograms() {
            assert!(
                !name.contains([' ', '\t', ',', ':', '\n']),
                "histogram name {name:?} collides with wire delimiters"
            );
        }
        for (name, _) in m.counters() {
            assert!(
                !name.contains([' ', '\t', ',', ':', '\n']),
                "counter name {name:?} collides with wire delimiters"
            );
        }
    }

    #[test]
    fn solve_hist_resolves_aliases_to_one_family() {
        let m = ServiceMetrics::new(true);
        let a = m.solve_hist("BiGreedy+").unwrap();
        a.record(7);
        let b = m.solve_hist("bigreedyplus").unwrap();
        assert_eq!(b.count(), 1, "alias did not share the family histogram");
        assert!(m.solve_hist("nope").is_none());
    }

    #[test]
    fn snapshot_elides_empty_histograms() {
        let m = ServiceMetrics::new(true);
        m.cache_lookup.record(100);
        let snap = m.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "engine.cache_lookup");
        assert!(snap.enabled);
        // counters always present
        assert!(snap.counters.iter().any(|(n, _)| n == "queries.total"));
    }

    #[test]
    fn disabled_metrics_still_count_queries() {
        let m = ServiceMetrics::new(false);
        m.total_queries.inc();
        assert!(!m.enabled());
        let snap = m.snapshot();
        assert!(!snap.enabled);
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "queries.total" && *v == 1));
    }

    #[test]
    fn retry_advice_tracks_the_execute_ewma_and_stays_clamped() {
        let m = ServiceMetrics::new(false);
        // No observations yet: advice still ≥ 1 ms.
        assert_eq!(m.retry_after_ms(0, 4), 1);
        m.note_execute_micros(8_000); // first sample seeds the EWMA
        assert_eq!(m.avg_execute_micros(), 8_000);
        m.note_execute_micros(8_000);
        assert_eq!(m.avg_execute_micros(), 8_000);
        // 8 ms per solve, 8 queued over 4 workers → 3 rounds → 24 ms.
        assert_eq!(m.retry_after_ms(8, 4), 24);
        // Advice is clamped to 30 s even under absurd backlogs.
        m.note_execute_micros(u64::MAX / 16);
        assert_eq!(m.retry_after_ms(1_000_000, 1), 30_000);
        // Admission instruments record with telemetry disabled.
        m.shed_total.inc();
        for _ in 0..3 {
            m.queue_depth.inc();
        }
        let c = m.counters();
        assert!(c.iter().any(|(n, v)| n == "shed.total" && *v == 1));
        assert!(c.iter().any(|(n, v)| n == "queue.depth" && *v == 3));
    }

    #[test]
    fn snapshot_json_shape() {
        let m = ServiceMetrics::new(true);
        m.decode.record(50);
        let j = m.snapshot().to_json();
        assert!(j.starts_with("{\"enabled\":true"));
        assert!(j.contains("\"counters\":{"));
        assert!(j.contains("\"server.decode\":{\"count\":1"));
    }
}
