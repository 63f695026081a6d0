//! Std-only, offline-safe telemetry primitives for the fairhms service.
//!
//! Everything here is lock-free and allocation-free on the hot path:
//!
//! - [`Counter`] — a monotonically increasing atomic `u64`.
//! - [`Gauge`] — an atomic `i64` level with an RAII [`GaugeGuard`] for
//!   scope-bound increments (active connections, in-flight streams).
//! - [`Histogram`] — a fixed-size, log-bucketed latency histogram with
//!   atomic buckets. Recording is one atomic add per observation (plus a
//!   `fetch_max`), and quantile extraction carries a documented
//!   relative-error bound (see below).
//! - [`Recorder`] / [`SpanTimer`] — a lightweight span API. When the
//!   recorder is disabled a span is a no-op that never reads the clock,
//!   so the disabled cost is a single branch.
//! - [`json`] — a tiny hand-rolled JSON writer so snapshot export needs
//!   no external dependency.
//! - [`sync`] — poison-recovering lock/condvar helpers with a
//!   process-wide recovery counter (`locks.recovered` on `METRICS`), so
//!   one panicking worker cannot wedge every thread behind a poisoned
//!   mutex.
//!
//! # Histogram bucketing and error bound
//!
//! Values (nanoseconds, but the histogram is unit-agnostic) are mapped to
//! buckets HDR-style with `SUB_BITS = 5` sub-buckets per power of two:
//!
//! - `v < 32`: one exact bucket per value (`index = v`, zero error).
//! - `v >= 32`: with `e = 63 - v.leading_zeros()` (so `e >= 5`) and
//!   mantissa `m = v >> (e - 5)` (in `32..64`), the bucket index is
//!   `(e - 5) * 32 + m`. The bucket covering `v` spans `2^(e-5)`
//!   consecutive values starting at `m << (e - 5)`, so its width is at
//!   most `lower / 32`.
//!
//! A quantile estimate returns the **midpoint** of the selected bucket,
//! so the estimate differs from the true value by at most half a bucket
//! width: the relative error is **≤ 1/64 (~1.6%)** against the bucket's
//! lower bound, and trivially ≤ 1/32 (3.125%) against any member of the
//! bucket. Counts and sums are exact; only quantile placement within a
//! bucket is approximate. The top bucket caps at `u64::MAX`, so no value
//! is ever dropped or clamped.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

pub mod sync;

/// Sub-bucket resolution: `2^SUB_BITS` sub-buckets per power of two.
pub const SUB_BITS: u32 = 5;
/// Number of sub-buckets per octave (`2^SUB_BITS`).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count: 32 exact low buckets + 59 octaves (`e = 5..=63`)
/// × 32 sub-buckets.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        // ordering: independent monotonic cell; readers tolerate staleness.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: independent monotonic cell; readers tolerate staleness.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: stat read; snapshots tolerate torn cross-bucket views.
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (active connections, in-flight streams).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Raises the level by one.
    #[inline]
    pub fn inc(&self) {
        // ordering: independent monotonic cell; readers tolerate staleness.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the level by one.
    #[inline]
    pub fn dec(&self) {
        // ordering: independent gauge cell; readers tolerate staleness.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        // ordering: stat read; snapshots tolerate torn cross-bucket views.
        self.0.load(Ordering::Relaxed)
    }

    /// Raises the level for the lifetime of the returned guard.
    pub fn guard(&self) -> GaugeGuard<'_> {
        self.inc();
        GaugeGuard(self)
    }
}

/// RAII handle from [`Gauge::guard`]; lowers the gauge on drop.
#[derive(Debug)]
pub struct GaugeGuard<'a>(&'a Gauge);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Maps a value to its bucket index. Exact for `v < 32`, log-bucketed
/// with 32 sub-buckets per octave above that.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let m = (v >> (e - SUB_BITS)) as usize;
        (e - SUB_BITS) as usize * SUB_BUCKETS + m
    }
}

/// Inclusive lower bound of bucket `idx`.
#[inline]
pub fn bucket_lower(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        idx as u64
    } else {
        let e = (idx / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let m = (idx % SUB_BUCKETS + SUB_BUCKETS) as u64;
        m << (e - SUB_BITS)
    }
}

/// Width (number of distinct values) of bucket `idx`.
#[inline]
fn bucket_width(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        1
    } else {
        let e = (idx / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        1u64 << (e - SUB_BITS)
    }
}

/// Midpoint of bucket `idx`, used as the quantile estimate.
#[inline]
fn bucket_midpoint(idx: usize) -> u64 {
    bucket_lower(idx) + bucket_width(idx) / 2
}

/// A fixed-size, lock-free latency histogram.
///
/// All mutation is relaxed atomics; `record` is wait-free. See the crate
/// docs for the bucketing scheme and the error bound.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the array through a Vec.
        let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let boxed: Box<[AtomicU64; NUM_BUCKETS]> = match v.into_boxed_slice().try_into() {
            Ok(b) => b,
            Err(_) => unreachable!("vec length is NUM_BUCKETS"),
        };
        Histogram {
            buckets: boxed,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        // ordering: independent monotonic cell; readers tolerate staleness.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // ordering: independent monotonic cell; readers tolerate staleness.
        self.count.fetch_add(1, Ordering::Relaxed);
        // ordering: independent monotonic cell; readers tolerate staleness.
        self.sum.fetch_add(v, Ordering::Relaxed);
        // ordering: running max cell; no cross-variable ordering needed.
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        // ordering: stat read; snapshots tolerate torn cross-bucket views.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations (wraps only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        // ordering: stat read; snapshots tolerate torn cross-bucket views.
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded observation (exact, not bucketed).
    pub fn max(&self) -> u64 {
        // ordering: stat read; snapshots tolerate torn cross-bucket views.
        self.max.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time copy for quantile extraction and export.
    ///
    /// Concurrent recording during the snapshot may skew `count` vs. the
    /// bucket totals by in-flight observations; the snapshot recomputes
    /// its count from the bucket copy so quantiles are self-consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            // ordering: stat read; snapshots tolerate torn cross-bucket views.
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            // ordering: stat read; snapshots tolerate torn cross-bucket views.
            sum: self.sum.load(Ordering::Relaxed),
            // ordering: stat read; snapshots tolerate torn cross-bucket views.
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`] with quantile extraction.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// Number of observations in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) as the midpoint of the
    /// bucket holding the rank-`ceil(q * count)` observation, clamped to
    /// the exact recorded maximum. Returns 0 for an empty snapshot.
    ///
    /// Relative error vs. the true order statistic is bounded by half a
    /// bucket width over the bucket's lower bound, `1 / 2^(SUB_BITS + 1)`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_midpoint(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Gates span recording; cloneable flag shared across subsystems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recorder {
    enabled: bool,
}

impl Recorder {
    /// A recorder that records.
    pub const fn enabled() -> Self {
        Recorder { enabled: true }
    }

    /// A recorder whose spans are no-ops.
    pub const fn disabled() -> Self {
        Recorder { enabled: false }
    }

    /// Whether spans record.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span that records its elapsed nanoseconds into `hist`
    /// when dropped (or [`SpanTimer::stop`]ped). When the recorder is
    /// disabled this never reads the clock.
    #[inline]
    #[allow(clippy::disallowed_methods)] // the one sanctioned clock read: gated spans
    pub fn span<'a>(&self, hist: &'a Histogram) -> SpanTimer<'a> {
        if self.enabled {
            SpanTimer(Some((hist, Instant::now())))
        } else {
            SpanTimer(None)
        }
    }
}

/// RAII span: records elapsed nanoseconds into its histogram on drop.
#[derive(Debug)]
pub struct SpanTimer<'a>(Option<(&'a Histogram, Instant)>);

impl SpanTimer<'_> {
    /// Ends the span now, returning the recorded nanoseconds (None when
    /// the span was disabled).
    pub fn stop(mut self) -> Option<u64> {
        let (hist, start) = self.0.take()?;
        let ns = saturating_ns(start);
        hist.record(ns);
        Some(ns)
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.0.take() {
            hist.record(saturating_ns(start));
        }
    }
}

#[inline]
fn saturating_ns(start: Instant) -> u64 {
    let ns = start.elapsed().as_nanos();
    if ns > u64::MAX as u128 {
        u64::MAX
    } else {
        ns as u64
    }
}

pub mod json {
    //! Minimal JSON emission — just enough to write snapshot files
    //! without an external dependency. Produces compact, valid JSON for
    //! string/u64/f64 scalars, nested objects, and arrays.

    /// Escapes `s` for inclusion in a JSON string literal (quotes not
    /// included).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Renders an `f64` as JSON (finite values only; non-finite become
    /// `null` since JSON has no NaN/Inf).
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Incremental JSON object builder.
    #[derive(Debug, Default)]
    pub struct Obj {
        body: String,
    }

    impl Obj {
        /// An empty object.
        pub fn new() -> Self {
            Obj::default()
        }

        fn push_key(&mut self, key: &str) {
            if !self.body.is_empty() {
                self.body.push(',');
            }
            self.body.push('"');
            self.body.push_str(&escape(key));
            self.body.push_str("\":");
        }

        /// Adds a string field.
        pub fn str(mut self, key: &str, val: &str) -> Self {
            self.push_key(key);
            self.body.push('"');
            self.body.push_str(&escape(val));
            self.body.push('"');
            self
        }

        /// Adds an unsigned integer field.
        pub fn u64(mut self, key: &str, val: u64) -> Self {
            self.push_key(key);
            self.body.push_str(&val.to_string());
            self
        }

        /// Adds a float field (non-finite rendered as `null`).
        pub fn f64(mut self, key: &str, val: f64) -> Self {
            self.push_key(key);
            self.body.push_str(&num(val));
            self
        }

        /// Adds a pre-rendered JSON value (object, array, literal).
        pub fn raw(mut self, key: &str, val: &str) -> Self {
            self.push_key(key);
            self.body.push_str(val);
            self
        }

        /// Finishes the object.
        pub fn build(self) -> String {
            format!("{{{}}}", self.body)
        }
    }
}

impl HistogramSnapshot {
    /// Renders the snapshot's summary statistics as a JSON object
    /// (`count`, `sum`, `mean`, `p50`, `p90`, `p99`, `max` — times in
    /// the recorded unit, nanoseconds throughout the service).
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .u64("count", self.count())
            .u64("sum", self.sum())
            .f64("mean", self.mean())
            .u64("p50", self.p50())
            .u64("p90", self.p90())
            .u64("p99", self.p99())
            .u64("max", self.max())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            let idx = bucket_index(v);
            assert_eq!(idx, v as usize);
            assert_eq!(bucket_lower(idx), v);
            assert_eq!(bucket_width(idx), 1);
        }
    }

    #[test]
    fn bucket_bounds_cover_value() {
        for &v in &[
            32u64,
            33,
            63,
            64,
            100,
            1_000,
            4_095,
            4_096,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "idx {idx} for {v}");
            let lo = bucket_lower(idx);
            let width = bucket_width(idx);
            assert!(lo <= v, "lower {lo} > v {v}");
            assert!(
                v - lo < width,
                "v {v} outside bucket [{lo}, {lo}+{width}) idx {idx}"
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone_across_boundaries() {
        let mut prev = bucket_index(0);
        for v in 1..10_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotone at {v}");
            prev = idx;
        }
    }

    #[test]
    fn quantiles_hit_documented_bound() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10_000);
        for &(q, exact) in &[(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let est = s.quantile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(
                err <= 1.0 / (1 << (SUB_BITS + 1)) as f64 + 1e-9,
                "q={q}: est {est} vs exact {exact} (err {err})"
            );
        }
        assert_eq!(s.max(), 10_000);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn disabled_recorder_spans_do_not_record() {
        let h = Histogram::new();
        let r = Recorder::disabled();
        {
            let _span = r.span(&h);
        }
        assert_eq!(h.count(), 0);
        assert_eq!(r.span(&h).stop(), None);
    }

    #[test]
    fn enabled_recorder_spans_record_on_drop_and_stop() {
        let h = Histogram::new();
        let r = Recorder::enabled();
        {
            let _span = r.span(&h);
        }
        let ns = r.span(&h).stop();
        assert!(ns.is_some());
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn gauge_guard_tracks_scope() {
        let g = Gauge::new();
        {
            let _a = g.guard();
            let _b = g.guard();
            assert_eq!(g.get(), 2);
        }
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn json_writer_emits_valid_shapes() {
        let obj = json::Obj::new()
            .str("name", "a\"b\\c\n")
            .u64("n", 7)
            .f64("x", 1.5)
            .raw("inner", "[1,2]")
            .build();
        assert_eq!(
            obj,
            "{\"name\":\"a\\\"b\\\\c\\n\",\"n\":7,\"x\":1.5,\"inner\":[1,2]}"
        );
        assert_eq!(json::num(f64::NAN), "null");
    }

    #[test]
    fn snapshot_json_contains_quantiles() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        let j = h.snapshot().to_json();
        assert!(j.contains("\"count\":2"));
        assert!(j.contains("\"p50\""));
        assert!(j.contains("\"max\":20"));
    }
}
