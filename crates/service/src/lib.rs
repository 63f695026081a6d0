//! FairHMS query-serving engine.
//!
//! The algorithm crates solve one instance per call and re-read their input
//! every time; this crate is the *resident* layer that serves many FairHMS
//! queries against the same datasets — the interactive, repeated-query
//! setting the paper (Zheng et al., VLDB 2022) targets:
//!
//! * [`catalog`] — a [`Catalog`] of named datasets, loaded once, with
//!   memoized preprocessing (normalization, group partitions, and the
//!   group-skyline index every algorithm consumes);
//! * [`query`] — the canonical [`Query`] type (`dataset`, `k`, bounds
//!   policy, algorithm, params) and its fingerprint;
//! * [`cache`] — an LRU [`SolutionCache`] keyed by query
//!   fingerprint, so repeated queries return bit-identical answers without
//!   re-solving;
//! * [`warmstart`] — the second cache tier: a [`WarmStartCache`] of
//!   BiGreedy `db_max` vectors keyed by `(dataset epoch, form, form
//!   generation, k, seed)`, so near-miss queries skip the `m × n`
//!   setup pass without affecting answers;
//! * [`engine`] — the [`QueryEngine`] tying catalog + cache + the
//!   [`fairhms_core::registry`] algorithm table together;
//! * [`metrics`] — the [`ServiceMetrics`] telemetry surface: per-stage
//!   latency histograms, request-lifecycle spans, and gauges, exported
//!   over the `METRICS` wire verb and the bench JSON snapshot (built on
//!   the lock-free primitives in `fairhms-obs`);
//! * [`protocol`] — typed [`Request`]/[`Response`] wire model and the v1
//!   text rendering;
//! * [`codec`] — the pluggable [`Codec`] seam: v1 text lines and the v2
//!   length-prefixed binary framing, negotiated per connection by
//!   `HELLO`;
//! * [`client`] — [`WireClient`], the typed client the CLI and test
//!   suites share;
//! * [`reactor`] — a thin std-only wrapper over `poll(2)` plus a
//!   self-pipe [`reactor::Waker`], the readiness layer under the event
//!   front end;
//! * [`server`] — the TCP front end (`fairhms serve`): one `poll(2)`
//!   event loop owning every connection, with solves on a resident
//!   worker pool behind a bounded queue (no async runtime; output is
//!   independent of worker count and scheduling), streamed batch
//!   delivery, admission control (bounded solve queue, per-connection
//!   quotas, deadline shedding with `retry_after_ms`), the `LOAD` admin
//!   verb, and the `APPEND`/`DELETE` mutation verbs (incremental skyline
//!   maintenance with one mutation generation per dataset form and delta
//!   cache invalidation — see `docs/ARCHITECTURE.md`).
//!
//! ```
//! use fairhms_service::{Catalog, Query, QueryEngine};
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(Catalog::new());
//! // A 6-point, 2-group toy dataset.
//! let points = vec![1.0, 0.1, 0.8, 0.6, 0.2, 0.9, 0.9, 0.3, 0.4, 0.8, 0.7, 0.7];
//! let data = fairhms_data::Dataset::new("toy", 2, points, vec![0, 1, 0, 1, 0, 1], vec![]).unwrap();
//! catalog.insert_dataset(data).unwrap();
//!
//! let engine = QueryEngine::new(catalog, 64);
//! let q = Query::new("toy", 2);
//! let cold = engine.execute(&q).unwrap();
//! let warm = engine.execute(&q).unwrap();
//! assert!(!cold.cached && warm.cached);
//! assert_eq!(cold.answer.indices, warm.answer.indices);
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod client;
pub mod codec;
pub mod engine;
mod event;
mod executor;
pub mod metrics;
pub mod protocol;
pub mod query;
pub mod reactor;
pub mod server;
pub mod warmstart;

pub use cache::{CacheStats, SolutionCache};
pub use catalog::{Catalog, MutationOutcome, PreparedDataset};
pub use client::WireClient;
pub use codec::{BinaryCodec, Codec, CodecKind, TextCodec};
pub use engine::{Answer, MutationReport, QueryEngine, QueryResponse, StageTimings};
pub use metrics::{MetricsSnapshot, ServiceMetrics, TelemetryConfig};
pub use protocol::{Request, Response, WireAnswer, WireHistogram};
pub use query::Query;
pub use server::{ServeOptions, Server};
pub use warmstart::{WarmConfig, WarmEntry, WarmKey, WarmStartCache, WarmStats};

use fairhms_core::types::CoreError;
use fairhms_data::DatasetError;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The query referenced a dataset the catalog does not hold.
    UnknownDataset {
        /// The missing catalog key.
        name: String,
    },
    /// A dataset failed to load or validate.
    Dataset(String),
    /// The solver rejected the instance or failed (typed core error).
    Core(CoreError),
    /// A wire request could not be parsed.
    Protocol(String),
    /// The server is shedding load: an admission-control bound was hit
    /// (stream cap, solve queue, per-connection quota, or queue
    /// deadline — see [`server::ServeOptions`]). Carries the server's
    /// retry advice so well-behaved clients can back off precisely.
    Busy {
        /// Which bound shed the request, e.g.
        /// `"8 streamed batches in flight (limit 8)"`.
        reason: String,
        /// Suggested client back-off in milliseconds (≥ 1).
        retry_after_ms: u64,
    },
    /// Socket / filesystem failure (message-only; `io::Error` is not
    /// `Clone`).
    Io(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownDataset { name } => {
                write!(f, "unknown dataset {name:?} (not in catalog)")
            }
            ServiceError::Dataset(m) => write!(f, "dataset error: {m}"),
            ServiceError::Core(e) => write!(f, "solver error: {e}"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::Busy {
                reason,
                retry_after_ms,
            } => write!(f, "busy: {reason} (retry after {retry_after_ms} ms)"),
            ServiceError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl From<DatasetError> for ServiceError {
    fn from(e: DatasetError) -> Self {
        ServiceError::Dataset(e.to_string())
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e.to_string())
    }
}
