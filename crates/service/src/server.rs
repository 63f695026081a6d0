//! The std-only TCP server behind `fairhms serve`.
//!
//! [`Server`] binds the listener and runs the readiness-driven front end
//! (`crate::event`, built on [`crate::reactor`]) on a background thread:
//! one loop thread owns every socket via `poll(2)`, per-connection state
//! machines carve requests and answer with typed [`Response`] frames
//! through the connection's negotiated codec, and solves run on a
//! resident `executor::WorkerPool` behind a **bounded**
//! `executor::SolveQueue`. Idle connections cost a poll-set entry, not a
//! thread, and shutdown is immediate (self-pipe wake, no timeout spin).
//!
//! This module keeps the protocol pieces the event loop calls: response
//! encoding (`encode_into`), the control-plane verbs, the `LOAD`/
//! `APPEND`/`DELETE` handlers, batch-body parsing, the slow-query log,
//! the stream gate, and the request size limits.
//!
//! Admission control: the [`ServeOptions::max_stream_batches`] gate
//! bounds concurrently streaming batches server-wide, per-connection
//! quotas ([`ServeOptions::max_inflight_queries`],
//! [`ServeOptions::max_conn_batches`]) bound pipelining, a connection cap
//! ([`ServeOptions::max_conns`]) bounds state, and queue bounds
//! ([`ServeOptions::queue_depth`], [`ServeOptions::queue_deadline_ms`])
//! bound waiting work. Every shed answers `ERR busy` carrying
//! `retry_after_ms` back-off advice. No async runtime, no external
//! protocol dependencies.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use fairhms_core::registry::ALGORITHMS;

use crate::codec::Codec;
use crate::engine::{MutationReport, QueryEngine, QueryResponse};
use crate::metrics::ServiceMetrics;
use crate::protocol::{self, Request, Response};
use crate::query::Query;
use crate::reactor::Waker;
use crate::ServiceError;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4077` (`:0` for an OS-chosen port).
    pub addr: String,
    /// Resident solve worker threads.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4077".to_string(),
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// Protocol-v2 serving options, separate from [`ServerConfig`] so v1
/// callers (and the pinned v1 regression tests) construct servers
/// unchanged; [`Server::spawn`] applies the defaults.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Allowlist directory for the `LOAD` admin verb. `None` (the
    /// default) disables `LOAD` entirely; when set, requested paths must
    /// resolve (symlinks and `..` included) to files under this
    /// directory — see [`crate::catalog::resolve_under_root`].
    pub load_root: Option<PathBuf>,
    /// Server-wide cap on concurrently *streaming* batches
    /// (`BATCH n stream=true`), summed across connections; a streamed
    /// batch beyond it answers `ERR busy: …`. `0` disables streaming
    /// outright.
    pub max_stream_batches: usize,
    /// Slow-query log threshold in milliseconds. `None` (the default)
    /// disables the log; `Some(n)` prints one structured line on stderr
    /// for every query whose total execution time exceeds `n` ms — see
    /// docs/ARCHITECTURE.md ("Observability") for the line format.
    pub slow_query_ms: Option<u64>,
    /// Maximum simultaneously open connections. An accept beyond the cap
    /// is answered with a best-effort `ERR busy` line and closed
    /// immediately.
    pub max_conns: usize,
    /// Bound on the global solve queue between the event loop and its
    /// workers. A `QUERY` (or batch slot) arriving while the queue is
    /// full is shed with `ERR busy` + retry advice. `0` sheds every
    /// solve — the deterministic-overload test hook.
    pub queue_depth: usize,
    /// Queue-time budget in milliseconds: a solve dequeued after waiting
    /// longer is shed instead of executed — the client has likely timed
    /// out, so finishing the solve only wastes a worker. `None` disables
    /// deadline shedding.
    pub queue_deadline_ms: Option<u64>,
    /// Per-connection cap on in-flight single `QUERY`s: a pipelining
    /// client beyond it is shed with `ERR busy`.
    pub max_inflight_queries: usize,
    /// Per-connection cap on concurrently executing batches, on top of
    /// the server-wide stream gate.
    pub max_conn_batches: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            load_root: None,
            max_stream_batches: 8,
            slow_query_ms: None,
            max_conns: 1024,
            queue_depth: 256,
            queue_deadline_ms: Some(5_000),
            max_inflight_queries: 64,
            max_conn_batches: 4,
        }
    }
}

/// Caps concurrently executing streamed batches server-wide, counting
/// them on the always-on `streams.active` gauge; acquisition beyond the
/// cap is refused with the `(active, limit)` pair so the caller can build
/// a typed busy error carrying retry advice. Only the event-loop thread
/// acquires and releases permits, so the check-then-increment needs no
/// atomic read-modify-write.
#[derive(Debug, Clone)]
pub(crate) struct StreamGate {
    max: usize,
}

/// Releases its [`StreamGate`] slot on drop — including when the
/// connection dies with a batch in flight, so a dying client can never
/// leak a permit. Owned (no borrow of the gate): permits live inside
/// per-connection state that outlives any single call frame.
#[derive(Debug)]
pub(crate) struct StreamPermit {
    metrics: Arc<ServiceMetrics>,
}

impl StreamGate {
    pub(crate) fn new(max: usize) -> Self {
        Self { max }
    }

    /// Acquires a slot, or reports `(active, limit)` when the gate is
    /// full.
    pub(crate) fn try_acquire(
        &self,
        metrics: &Arc<ServiceMetrics>,
    ) -> Result<StreamPermit, (usize, usize)> {
        let active = metrics.streams_active.get().max(0) as usize;
        if active >= self.max {
            return Err((active, self.max));
        }
        metrics.streams_active.inc();
        Ok(StreamPermit {
            metrics: Arc::clone(metrics),
        })
    }
}

impl Drop for StreamPermit {
    fn drop(&mut self) {
        self.metrics.streams_active.dec();
    }
}

/// Builds the typed busy error for a stream-gate shed and counts it in
/// `shed.total`; `queued`/`workers` feed the retry advice.
pub(crate) fn gate_busy(
    m: &ServiceMetrics,
    active: usize,
    limit: usize,
    queued: usize,
    workers: usize,
) -> ServiceError {
    m.shed_total.inc();
    ServiceError::Busy {
        reason: format!("{active} streamed batches in flight (limit {limit})"),
        retry_after_ms: m.retry_after_ms(queued, workers),
    }
}

/// A running server: background event loop + shutdown handle.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
    /// Wakes the `poll(2)` loop so shutdown is immediate instead of
    /// waiting out a timeout.
    waker: Waker,
}

impl Server {
    /// Binds `cfg.addr` and starts the event loop on a background thread
    /// with default [`ServeOptions`] (`LOAD` disabled). The returned
    /// handle reports the bound address (useful with port 0) and can
    /// stop the server.
    pub fn spawn(engine: Arc<QueryEngine>, cfg: ServerConfig) -> Result<Server, ServiceError> {
        Server::spawn_with(engine, cfg, ServeOptions::default())
    }

    /// [`Server::spawn`] with explicit protocol-v2 [`ServeOptions`].
    #[allow(clippy::disallowed_methods)] // uptime birth stamp; see R5 waiver inside
    pub fn spawn_with(
        engine: Arc<QueryEngine>,
        cfg: ServerConfig,
        opts: ServeOptions,
    ) -> Result<Server, ServiceError> {
        let listener = bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // The event loop waits for listener readiness via `poll(2)`.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let opts = Arc::new(opts);
        // fairhms-lint: allow(R5) server birth stamp: feeds the STATS
        // uptime_secs wire field, read once per STATS — not a hot path.
        let started = Instant::now();
        let (pipe, waker) = crate::reactor::wake_pair()?;
        let loop_waker = waker.clone();
        let workers = cfg.workers;
        let handle = std::thread::spawn(move || {
            crate::event::run(
                listener, engine, workers, loop_stop, opts, started, pipe, loop_waker,
            );
        });
        Ok(Server {
            addr,
            stop,
            handle,
            waker,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the event loop to stop and waits for it to exit. The stop
    /// is observed immediately (self-pipe wake).
    pub fn shutdown(self) {
        // ordering: stop flag is a rare, correctness-critical edge; SeqCst
        // keeps shutdown visible to every loop without case analysis.
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        let _ = self.handle.join();
    }

    /// Blocks until the event loop exits (i.e. until a client sends
    /// `SHUTDOWN`). Used by the foreground `fairhms serve` command.
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

fn bind(addr: &str) -> Result<TcpListener, ServiceError> {
    let mut last: Option<std::io::Error> = None;
    for resolved in addr
        .to_socket_addrs()
        .map_err(|e| ServiceError::Io(format!("resolve {addr}: {e}")))?
    {
        match TcpListener::bind(resolved) {
            Ok(l) => return Ok(l),
            Err(e) => last = Some(e),
        }
    }
    Err(ServiceError::Io(format!(
        "bind {addr}: {}",
        last.map_or("no addresses".to_string(), |e| e.to_string())
    )))
}

/// Longest accepted request line, bytes. Oversized lines drop the
/// connection, so a newline-free stream cannot grow server memory without
/// limit.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest total byte size of the lines following a `BATCH` header.
/// The whole batch body is buffered before parsing (to keep bad batches
/// from desynchronizing the connection), so the buffer itself needs a
/// cap independent of the per-line one.
pub(crate) const MAX_BATCH_BYTES: usize = 16 << 20;

/// Largest accepted `BATCH n` count; a larger header is answered with a
/// protocol error before any lines are read.
pub(crate) const MAX_BATCH: usize = 100_000;

/// Serializes `resp` into `frame` (replacing its contents), falling back
/// to a typed `ERR` frame when the value is not encodable, so a
/// wire-unsafe value never reaches the socket as a desynchronizing byte
/// sequence — the response-side half of the wire-safety contract.
pub(crate) fn encode_into(
    codec: &dyn Codec,
    frame: &mut Vec<u8>,
    resp: &Response,
    metrics: &ServiceMetrics,
) -> std::io::Result<()> {
    // The encode span covers serialization only, never socket writes.
    let _encode = metrics.recorder().span(&metrics.encode);
    frame.clear();
    if let Err(e) = codec.encode_frame(resp, frame) {
        frame.clear();
        let fallback = Response::Error {
            seq: None,
            message: format!("response not encodable: {e}").replace(['\n', '\r'], " "),
        };
        codec
            .encode_frame(&fallback, frame)
            .map_err(|e2| std::io::Error::new(std::io::ErrorKind::InvalidData, e2.to_string()))?;
    }
    Ok(())
}

/// Answers the light control-plane verbs inline. `None` for the verbs
/// that need connection or worker-pool state: `HELLO`, `QUERY`, `BATCH`,
/// `SHUTDOWN`, and the heavy `LOAD`/`APPEND`/`DELETE`, which run on the
/// pool through [`handle_load`] and [`mutated`].
pub(crate) fn control_response(
    engine: &QueryEngine,
    workers: usize,
    started: Instant,
    req: &Request,
) -> Option<Response> {
    let m = engine.metrics();
    Some(match req {
        Request::Ping => Response::Pong,
        Request::List => {
            let summaries: Vec<String> = engine
                .catalog()
                .names()
                .iter()
                .filter_map(|n| engine.catalog().get(n))
                .map(|p| p.summary())
                .collect();
            Response::Datasets(summaries)
        }
        Request::Algorithms => {
            Response::Algorithms(ALGORITHMS.iter().map(|a| a.key.to_string()).collect())
        }
        Request::Stats => {
            let st = engine.cache_stats();
            let warm = engine.warm_stats();
            Response::Stats {
                hits: st.hits,
                misses: st.misses,
                entries: st.entries,
                evictions: st.evictions,
                hit_rate: st.hit_rate(),
                warm_hits: warm.hits,
                warm_misses: warm.misses,
                warm_entries: warm.entries,
                uptime_secs: started.elapsed().as_secs(),
                total_queries: m.total_queries.get(),
                queue_depth: m.queue_depth.get().max(0) as u64,
                shed_total: m.shed_total.get(),
                conns_open: m.conn_active.get().max(0) as u64,
                mutations_total: m.mutations_total.get(),
            }
        }
        Request::Info => Response::Info {
            workers,
            datasets: engine.catalog().len(),
            cache_entries: engine.cache_stats().entries,
            uptime_secs: started.elapsed().as_secs(),
            total_queries: m.total_queries.get(),
        },
        Request::Metrics => Response::from_metrics(&m.snapshot()),
        Request::Hello { .. }
        | Request::Query(_)
        | Request::Batch { .. }
        | Request::Shutdown
        | Request::Load { .. }
        | Request::Append { .. }
        | Request::Delete { .. } => return None,
    })
}

/// Renders the slow-query log line for a query that took longer than
/// `threshold_ms`, or `None` when the log is off, the query failed, or
/// the query was fast enough. One line per slow query:
///
/// ```text
/// SLOW query dataset=airline alg=bigreedy k=8 total_ms=412.7 cached=false \
///   cache_lookup_us=1 flight_wait_us=0 warm_probe_us=33 solve_us=412608
/// ```
///
/// The stage breakdown is present only when telemetry is enabled (stage
/// timings ride on [`QueryResponse::stages`]).
fn format_slow_query(
    threshold_ms: Option<u64>,
    q: &Query,
    res: &Result<QueryResponse, ServiceError>,
) -> Option<String> {
    let threshold = threshold_ms?;
    let resp = res.as_ref().ok()?;
    if resp.micros <= threshold.saturating_mul(1000) {
        return None;
    }
    let mut out = format!(
        "SLOW query dataset={} alg={} k={} total_ms={:.1} cached={}",
        q.dataset,
        q.alg,
        q.k,
        resp.micros as f64 / 1000.0,
        resp.cached,
    );
    if let Some(st) = &resp.stages {
        out.push_str(&format!(
            " cache_lookup_us={} flight_wait_us={} warm_probe_us={} solve_us={}",
            st.cache_lookup_ns / 1000,
            st.flight_wait_ns / 1000,
            st.warm_probe_ns / 1000,
            st.solve_ns / 1000,
        ));
    }
    Some(out)
}

/// Prints [`format_slow_query`]'s line to stderr when it applies; the
/// event loop calls it as each solve's completion is delivered.
pub(crate) fn log_if_slow(
    threshold_ms: Option<u64>,
    q: &Query,
    res: &Result<QueryResponse, ServiceError>,
) {
    if let Some(line) = format_slow_query(threshold_ms, q, res) {
        eprintln!("{line}");
    }
}

/// Handles the `LOAD` admin verb: allowlist gate, path confinement,
/// catalog registration.
pub(crate) fn handle_load(
    engine: &QueryEngine,
    opts: &ServeOptions,
    name: &str,
    path: &str,
) -> Response {
    let Some(root) = &opts.load_root else {
        return Response::error(&ServiceError::Protocol(
            "LOAD disabled: server started without --load-root".into(),
        ));
    };
    let full = match crate::catalog::resolve_under_root(root, path) {
        Ok(p) => p,
        Err(e) => return Response::error(&e),
    };
    match engine.load_csv(name, &full) {
        Ok(prep) => Response::Loaded {
            name: prep.name.clone(),
            rows: prep.dataset.len(),
            dim: prep.dataset.dim(),
            groups: prep.dataset.num_groups(),
            skyline: prep.skyline_rows.len(),
        },
        Err(e) => Response::error(&e),
    }
}

/// The one [`Response::Mutated`] frame of an `APPEND` or `DELETE`
/// (`op`): the catalog change plus the delta cache invalidation it ran.
/// Mutations take no `--load-root` gate — they touch only datasets
/// already registered, never the filesystem.
pub(crate) fn mutated(
    name: String,
    op: &str,
    outcome: Result<MutationReport, ServiceError>,
) -> Response {
    match outcome {
        Ok(rep) => Response::Mutated {
            name,
            op: op.to_string(),
            rows: rep.rows,
            skyline: rep.skyline,
            sky_changed: rep.sky_changed,
            cache_dropped: rep.cache_dropped,
            warm_dropped: rep.warm_dropped,
        },
        Err(e) => Response::error(&e),
    }
}

/// Parses the decoded lines of a `BATCH` body into queries; any non-query
/// line is a protocol error naming its 1-based position.
pub(crate) fn parse_batch_lines(lines: &[String]) -> Result<Vec<Query>, ServiceError> {
    let mut queries = Vec::with_capacity(lines.len());
    for (i, l) in lines.iter().enumerate() {
        match protocol::parse_request(l) {
            Ok(Request::Query(q)) => queries.push(*q),
            Ok(other) => {
                return Err(ServiceError::Protocol(format!(
                    "batch line {} must be a QUERY, got {other:?}",
                    i + 1
                )))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use fairhms_data::Dataset;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    /// A server over a 4-point, 2-group toy dataset named `toy`.
    fn toy_server(workers: usize) -> Server {
        let catalog = Arc::new(Catalog::new());
        let data = Dataset::new(
            "toy",
            2,
            vec![1.0, 0.1, 0.2, 0.9, 0.7, 0.7, 0.9, 0.3],
            vec![0, 1, 0, 1],
            vec![],
        )
        .unwrap();
        catalog.insert_dataset(data).unwrap();
        let engine = Arc::new(QueryEngine::new(catalog, 16));
        Server::spawn(
            engine,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers,
            },
        )
        .unwrap()
    }

    /// A raw text connection: the writer half and a line reader.
    fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    }

    #[test]
    fn read_batch_validates_lines() {
        let server = toy_server(2);
        let (mut w, mut r) = connect(&server);

        w.write_all(b"BATCH 2\nQUERY dataset=toy k=2\nQUERY dataset=toy k=3\n")
            .unwrap();
        assert_eq!(read_line(&mut r), "OK batch=2");
        for k in [2, 3] {
            let ans = protocol::parse_response(&read_line(&mut r)).unwrap();
            assert_eq!(ans.indices.len(), k);
        }

        // A non-QUERY body line is a protocol error naming its position.
        w.write_all(b"BATCH 1\nPING\n").unwrap();
        let err = read_line(&mut r);
        assert!(
            err.starts_with("ERR") && err.contains("batch line 1 must be a QUERY"),
            "{err}"
        );

        // Empty batches answer a bare header, buffered or streamed.
        w.write_all(b"BATCH 0\nBATCH 0 stream=true\nPING\n")
            .unwrap();
        assert_eq!(read_line(&mut r), "OK batch=0");
        assert_eq!(read_line(&mut r), "OK batch=0 stream=true");
        assert_eq!(read_line(&mut r), "OK pong");
        server.shutdown();
    }

    #[test]
    fn bad_batch_line_does_not_desync_the_connection() {
        // A batch whose first line is not a QUERY must consume all n
        // lines: the valid line after the bad one is NOT executed as a
        // top-level request, and the next request is the STATS line.
        let server = toy_server(1);
        let (mut w, mut r) = connect(&server);
        w.write_all(b"BATCH 2\nPING\nQUERY dataset=toy k=2\nSTATS\n")
            .unwrap();
        let err = read_line(&mut r);
        assert!(err.starts_with("ERR"), "{err}");
        let stats = read_line(&mut r);
        assert!(stats.starts_with("OK hits="), "{stats}");
        server.shutdown();
    }

    #[test]
    fn slow_query_log_formats_only_over_threshold() {
        use crate::engine::{Answer, StageTimings};

        let mut q = Query::new("airline", 8);
        q.alg = "bigreedy".into();
        let resp = |micros: u64, stages: Option<StageTimings>| {
            Ok(QueryResponse {
                answer: Arc::new(Answer {
                    indices: vec![1, 2],
                    mhr: None,
                    violations: 0,
                    alg: "BiGreedy".into(),
                    solve_micros: micros,
                }),
                cached: false,
                micros,
                stages,
            })
        };

        // Off by default: no threshold, no line.
        assert!(format_slow_query(None, &q, &resp(10_000_000, None)).is_none());
        // Under threshold: no line.
        assert!(format_slow_query(Some(100), &q, &resp(99_000, None)).is_none());
        // Errors never log (there is no timing to report).
        assert!(format_slow_query(
            Some(0),
            &q,
            &Err(ServiceError::UnknownDataset {
                name: "airline".into()
            })
        )
        .is_none());

        // Over threshold without telemetry: identity fields only.
        let line = format_slow_query(Some(100), &q, &resp(412_700, None)).unwrap();
        assert_eq!(
            line,
            "SLOW query dataset=airline alg=bigreedy k=8 total_ms=412.7 cached=false"
        );

        // With telemetry the per-stage breakdown rides along.
        let stages = StageTimings {
            cache_lookup_ns: 1_500,
            flight_wait_ns: 0,
            warm_probe_ns: 33_000,
            solve_ns: 412_608_000,
        };
        let line = format_slow_query(Some(100), &q, &resp(412_700, Some(stages))).unwrap();
        assert!(line.contains("cache_lookup_us=1"), "{line}");
        assert!(line.contains("flight_wait_us=0"), "{line}");
        assert!(line.contains("warm_probe_us=33"), "{line}");
        assert!(line.contains("solve_us=412608"), "{line}");
    }

    #[test]
    fn stream_gate_sheds_load_beyond_the_cap_and_releases_on_drop() {
        let m = Arc::new(ServiceMetrics::new(false));
        let gate = StreamGate::new(2);
        let a = gate.try_acquire(&m).unwrap();
        let b = gate.try_acquire(&m).unwrap();
        // Third stream: refused with the (active, limit) pair, which the
        // caller turns into a typed busy error carrying retry advice.
        let (active, limit) = gate.try_acquire(&m).unwrap_err();
        assert_eq!((active, limit), (2, 2));
        let busy = gate_busy(&m, active, limit, 0, 4);
        match busy {
            ServiceError::Busy {
                reason,
                retry_after_ms,
            } => {
                assert_eq!(reason, "2 streamed batches in flight (limit 2)");
                assert!(retry_after_ms >= 1);
            }
            other => panic!("expected busy, got {other:?}"),
        }
        assert_eq!(m.shed_total.get(), 1);
        drop(a);
        // A released slot is immediately reusable.
        let c = gate.try_acquire(&m).unwrap();
        drop(b);
        drop(c);
        assert_eq!(m.streams_active.get(), 0);

        // max_stream_batches = 0 disables streaming outright.
        let closed = StreamGate::new(0);
        assert!(closed.try_acquire(&m).is_err());
    }

    #[test]
    fn stream_permit_tracks_the_streams_gauge_when_telemetry_is_on() {
        let m = Arc::new(ServiceMetrics::new(true));
        let gate = StreamGate::new(4);
        let a = gate.try_acquire(&m).unwrap();
        let b = gate.try_acquire(&m).unwrap();
        assert_eq!(m.streams_active.get(), 2);
        drop(a);
        assert_eq!(m.streams_active.get(), 1);
        drop(b);
        assert_eq!(m.streams_active.get(), 0);
    }

    #[test]
    fn stream_permit_tracks_the_streams_gauge_when_telemetry_is_off() {
        // The gauge is the gate's counter, so METRICS reports running
        // streams under --no-telemetry too.
        let m = Arc::new(ServiceMetrics::new(false));
        let gate = StreamGate::new(4);
        let a = gate.try_acquire(&m).unwrap();
        assert_eq!(m.streams_active.get(), 1);
        drop(a);
        assert_eq!(m.streams_active.get(), 0);
    }

    #[test]
    fn shutdown_completes_with_idle_client_connected() {
        let server = toy_server(1);
        // An idle client that never sends anything and never disconnects.
        let _idle = TcpStream::connect(server.addr()).unwrap();

        // Shutdown must still complete promptly (a self-pipe wake) instead
        // of blocking on the idle connection.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("shutdown hung on an idle connection");
    }

    #[test]
    fn spawn_serve_shutdown() {
        let server = toy_server(2);
        let (mut w, mut r) = connect(&server);

        w.write_all(b"PING\n").unwrap();
        assert_eq!(read_line(&mut r), "OK pong");

        w.write_all(b"QUERY dataset=toy k=2 alg=intcov\n").unwrap();
        let ans = protocol::parse_response(&read_line(&mut r)).unwrap();
        assert_eq!(ans.alg, "IntCov");
        assert_eq!(ans.indices.len(), 2);

        w.write_all(b"SHUTDOWN\n").unwrap();
        assert_eq!(read_line(&mut r), "OK bye");
        server.shutdown();
    }
}
