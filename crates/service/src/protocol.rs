//! Typed wire protocol: requests, the [`Response`] model, and the v1 text
//! rendering.
//!
//! Since protocol **v2** the service speaks a *typed* request/response
//! model: every server reply is a [`Response`] value, and a
//! [`crate::codec::Codec`] renders it on the wire. Two codecs exist —
//! [`crate::codec::TextCodec`] (the v1 lines below, bit-for-bit) and
//! [`crate::codec::BinaryCodec`] (length-prefixed frames) — negotiated by
//! the `HELLO` handshake. A connection that never sends `HELLO` is a v1
//! text session and observes exactly the v1 protocol. Each response
//! variant's fields are declared once, in `codec.rs`'s response schema;
//! this module holds the text side of that walk (`Fields` reads an
//! `OK` line, a text writer appends one) and the hand-written `ERR`
//! lines.
//!
//! Requests are *always* newline-delimited UTF-8 text, space-separated
//! `key=value` pairs, no quoting — values never contain spaces, and a
//! key may appear once. The negotiated codec governs the **response**
//! channel only (responses carry the bulk: index lists). Numeric floats
//! use Rust's shortest round-trip `Display` formatting, so a parsed `mhr`
//! is bit-identical to the serialized one.
//!
//! ```text
//! >> PING                                   << OK pong
//! >> HELLO version=2 codec=binary           << OK version=2 codec=binary
//! >> LIST                                   << OK datasets=name:n:d:c:sky,...
//! >> ALGS                                   << OK algorithms=intcov,bigreedy,...
//! >> STATS                                  << OK hits=… misses=… entries=… evictions=… hit_rate=… warm_hits=… warm_misses=… warm_entries=… uptime_secs=… total_queries=… queue_depth=… shed_total=… conns_open=… mutations_total=…
//! >> INFO                                   << OK workers=… datasets=… cache_entries=… uptime_secs=… total_queries=…
//! >> QUERY dataset=adult k=8 alg=bigreedy   << OK alg=BiGreedy cached=false micros=812 err=0 mhr=0.97 indices=3,17,40
//! >> BATCH 2                                << OK batch=2
//! >> QUERY …                                << (response line for query 1)
//! >> QUERY …                                << (response line for query 2)
//! >> BATCH 2 stream=true                    << OK batch=2 stream=true
//! >> QUERY …                                << OK seq=1 alg=…   (completion order,
//! >> QUERY …                                << OK seq=0 alg=…    seq = request index)
//! >> LOAD name=extra path=extra.csv         << OK loaded name=extra n=2000 d=3 groups=3 skyline=940
//! >> APPEND name=extra row=0.5,0.9,0.1 group=2
//!                                           << OK mutated name=extra op=append n=2001 skyline=940 sky_changed=false cache_dropped=1 warm_dropped=0
//! >> DELETE name=extra row=17               << OK mutated name=extra op=delete n=2000 skyline=939 sky_changed=true cache_dropped=4 warm_dropped=2
//! >> SHUTDOWN                               << OK bye
//! ```
//!
//! Malformed input yields a single `ERR <message>` reply; the connection
//! stays open.

use crate::codec::{
    put_display, read_fields, write_fields, FieldReader, FieldWriter, TextForm, WireValue,
    TEXT_LAYOUTS,
};
use crate::engine::QueryResponse;
use crate::query::Query;
use crate::ServiceError;

/// Protocol version spoken after a successful `HELLO`; v1 is the
/// implicit version of connections that never send one.
pub const PROTOCOL_VERSION: u32 = 2;

/// A parsed client request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// `HELLO version=2 codec=<text|binary>`: negotiate the response
    /// codec for the rest of the connection (v2 handshake).
    Hello {
        /// Requested protocol version (only [`PROTOCOL_VERSION`] is
        /// accepted; v1 clients simply never send `HELLO`).
        version: u32,
        /// Requested response codec.
        codec: crate::codec::CodecKind,
    },
    /// List cataloged datasets.
    List,
    /// List registered algorithm names.
    Algorithms,
    /// Report cache counters.
    Stats,
    /// Report server configuration (workers, catalog and cache sizes).
    Info,
    /// `BATCH n [stream=true]`: the next `n` lines are queries executed
    /// as one batch. With `stream=true` each answer is delivered as it
    /// completes, tagged with its request index (`seq=`), instead of
    /// buffering all `n` in request order.
    Batch {
        /// Number of `QUERY` lines that follow the header.
        n: usize,
        /// Stream per-completion (`seq`-tagged) instead of buffering.
        stream: bool,
    },
    /// A single query.
    Query(Box<Query>),
    /// `LOAD name=<name> path=<path>`: register a CSV from the server's
    /// `--load-root` allowlist directory into the catalog.
    Load {
        /// Catalog key to register under.
        name: String,
        /// Path relative to the server's `--load-root`.
        path: String,
    },
    /// `APPEND name=<name> row=<c1,...,cd> group=<idx>`: append one row
    /// to a cataloged dataset in place, with incremental group-skyline
    /// maintenance and delta cache invalidation (no re-prep, no full
    /// cache flush).
    Append {
        /// Catalog key of the dataset to mutate.
        name: String,
        /// The new row's coordinates (must match the dataset's
        /// dimensionality; finite, non-negative).
        row: Vec<f64>,
        /// 0-based group index of the new row (must be an existing
        /// group).
        group: usize,
    },
    /// `DELETE name=<name> row=<id>`: delete one row by its current
    /// 0-based id. Ids above the deleted row shift down by one, exactly
    /// as re-loading the edited CSV would renumber them.
    Delete {
        /// Catalog key of the dataset to mutate.
        name: String,
        /// Current 0-based row id to remove.
        row: usize,
    },
    /// Report the telemetry snapshot (stage histograms, counters,
    /// gauges). Added after v2 shipped; old clients simply never send it.
    Metrics,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// One typed server reply — the seam every codec encodes from and every
/// client decodes into.
///
/// One variant per verb (plus [`Response::Error`]); the legacy v1 lines
/// are exactly [`crate::codec::TextCodec`]'s rendering of these values,
/// so the typed model is observably identical to the historical ad-hoc
/// `format!` strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `PING` reply.
    Pong,
    /// `HELLO` acknowledgment: the version and codec now in force.
    Hello {
        /// Accepted protocol version.
        version: u32,
        /// Response codec for every frame after this acknowledgment.
        codec: crate::codec::CodecKind,
    },
    /// `LIST` reply: one `name:n:d:groups:skyline` summary per dataset.
    Datasets(Vec<String>),
    /// `ALGS` reply: registered algorithm names.
    Algorithms(Vec<String>),
    /// `STATS` reply: solution-cache counters plus warm-start tier
    /// counters (the `warm_*` fields), server gauges and totals.
    Stats {
        /// Lookups answered from the cache.
        hits: u64,
        /// Lookups that fell through to a cold solve.
        misses: u64,
        /// Entries currently resident.
        entries: usize,
        /// Entries evicted to make room.
        evictions: u64,
        /// `hits / (hits + misses)` (0 when nothing was looked up).
        hit_rate: f64,
        /// BiGreedy `db_max` vectors reused from the warm-start tier.
        warm_hits: u64,
        /// BiGreedy `db_max` vectors computed fresh (and cached).
        warm_misses: u64,
        /// Resident warm-start `db_max` vectors.
        warm_entries: usize,
        /// Seconds since the server started (0 for engine-only
        /// contexts).
        uptime_secs: u64,
        /// Queries executed by the engine since start.
        total_queries: u64,
        /// Solves waiting in the bounded admission queue right now.
        queue_depth: u64,
        /// Requests refused by admission control since start.
        shed_total: u64,
        /// Connections currently open.
        conns_open: u64,
        /// Catalog mutations (`APPEND`/`DELETE`) applied since start.
        mutations_total: u64,
    },
    /// `INFO` reply: server configuration.
    Info {
        /// Batch worker threads.
        workers: usize,
        /// Registered datasets.
        datasets: usize,
        /// Resident cache entries.
        cache_entries: usize,
        /// Seconds since the server started.
        uptime_secs: u64,
        /// Queries executed by the engine since start.
        total_queries: u64,
    },
    /// A query answer — one per `QUERY`, `n` per `BATCH n`.
    Answer {
        /// Request index within a streamed batch (`BATCH n stream=true`);
        /// `None` for single queries and buffered batches, whose wire
        /// form is then byte-identical to protocol v1.
        seq: Option<u64>,
        /// The payload.
        answer: WireAnswer,
    },
    /// `BATCH` acknowledgment, written before the `n` answers.
    BatchHeader {
        /// Batch size.
        n: usize,
        /// Whether answers follow in completion order with `seq` tags.
        stream: bool,
    },
    /// `LOAD` reply: the freshly registered dataset's shape.
    Loaded {
        /// Catalog key.
        name: String,
        /// Row count.
        rows: usize,
        /// Dimensionality.
        dim: usize,
        /// Group count.
        groups: usize,
        /// Group-skyline size.
        skyline: usize,
    },
    /// `APPEND`/`DELETE` reply: the post-mutation dataset shape plus the
    /// delta-invalidation fan-out.
    Mutated {
        /// Catalog key.
        name: String,
        /// Which mutation ran: `append` or `delete`.
        op: String,
        /// Row count after the mutation.
        rows: usize,
        /// Group-skyline size after the mutation.
        skyline: usize,
        /// Whether the group skyline changed (membership or row ids).
        sky_changed: bool,
        /// Answer-cache entries dropped by the delta sweep (entries for
        /// untouched forms and other datasets survive).
        cache_dropped: u64,
        /// Warm-start entries dropped by the delta sweep.
        warm_dropped: u64,
    },
    /// `METRICS` reply: the telemetry snapshot. `histograms` holds only
    /// non-empty stage histograms (durations in nanoseconds), so the
    /// line stays proportional to actual activity; `enabled=false` with
    /// empty histograms is the whole reply when telemetry is off.
    Metrics {
        /// Whether span recording is enabled server-side.
        enabled: bool,
        /// Counter and gauge levels, `(name, value)` in export order.
        counters: Vec<(String, u64)>,
        /// Summaries of the non-empty stage histograms.
        histograms: Vec<WireHistogram>,
    },
    /// `SHUTDOWN` acknowledgment.
    Bye,
    /// Admission control refused the request (`ERR busy …` on the text
    /// wire). A distinguished error shape so the server's back-off
    /// advice travels typed; v1 text clients that don't know it still
    /// see a regular `ERR` line.
    Busy {
        /// Request index within a streamed batch, if any.
        seq: Option<u64>,
        /// Suggested client back-off in milliseconds (≥ 1).
        retry_after_ms: u64,
        /// Which bound shed the request (newline-free).
        message: String,
    },
    /// Any failure; `seq` is set only for per-query failures inside a
    /// streamed batch.
    Error {
        /// Request index within a streamed batch, if any.
        seq: Option<u64>,
        /// Human-readable message (newline-free).
        message: String,
    },
}

impl Response {
    /// An [`Response::Error`] (no `seq`) carrying `e`'s display form,
    /// sanitized for the wire (newlines would split text frames, so they
    /// are replaced by spaces — no current error message contains any).
    pub fn error(e: &ServiceError) -> Response {
        Response::error_at(None, e)
    }

    /// Like [`Response::error`], tagged with a streamed-batch sequence
    /// number. [`ServiceError::Busy`] maps to the distinguished
    /// [`Response::Busy`] shape so the retry advice travels typed.
    pub fn error_at(seq: Option<u64>, e: &ServiceError) -> Response {
        match e {
            ServiceError::Busy {
                reason,
                retry_after_ms,
            } => Response::Busy {
                seq,
                retry_after_ms: *retry_after_ms,
                message: reason.replace(['\n', '\r'], " "),
            },
            _ => Response::Error {
                seq,
                message: e.to_string().replace(['\n', '\r'], " "),
            },
        }
    }

    /// Converts a per-query engine result into its response, tagging
    /// `seq` for streamed delivery.
    pub fn from_result(seq: Option<u64>, r: &Result<QueryResponse, ServiceError>) -> Response {
        match r {
            Ok(resp) => Response::Answer {
                seq,
                answer: WireAnswer::from_response(resp),
            },
            Err(e) => Response::error_at(seq, e),
        }
    }

    /// The inverse of [`Response::error_at`]: the typed error a `Busy`
    /// or `Error` frame carries. `Busy` keeps its retry advice; an
    /// `Error` message comes back as [`ServiceError::Protocol`]. Any
    /// other frame is not the `expected` one, which is a protocol error
    /// too.
    pub fn into_error(self, expected: &str) -> ServiceError {
        match self {
            Response::Busy {
                retry_after_ms,
                message,
                ..
            } => ServiceError::Busy {
                reason: message,
                retry_after_ms,
            },
            Response::Error { message, .. } => ServiceError::Protocol(message),
            other => ServiceError::Protocol(format!("expected {expected}, got {other:?}")),
        }
    }
}

fn parse_bool(key: &str, v: &str) -> Result<bool, ServiceError> {
    match v {
        "true" | "1" => Ok(true),
        "false" | "0" => Ok(false),
        _ => Err(ServiceError::Protocol(format!("{key}: bad bool {v:?}"))),
    }
}

pub(crate) fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, ServiceError> {
    v.parse()
        .map_err(|_| ServiceError::Protocol(format!("{key}: cannot parse {v:?}")))
}

/// Rejects a value that would desynchronize the space/newline-delimited
/// text framing if embedded in a request or response line.
///
/// The seam the wire-safety guarantee hangs on: [`query_to_wire`] and
/// the text codec route every free-form string (dataset and algorithm
/// names, list entries) through here, so a crafted value (e.g.
/// `alg="x ERR injected"`) yields a typed error instead of silently
/// producing two frames.
pub(crate) fn check_wire_safe(field: &str, v: &str) -> Result<(), ServiceError> {
    if v.chars().any(char::is_whitespace) {
        return Err(ServiceError::Protocol(format!(
            "{field}: value {v:?} is not wire-safe (contains whitespace)"
        )));
    }
    Ok(())
}

/// The `key=value` fields of one request or `OK` response line — the
/// text twin of the binary decoder's payload reader. A key may appear
/// once, and [`Fields::finish`] rejects any field left unread, so every
/// line has exactly one reading.
struct Fields(Vec<(String, String)>);

impl Fields {
    fn parse(tokens: &[&str]) -> Result<Self, ServiceError> {
        let fields = tokens.iter().map(|t| {
            t.split_once('=')
                .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
                .ok_or_else(|| ServiceError::Protocol(format!("expected key=value, got {t:?}")))
        });
        Ok(Self(fields.collect::<Result<_, _>>()?))
    }

    /// Takes the value of `key`, if present; a repeated key is an error.
    fn take(&mut self, key: &str) -> Result<Option<String>, ServiceError> {
        let Some(i) = self.0.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        let (_, v) = self.0.remove(i);
        if self.0.iter().any(|(k, _)| k == key) {
            return Err(ServiceError::Protocol(format!("repeated field {key}=")));
        }
        Ok(Some(v))
    }

    /// Takes and parses the value of `key`, if present.
    fn get<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str, &str) -> Result<T, ServiceError>,
    ) -> Result<Option<T>, ServiceError> {
        self.take(key)?.map(|v| parse(key, &v)).transpose()
    }

    /// Takes the value of a required `key`.
    fn text(&mut self, key: &str) -> Result<String, ServiceError> {
        self.take(key)?.ok_or_else(|| missing_field(key))
    }

    /// Rejects any field left unread (unknown to the line's layout).
    fn finish(self) -> Result<(), ServiceError> {
        match self.0.first() {
            Some((key, _)) => Err(ServiceError::Protocol(format!("unknown field {key:?}"))),
            None => Ok(()),
        }
    }
}

fn missing_field(key: &str) -> ServiceError {
    ServiceError::Protocol(format!("missing field {key}="))
}

/// Parses a `QUERY`-line body (`key=value` tokens after the verb).
pub fn parse_query(tokens: &[&str]) -> Result<Query, ServiceError> {
    let mut f = Fields::parse(tokens)?;
    let mut q = Query::new(f.text("dataset")?, parse_num("k", &f.text("k")?)?);
    if let Some(alg) = f.take("alg")? {
        q.alg = alg;
    }
    if let Some(alpha) = f.get("alpha", parse_num)? {
        q.alpha = crate::query::check_alpha(alpha).map_err(ServiceError::Protocol)?;
    }
    if let Some(balanced) = f.get("balanced", parse_bool)? {
        q.balanced = balanced;
    }
    if let Some(seed) = f.get("seed", parse_num)? {
        q.seed = seed;
    }
    if let Some(skyline) = f.get("skyline", parse_bool)? {
        q.skyline = skyline;
    }
    f.finish()?;
    Ok(q)
}

fn parse_hello(tokens: &[&str]) -> Result<Request, ServiceError> {
    let mut f = Fields::parse(tokens)?;
    let version: u32 = parse_num("version", &f.text("version")?)?;
    let codec = f.get("codec", |_, v| {
        crate::codec::CodecKind::parse(v).ok_or_else(|| {
            ServiceError::Protocol(format!("codec: expected text|binary, got {v:?}"))
        })
    })?;
    f.finish()?;
    if version != PROTOCOL_VERSION {
        return Err(ServiceError::Protocol(format!(
            "unsupported protocol version {version} (this server speaks {PROTOCOL_VERSION}; \
             v1 clients simply omit HELLO)"
        )));
    }
    Ok(Request::Hello {
        version,
        codec: codec.unwrap_or(crate::codec::CodecKind::Text),
    })
}

fn parse_batch(rest: &[&str]) -> Result<Request, ServiceError> {
    let Some((n, tail)) = rest.split_first() else {
        return Err(ServiceError::Protocol(
            "usage: BATCH <n> [stream=true]".into(),
        ));
    };
    let n: usize = parse_num("batch size", n)?;
    let mut f = Fields::parse(tail)?;
    let stream = f.get("stream", parse_bool)?.unwrap_or(false);
    f.finish()?;
    Ok(Request::Batch { n, stream })
}

fn parse_load(tokens: &[&str]) -> Result<Request, ServiceError> {
    let mut f = Fields::parse(tokens)?;
    let load = Request::Load {
        name: f.text("name")?,
        path: f.text("path")?,
    };
    f.finish()?;
    Ok(load)
}

fn parse_append(tokens: &[&str]) -> Result<Request, ServiceError> {
    let mut f = Fields::parse(tokens)?;
    let append = Request::Append {
        name: f.text("name")?,
        // Every cell must parse, like a CSV row behind `LOAD`: an empty
        // cell is an error, not a skipped coordinate.
        row: f
            .text("row")?
            .split(',')
            .map(|s| parse_num("row", s))
            .collect::<Result<Vec<f64>, _>>()?,
        group: parse_num("group", &f.text("group")?)?,
    };
    f.finish()?;
    Ok(append)
}

fn parse_delete(tokens: &[&str]) -> Result<Request, ServiceError> {
    let mut f = Fields::parse(tokens)?;
    let delete = Request::Delete {
        name: f.text("name")?,
        row: parse_num("row", &f.text("row")?)?,
    };
    f.finish()?;
    Ok(delete)
}

/// Parses one request line (verbs are case-insensitive).
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some((verb, rest)) = tokens.split_first() else {
        return Err(ServiceError::Protocol("empty request".into()));
    };
    match verb.to_ascii_uppercase().as_str() {
        "PING" => Ok(Request::Ping),
        "HELLO" => parse_hello(rest),
        "LIST" => Ok(Request::List),
        "ALGS" => Ok(Request::Algorithms),
        "STATS" => Ok(Request::Stats),
        "INFO" => Ok(Request::Info),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "BATCH" => parse_batch(rest),
        "QUERY" => Ok(Request::Query(Box::new(parse_query(rest)?))),
        "LOAD" => parse_load(rest),
        "APPEND" => parse_append(rest),
        "DELETE" => parse_delete(rest),
        "METRICS" => Ok(Request::Metrics),
        other => Err(ServiceError::Protocol(format!("unknown verb {other:?}"))),
    }
}

/// Serializes a query as a full `QUERY …` request line (the inverse of
/// [`parse_request`]).
///
/// Errors on wire-unsafe field values (whitespace, including newlines, in
/// `dataset` or `alg`): such a value would tokenize into extra fields or
/// extra request lines on the server — a silent desync — so the client
/// seam refuses to produce it.
pub fn query_to_wire(q: &Query) -> Result<String, ServiceError> {
    check_wire_safe("dataset", &q.dataset)?;
    check_wire_safe("alg", &q.alg)?;
    Ok(format!(
        "QUERY dataset={} k={} alg={} alpha={} balanced={} seed={} skyline={}",
        q.dataset, q.k, q.alg, q.alpha, q.balanced, q.seed, q.skyline
    ))
}

/// One stage histogram's summary as carried by the `METRICS` reply.
///
/// All durations are nanoseconds; quantiles carry the bucket-midpoint
/// error bound documented in `fairhms_obs` (≤ 1/64 relative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireHistogram {
    /// Export name (e.g. `engine.solve.bigreedy`); never contains
    /// whitespace, `,`, or `:`.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observations, ns.
    pub sum: u64,
    /// Median estimate, ns.
    pub p50: u64,
    /// 90th-percentile estimate, ns.
    pub p90: u64,
    /// 99th-percentile estimate, ns.
    pub p99: u64,
    /// Exact maximum, ns.
    pub max: u64,
}

impl WireHistogram {
    /// The wire form of a named histogram snapshot.
    pub fn from_snapshot(name: &str, s: &fairhms_obs::HistogramSnapshot) -> WireHistogram {
        WireHistogram {
            name: name.to_string(),
            count: s.count(),
            sum: s.sum(),
            p50: s.p50(),
            p90: s.p90(),
            p99: s.p99(),
            max: s.max(),
        }
    }
}

impl Response {
    /// The `METRICS` reply for a telemetry snapshot.
    pub fn from_metrics(snap: &crate::metrics::MetricsSnapshot) -> Response {
        Response::Metrics {
            enabled: snap.enabled,
            counters: snap.counters.clone(),
            histograms: snap
                .histograms
                .iter()
                .map(|(name, s)| WireHistogram::from_snapshot(name, s))
                .collect(),
        }
    }
}

/// An `OK …` query response as decoded by a client.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnswer {
    /// Display name of the algorithm that solved the query.
    pub alg: String,
    /// Whether the server answered from its solution cache.
    pub cached: bool,
    /// Server-side execution time, microseconds.
    pub micros: u64,
    /// Fairness violation count.
    pub violations: usize,
    /// Minimum happiness ratio (bit-exact across the wire), if evaluated.
    pub mhr: Option<f64>,
    /// Selected rows of the full dataset, sorted.
    pub indices: Vec<usize>,
}

impl WireAnswer {
    /// The wire form of an engine response.
    pub fn from_response(resp: &QueryResponse) -> WireAnswer {
        let a = &resp.answer;
        WireAnswer {
            alg: a.alg.clone(),
            cached: resp.cached,
            micros: resp.micros,
            violations: a.violations,
            mhr: a.mhr,
            indices: a.indices.clone(),
        }
    }
}

/// Formats a successful query response line (protocol v1: no `seq`).
///
/// Errors on a wire-unsafe `alg` value instead of silently emitting a
/// line that would parse as several fields (see [`query_to_wire`]).
pub fn format_response(resp: &QueryResponse) -> Result<String, ServiceError> {
    encode_response_line(&Response::Answer {
        seq: None,
        answer: WireAnswer::from_response(resp),
    })
}

/// Encodes a typed [`Response`] as one v1-compatible text line (no
/// trailing newline).
///
/// This *is* the v1 wire format: for every response shape that existed in
/// protocol v1 the output is byte-identical to the historical `format!`
/// strings (pinned by the codec-equivalence suite). Free-form strings are
/// wire-safety-checked; a value that would split into extra tokens or
/// lines yields an `Err` instead of a desynchronized connection.
pub fn encode_response_line(resp: &Response) -> Result<String, ServiceError> {
    let mut line = Vec::new();
    write_response_line(resp, &mut line)?;
    String::from_utf8(line).map_err(|e| ServiceError::Protocol(e.to_string()))
}

/// Appends `resp`'s text line, without its newline, to `out`; on error
/// `out` may hold part of the line.
pub(crate) fn write_response_line(resp: &Response, out: &mut Vec<u8>) -> Result<(), ServiceError> {
    let (seq, retry_after_ms, message) = match resp {
        Response::Busy {
            seq,
            retry_after_ms,
            message,
        } => (seq, Some(retry_after_ms), message),
        Response::Error { seq, message } => (seq, None, message),
        _ => return write_fields(resp, &mut TextWriter(out)),
    };
    if message.contains(['\n', '\r']) {
        return Err(ServiceError::Protocol(
            "error message contains a newline (not wire-safe)".into(),
        ));
    }
    out.extend_from_slice(b"ERR ");
    if let Some(s) = seq {
        put_display(out, format_args!("seq={s} "));
    }
    // Old clients parse a busy line as a regular ERR line; new ones
    // recognize the `busy retry_after_ms=` marker.
    if let Some(ms) = retry_after_ms {
        put_display(out, format_args!("busy retry_after_ms={ms} "));
    }
    out.extend_from_slice(message.as_bytes());
    Ok(())
}

/// The text side of the schema walk: `OK`, the head word if any, then
/// one ` key=value` per field.
struct TextWriter<'a>(&'a mut Vec<u8>);

impl FieldWriter for TextWriter<'_> {
    fn begin(&mut self, _: u8, form: TextForm) {
        self.0.extend_from_slice(b"OK");
        if let TextForm::Head(word) = form {
            self.0.push(b' ');
            self.0.extend_from_slice(word.as_bytes());
        }
    }

    fn field<V: WireValue>(
        &mut self,
        key: &'static str,
        v: &V,
        unset: Option<&V>,
    ) -> Result<(), ServiceError> {
        if unset == Some(v) {
            return Ok(());
        }
        self.0.push(b' ');
        self.0.extend_from_slice(key.as_bytes());
        self.0.push(b'=');
        v.put_text(key, self.0)
    }
}

impl FieldReader for Fields {
    fn field<V: WireValue>(
        &mut self,
        key: &'static str,
        unset: Option<V>,
    ) -> Result<V, ServiceError> {
        match self.get(key, V::get_text)? {
            Some(v) if unset.as_ref() == Some(&v) => Err(ServiceError::Protocol(format!(
                "field {key}= holds the value its line leaves out"
            ))),
            Some(v) => Ok(v),
            None => unset.ok_or_else(|| missing_field(key)),
        }
    }
}

/// The tag of the `OK` line with head word `head`, or, without one, of
/// the head-less line whose first key is `key` (a key the line may leave
/// out, such as an answer's `seq`, counts as first too).
fn text_tag(head: Option<&str>, key: Option<&str>) -> Option<u8> {
    TEXT_LAYOUTS.iter().find_map(|&(tag, form, keys)| {
        let found = match (form, head) {
            (TextForm::Head(word), Some(head)) => word == head,
            (TextForm::Bare, None) => {
                let lead = keys
                    .iter()
                    .position(|&(_, omissible)| !omissible)
                    .map_or(keys.len(), |i| i + 1);
                keys[..lead].iter().any(|&(k, _)| Some(k) == key)
            }
            _ => false,
        };
        found.then_some(tag)
    })
}

/// Decodes one response line into the typed [`Response`] model — the
/// exact inverse of [`encode_response_line`] (round-trip pinned by the
/// codec-equivalence suite, `mhr` to the bit).
pub fn decode_response_line(line: &str) -> Result<Response, ServiceError> {
    if let Some(body) = line.strip_prefix("ERR ") {
        return Ok(decode_err_line(body));
    }
    let Some(body) = line.strip_prefix("OK ") else {
        return Err(ServiceError::Protocol(format!(
            "expected OK/ERR line, got {line:?}"
        )));
    };
    let tokens: Vec<&str> = body.split_whitespace().collect();
    let (head, tokens) = match tokens.split_first() {
        Some((word, rest)) if !word.contains('=') => (Some(*word), rest),
        _ => (None, &tokens[..]),
    };
    let mut fields = Fields::parse(tokens)?;
    let key = fields.0.first().map(|(k, _)| k.as_str());
    let tag = text_tag(head, key)
        .ok_or_else(|| ServiceError::Protocol(format!("unrecognized response line {line:?}")))?;
    let resp = read_fields(tag, &mut fields)?;
    fields.finish()?;
    Ok(resp)
}

/// Decodes the body of an `ERR` line: an optional leading `seq=N` tag
/// (streamed per-query errors), then the admission-control shed marker
/// `busy retry_after_ms=R`, if any, then the message. A tag or marker
/// that does not parse stays part of the message, so pre-admission
/// transcripts decode unchanged.
fn decode_err_line(body: &str) -> Response {
    let (seq, rest) = match body.strip_prefix("seq=").and_then(|t| t.split_once(' ')) {
        Some((s, msg)) => match s.parse::<u64>() {
            Ok(s) => (Some(s), msg),
            Err(_) => (None, body),
        },
        None => (None, body),
    };
    if let Some((ms, msg)) = rest
        .strip_prefix("busy retry_after_ms=")
        .and_then(|t| t.split_once(' '))
    {
        if let Ok(retry_after_ms) = ms.parse::<u64>() {
            return Response::Busy {
                seq,
                retry_after_ms,
                message: msg.to_string(),
            };
        }
    }
    Response::Error {
        seq,
        message: rest.to_string(),
    }
}

/// Decodes a query response line produced by [`format_response`] (an
/// `ERR …` line decodes to [`ServiceError::Protocol`] carrying the
/// message). The v1 client entry point — streamed (`seq`-tagged) frames
/// decode too, via [`decode_response_line`].
pub fn parse_response(line: &str) -> Result<WireAnswer, ServiceError> {
    match decode_response_line(line)? {
        Response::Answer { answer, .. } => Ok(answer),
        other => Err(other.into_error("a query answer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Answer;
    use std::sync::Arc;

    #[test]
    fn request_round_trip() {
        let mut q = Query::new("adult", 8);
        q.alg = "bigreedy+".into();
        q.alpha = 0.25;
        q.balanced = true;
        q.seed = 7;
        q.skyline = false;
        let wire = query_to_wire(&q).unwrap();
        match parse_request(&wire).unwrap() {
            Request::Query(parsed) => assert_eq!(*parsed, q),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_defaults_and_verbs() {
        match parse_request("query dataset=d k=3").unwrap() {
            Request::Query(q) => {
                assert_eq!(*q, Query::new("d", 3));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("batch 12").unwrap(),
            Request::Batch {
                n: 12,
                stream: false
            }
        );
        assert_eq!(
            parse_request("BATCH 3 stream=true").unwrap(),
            Request::Batch { n: 3, stream: true }
        );
        assert_eq!(
            parse_request("BATCH 3 stream=0").unwrap(),
            Request::Batch {
                n: 3,
                stream: false
            }
        );
        assert_eq!(parse_request("ShUtDoWn").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("INFO").unwrap(), Request::Info);
        assert_eq!(parse_request("metrics").unwrap(), Request::Metrics);
        match parse_request("QUERY dataset=d k=3 alpha=0").unwrap() {
            Request::Query(q) => assert_eq!(q.alpha, 0.0),
            other => panic!("{other:?}"),
        }
        for bad in [
            "",
            "FROB",
            "QUERY k=3",
            "QUERY dataset=d",
            "QUERY dataset=d k=x",
            "QUERY dataset=d k=3 zz=1",
            // The paper's bounds need a finite slack α ≥ 0.
            "QUERY dataset=d k=3 alpha=NaN",
            "QUERY dataset=d k=3 alpha=-5",
            "QUERY dataset=d k=3 alpha=inf",
            "BATCH",
            "BATCH x y",
            "BATCH 3 stream=maybe",
            "BATCH 3 zz=1",
            // The retired preparation-shard verb is unknown now.
            "SHARDS",
            "SHARDS 4",
            "SHARDS 0",
            "HELLO",
            "HELLO version=3",
            "HELLO version=2 codec=carrier-pigeon",
            "LOAD",
            "LOAD name=x",
            "LOAD path=y",
            "LOAD name=x path=a b",
            "APPEND",
            "APPEND name=x",
            "APPEND name=x row=0.5,0.9",
            "APPEND name=x group=0",
            "APPEND name=x row= group=0",
            "APPEND name=x row=0.5,nope group=0",
            // Empty cells are not skipped coordinates.
            "APPEND name=x row=0.1,0.1,,0.1 group=0",
            "APPEND name=x row=,0.1,0.1 group=0",
            "APPEND name=x row=0.1,0.1, group=0",
            "APPEND name=x row=0.5 group=z",
            "APPEND name=x row=0.5 group=0 zz=1",
            "DELETE",
            "DELETE name=x",
            "DELETE row=3",
            "DELETE name=x row=-1",
            "DELETE name=x row=3 zz=1",
            // A repeated key is an error, never "the last one wins".
            "QUERY dataset=a dataset=b k=3",
            "QUERY dataset=a k=3 K=4",
            "QUERY dataset=a k=3 alg=greedy alg=bigreedy",
            "HELLO version=2 version=2",
            "HELLO version=2 codec=text codec=binary",
            "BATCH 3 stream=true stream=false",
            "LOAD name=x name=y path=p",
            "APPEND name=x row=0.5 group=0 group=1",
            "DELETE name=x row=1 row=2",
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServiceError::Protocol(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn hello_and_load_parse() {
        assert_eq!(
            parse_request("HELLO version=2 codec=binary").unwrap(),
            Request::Hello {
                version: 2,
                codec: crate::codec::CodecKind::Binary
            }
        );
        assert_eq!(
            parse_request("hello version=2").unwrap(),
            Request::Hello {
                version: 2,
                codec: crate::codec::CodecKind::Text
            }
        );
        assert_eq!(
            parse_request("LOAD name=extra path=sub/extra.csv").unwrap(),
            Request::Load {
                name: "extra".into(),
                path: "sub/extra.csv".into()
            }
        );
    }

    #[test]
    fn response_round_trip_preserves_mhr_bits() {
        let resp = QueryResponse {
            answer: Arc::new(Answer {
                indices: vec![3, 17, 40],
                mhr: Some(0.1 + 0.2), // a value with messy trailing digits
                violations: 0,
                alg: "BiGreedy".into(),
                solve_micros: 812,
            }),
            cached: false,
            micros: 812,
            stages: None,
        };
        let line = format_response(&resp).unwrap();
        let parsed = parse_response(&line).unwrap();
        assert_eq!(parsed.indices, vec![3, 17, 40]);
        assert_eq!(parsed.mhr.map(f64::to_bits), Some((0.1f64 + 0.2).to_bits()));
        assert_eq!(parsed.alg, "BiGreedy");
        assert!(!parsed.cached);

        // empty selection and missing mhr also survive
        let resp2 = QueryResponse {
            answer: Arc::new(Answer {
                indices: vec![],
                mhr: None,
                violations: 2,
                alg: "Greedy".into(),
                solve_micros: 1,
            }),
            cached: true,
            micros: 3,
            stages: None,
        };
        let parsed2 = parse_response(&format_response(&resp2).unwrap()).unwrap();
        assert!(parsed2.indices.is_empty());
        assert_eq!(parsed2.mhr, None);
        assert_eq!(parsed2.violations, 2);
        assert!(parsed2.cached);
    }

    #[test]
    fn err_lines_decode_to_protocol_errors() {
        let e = ServiceError::UnknownDataset { name: "x".into() };
        let line = format!("ERR {e}");
        assert!(line.starts_with("ERR "));
        assert!(matches!(
            parse_response(&line),
            Err(ServiceError::Protocol(m)) if m.contains("unknown dataset")
        ));
    }

    fn assert_protocol_errors(lines: &[&str]) {
        for line in lines {
            assert!(
                matches!(decode_response_line(line), Err(ServiceError::Protocol(_))),
                "{line:?}"
            );
        }
    }

    // Every fixed-shape line has exactly one layout. The tests below feed
    // the decoder the lines of each older layout: every one is a typed
    // protocol error, never a line with defaulted fields.

    #[test]
    fn pre_warmstart_stats_and_info_lines_still_decode() {
        assert_protocol_errors(&[
            // STATS before the warm_* fields, and before the telemetry
            // fields.
            "OK hits=2 misses=1 entries=1 evictions=0 hit_rate=0.5",
            "OK hits=2 misses=1 entries=1 evictions=0 hit_rate=0.5 \
             warm_hits=3 warm_misses=2 warm_entries=1",
            // Old INFO layouts: leading `shards=`/`strategy=`, or missing
            // the telemetry fields.
            "OK shards=4 strategy=stratified workers=2 datasets=1 cache_entries=0",
            "OK shards=1 strategy=stratified workers=2 datasets=1 cache_entries=0 \
             warmstart=true uptime_secs=0 total_queries=0",
            "OK workers=2 datasets=1 cache_entries=0",
            // A malformed value.
            "OK hits=1 misses=0 entries=0 evictions=0 hit_rate=1 warm_hits=x",
        ]);
    }

    #[test]
    fn pre_mutation_stats_lines_still_decode() {
        assert_protocol_errors(&[
            // STATS before mutations_total.
            "OK hits=2 misses=1 entries=1 evictions=0 hit_rate=0.5 \
             warm_hits=3 warm_misses=2 warm_entries=1 uptime_secs=12 total_queries=3 \
             queue_depth=2 shed_total=5 conns_open=7",
            // A malformed value.
            "OK hits=1 misses=0 entries=0 evictions=0 hit_rate=1 mutations_total=x",
            // MUTATED without its delta fields.
            "OK mutated name=t op=delete n=9 skyline=4",
        ]);
    }

    #[test]
    fn old_layout_text_lines_are_protocol_errors() {
        assert_protocol_errors(&[
            // STATS before the admission fields.
            "OK hits=2 misses=1 entries=1 evictions=0 hit_rate=0.5 \
             warm_hits=3 warm_misses=2 warm_entries=1 uptime_secs=12 total_queries=3",
            // METRICS without any field, or without `histos=`.
            "OK metrics",
            "OK metrics enabled=true counters=",
            // Trailing or unknown fields are not a second layout.
            "OK pong extra",
            "OK datasets=a:1:2:3:4 cache_entries=0",
            "OK loaded name=t n=9 d=2 groups=3 skyline=4 shards=1",
            "OK alg=x cached=false micros=1 err=0 mhr=none indices= extra=1",
            // A boolean is `true` or `false`; the encoder never writes 1/0.
            "OK alg=x cached=1 micros=1 err=0 mhr=none indices=",
            "OK mutated name=t op=append n=9 skyline=4 sky_changed=0 cache_dropped=0 warm_dropped=0",
            "OK metrics enabled=1 counters= histos=",
            "OK version=2 codec=BINARY",
            "OK batch=7 stream=1",
            // A field the line leaves out when unset is never written unset.
            "OK batch=7 stream=false",
            "OK seq=none alg=x cached=false micros=1 err=0 mhr=none indices=",
            // Nor is any field written twice.
            "OK alg=x alg=y cached=false micros=1 err=0 mhr=none indices=",
        ]);
    }

    #[test]
    fn truncated_answer_lines_are_protocol_errors() {
        for line in [
            "OK alg=x",
            "OK alg=BiGreedy cached=false",
            "OK seq=2 alg=BiGreedy cached=false micros=1 err=0 mhr=none",
        ] {
            assert!(
                matches!(
                    parse_response(line),
                    Err(ServiceError::Protocol(m)) if m.starts_with("missing field ")
                ),
                "{line:?}"
            );
        }
        // An empty selection is still a complete answer.
        let ans =
            parse_response("OK alg=Greedy cached=true micros=3 err=2 mhr=none indices=").unwrap();
        assert!(ans.indices.is_empty());
        assert_eq!(ans.mhr, None);
    }

    #[test]
    fn busy_markers_decode_compatibly() {
        // A message that merely *starts* like the busy marker but has a
        // malformed retry value stays a plain error (pre-admission
        // transcripts decode unchanged).
        match decode_response_line("ERR busy retry_after_ms=soon overloaded").unwrap() {
            Response::Error { seq: None, message } => {
                assert_eq!(message, "busy retry_after_ms=soon overloaded");
            }
            other => panic!("{other:?}"),
        }
        // The historical v1 busy rendering (no marker) is a plain error.
        match decode_response_line("ERR busy: 8 streamed batches in flight (limit 8)").unwrap() {
            Response::Error { seq: None, message } => {
                assert!(message.starts_with("busy: "));
            }
            other => panic!("{other:?}"),
        }
        // parse_response surfaces a typed ServiceError::Busy to v1-style
        // clients of the line decoder.
        assert!(matches!(
            parse_response("ERR busy retry_after_ms=24 solve queue full"),
            Err(ServiceError::Busy {
                retry_after_ms: 24,
                ..
            })
        ));
    }

    #[test]
    fn append_and_delete_requests_parse() {
        assert_eq!(
            parse_request("APPEND name=extra row=0.5,0.9,0.1 group=2").unwrap(),
            Request::Append {
                name: "extra".into(),
                row: vec![0.5, 0.9, 0.1],
                group: 2
            }
        );
        assert_eq!(
            parse_request("delete name=extra row=17").unwrap(),
            Request::Delete {
                name: "extra".into(),
                row: 17
            }
        );
    }

    #[test]
    fn wire_unsafe_query_fields_error_instead_of_desync() {
        let mut q = Query::new("toy", 2);
        q.alg = "bigreedy cached=true".into(); // crafted: would inject a field
        assert!(matches!(
            query_to_wire(&q),
            Err(ServiceError::Protocol(m)) if m.contains("wire-safe")
        ));
        let mut q = Query::new("toy\nPING", 2); // crafted: would inject a request
        q.alg = "bigreedy".into();
        assert!(query_to_wire(&q).is_err());

        let resp = QueryResponse {
            answer: Arc::new(Answer {
                indices: vec![1],
                mhr: None,
                violations: 0,
                alg: "Bi Greedy".into(), // crafted display name
                solve_micros: 1,
            }),
            cached: false,
            micros: 1,
            stages: None,
        };
        assert!(matches!(
            format_response(&resp),
            Err(ServiceError::Protocol(m)) if m.contains("wire-safe")
        ));
    }

    #[test]
    fn metric_names_that_collide_with_delimiters_are_rejected() {
        for bad in ["has space", "has:colon", "has,comma", ""] {
            let resp = Response::Metrics {
                enabled: true,
                counters: vec![(bad.to_string(), 1)],
                histograms: vec![],
            };
            assert!(
                encode_response_line(&resp).is_err(),
                "counter name {bad:?} should be rejected"
            );
            let resp = Response::Metrics {
                enabled: true,
                counters: vec![],
                histograms: vec![WireHistogram {
                    name: bad.to_string(),
                    count: 1,
                    sum: 1,
                    p50: 1,
                    p90: 1,
                    p99: 1,
                    max: 1,
                }],
            };
            assert!(
                encode_response_line(&resp).is_err(),
                "histogram name {bad:?} should be rejected"
            );
        }
        // Malformed METRICS bodies are typed errors, not panics.
        assert!(decode_response_line("OK metrics enabled=true counters=noval histos=").is_err());
        assert!(decode_response_line("OK metrics enabled=true counters= histos=a:1:2").is_err());
    }

    #[test]
    fn streamed_answer_lines_carry_seq() {
        let ans = WireAnswer {
            alg: "IntCov".into(),
            cached: false,
            micros: 12,
            violations: 0,
            mhr: Some(0.75),
            indices: vec![4, 9],
        };
        let line = encode_response_line(&Response::Answer {
            seq: Some(3),
            answer: ans.clone(),
        })
        .unwrap();
        assert_eq!(
            line,
            "OK seq=3 alg=IntCov cached=false micros=12 err=0 mhr=0.75 indices=4,9"
        );
        match decode_response_line(&line).unwrap() {
            Response::Answer { seq, answer } => {
                assert_eq!(seq, Some(3));
                assert_eq!(answer, ans);
            }
            other => panic!("{other:?}"),
        }
        // and the v1 client decoder still accepts the payload
        assert_eq!(parse_response(&line).unwrap(), ans);
    }

    #[test]
    fn typed_decode_covers_every_v1_line_shape() {
        for (line, expect) in [
            ("OK pong", Response::Pong),
            ("OK bye", Response::Bye),
            (
                "OK datasets=a:1:2:3:4,b:5:6:7:8",
                Response::Datasets(vec!["a:1:2:3:4".into(), "b:5:6:7:8".into()]),
            ),
            ("OK datasets=", Response::Datasets(vec![])),
            (
                "OK algorithms=intcov,bigreedy",
                Response::Algorithms(vec!["intcov".into(), "bigreedy".into()]),
            ),
            (
                "OK hits=2 misses=1 entries=1 evictions=0 hit_rate=0.6666666666666666 \
                 warm_hits=3 warm_misses=2 warm_entries=1 uptime_secs=12 total_queries=3 \
                 queue_depth=2 shed_total=5 conns_open=7 mutations_total=4",
                Response::Stats {
                    hits: 2,
                    misses: 1,
                    entries: 1,
                    evictions: 0,
                    hit_rate: 2.0 / 3.0,
                    warm_hits: 3,
                    warm_misses: 2,
                    warm_entries: 1,
                    uptime_secs: 12,
                    total_queries: 3,
                    queue_depth: 2,
                    shed_total: 5,
                    conns_open: 7,
                    mutations_total: 4,
                },
            ),
            (
                "OK mutated name=extra op=append n=2001 skyline=940 sky_changed=false \
                 cache_dropped=1 warm_dropped=0",
                Response::Mutated {
                    name: "extra".into(),
                    op: "append".into(),
                    rows: 2001,
                    skyline: 940,
                    sky_changed: false,
                    cache_dropped: 1,
                    warm_dropped: 0,
                },
            ),
            (
                "OK workers=2 datasets=1 cache_entries=0 uptime_secs=0 total_queries=0",
                Response::Info {
                    workers: 2,
                    datasets: 1,
                    cache_entries: 0,
                    uptime_secs: 0,
                    total_queries: 0,
                },
            ),
            (
                "OK metrics enabled=true counters=conn.active:1,queries.total:9 \
                 histos=engine.cache_lookup:9:8100:800:950:990:1024,server.read:9:90000:9000:9900:9990:12000",
                Response::Metrics {
                    enabled: true,
                    counters: vec![("conn.active".into(), 1), ("queries.total".into(), 9)],
                    histograms: vec![
                        WireHistogram {
                            name: "engine.cache_lookup".into(),
                            count: 9,
                            sum: 8100,
                            p50: 800,
                            p90: 950,
                            p99: 990,
                            max: 1024,
                        },
                        WireHistogram {
                            name: "server.read".into(),
                            count: 9,
                            sum: 90000,
                            p50: 9000,
                            p90: 9900,
                            p99: 9990,
                            max: 12000,
                        },
                    ],
                },
            ),
            (
                "OK metrics enabled=false counters= histos=",
                Response::Metrics {
                    enabled: false,
                    counters: vec![],
                    histograms: vec![],
                },
            ),
            (
                "OK batch=7",
                Response::BatchHeader {
                    n: 7,
                    stream: false,
                },
            ),
            (
                "OK batch=7 stream=true",
                Response::BatchHeader { n: 7, stream: true },
            ),
            (
                "OK loaded name=extra n=2000 d=3 groups=3 skyline=940",
                Response::Loaded {
                    name: "extra".into(),
                    rows: 2000,
                    dim: 3,
                    groups: 3,
                    skyline: 940,
                },
            ),
            (
                "OK version=2 codec=binary",
                Response::Hello {
                    version: 2,
                    codec: crate::codec::CodecKind::Binary,
                },
            ),
            (
                "ERR unknown dataset \"x\" (not in catalog)",
                Response::Error {
                    seq: None,
                    message: "unknown dataset \"x\" (not in catalog)".into(),
                },
            ),
            (
                "ERR seq=2 solver error: k must be positive",
                Response::Error {
                    seq: Some(2),
                    message: "solver error: k must be positive".into(),
                },
            ),
            (
                "ERR busy retry_after_ms=24 solve queue full (depth 256)",
                Response::Busy {
                    seq: None,
                    retry_after_ms: 24,
                    message: "solve queue full (depth 256)".into(),
                },
            ),
            (
                "ERR seq=3 busy retry_after_ms=1 queue deadline exceeded",
                Response::Busy {
                    seq: Some(3),
                    retry_after_ms: 1,
                    message: "queue deadline exceeded".into(),
                },
            ),
        ] {
            let decoded = decode_response_line(line).unwrap();
            assert_eq!(decoded, expect, "decode of {line:?}");
            // and every decoded value re-encodes to the identical line
            assert_eq!(encode_response_line(&decoded).unwrap(), line);
        }
    }
}
