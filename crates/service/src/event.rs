//! The readiness-driven front end: one `poll(2)` loop, many connections.
//!
//! [`crate::server::Server`] runs [`run`] on its background thread. The
//! loop owns every socket at once:
//!
//! * a single thread polls the listener, a self-pipe
//!   ([`crate::reactor`]), and every connection for readiness — an idle
//!   connection costs one poll-set entry, not a thread, and shutdown is
//!   a wake, not a timeout expiry;
//! * each connection is a small state machine ([`Conn`]) that buffers
//!   raw bytes, carves them into request lines (batch bodies included),
//!   and queues encoded response frames for readiness-driven writes —
//!   one slow or byte-at-a-time client can never stall another;
//! * the loop decides from the verb where a request runs. Light control
//!   verbs (PING, STATS, …) answer inline through the server's one
//!   control dispatcher, and so does a `QUERY` whose answer is cached
//!   (one cache look, no worker). A `QUERY` the cache misses, each
//!   `BATCH` slot, and the heavy `LOAD`/`APPEND`/`DELETE` verbs become
//!   jobs on the bounded `SolveQueue`, which a resident `WorkerPool`
//!   answers; each reply comes back over a channel, followed by a wake,
//!   under the job's address. A single query or heavy verb waits in one
//!   [`Entry::Job`] FIFO entry; a heavy verb also parks its connection's
//!   input behind a barrier, so pipelined requests keep their sequential
//!   order, and it bypasses the queue bound, since control verbs are
//!   never shed.
//!
//! Admission control happens at the loop, where load first becomes
//! visible: the connection cap, the per-connection quotas, the
//! server-wide stream cap (see [`crate::server::ServeOptions`]), and
//! the solve-queue bound all shed through one builder
//! ([`crate::metrics::ServiceMetrics::shed`]): a typed `ERR busy`
//! carrying `retry_after_ms` advice priced from the execute-time EWMA,
//! counted in `shed.total`. A cached answer takes no queue or quota
//! slot, so it is never shed.
//!
//! Protocol rules: line and batch size limits, lossy UTF-8 per complete
//! line, batch bodies consumed fully before erroring, and HELLO
//! acknowledged in the previous codec. Responses per connection are
//! delivered in request order (streamed batch frames in completion order
//! within their batch slot), so a pipelining client sees exactly the
//! frames it would get sending one request at a time.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::codec::CodecKind;
use crate::executor::{Done, Job, JobAddr, Reply, WorkerPool};
use crate::metrics::ServiceMetrics;
use crate::protocol::{self, Request, Response};
use crate::reactor::{poll, PollFd, WakePipe, Waker, POLLIN, POLLOUT};
use crate::server::{self, Shared, StreamPermit, MAX_BATCH, MAX_BATCH_BYTES, MAX_LINE_BYTES};
use crate::ServiceError;

/// Per-`read(2)` scratch size; the in-buffer grows only as a line needs.
const READ_CHUNK: usize = 16 * 1024;

/// Output-buffer cap per connection. A client that stops reading while
/// requesting work accumulates frames here; past the cap the connection
/// is dropped rather than growing server memory without bound.
const MAX_OUTBUF_BYTES: usize = 64 << 20;

/// The shed for a query or batch slot that found the solve queue full.
fn queue_full(sh: &Shared) -> ServiceError {
    sh.shed(format!("solve queue full (depth {})", sh.opts.queue_depth))
}

/// Encodes one response with a codec of `kind`. A value the codec
/// refuses (a wire-unsafe string, an over-cap frame) becomes a typed
/// `ERR` frame instead, so it never reaches the socket as a
/// desynchronizing byte sequence — the response-side half of the
/// wire-safety contract. If even that fallback fails, the frame is
/// empty.
fn encode(kind: CodecKind, resp: &Response, m: &ServiceMetrics) -> Vec<u8> {
    let codec = kind.new_codec();
    // The encode span covers serialization only, never socket writes.
    let _encode = m.recorder().span(&m.encode);
    let mut frame = Vec::new();
    if let Err(e) = codec.encode_frame(resp, &mut frame) {
        let fallback = Response::Error {
            seq: None,
            message: format!("response not encodable: {e}").replace(['\n', '\r'], " "),
        };
        // A refused frame leaves `frame` empty, as the codec found it.
        let _ = codec.encode_frame(&fallback, &mut frame);
    }
    frame
}

/// An in-progress `BATCH` body: the header arrived, `n` lines have not.
struct BatchCollect {
    n: usize,
    stream: bool,
    lines: Vec<String>,
    bytes: usize,
}

/// A batch admitted to the solve queue, collecting its answers.
struct BatchEntry {
    ticket: u64,
    kind: CodecKind,
    n: usize,
    stream: bool,
    header_sent: bool,
    completed: usize,
    /// `stream=true`: encoded `seq`-tagged frames in completion order,
    /// not yet moved to the out-buffer.
    frames: VecDeque<Vec<u8>>,
    /// `stream=false`: encoded frames by request index, emitted together
    /// once the batch completes.
    slots: Vec<Option<Vec<u8>>>,
    /// Holds the server-wide stream slot for the batch's lifetime;
    /// dropped (released) with the entry — including when the connection
    /// dies mid-batch.
    _permit: Option<StreamPermit>,
}

impl BatchEntry {
    fn done(&self) -> bool {
        self.completed == self.n && self.frames.is_empty()
    }
}

/// One response-order FIFO entry. Requests answer in arrival order even
/// under pipelining: an entry's frames reach the out-buffer only once
/// every earlier entry has fully delivered.
enum Entry {
    /// Already-encoded frame(s): light control verbs, cached answers,
    /// HELLO acks, protocol errors, admission sheds.
    Ready(Vec<u8>),
    /// A single `QUERY`, or a heavy control verb (`control`), awaiting
    /// its worker's response. `kind` snapshots the codec at admit time,
    /// so a pipelined `HELLO` behind it re-codes only what follows.
    Job {
        ticket: u64,
        kind: CodecKind,
        control: bool,
        done: Option<Vec<u8>>,
    },
    /// A batch awaiting (some of) its slots.
    Batch(BatchEntry),
}

/// What processing a connection's input decided.
enum Outcome {
    Continue,
    /// A `SHUTDOWN` request: stop the server once the `OK bye` flushes.
    Shutdown,
}

/// One connection's full state. Dropping a `Conn` releases everything it
/// holds: the socket, any stream permits (via its pending entries), and
/// the `conn.active` gauge level.
struct Conn {
    stream: TcpStream,
    slot: usize,
    generation: u64,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_written: usize,
    /// Response codec for *newly arriving* requests; entries snapshot the
    /// kind at parse time, so a pipelined `HELLO` re-codes only what
    /// follows it.
    kind: CodecKind,
    pending: VecDeque<Entry>,
    collecting: Option<BatchCollect>,
    inflight_singles: usize,
    active_batches: usize,
    /// In-flight control jobs. While nonzero the connection
    /// stops carving input (and drops read interest, so TCP backpressure
    /// bounds buffering): requests pipelined behind a `LOAD` — typically
    /// queries against the dataset being loaded — are admitted only once
    /// it completes, so they see its effect.
    control_inflight: usize,
    next_ticket: u64,
    /// Set by `SHUTDOWN` and by peer EOF: stop reading; the connection is
    /// reaped once its out-buffer drains *and* no admitted work is still
    /// pending (everything received before a FIN still answers).
    closing: bool,
    /// Set by `SHUTDOWN` only: unprocessed input is discarded rather
    /// than resumed (a FIN leaves buffered complete lines processable).
    discard_input: bool,
    metrics: Arc<ServiceMetrics>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        // Counterpart of the inc at accept; always-on because the gauge
        // backs the STATS `conns_open` field.
        self.metrics.conn_active.dec();
    }
}

impl Conn {
    fn new(stream: TcpStream, slot: usize, generation: u64, metrics: Arc<ServiceMetrics>) -> Conn {
        Conn {
            stream,
            slot,
            generation,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_written: 0,
            kind: CodecKind::Text,
            pending: VecDeque::new(),
            collecting: None,
            inflight_singles: 0,
            active_batches: 0,
            control_inflight: 0,
            next_ticket: 0,
            closing: false,
            discard_input: false,
            metrics,
        }
    }

    fn has_output(&self) -> bool {
        self.out_written < self.outbuf.len()
    }

    fn take_ticket(&mut self) -> u64 {
        self.next_ticket += 1;
        self.next_ticket
    }

    /// A job for this connection, stamped with its enqueue time.
    #[allow(clippy::disallowed_methods)] // queue-age stamp; see R5 waiver inside
    fn job(&self, ticket: u64, batch_index: Option<usize>, request: Request) -> Job {
        Job {
            addr: JobAddr {
                conn: self.slot,
                generation: self.generation,
                ticket,
                batch_index,
            },
            request,
            // fairhms-lint: allow(R5) admission-control deadline stamp:
            // queue-age shedding must work with telemetry off.
            enqueued: Instant::now(),
        }
    }

    /// Encodes `resp` with the connection's *current* codec and appends
    /// it as a ready FIFO entry.
    fn push_ready(&mut self, resp: &Response, sh: &Shared) {
        let frame = encode(self.kind, resp, sh.engine.metrics());
        self.pending.push_back(Entry::Ready(frame));
    }

    /// Drains the socket into the in-buffer and processes every complete
    /// line. `Err(())` means the connection must be dropped (I/O error
    /// or an abuse limit hit).
    fn on_readable(&mut self, sh: &Shared) -> Result<Outcome, ()> {
        let mut buf = [0u8; READ_CHUNK];
        let mut saw_eof = false;
        loop {
            match (&self.stream).read(&mut buf) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        let outcome = self.process_input(sh)?;
        if saw_eof {
            // A half-written request dies with the peer, but everything
            // already admitted still answers into the out-buffer; close
            // once the pending FIFO and the out-buffer have both drained.
            self.closing = true;
        }
        Ok(outcome)
    }

    /// Carves buffered bytes into complete lines and handles each.
    /// Stops early (leaving the tail buffered) while a control barrier
    /// is up; the event loop resumes it once the barrier lifts.
    fn process_input(&mut self, sh: &Shared) -> Result<Outcome, ()> {
        let mut outcome = Outcome::Continue;
        let mut start = 0usize;
        while !self.discard_input && self.control_inflight == 0 {
            let Some(pos) = self.inbuf[start..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let end = start + pos + 1;
            // The per-line limit counts the terminator; an oversized
            // line drops the connection.
            if end - start > MAX_LINE_BYTES {
                return Err(());
            }
            let raw = self.inbuf[start..end].to_vec();
            start = end;
            if let Outcome::Shutdown = self.handle_line(&raw, sh)? {
                outcome = Outcome::Shutdown;
            }
        }
        // A partial line past the limit can never complete legally. (A
        // tail holding complete lines — parked behind a control barrier
        // or a SHUTDOWN — is exempt: it is bounded by what the socket
        // buffer held, not open-ended.)
        let rest = &self.inbuf[start..];
        if rest.len() > MAX_LINE_BYTES && !rest.contains(&b'\n') {
            return Err(());
        }
        self.inbuf.drain(..start);
        Ok(outcome)
    }

    /// Handles one complete raw line (terminator included): either the
    /// next body line of a collecting batch, or a top-level request.
    fn handle_line(&mut self, raw: &[u8], sh: &Shared) -> Result<Outcome, ()> {
        if let Some(mut c) = self.collecting.take() {
            c.bytes += raw.len();
            if c.bytes > MAX_BATCH_BYTES {
                // Connection-fatal: dropping mid-batch desynchronizes the
                // connection anyway.
                return Err(());
            }
            c.lines
                .push(String::from_utf8_lossy(raw).trim().to_string());
            if c.lines.len() == c.n {
                self.finish_batch(c, sh);
            } else {
                self.collecting = Some(c);
            }
            return Ok(Outcome::Continue);
        }
        // Decode the complete line exactly once (multi-byte UTF-8 split
        // across reads is whole again by now).
        let m = sh.engine.metrics();
        let decode_span = m.recorder().span(&m.decode);
        let decoded = String::from_utf8_lossy(raw);
        let trimmed = decoded.trim();
        if trimmed.is_empty() {
            return Ok(Outcome::Continue);
        }
        let parsed = protocol::parse_request(trimmed);
        drop(decode_span);
        match parsed {
            Err(e) => self.push_ready(&Response::error(&e), sh),
            Ok(Request::Hello {
                version,
                codec: kind,
            }) => {
                // Acknowledge through the *previous* codec, then swap —
                // the client reads the ack before switching.
                let ack = Response::Hello {
                    version,
                    codec: kind,
                };
                self.push_ready(&ack, sh);
                self.kind = kind;
            }
            Ok(Request::Shutdown) => {
                self.push_ready(&Response::Bye, sh);
                self.closing = true;
                self.discard_input = true;
                return Ok(Outcome::Shutdown);
            }
            Ok(
                req @ (Request::Query(_)
                | Request::Load { .. }
                | Request::Append { .. }
                | Request::Delete { .. }),
            ) => self.admit(req, sh),
            Ok(Request::Batch { n, stream }) => {
                if n > MAX_BATCH {
                    let e =
                        ServiceError::Protocol(format!("batch size {n} exceeds limit {MAX_BATCH}"));
                    self.push_ready(&Response::error(&e), sh);
                } else if n == 0 {
                    self.finish_batch(
                        BatchCollect {
                            n: 0,
                            stream,
                            lines: Vec::new(),
                            bytes: 0,
                        },
                        sh,
                    );
                } else {
                    self.collecting = Some(BatchCollect {
                        n,
                        stream,
                        lines: Vec::with_capacity(n),
                        bytes: 0,
                    });
                }
            }
            Ok(req) => self.push_ready(&sh.control(req), sh),
        }
        Ok(Outcome::Continue)
    }

    /// Admits a `QUERY` or a heavy control verb (`LOAD`, `APPEND`,
    /// `DELETE`) to the worker pool: solves, disk reads and catalog
    /// mutations must not stall every connection on the loop thread. A
    /// query whose answer is cached is answered here instead, as a ready
    /// entry behind the connection's earlier ones, so it is never shed. A
    /// query the cache misses passes the per-connection quota, then the
    /// bounded solve queue; either refusal sheds with typed retry advice.
    /// A control verb bypasses both (control verbs are never shed) and
    /// raises the connection's input barrier ([`Conn::control_inflight`])
    /// until it completes — so a pipelined mutate→query sequence keeps
    /// its sequential semantics.
    fn admit(&mut self, req: Request, sh: &Shared) {
        if let Request::Query(query) = &req {
            if let Some(resp) = sh.engine.cached(query) {
                let result = Ok(resp);
                server::log_if_slow(sh.opts.slow_query_ms, query, &result);
                self.push_ready(&Response::from_result(None, &result), sh);
                return;
            }
        }
        let control = !matches!(req, Request::Query(_));
        if !control && self.inflight_singles >= sh.opts.max_inflight_queries {
            let busy = sh.shed(format!(
                "{} queries in flight on this connection (limit {})",
                self.inflight_singles, sh.opts.max_inflight_queries
            ));
            self.push_ready(&Response::error(&busy), sh);
            return;
        }
        let ticket = self.take_ticket();
        match sh.queue.push(self.job(ticket, None, req)) {
            Ok(()) => {
                self.pending.push_back(Entry::Job {
                    ticket,
                    kind: self.kind,
                    control,
                    done: None,
                });
                if control {
                    self.control_inflight += 1;
                } else {
                    self.inflight_singles += 1;
                }
            }
            // Only a closed queue refuses control jobs — the server is
            // tearing down; answer inline, nobody left to stall.
            Err(req) if control => self.push_ready(&sh.control(req), sh),
            Err(_) => self.push_ready(&Response::error(&queue_full(sh)), sh),
        }
    }

    /// Admits a fully collected batch body: parse, per-connection batch
    /// quota, stream cap (streamed only), then per-slot queue admission
    /// — a full queue sheds individual slots, never the whole batch, so
    /// the client always receives exactly `n` answer frames.
    fn finish_batch(&mut self, c: BatchCollect, sh: &Shared) {
        let queries = match server::parse_batch_lines(&c.lines) {
            Ok(qs) => qs,
            Err(e) => {
                self.push_ready(&Response::error(&e), sh);
                return;
            }
        };
        let permit = if self.active_batches >= sh.opts.max_conn_batches {
            Err(format!(
                "{} batches in flight on this connection (limit {})",
                self.active_batches, sh.opts.max_conn_batches
            ))
        } else if c.stream {
            StreamPermit::try_acquire(sh.engine.metrics(), sh.opts.max_stream_batches).map(Some)
        } else {
            Ok(None)
        };
        let permit = match permit {
            Ok(p) => p,
            Err(reason) => {
                self.push_ready(&Response::error(&sh.shed(reason)), sh);
                return;
            }
        };
        let ticket = self.take_ticket();
        let n = queries.len();
        let mut entry = BatchEntry {
            ticket,
            kind: self.kind,
            n,
            stream: c.stream,
            header_sent: false,
            completed: 0,
            frames: VecDeque::new(),
            slots: if c.stream {
                Vec::new()
            } else {
                (0..n).map(|_| None).collect()
            },
            _permit: permit,
        };
        for (i, q) in queries.into_iter().enumerate() {
            let job = self.job(ticket, Some(i), Request::Query(Box::new(q)));
            if sh.queue.push(job).is_err() {
                let seq = c.stream.then_some(i as u64);
                let busy = Response::error_at(seq, &queue_full(sh));
                let frame = encode(self.kind, &busy, sh.engine.metrics());
                if c.stream {
                    entry.frames.push_back(frame);
                } else {
                    entry.slots[i] = Some(frame);
                }
                entry.completed += 1;
            }
        }
        self.active_batches += 1;
        self.pending.push_back(Entry::Batch(entry));
    }

    /// Routes one job's reply into its FIFO entry.
    fn complete(&mut self, done: Done, m: &ServiceMetrics) {
        let response = |seq| match done.reply {
            Reply::Solved { result, .. } => Response::from_result(seq, &result),
            Reply::Answered(resp) => resp,
        };
        // Linear scan: connections hold at most quota-bounded entries.
        for entry in self.pending.iter_mut() {
            match entry {
                Entry::Job {
                    ticket,
                    kind,
                    control,
                    done: slot,
                } if *ticket == done.addr.ticket => {
                    *slot = Some(encode(*kind, &response(None), m));
                    if *control {
                        // Lift the input barrier; the event loop resumes
                        // any lines parked behind it this same iteration.
                        self.control_inflight -= 1;
                    }
                    return;
                }
                Entry::Batch(b) if b.ticket == done.addr.ticket => {
                    let Some(i) = done.addr.batch_index else {
                        return;
                    };
                    let seq = b.stream.then_some(i as u64);
                    let frame = encode(b.kind, &response(seq), m);
                    if b.stream {
                        b.frames.push_back(frame);
                    } else {
                        b.slots[i] = Some(frame);
                    }
                    b.completed += 1;
                    return;
                }
                _ => {}
            }
        }
        // No matching entry: the completion raced a connection teardown
        // path that already dropped the entry; nothing to deliver.
    }

    /// Moves every deliverable frame from the FIFO into the out-buffer,
    /// preserving request order across entries.
    fn pump(&mut self, sh: &Shared) {
        while let Some(head) = self.pending.front_mut() {
            match head {
                Entry::Ready(bytes) => self.outbuf.extend_from_slice(bytes),
                Entry::Job { done: None, .. } => return,
                Entry::Job {
                    done: Some(bytes),
                    control,
                    ..
                } => {
                    self.outbuf.extend_from_slice(bytes);
                    if !*control {
                        self.inflight_singles -= 1;
                    }
                }
                Entry::Batch(b) => {
                    if !b.header_sent {
                        let header = Response::BatchHeader {
                            n: b.n,
                            stream: b.stream,
                        };
                        let frame = encode(b.kind, &header, sh.engine.metrics());
                        self.outbuf.extend_from_slice(&frame);
                        b.header_sent = true;
                    }
                    if b.stream {
                        while let Some(f) = b.frames.pop_front() {
                            self.outbuf.extend_from_slice(&f);
                        }
                    } else if b.completed == b.n {
                        for slot in b.slots.iter_mut() {
                            let bytes = slot.take().expect("completed batch slot missing");
                            self.outbuf.extend_from_slice(&bytes);
                        }
                    }
                    if !b.done() {
                        return;
                    }
                    self.active_batches -= 1;
                }
            }
            self.pending.pop_front();
        }
    }

    /// Writes as much buffered output as the socket accepts right now.
    /// `Err(())` drops the connection (write failure or a client so slow
    /// its buffered output exceeds [`MAX_OUTBUF_BYTES`]).
    fn try_flush(&mut self) -> Result<(), ()> {
        while self.has_output() {
            match (&self.stream).write(&self.outbuf[self.out_written..]) {
                Ok(0) => return Err(()),
                Ok(n) => self.out_written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if self.out_written == self.outbuf.len() {
            self.outbuf.clear();
            self.out_written = 0;
        } else if self.out_written > MAX_OUTBUF_BYTES / 2 {
            self.outbuf.drain(..self.out_written);
            self.out_written = 0;
        }
        if self.outbuf.len() - self.out_written > MAX_OUTBUF_BYTES {
            return Err(());
        }
        Ok(())
    }
}

/// Accepts every pending connection, enforcing the connection cap with a
/// best-effort text busy line (a fresh connection has not negotiated a
/// codec, so text is the one encoding it must understand).
fn accept_ready(
    listener: &TcpListener,
    conns: &mut Vec<Option<Conn>>,
    open: &mut usize,
    next_generation: &mut u64,
    sh: &Shared,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(true).ok();
                stream.set_nodelay(true).ok();
                if *open >= sh.opts.max_conns {
                    let busy = sh.shed(format!(
                        "too many connections (limit {})",
                        sh.opts.max_conns
                    ));
                    let frame = encode(
                        CodecKind::Text,
                        &Response::error(&busy),
                        sh.engine.metrics(),
                    );
                    let _ = (&stream).write(&frame);
                    continue; // dropped: the cap exists to bound state
                }
                sh.engine.metrics().conn_active.inc();
                *next_generation += 1;
                let slot = match conns.iter().position(Option::is_none) {
                    Some(s) => s,
                    None => {
                        conns.push(None);
                        conns.len() - 1
                    }
                };
                conns[slot] = Some(Conn::new(
                    stream,
                    slot,
                    *next_generation,
                    Arc::clone(sh.engine.metrics()),
                ));
                *open += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => {
                // Transient accept failures (ECONNABORTED from a client
                // that reset mid-handshake, EMFILE under load, …) must
                // not take the service down; retry on the next wake.
                eprintln!("fairhms-service: accept error (continuing): {e}");
                break;
            }
        }
    }
}

/// The event loop. Runs until `stop` is observed (set externally and
/// signalled through the waker, or by a client `SHUTDOWN`); on exit it
/// closes the solve queue and joins the worker pool.
///
/// A client `SHUTDOWN` stops reading and accepting at once, but the loop
/// keeps delivering completions until every request that connection sent
/// before it has answered, so a pipelined `QUERY`+`SHUTDOWN` receives
/// the answer and then `OK bye`.
#[allow(clippy::disallowed_methods)] // shutdown drain deadline; see R5 waiver inside
pub(crate) fn run(
    listener: TcpListener,
    sh: Arc<Shared>,
    stop: &AtomicBool,
    pipe: WakePipe,
    waker: Waker,
) {
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let pool = WorkerPool::spawn(&sh, done_tx, waker);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut open = 0usize;
    let mut next_generation = 0u64;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    // The slot of the connection that sent `SHUTDOWN`, once one has.
    let mut shutdown: Option<usize> = None;

    // ordering: stop flag is a rare, correctness-critical edge; SeqCst
    // keeps shutdown visible without reasoning about weaker pairs.
    while !stop.load(Ordering::SeqCst) {
        // (Re)build the poll set: wake pipe, listener, then every open
        // connection — read interest unless closing or shutting down,
        // write interest when output is buffered.
        let reading = shutdown.is_none();
        fds.clear();
        slots.clear();
        fds.push(PollFd::new(pipe.fd(), POLLIN));
        fds.push(PollFd::new(
            listener.as_raw_fd(),
            if reading { POLLIN } else { 0 },
        ));
        for (slot, c) in conns.iter().enumerate() {
            let Some(c) = c else { continue };
            let mut events = 0i16;
            // No read interest while closing, or while a control barrier
            // parks this connection's input (TCP backpressure bounds what
            // the client can buffer at us in the meantime).
            if reading && !c.closing && c.control_inflight == 0 {
                events |= POLLIN;
            }
            if c.has_output() {
                events |= POLLOUT;
            }
            // `events` may be 0 — e.g. a closing connection whose
            // admitted solves are still in flight. The completion wakes
            // the loop via the self-pipe, and POLLERR/HUP are delivered
            // regardless of interest.
            fds.push(PollFd::new(c.stream.as_raw_fd(), events));
            slots.push(slot);
        }
        // Block indefinitely: every state change that matters arrives as
        // readiness or as a self-pipe wake (solve completions, shutdown).
        if poll(&mut fds, -1).is_err() {
            std::thread::sleep(std::time::Duration::from_millis(5));
            continue;
        }
        if fds[0].ready(POLLIN) {
            pipe.drain();
        }
        // ordering: stop flag re-check after a wake; SeqCst as above.
        if stop.load(Ordering::SeqCst) {
            break;
        }

        // Completions first: they free quota slots and fill FIFO entries
        // before any new admission decisions this iteration.
        while let Ok(done) = done_rx.try_recv() {
            let Some(conn) = conns.get_mut(done.addr.conn).and_then(Option::as_mut) else {
                continue;
            };
            if conn.generation != done.addr.generation {
                continue; // the slot was reused; the addressee is gone
            }
            if let Reply::Solved { query, result } = &done.reply {
                server::log_if_slow(sh.opts.slow_query_ms, query, result);
            }
            conn.complete(done, sh.engine.metrics());
        }

        if reading && fds[1].ready(POLLIN) {
            accept_ready(&listener, &mut conns, &mut open, &mut next_generation, &sh);
        }

        // Readable connections make progress on their input.
        for (i, slot) in slots.iter().enumerate() {
            let fd = &fds[i + 2];
            let Some(conn) = conns[*slot].as_mut() else {
                continue;
            };
            if !fd.ready(POLLIN) {
                continue;
            }
            if !reading {
                // No read interest: readiness is an error or hang-up, and
                // nobody is left to answer.
                conns[*slot] = None;
                open -= 1;
            } else if !conn.closing {
                match conn.on_readable(&sh) {
                    Ok(Outcome::Shutdown) => {
                        shutdown.get_or_insert(*slot);
                    }
                    Ok(Outcome::Continue) => {}
                    Err(()) => {
                        conns[*slot] = None;
                        open -= 1;
                    }
                }
            }
        }

        // Every connection pumps deliverable frames and flushes; closing
        // connections leave once fully drained. (All of them, not just
        // the ready ones: completions and quota releases above may have
        // made new frames deliverable on connections with no socket
        // event.)
        for (slot, c) in conns.iter_mut().enumerate() {
            let Some(conn) = c.as_mut() else { continue };
            // A lifted control barrier may have left complete lines
            // parked in the in-buffer; resume them now — no new socket
            // event will re-trigger processing.
            let mut dead = false;
            if shutdown.is_none()
                && conn.control_inflight == 0
                && !conn.discard_input
                && !conn.inbuf.is_empty()
            {
                match conn.process_input(&sh) {
                    Ok(Outcome::Shutdown) => shutdown = Some(slot),
                    Ok(Outcome::Continue) => {}
                    Err(()) => dead = true,
                }
            }
            conn.pump(&sh);
            // A closing connection is reaped only once its out-buffer is
            // flushed AND no admitted work is still pending — answers to
            // requests received before a FIN must still be delivered.
            let dead = dead
                || conn.try_flush().is_err()
                || (conn.closing && !conn.has_output() && conn.pending.is_empty());
            if dead {
                *c = None;
                open -= 1;
            }
        }

        if let Some(slot) = shutdown {
            // `SHUTDOWN`: wait (completions wake the loop) until every
            // request ahead of it has answered, then make sure the
            // `OK bye` reaches the client (its frame is tiny; one bounded
            // POLLOUT wait covers a full socket buffer), then stop.
            if conns[slot].as_ref().is_some_and(|c| !c.pending.is_empty()) {
                continue;
            }
            if let Some(conn) = conns[slot].as_mut() {
                // fairhms-lint: allow(R5) bounded shutdown drain: makes
                // sure `OK bye` reaches the client, once per process exit.
                let deadline = Instant::now() + std::time::Duration::from_secs(2);
                // fairhms-lint: allow(R5) bounded shutdown drain (see above).
                while conn.has_output() && Instant::now() < deadline {
                    let mut w = [PollFd::new(conn.stream.as_raw_fd(), POLLOUT)];
                    let _ = poll(&mut w, 50);
                    if conn.try_flush().is_err() {
                        break;
                    }
                }
            }
            // ordering: stop flag store; SeqCst pairs with the loop loads.
            stop.store(true, Ordering::SeqCst);
            break;
        }
    }

    // Teardown: stop admission, then let each worker finish its current
    // solve; dropping the receiver makes their next send fail so they
    // exit without draining a backlog nobody will read.
    sh.queue.close();
    drop(done_rx);
    pool.join();
    drop(conns);
}
