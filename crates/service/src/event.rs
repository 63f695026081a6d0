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
//! * solves never run on the loop thread: they are admitted into a
//!   bounded `SolveQueue` and executed by a resident `WorkerPool`,
//!   whose completions come back over a channel followed by a wake. The
//!   heavy `LOAD` admin verb (disk read + dataset preparation) rides the
//!   same pool — bypassing the queue bound, since control verbs are
//!   never shed — while the issuing connection parks its input behind a
//!   barrier so pipelined requests keep their sequential order; light
//!   control verbs (PING, STATS, …) answer inline on the loop.
//!
//! Admission control happens at the loop, where load first becomes
//! visible: the connection cap ([`ServeOptions::max_conns`]), the
//! per-connection quotas ([`ServeOptions::max_inflight_queries`],
//! [`ServeOptions::max_conn_batches`]), the server-wide stream gate, and
//! the solve-queue bound all shed with a typed `ERR busy` carrying
//! `retry_after_ms` advice priced from the execute-time EWMA
//! ([`crate::metrics::ServiceMetrics::retry_after_ms`]). Every shed
//! increments `shed.total`.
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
use crate::engine::QueryEngine;
use crate::executor::{SolveDone, SolveJob, SolveQueue, WorkDone, WorkItem, WorkerPool};
use crate::metrics::ServiceMetrics;
use crate::protocol::{self, Request, Response};
use crate::query::Query;
use crate::reactor::{poll, PollFd, WakePipe, Waker, POLLIN, POLLOUT};
use crate::server::{
    self, ServeOptions, StreamGate, StreamPermit, MAX_BATCH, MAX_BATCH_BYTES, MAX_LINE_BYTES,
};
use crate::ServiceError;

/// Per-`read(2)` scratch size; the in-buffer grows only as a line needs.
const READ_CHUNK: usize = 16 * 1024;

/// Output-buffer cap per connection. A client that stops reading while
/// requesting work accumulates frames here; past the cap the connection
/// is dropped rather than growing server memory without bound.
const MAX_OUTBUF_BYTES: usize = 64 << 20;

/// Everything the connection state machines need besides their socket.
struct Shared {
    engine: Arc<QueryEngine>,
    metrics: Arc<ServiceMetrics>,
    queue: Arc<SolveQueue>,
    gate: StreamGate,
    opts: Arc<ServeOptions>,
    workers: usize,
    started: Instant,
}

impl Shared {
    /// The busy error for a full solve queue.
    fn queue_full_busy(&self) -> ServiceError {
        self.metrics.shed_total.inc();
        ServiceError::Busy {
            reason: format!("solve queue full (depth {})", self.opts.queue_depth),
            retry_after_ms: self
                .metrics
                .retry_after_ms(self.queue.depth(), self.workers),
        }
    }
}

/// Encodes one response with a codec of `kind`, falling back to a typed
/// `ERR` frame for an unencodable value (see [`server::encode_into`]).
fn encode(kind: CodecKind, resp: &Response, m: &ServiceMetrics) -> Vec<u8> {
    let mut frame = Vec::new();
    let codec = kind.new_codec();
    if server::encode_into(codec.as_ref(), &mut frame, resp, m).is_err() {
        frame.clear(); // not encodable and the fallback failed: drop the frame
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
    /// Holds the server-wide stream-gate slot for the batch's lifetime;
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
    /// Already-encoded frame(s): light control verbs, HELLO acks,
    /// protocol errors, admission sheds.
    Ready(Vec<u8>),
    /// A single `QUERY` awaiting its solve. `kind` snapshots the codec
    /// at admit time, so a pipelined `HELLO` behind it re-codes only
    /// what follows.
    Single {
        ticket: u64,
        kind: CodecKind,
        done: Option<Vec<u8>>,
    },
    /// A heavy control verb (`LOAD`) executing on the worker pool.
    Control {
        ticket: u64,
        kind: CodecKind,
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
    /// In-flight `Entry::Control` jobs. While nonzero the connection
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
    fn job(&self, ticket: u64, batch_index: Option<usize>, work: WorkItem) -> SolveJob {
        SolveJob {
            conn: self.slot,
            generation: self.generation,
            ticket,
            batch_index,
            work,
            // fairhms-lint: allow(R5) admission-control deadline stamp:
            // queue-age shedding must work with telemetry off.
            enqueued: Instant::now(),
        }
    }

    /// Encodes `resp` with the connection's *current* codec and appends
    /// it as a ready FIFO entry.
    fn push_ready(&mut self, resp: &Response, sh: &Shared) {
        let frame = encode(self.kind, resp, &sh.metrics);
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
        let decode_span = sh.metrics.recorder().span(&sh.metrics.decode);
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
            Ok(Request::Query(q)) => self.admit_single(q, sh),
            Ok(Request::Load { name, path }) => {
                self.admit_control(WorkItem::Load { name, path }, sh)
            }
            Ok(Request::Append { name, row, group }) => {
                self.admit_control(WorkItem::Append { name, row, group }, sh)
            }
            Ok(Request::Delete { name, row }) => {
                self.admit_control(WorkItem::Delete { name, row }, sh)
            }
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
            Ok(req) => {
                let resp = server::control_response(&sh.engine, sh.workers, sh.started, &req)
                    .expect("non-control verbs are matched above");
                self.push_ready(&resp, sh);
            }
        }
        Ok(Outcome::Continue)
    }

    /// Admits one single `QUERY`: per-connection quota, then the bounded
    /// solve queue; either refusal sheds with typed retry advice.
    fn admit_single(&mut self, q: Box<Query>, sh: &Shared) {
        let m = &*sh.metrics;
        if self.inflight_singles >= sh.opts.max_inflight_queries {
            m.shed_total.inc();
            let busy = ServiceError::Busy {
                reason: format!(
                    "{} queries in flight on this connection (limit {})",
                    self.inflight_singles, sh.opts.max_inflight_queries
                ),
                retry_after_ms: m.retry_after_ms(sh.queue.depth(), sh.workers),
            };
            self.push_ready(&Response::error(&busy), sh);
            return;
        }
        let ticket = self.take_ticket();
        let job = self.job(ticket, None, WorkItem::Solve(q));
        match sh.queue.try_push(job) {
            Ok(()) => {
                self.pending.push_back(Entry::Single {
                    ticket,
                    kind: self.kind,
                    done: None,
                });
                self.inflight_singles += 1;
            }
            Err(_shed) => {
                let busy = sh.queue_full_busy();
                self.push_ready(&Response::error(&busy), sh);
            }
        }
    }

    /// Admits a heavy control verb (`LOAD`, `APPEND`, `DELETE`) to the
    /// worker pool: disk reads and catalog mutations must not stall every
    /// connection on the loop thread. The job bypasses the queue bound
    /// (control verbs are never shed) and raises the connection's input
    /// barrier ([`Conn::control_inflight`]) until it completes — so a
    /// pipelined mutate→query sequence keeps its sequential semantics.
    fn admit_control(&mut self, work: WorkItem, sh: &Shared) {
        let ticket = self.take_ticket();
        match sh.queue.push_control(self.job(ticket, None, work)) {
            Ok(()) => {
                self.pending.push_back(Entry::Control {
                    ticket,
                    kind: self.kind,
                    done: None,
                });
                self.control_inflight += 1;
            }
            Err(job) => {
                // Only a closed queue refuses control jobs — the server
                // is tearing down; answer inline, nobody left to stall.
                let resp = job.work.run_control(&sh.engine, &sh.opts);
                self.push_ready(&resp, sh);
            }
        }
    }

    /// Admits a fully collected batch body: parse, per-connection batch
    /// quota, stream gate (streamed only), then per-slot queue admission
    /// — a full queue sheds individual slots, never the whole batch, so
    /// the client always receives exactly `n` answer frames.
    fn finish_batch(&mut self, c: BatchCollect, sh: &Shared) {
        let m = &*sh.metrics;
        let queries = match server::parse_batch_lines(&c.lines) {
            Ok(qs) => qs,
            Err(e) => {
                self.push_ready(&Response::error(&e), sh);
                return;
            }
        };
        if self.active_batches >= sh.opts.max_conn_batches {
            m.shed_total.inc();
            let busy = ServiceError::Busy {
                reason: format!(
                    "{} batches in flight on this connection (limit {})",
                    self.active_batches, sh.opts.max_conn_batches
                ),
                retry_after_ms: m.retry_after_ms(sh.queue.depth(), sh.workers),
            };
            self.push_ready(&Response::error(&busy), sh);
            return;
        }
        let permit = if c.stream {
            match sh.gate.try_acquire(&sh.metrics) {
                Ok(p) => Some(p),
                Err((active, limit)) => {
                    let busy = server::gate_busy(m, active, limit, sh.queue.depth(), sh.workers);
                    self.push_ready(&Response::error(&busy), sh);
                    return;
                }
            }
        } else {
            None
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
            let job = self.job(ticket, Some(i), WorkItem::Solve(Box::new(q)));
            if sh.queue.try_push(job).is_err() {
                let busy = sh.queue_full_busy();
                let seq = if c.stream { Some(i as u64) } else { None };
                let frame = encode(self.kind, &Response::error_at(seq, &busy), m);
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

    /// Routes one completed job into its FIFO entry.
    fn complete(&mut self, done: SolveDone, m: &ServiceMetrics) {
        // Linear scan: connections hold at most quota-bounded entries.
        for entry in self.pending.iter_mut() {
            match entry {
                Entry::Single {
                    ticket,
                    kind,
                    done: slot,
                } if *ticket == done.ticket => {
                    debug_assert!(done.batch_index.is_none());
                    let WorkDone::Solve { result, .. } = &done.done else {
                        debug_assert!(false, "single entries only admit solves");
                        return;
                    };
                    *slot = Some(encode(*kind, &Response::from_result(None, result), m));
                    return;
                }
                Entry::Control {
                    ticket,
                    kind,
                    done: slot,
                } if *ticket == done.ticket => {
                    let WorkDone::Control(resp) = &done.done else {
                        debug_assert!(false, "control entries only admit control verbs");
                        return;
                    };
                    *slot = Some(encode(*kind, resp, m));
                    // Lift the input barrier; the event loop resumes any
                    // lines parked behind it this same iteration.
                    self.control_inflight -= 1;
                    return;
                }
                Entry::Batch(b) if b.ticket == done.ticket => {
                    let Some(i) = done.batch_index else { return };
                    let WorkDone::Solve { result, .. } = &done.done else {
                        debug_assert!(false, "batch slots only admit solves");
                        return;
                    };
                    let seq = b.stream.then_some(i as u64);
                    let frame = encode(b.kind, &Response::from_result(seq, result), m);
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
        loop {
            let Some(head) = self.pending.front_mut() else {
                return;
            };
            match head {
                Entry::Ready(_) => {
                    let Some(Entry::Ready(bytes)) = self.pending.pop_front() else {
                        unreachable!()
                    };
                    self.outbuf.extend_from_slice(&bytes);
                }
                Entry::Single { done: Some(_), .. } => {
                    let Some(Entry::Single {
                        done: Some(bytes), ..
                    }) = self.pending.pop_front()
                    else {
                        unreachable!()
                    };
                    self.outbuf.extend_from_slice(&bytes);
                    self.inflight_singles -= 1;
                }
                Entry::Single { done: None, .. } => return,
                Entry::Control { done: Some(_), .. } => {
                    let Some(Entry::Control {
                        done: Some(bytes), ..
                    }) = self.pending.pop_front()
                    else {
                        unreachable!()
                    };
                    self.outbuf.extend_from_slice(&bytes);
                }
                Entry::Control { done: None, .. } => return,
                Entry::Batch(b) => {
                    if !b.header_sent {
                        let header = Response::BatchHeader {
                            n: b.n,
                            stream: b.stream,
                        };
                        let frame = encode(b.kind, &header, &sh.metrics);
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
                    if b.done() {
                        self.pending.pop_front();
                        self.active_batches -= 1;
                    } else {
                        return;
                    }
                }
            }
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
                    sh.metrics.shed_total.inc();
                    let busy = ServiceError::Busy {
                        reason: format!("too many connections (limit {})", sh.opts.max_conns),
                        retry_after_ms: sh.metrics.retry_after_ms(sh.queue.depth(), sh.workers),
                    };
                    let frame = encode(CodecKind::Text, &Response::error(&busy), &sh.metrics);
                    let _ = (&stream).write(&frame);
                    continue; // dropped: the cap exists to bound state
                }
                sh.metrics.conn_active.inc();
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
                    Arc::clone(&sh.metrics),
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
#[allow(clippy::too_many_arguments)]
#[allow(clippy::disallowed_methods)] // shutdown drain deadline; see R5 waiver inside
pub(crate) fn run(
    listener: TcpListener,
    engine: Arc<QueryEngine>,
    workers: usize,
    stop: Arc<AtomicBool>,
    opts: Arc<ServeOptions>,
    started: Instant,
    pipe: WakePipe,
    waker: Waker,
) {
    let metrics = Arc::clone(engine.metrics());
    let workers = workers.max(1);
    let queue = SolveQueue::new(opts.queue_depth, Arc::clone(&metrics));
    let (done_tx, done_rx) = mpsc::channel::<SolveDone>();
    let pool = WorkerPool::spawn(
        workers,
        Arc::clone(&engine),
        Arc::clone(&queue),
        done_tx,
        waker,
        Arc::clone(&opts),
    );
    let gate = StreamGate::new(opts.max_stream_batches);
    let sh = Shared {
        engine,
        metrics,
        queue: Arc::clone(&queue),
        gate,
        opts,
        workers,
        started,
    };
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
            let Some(conn) = conns.get_mut(done.conn).and_then(Option::as_mut) else {
                continue;
            };
            if conn.generation != done.generation {
                continue; // the slot was reused; the addressee is gone
            }
            if let WorkDone::Solve { query, result } = &done.done {
                server::log_if_slow(sh.opts.slow_query_ms, query, result);
            }
            conn.complete(done, &sh.metrics);
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
    queue.close();
    drop(done_rx);
    pool.join();
    drop(conns);
}
