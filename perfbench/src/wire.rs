//! The live `fairhms serve` process and the TCP load against it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fairhms_data::Dataset;
use fairhms_service::protocol::{query_to_wire, WireAnswer, PROTOCOL_VERSION};
use fairhms_service::{Codec, CodecKind, Query, Response};

use crate::workload::{Kind, Workload, DATASET, WRITE_PERIOD_MS};

/// Longest a reply may take before the run counts it failed; the slowest
/// legitimate reply is a 200k-row `LOAD` of about 10 s.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The spawned server. Global so that the watchdog, a panic and every
/// normal exit path can all reap it.
static CHILD: Mutex<Option<Child>> = Mutex::new(None);

/// Kills and waits for the server, if one is still running.
pub fn kill_server() {
    let child = CHILD.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(mut child) = child {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Makes the kernel kill the server if this process dies first, so not
/// even a `SIGKILL` of the benchmark leaves a live server behind. (The
/// benchmark reads `/proc` throughout, so it is Linux-only.)
fn kill_with_parent(cmd: &mut Command) {
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGKILL: c_ulong = 9;
    // SAFETY: the closure runs in the forked child before exec; prctl is
    // async-signal-safe, allocates nothing and changes only the child's
    // own parent-death signal.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

/// Restricts the calling thread (and the threads it spawns afterwards, or
/// a process it then execs) to CPU 0.
///
/// Churn runs its server and both load threads there. Each read is a
/// chain of wake-ups across the client, the event loop and a worker;
/// spread over two vCPUs, a few milliseconds of host steal on either one
/// stalled the whole chain, and at 20–35 % steal the read rate fell to a
/// sixth to a half of its calm value. On one vCPU steal slows the chain
/// only in proportion, which the steal-free time then removes.
pub fn pin_to_cpu0() -> std::io::Result<()> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` of 1024 bits with only CPU 0 set.
    let mask = [1u64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    // SAFETY: the mask is a live, correctly sized `cpu_set_t`; pid 0 is
    // the calling thread, and the call only changes its CPU affinity.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

pub struct Server {
    pub pid: u32,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `fairhms serve` on an ephemeral port with the event front
    /// end and `workers` workers, and reads the bound address from its
    /// banner.
    pub fn spawn(
        bin: &Path,
        boot: &Path,
        root: &Path,
        workers: usize,
        pin: bool,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--data")
            .arg(format!("boot={}", boot.display()))
            .args(["--addr", "127.0.0.1:0", "--frontend", "event", "--workers"])
            .arg(workers.to_string())
            .arg("--load-root")
            .arg(root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        kill_with_parent(&mut cmd);
        if pin {
            use std::os::unix::process::CommandExt;
            // SAFETY: runs in the forked child before exec and only sets
            // its CPU affinity, which the exec'd server inherits.
            unsafe {
                cmd.pre_exec(pin_to_cpu0);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        *CHILD.lock().unwrap_or_else(|e| e.into_inner()) = Some(child);
        // The drain thread keeps reading until the server exits, so its
        // later stdout lines never meet a closed pipe.
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                }
            }
        });
        let mut server = Server {
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        let banner = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "server printed no listening banner".to_string())?;
        server.addr = banner
            .parse()
            .map_err(|e| format!("bad banner address {banner:?}: {e}"))?;
        Ok(server)
    }

    /// Stops the server with `SHUTDOWN`, falling back to a kill after 10 s.
    pub fn shutdown(mut self) {
        let _ = Conn::connect(self.addr, CodecKind::Text).and_then(|mut c| c.call("SHUTDOWN"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut guard = CHILD.lock().unwrap_or_else(|e| e.into_inner());
            match guard.as_mut().map(Child::try_wait) {
                Some(Ok(None)) if Instant::now() < deadline => {}
                Some(Ok(Some(_))) | None => {
                    guard.take();
                    break;
                }
                _ => {
                    drop(guard);
                    kill_server();
                    break;
                }
            }
            drop(guard);
            std::thread::sleep(Duration::from_millis(20));
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        kill_server();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// One client connection with a read timeout and a negotiated codec.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    codec: Box<dyn Codec>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, kind: CodecKind) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut conn = Conn {
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            reader: BufReader::new(stream),
            codec: CodecKind::Text.new_codec(),
            buf: Vec::new(),
        };
        if kind != CodecKind::Text {
            // The acknowledgment still arrives in text.
            match conn.call(&format!("HELLO version={PROTOCOL_VERSION} codec={kind}"))? {
                Response::Hello { codec, .. } if codec == kind => {}
                other => return Err(format!("HELLO refused: {other:?}")),
            }
            conn.codec = kind.new_codec();
        }
        Ok(conn)
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<Response, String> {
        self.codec
            .read_frame(&mut self.reader)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    }

    pub fn call(&mut self, line: &str) -> Result<Response, String> {
        self.send(line)?;
        self.recv()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A cold query with a fresh seed: misses both cache tiers.
    Fresh,
    /// Cold's α = 0.2 repeat of the previous fresh seed: an answer-cache
    /// miss that reuses the warm δ-net and `db_max`.
    NearMiss,
    /// A churn read of a pre-warmed query.
    Read,
    Mutation,
}

/// One timed request, in nanoseconds from the window start.
pub struct Sample {
    pub class: Class,
    /// When the request was due: its send time, or its slot on the
    /// writer's schedule.
    pub due_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
}

/// Request accounting of one connection (or of the whole run, merged).
#[derive(Default, Clone)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// `ERR busy` replies (also counted in `failed`).
    pub busy: u64,
    /// `QUERY` requests sent.
    pub queries: u64,
    /// `APPEND`/`DELETE` requests that succeeded.
    pub mutations_ok: u64,
    pub checks_failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
        self.busy += o.busy;
        self.queries += o.queries;
        self.mutations_ok += o.mutations_ok;
        self.checks_failed += o.checks_failed;
        self.notes.extend(o.notes);
        self.notes.truncate(8);
    }

    pub fn check(&mut self, res: Result<(), String>) {
        if let Err(msg) = res {
            self.checks_failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(msg);
            }
        }
    }

    /// Sends `line` and accounts for the reply; a transport error (timeout,
    /// closed socket) is returned because the connection is then unusable.
    pub fn call(&mut self, conn: &mut Conn, line: &str) -> Result<Response, String> {
        self.send(conn, line)?;
        self.recv(conn, line)
    }

    /// The sending half of [`Tally::call`], for pipelined requests.
    pub fn send(&mut self, conn: &mut Conn, line: &str) -> Result<(), String> {
        self.sent += 1;
        if line.starts_with("QUERY") {
            self.queries += 1;
        }
        conn.send(line).inspect_err(|_| self.failed += 1)
    }

    /// The receiving half of [`Tally::call`]: the reply to `line`.
    pub fn recv(&mut self, conn: &mut Conn, line: &str) -> Result<Response, String> {
        let resp = match conn.recv() {
            Ok(r) => r,
            Err(e) => {
                self.failed += 1;
                return Err(e);
            }
        };
        match &resp {
            Response::Busy { .. } => {
                self.busy += 1;
                self.failed += 1;
            }
            Response::Error { message, .. } => {
                self.failed += 1;
                self.check(Err(format!("ERR {message} for {line:.80}")));
            }
            Response::Mutated { .. } => {
                self.ok += 1;
                self.mutations_ok += 1;
            }
            _ => self.ok += 1,
        }
        Ok(resp)
    }
}

/// Whether two answers select the same rows with the same `mhr` bits
/// (whether they were cached, and how long they took, aside).
pub fn same_solution(a: &WireAnswer, b: &WireAnswer) -> bool {
    a.indices == b.indices
        && a.mhr.map(f64::to_bits) == b.mhr.map(f64::to_bits)
        && a.violations == b.violations
        && a.alg == b.alg
}

/// Checks that `resp` carries the same answer as `want`, to the bit.
pub fn same_answer(resp: &Response, want: &WireAnswer, must_hit: bool) -> Result<(), String> {
    let Response::Answer { answer: got, .. } = resp else {
        return Err(format!("expected an answer, got {resp:?}"));
    };
    if !same_solution(got, want) {
        return Err(format!("answer changed: {got:?} vs {want:?}"));
    }
    if must_hit && !got.cached {
        return Err(format!("expected a cache hit: {got:?}"));
    }
    Ok(())
}

fn answer_of(resp: &Response) -> Result<WireAnswer, String> {
    match resp {
        Response::Answer { answer, .. } => Ok(answer.clone()),
        other => Err(format!("expected an answer, got {other:?}")),
    }
}

/// Checks a `MUTATED` reply of a dominated append (`rows = n + 1`) or of
/// the delete that undoes it (`rows = n`).
pub fn check_mutated(resp: &Response, n: usize, append: bool) -> Result<(), String> {
    match resp {
        Response::Mutated {
            rows, sky_changed, ..
        } if !sky_changed && *rows == n + usize::from(append) => Ok(()),
        other => Err(format!("unexpected mutation reply {other:?}")),
    }
}

/// Counters and histogram `(count, sum)` pairs from one `METRICS` reply.
pub struct Metrics {
    pub counters: Vec<(String, u64)>,
    pub histos: Vec<(String, u64, u64)>,
}

impl Metrics {
    pub fn fetch(conn: &mut Conn) -> Result<Metrics, String> {
        match conn.call("METRICS")? {
            Response::Metrics {
                counters,
                histograms,
                ..
            } => Ok(Metrics {
                counters,
                histos: histograms
                    .into_iter()
                    .map(|h| (h.name, h.count, h.sum))
                    .collect(),
            }),
            other => Err(format!("expected METRICS, got {other:?}")),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |c| c.1)
    }

    pub fn histo(&self, name: &str) -> (u64, u64) {
        self.histos
            .iter()
            .find(|h| h.0 == name)
            .map_or((0, 0), |h| (h.1, h.2))
    }
}

/// `(cache hits, cache misses, warm hits, warm misses)` from `STATS`.
pub fn cache_stats(conn: &mut Conn) -> Result<[u64; 4], String> {
    match conn.call("STATS")? {
        Response::Stats {
            hits,
            misses,
            warm_hits,
            warm_misses,
            ..
        } => Ok([hits, misses, warm_hits, warm_misses]),
        other => Err(format!("expected STATS, got {other:?}")),
    }
}

/// The load connections of one run: the first speaks the text codec, the
/// second the binary one (cold's second solver loop, churn's writer).
pub fn open_conns(addr: SocketAddr) -> Result<Vec<Conn>, String> {
    [CodecKind::Text, CodecKind::Binary]
        .iter()
        .map(|&k| Conn::connect(addr, k))
        .collect()
}

/// One connection's warm-up accounting and `(pool index, answer)` pairs.
type Warmup = (Tally, Vec<(usize, WireAnswer)>);

/// One full set-up: `LOAD` of the workload CSV, then the untimed warm-up
/// (churn: the whole pool; cold: one fresh/near-miss pair per
/// connection). Returns the set-up's wall time and the pool answers.
///
/// The warm-up runs in lock-step rounds, one request per connection per
/// round, so the same solves always overlap: the server's peak memory,
/// which two concurrent solves set, is then the same in every run.
pub fn setup(
    w: &Workload,
    conns: &mut [Conn],
    repeat: u64,
    pool_lines: &[String],
    tally: &mut Tally,
) -> Result<(f64, Vec<Option<WireAnswer>>), String> {
    let t0 = Instant::now();
    match tally.call(&mut conns[0], &format!("LOAD name={DATASET} path=main.csv"))? {
        Response::Loaded { rows, .. } if rows == w.n() => {}
        other => return Err(format!("LOAD failed: {other:?}")),
    }
    let nconns = conns.len();
    let round = std::sync::Barrier::new(nconns);
    let results: Vec<Result<Warmup, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let round = &round;
                s.spawn(move || -> Result<Warmup, String> {
                    let mut t = Tally::default();
                    let mut answers = Vec::new();
                    let lines: Vec<(usize, String)> = match w.kind {
                        Kind::Cold => (0..2)
                            .map(|i| (i, wire_line(&w.cold_query(c, 1 + repeat, i as u64))))
                            .collect(),
                        _ => (c..pool_lines.len())
                            .step_by(nconns)
                            .map(|i| (i, pool_lines[i].clone()))
                            .collect(),
                    };
                    // Every connection has as many lines, and keeps meeting
                    // the barrier after an error so the others never hang.
                    let mut error = None;
                    for (i, line) in lines {
                        round.wait();
                        if error.is_some() {
                            continue;
                        }
                        match t.call(conn, &line).and_then(|r| answer_of(&r)) {
                            Ok(a) => answers.push((i, a)),
                            Err(e) => error = Some(e),
                        }
                    }
                    error.map_or(Ok((t, answers)), Err)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut pool = vec![None; pool_lines.len()];
    for r in results {
        let (t, answers) = r?;
        tally.merge(t);
        if w.kind != Kind::Cold {
            for (i, a) in answers {
                pool[i] = Some(a);
            }
        }
    }
    Ok((secs, pool))
}

pub fn wire_line(q: &Query) -> String {
    query_to_wire(q).expect("generated queries are wire-safe")
}

/// What one load connection did in the timed window.
#[derive(Default)]
pub struct ConnLog {
    pub samples: Vec<Sample>,
    pub tally: Tally,
    /// Cold: `(request index, answer)` of every answered request.
    pub answers: Vec<(u64, WireAnswer)>,
    /// Churn writer: send time minus due time, per mutation.
    pub lateness_ms: Vec<f64>,
    pub error: Option<String>,
}

pub struct Window {
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Requests churn's reader keeps in flight on its connection, so that the
/// server always has queued work and the read rate is bounded by CPU
/// rather than by the wake-ups between the client, the event loop and a
/// worker (see [`pin_to_cpu0`]).
pub const READ_PIPELINE: usize = 4;

/// Churn's reader: closed-loop repeats of pre-warmed queries, with
/// [`READ_PIPELINE`] in flight; each is timed from its own send.
fn reader_loop(
    w: &Workload,
    conn: &mut Conn,
    c: usize,
    lines: &[String],
    expect: &[WireAnswer],
    win: &Window,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut picker = w.picker(c);
    let mut inflight = std::collections::VecDeque::with_capacity(READ_PIPELINE);
    sleep_until(win.start);
    loop {
        while inflight.len() < READ_PIPELINE && Instant::now() < win.end {
            let i = picker.next_index();
            if let Err(e) = log.tally.send(conn, &lines[i]) {
                log.error = Some(e);
                return log;
            }
            inflight.push_back((i, Instant::now()));
        }
        let Some((i, t0)) = inflight.pop_front() else {
            return log;
        };
        let resp = match log.tally.recv(conn, &lines[i]) {
            Ok(r) => r,
            Err(e) => {
                log.error = Some(e);
                return log;
            }
        };
        let done = Instant::now();
        let ok = matches!(resp, Response::Answer { .. });
        log.tally.check(same_answer(&resp, &expect[i], true));
        log.samples.push(Sample {
            class: Class::Read,
            due_ns: win.ns(t0),
            done_ns: win.ns(done),
            ok,
        });
    }
}

/// Sends mutation `step` (even: the `APPEND` of pair `step / 2`, odd: its
/// `DELETE`) and records it as a sample due at `due`; returns `false` if
/// the connection failed.
fn mutate(
    log: &mut ConnLog,
    conn: &mut Conn,
    w: &Workload,
    data: &Dataset,
    step: u64,
    due: Instant,
    win: &Window,
) -> bool {
    let line = &w.mutation_lines(data, step / 2)[(step % 2) as usize];
    let resp = match log.tally.call(conn, line) {
        Ok(r) => r,
        Err(e) => {
            log.error = Some(e);
            return false;
        }
    };
    let done = Instant::now();
    log.tally
        .check(check_mutated(&resp, data.len(), step.is_multiple_of(2)));
    log.samples.push(Sample {
        class: Class::Mutation,
        due_ns: win.ns(due),
        done_ns: win.ns(done),
        ok: matches!(resp, Response::Mutated { .. }),
    });
    true
}

/// Cold's closed loop: fresh seed, near-miss, fresh seed, … On the first
/// connection each near-miss is followed by a dominated `APPEND`/`DELETE`
/// pair, so mutations are timed across the whole window while the other
/// connection solves (one connection only, so the row count each reply
/// reports is known).
fn cold_loop(
    w: &Workload,
    data: &Dataset,
    conn: &mut Conn,
    c: usize,
    phase: u64,
    win: &Window,
) -> ConnLog {
    let mut log = ConnLog::default();
    sleep_until(win.start);
    let mut i = 0u64;
    while Instant::now() < win.end {
        let line = wire_line(&w.cold_query(c, phase, i));
        let t0 = Instant::now();
        let resp = match log.tally.call(conn, &line) {
            Ok(r) => r,
            Err(e) => {
                log.error = Some(e);
                break;
            }
        };
        let done = Instant::now();
        let answer = answer_of(&resp);
        if let Ok(a) = &answer {
            if a.cached {
                log.tally
                    .check(Err(format!("cold request {i} hit the cache")));
            }
            log.answers.push((i, a.clone()));
        }
        log.samples.push(Sample {
            class: if i.is_multiple_of(2) {
                Class::Fresh
            } else {
                Class::NearMiss
            },
            due_ns: win.ns(t0),
            done_ns: win.ns(done),
            ok: answer.is_ok(),
        });
        if c == 0 && i % 2 == 1 {
            // Pair i / 2: steps i - 1 (APPEND) and i (DELETE).
            for step in [i - 1, i] {
                if !mutate(&mut log, conn, w, data, step, Instant::now(), win) {
                    return log;
                }
            }
        }
        i += 1;
    }
    log
}

/// Churn's writer: dominated `APPEND`/`DELETE` pairs on a fixed schedule,
/// at most one outstanding, each timed from its due time.
fn writer_loop(w: &Workload, data: &Dataset, conn: &mut Conn, win: &Window) -> ConnLog {
    let mut log = ConnLog::default();
    let period = Duration::from_millis(WRITE_PERIOD_MS);
    for i in 0u64.. {
        let due = win.start + period * i as u32;
        // Stop only between pairs, so the dataset ends at n rows.
        if i % 2 == 0 && due >= win.end {
            break;
        }
        sleep_until(due);
        log.lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
        if !mutate(&mut log, conn, w, data, i, due, win) {
            break;
        }
    }
    log
}

/// Runs one phase of the timed window (cold's query phase `phase`) on
/// every load connection; returns one log per connection, in connection
/// order. Each connection stops sending at `win.end` and waits for its
/// last reply, so the server is idle when this returns.
pub fn run_window(
    w: &Workload,
    data: &Dataset,
    conns: &mut [Conn],
    pool_lines: &[String],
    pool_answers: &[WireAnswer],
    phase: u64,
    win: &Window,
) -> Vec<ConnLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || match (w.kind, c) {
                    (Kind::Churn, _) if pin_to_cpu0().is_err() => ConnLog {
                        error: Some("sched_setaffinity failed".into()),
                        ..ConnLog::default()
                    },
                    (Kind::Churn, 0) => reader_loop(w, conn, c, pool_lines, pool_answers, win),
                    (Kind::Churn, _) => writer_loop(w, data, conn, win),
                    (Kind::Cold, _) => cold_loop(w, data, conn, c, phase, win),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// Idle-server probes run in this many short bursts, 50 ms apart: the
/// round trip of a lone request flips between states that each last for
/// a fraction of a second (which vCPU each server thread wakes on), so a
/// contiguous probe would sample only a few of them.
const PROBE_BURSTS: usize = 40;

/// Closed-loop repeats of one cached query on an idle server; returns
/// the latencies in milliseconds.
pub fn hit_probe(
    conn: &mut Conn,
    line: &str,
    want: &WireAnswer,
    reps: usize,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let mut lat = Vec::with_capacity(reps);
    for i in 0..reps {
        if i > 0 && i.is_multiple_of(reps / PROBE_BURSTS) {
            std::thread::sleep(Duration::from_millis(50));
        }
        let t0 = Instant::now();
        let resp = tally.call(conn, line)?;
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.check(same_answer(&resp, want, true));
    }
    Ok(lat)
}
