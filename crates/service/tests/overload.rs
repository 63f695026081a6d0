//! Deterministic overload and fault-injection harness for the serving
//! front end.
//!
//! Pins the admission-control contract — idle connections cost poll-set
//! entries rather than threads, the bounded solve queue sheds with typed
//! `retry_after_ms` advice, per-connection quotas refuse pipelined floods
//! without desynchronizing, and the `queue_depth`/`shed_total`/
//! `conns_open` gauges agree exactly with what clients observed — plus
//! the fault-injection matrix the server must survive: clients dropping
//! mid-frame (text and binary), half-written handshakes, byte-at-a-time
//! delivery, abandoned batch bodies, and vanished streamed-batch readers,
//! none of which may leak a quota/stream slot, desync another connection,
//! or wedge shutdown.
//!
//! Determinism comes from configuration, not timing: `queue_depth: 0`
//! sheds every solve, quota limits of 0 shed every admission, and the
//! accounting identities (`observed busy == shed_total`,
//! `answered + shed == burst`) hold under any scheduling.

#![allow(clippy::disallowed_methods)] // tests bound waits with deadlines (R5 exempts test code)
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use fairhms_obs::sync::{read_or_recover, write_or_recover};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_data::{gen, Dataset};
use fairhms_service::codec::CodecKind;
use fairhms_service::protocol::{parse_response, Response};
use fairhms_service::{Catalog, Query, QueryEngine, ServeOptions, Server, WireClient};

fn generated(name: &str, n: usize, d: usize, c: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = gen::anti_correlated(n, d, &mut rng);
    let groups = gen::groups_by_sum(&points, d, c);
    Dataset::new(
        name,
        d,
        points,
        groups,
        (0..c).map(|g| format!("g{g}")).collect(),
    )
    .unwrap()
}

/// Keeps the other tests' servers from starting or stopping threads inside
/// `five_hundred_idle_connections_hold_no_threads`'s measurement window:
/// that test holds it exclusively, every other test shares it.
static THREAD_COUNT: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    read_or_recover(&THREAD_COUNT)
}

fn spawn(workers: usize, opts: ServeOptions) -> Server {
    let catalog = Arc::new(Catalog::new());
    catalog
        .insert_dataset(generated("demo", 120, 2, 3, 11))
        .unwrap();
    let engine = Arc::new(QueryEngine::new(catalog, 4096));
    Server::spawn(
        engine,
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers,
            ..opts
        },
    )
    .unwrap()
}

/// Connects and completes one PING round trip, so the server has
/// definitely accepted (and counted) the connection.
fn connect_pinged(server: &Server) -> WireClient {
    let mut c = WireClient::connect(server.addr()).unwrap();
    c.send_line("PING").unwrap();
    assert_eq!(c.recv().unwrap(), Response::Pong);
    c
}

/// The admission gauges from a `STATS` round trip:
/// `(queue_depth, shed_total, conns_open)`.
fn gauges(client: &mut WireClient) -> (u64, u64, u64) {
    client.send_line("STATS").unwrap();
    match client.recv().unwrap() {
        Response::Stats {
            queue_depth,
            shed_total,
            conns_open,
            ..
        } => (queue_depth, shed_total, conns_open),
        other => panic!("expected STATS, got {other:?}"),
    }
}

/// Number of OS threads in this test process (Linux).
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// Polls `probe` until `cond` holds on the gauges or the deadline
/// passes; disconnect cleanup is asynchronous.
fn wait_for_gauges(probe: &mut WireClient, cond: impl Fn((u64, u64, u64)) -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let g = gauges(probe);
        if cond(g) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last gauges {g:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------
// Overload: idle fan-out, bounded-queue sheds, quotas, accounting
// ---------------------------------------------------------------------

/// The resource claim: 500 mostly-idle connections cost poll-set
/// entries, not threads — the process grows by the event loop plus the
/// worker pool only — and every one of them is visible in the
/// `conns_open` gauge.
#[test]
fn five_hundred_idle_connections_hold_no_threads() {
    let _exclusive = write_or_recover(&THREAD_COUNT);
    const WORKERS: usize = 2;
    let baseline = thread_count();
    let server = spawn(WORKERS, ServeOptions::default());
    let mut idle = Vec::with_capacity(500);
    for _ in 0..500 {
        idle.push(connect_pinged(&server));
    }
    let grown = thread_count() - baseline;
    assert!(
        grown <= WORKERS + 4,
        "server grew {grown} threads for 500 idle connections \
         (expected <= workers {WORKERS} + 4)"
    );

    let mut probe = connect_pinged(&server);
    let (_, _, conns_open) = gauges(&mut probe);
    assert_eq!(conns_open, 501, "500 idle connections + the probe");

    // Disconnects are observed and the gauge settles back to the probe.
    drop(idle);
    wait_for_gauges(&mut probe, |(_, _, c)| c == 1, "conns_open to settle");
    server.shutdown();
}

/// A burst past the solve-queue bound sheds deterministically
/// (`queue_depth: 0` refuses every admission): every response is a typed
/// busy carrying actionable retry advice, and the gauges account for the
/// burst exactly.
#[test]
fn bounded_queue_sheds_bursts_with_retry_advice_and_exact_gauges() {
    let _shared = shared();
    const IDLE: usize = 50;
    const BURST: usize = 40;
    let server = spawn(
        1,
        ServeOptions {
            queue_depth: 0,
            ..ServeOptions::default()
        },
    );
    let _idle: Vec<WireClient> = (0..IDLE).map(|_| connect_pinged(&server)).collect();

    // Pipeline the whole burst in one write; the loop sheds each QUERY
    // at admission and answers in request order.
    let mut burst = WireClient::connect(server.addr()).unwrap();
    let block = "QUERY dataset=demo k=3 alg=bigreedy\n".repeat(BURST);
    burst.send_line(block.trim_end()).unwrap();
    let mut shed = 0usize;
    for i in 0..BURST {
        match burst.recv().unwrap() {
            Response::Busy {
                seq: None,
                retry_after_ms,
                message,
            } => {
                assert!(retry_after_ms >= 1, "frame {i}: advice must be actionable");
                assert!(
                    message.contains("solve queue full (depth 0)"),
                    "frame {i}: unexpected shed reason {message:?}"
                );
                shed += 1;
            }
            other => panic!("frame {i}: expected ERR busy, got {other:?}"),
        }
    }
    assert_eq!(shed, BURST, "a zero-depth queue sheds the whole burst");

    let mut probe = connect_pinged(&server);
    let (queue_depth, shed_total, conns_open) = gauges(&mut probe);
    assert_eq!(queue_depth, 0, "nothing was admitted");
    assert_eq!(
        shed_total, BURST as u64,
        "shed_total must match the busy responses clients observed"
    );
    assert_eq!(conns_open, (IDLE + 2) as u64, "idle + burst + probe");
    server.shutdown();
}

/// With a real (nonzero) queue bound, sheds and answers partition the
/// burst exactly: `answered + shed == burst` and `shed_total` equals the
/// busy frames the client saw — under any worker scheduling.
#[test]
fn sheds_plus_answers_account_for_the_whole_burst() {
    let _shared = shared();
    const BURST: usize = 12;
    let server = spawn(
        1,
        ServeOptions {
            queue_depth: 4,
            ..ServeOptions::default()
        },
    );
    let mut burst = WireClient::connect(server.addr()).unwrap();
    let block = "QUERY dataset=demo k=3 alg=bigreedy\n".repeat(BURST);
    burst.send_line(block.trim_end()).unwrap();
    let (mut answered, mut shed) = (0u64, 0u64);
    for i in 0..BURST {
        match burst.recv().unwrap() {
            Response::Answer { answer, .. } => {
                assert_eq!(answer.indices.len(), 3, "frame {i}");
                answered += 1;
            }
            Response::Busy { retry_after_ms, .. } => {
                assert!(retry_after_ms >= 1, "frame {i}");
                shed += 1;
            }
            other => panic!("frame {i}: expected answer or busy, got {other:?}"),
        }
    }
    assert_eq!(answered + shed, BURST as u64);

    let mut probe = connect_pinged(&server);
    let (queue_depth, shed_total, _) = gauges(&mut probe);
    assert_eq!(queue_depth, 0, "the queue drained");
    assert_eq!(shed_total, shed, "gauge and observed sheds must agree");
    server.shutdown();
}

/// `(total_queries, queue_depth)` from a `STATS` round trip.
fn queries_and_depth(client: &mut WireClient) -> (u64, u64) {
    client.send_line("STATS").unwrap();
    match client.recv().unwrap() {
        Response::Stats {
            total_queries,
            queue_depth,
            ..
        } => (total_queries, queue_depth),
        other => panic!("expected STATS, got {other:?}"),
    }
}

/// Polls `probe` until `cond` holds on `(total_queries, queue_depth)`.
fn wait_for_queries(probe: &mut WireClient, cond: impl Fn((u64, u64)) -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let g = queries_and_depth(probe);
        if cond(g) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last (total_queries, queue_depth) {g:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A cached answer is never shed: it takes no queue slot, no
/// per-connection quota slot and no worker. With the one worker held by
/// a cold solve and the one queue slot taken, a repeat of a cached query
/// on a fourth connection still answers `cached=true`, while the solve
/// is still running.
#[test]
fn cached_answers_are_never_shed() {
    let _shared = shared();
    let catalog = Arc::new(Catalog::new());
    catalog
        .insert_dataset(generated("demo", 120, 2, 3, 11))
        .unwrap();
    catalog
        .insert_dataset(generated("slow", 3000, 4, 3, 12))
        .unwrap();
    let server = Server::spawn(
        Arc::new(QueryEngine::new(catalog, 4096)),
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut probe = connect_pinged(&server);
    let mut first = connect_pinged(&server);
    assert!(!first.query(&Query::new("demo", 3)).unwrap().cached);

    // Hold the worker: wait until it has taken the cold solve off the
    // queue and started executing it.
    let mut holder = connect_pinged(&server);
    holder
        .send_line("QUERY dataset=slow k=12 alg=bigreedy skyline=false")
        .unwrap();
    wait_for_queries(&mut probe, |g| g == (2, 0), "the worker to start the solve");
    // Fill the queue's one slot.
    let mut filler = connect_pinged(&server);
    filler.send_line("QUERY dataset=demo k=4").unwrap();
    wait_for_queries(&mut probe, |(_, depth)| depth == 1, "the queue to fill");

    let mut repeat = connect_pinged(&server);
    let hit = repeat
        .query(&Query::new("demo", 3))
        .expect("a cached answer must not be shed");
    assert!(hit.cached);
    assert_eq!(
        queries_and_depth(&mut probe),
        (3, 1),
        "the hit must answer while the solve still holds the worker"
    );

    assert!(!holder.recv_answer().unwrap().cached);
    assert!(!filler.recv_answer().unwrap().cached);
    let (_, shed_total, _) = gauges(&mut probe);
    assert_eq!(shed_total, 0);
    server.shutdown();
}

/// Per-connection quotas (limits of 0 make the shed deterministic)
/// refuse single queries and batches with typed busy errors, and the
/// connection stays perfectly synchronized afterwards.
#[test]
fn per_connection_quotas_shed_without_desync() {
    let _shared = shared();
    let server = spawn(
        1,
        ServeOptions {
            max_inflight_queries: 0,
            max_conn_batches: 0,
            ..ServeOptions::default()
        },
    );
    let mut c = WireClient::connect(server.addr()).unwrap();

    c.send_line("QUERY dataset=demo k=3").unwrap();
    match c.recv().unwrap() {
        Response::Busy {
            retry_after_ms,
            message,
            ..
        } => {
            assert!(retry_after_ms >= 1);
            assert!(
                message.contains("queries in flight on this connection (limit 0)"),
                "unexpected quota reason {message:?}"
            );
        }
        other => panic!("expected busy, got {other:?}"),
    }

    let queries = vec![Query::new("demo", 2), Query::new("demo", 3)];
    match c.send_batch(&queries, false).unwrap() {
        Response::Busy { message, .. } => assert!(
            message.contains("batches in flight on this connection (limit 0)"),
            "unexpected quota reason {message:?}"
        ),
        other => panic!("expected busy, got {other:?}"),
    }

    // Both sheds consumed their full request (batch body included): the
    // connection is not desynchronized.
    c.send_line("PING").unwrap();
    assert_eq!(c.recv().unwrap(), Response::Pong);

    let (_, shed_total, _) = gauges(&mut c);
    assert_eq!(shed_total, 2, "one per refused admission");
    server.shutdown();
}

/// The connection cap: past `max_conns`, a new connection receives
/// exactly one text `ERR busy` line naming the cap, with actionable retry
/// advice, and then EOF. The shed is counted once, and the refused
/// connection never shows in `conns_open`.
#[test]
fn connection_cap_sheds_one_text_busy_line_then_eof() {
    let _shared = shared();
    let server = spawn(
        1,
        ServeOptions {
            max_conns: 1,
            ..ServeOptions::default()
        },
    );
    let mut first = connect_pinged(&server);
    let (_, shed_before, _) = gauges(&mut first);

    let mut refused = TcpStream::connect(server.addr()).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut bytes = Vec::new();
    refused.read_to_end(&mut bytes).unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let line = text
        .strip_suffix('\n')
        .unwrap_or_else(|| panic!("expected one newline-terminated line, got {text:?}"));
    assert!(
        !line.contains('\n'),
        "expected exactly one frame, got {text:?}"
    );
    let (retry, reason) = line
        .strip_prefix("ERR busy retry_after_ms=")
        .and_then(|rest| rest.split_once(' '))
        .unwrap_or_else(|| panic!("expected a text ERR busy line, got {line:?}"));
    assert!(retry.parse::<u64>().unwrap() >= 1, "{line}");
    assert_eq!(reason, "too many connections (limit 1)");

    let (_, shed_after, conns_open) = gauges(&mut first);
    assert_eq!(
        shed_after,
        shed_before + 1,
        "one shed per refused connection"
    );
    assert_eq!(conns_open, 1, "only the admitted connection is open");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// The full client-misbehavior matrix. Every scenario must leave the
/// server answering cleanly on other connections, release every
/// quota/stream slot, settle the `conns_open` gauge, and shut down
/// promptly.
#[test]
fn fault_injection_event_frontend() {
    let _shared = shared();
    let server = spawn(
        2,
        ServeOptions {
            max_stream_batches: 1,
            ..ServeOptions::default()
        },
    );
    let addr = server.addr();
    let mut probe = connect_pinged(&server);

    // (a) Drop mid-line: a text request with no terminator.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"QUERY dataset=demo k=3").unwrap();
        drop(s);
    }
    // (b) Half-written HELLO handshake.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"HELLO version=2 cod").unwrap();
        drop(s);
    }
    // (c) Binary client vanishes mid-response-frame: negotiate binary,
    // request a solve, read two bytes of the length-prefixed frame, die.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"HELLO version=2 codec=binary\n").unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut ack = String::new();
        r.read_line(&mut ack).unwrap();
        assert_eq!(ack.trim(), "OK version=2 codec=binary");
        s.write_all(b"QUERY dataset=demo k=3 alg=bigreedy\n")
            .unwrap();
        let mut partial = [0u8; 2];
        std::io::Read::read_exact(&mut r, &mut partial).unwrap();
        drop(s);
    }
    // (d) Abandoned batch body: header promises 3 lines, one arrives.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"BATCH 3\nQUERY dataset=demo k=2\n").unwrap();
        drop(s);
    }
    // After every drop the server still answers instantly elsewhere.
    probe.send_line("PING").unwrap();
    assert_eq!(probe.recv().unwrap(), Response::Pong);

    // (e) Byte-at-a-time delivery makes progress and never desyncs a
    // concurrent connection: between every single byte the fast client
    // completes a full round trip.
    {
        let slow = TcpStream::connect(addr).unwrap();
        for &byte in b"QUERY dataset=demo k=3 alg=bigreedy\n".iter() {
            (&slow).write_all(&[byte]).unwrap();
            probe.send_line("PING").unwrap();
            assert_eq!(probe.recv().unwrap(), Response::Pong);
        }
        let mut r = BufReader::new(slow);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let ans = parse_response(line.trim()).unwrap();
        assert_eq!(ans.indices.len(), 3, "byte-at-a-time query still solves");
    }

    // (f) A streamed-batch reader that vanishes must release the gate
    // slot (max_stream_batches: 1 makes a leak block forever).
    let queries = vec![Query::new("demo", 2), Query::new("demo", 3)];
    {
        let mut a = WireClient::connect(addr).unwrap();
        match a.send_batch(&queries, true).unwrap() {
            Response::BatchHeader { n: 2, stream: true } => {}
            other => panic!("expected stream header, got {other:?}"),
        }
        drop(a); // never reads its frames
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut b = WireClient::connect(addr).unwrap();
        match b.send_batch(&queries, true).unwrap() {
            Response::BatchHeader { .. } => {
                for _ in 0..queries.len() {
                    b.recv().unwrap();
                }
                break; // slot was released
            }
            Response::Busy { .. } => {
                assert!(
                    Instant::now() < deadline,
                    "stream-gate slot leaked by a vanished reader"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected header or busy, got {other:?}"),
        }
    }

    // Every faulty connection is reaped: the gauge settles to the probe.
    wait_for_gauges(&mut probe, |(_, _, c)| c == 1, "conns_open to settle");

    // (g) Shutdown completes promptly even with an idle client attached.
    let _idle = TcpStream::connect(addr).unwrap();
    let t = Instant::now();
    server.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(3),
        "shutdown wedged after fault injection"
    );
}

// ---------------------------------------------------------------------
// Pipelining and half-close ordering contracts
// ---------------------------------------------------------------------

/// A pipelined codec switch re-codes only what follows it: a `QUERY`
/// admitted before `HELLO codec=binary` must answer through the codec in
/// effect when it was parsed, even though its solve completes after the
/// switch — exactly the frame sequence of one request at a time.
#[test]
fn pipelined_hello_recodes_only_later_requests_event() {
    let _shared = shared();
    let server = spawn(2, ServeOptions::default());
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.write_all(
        b"QUERY dataset=demo k=3 alg=bigreedy\n\
          HELLO version=2 codec=binary\n\
          QUERY dataset=demo k=3 alg=bigreedy\n",
    )
    .unwrap();
    let mut r = BufReader::new(s.try_clone().unwrap());
    let text = CodecKind::Text.new_codec();
    let binary = CodecKind::Binary.new_codec();

    // Frame 1: the pre-switch query, in text.
    let first = match text.read_frame(&mut r).unwrap() {
        Some(Response::Answer { answer, .. }) => answer,
        other => panic!("expected a text-coded answer first, got {other:?}"),
    };
    // Frame 2: the HELLO ack, still text (the previous codec).
    match text.read_frame(&mut r).unwrap() {
        Some(Response::Hello { codec, .. }) => assert_eq!(codec, CodecKind::Binary),
        other => panic!("expected the text-coded HELLO ack second, got {other:?}"),
    }
    // Frame 3: the post-switch query, in binary.
    let third = match binary.read_frame(&mut r).unwrap() {
        Some(Response::Answer { answer, .. }) => answer,
        other => panic!("expected a binary-coded answer third, got {other:?}"),
    };
    assert_eq!(
        first.indices, third.indices,
        "same query before and after the switch must agree"
    );
    server.shutdown();
}

/// Requests received before a FIN still answer: a client that sends a
/// query and immediately half-closes its write side must receive the
/// answer, then a clean EOF.
#[test]
fn half_close_still_answers_admitted_work_event() {
    let _shared = shared();
    let server = spawn(2, ServeOptions::default());
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"QUERY dataset=demo k=3 alg=bigreedy\n")
        .unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    let ans = parse_response(line.trim()).unwrap();
    assert_eq!(
        ans.indices.len(),
        3,
        "half-closed connection lost its in-flight answer"
    );
    line.clear();
    assert_eq!(
        r.read_line(&mut line).unwrap(),
        0,
        "expected a clean EOF after the final answer"
    );
    server.shutdown();
}

/// `LOAD` executes on the worker pool (a disk
/// read must not stall the loop), but requests pipelined behind it keep
/// their sequential order: LOAD-then-QUERY written as one block answers
/// `Loaded` first and then solves against the freshly loaded dataset.
#[test]
fn pipelined_load_then_query_keeps_sequential_order() {
    let _shared = shared();
    let root = std::env::temp_dir().join("fairhms_overload_load_root");
    std::fs::create_dir_all(&root).unwrap();
    let mut csv = String::new();
    for i in 0..40 {
        let x = (i as f64) / 40.0;
        csv.push_str(&format!("{},{},g{}\n", x, 1.0 - x, i % 2));
    }
    std::fs::write(root.join("extra.csv"), csv).unwrap();

    let server = spawn(
        2,
        ServeOptions {
            load_root: Some(root),
            ..ServeOptions::default()
        },
    );
    let mut c = WireClient::connect(server.addr()).unwrap();
    // One write: the query races the load unless admission is ordered.
    c.send_line("LOAD name=extra path=extra.csv\nQUERY dataset=extra k=3")
        .unwrap();
    match c.recv().unwrap() {
        Response::Loaded { name, rows, .. } => {
            assert_eq!((name.as_str(), rows), ("extra", 40));
        }
        other => panic!("expected Loaded first, got {other:?}"),
    }
    match c.recv().unwrap() {
        Response::Answer { answer, .. } => assert_eq!(
            answer.indices.len(),
            3,
            "pipelined query must see the loaded dataset"
        ),
        other => panic!("expected the pipelined query's answer second, got {other:?}"),
    }
    // The connection (and its input barrier) is fully released.
    c.send_line("PING").unwrap();
    assert_eq!(c.recv().unwrap(), Response::Pong);
    server.shutdown();
}

/// On one connection, an uncached `QUERY` pipelined ahead of a cached one
/// answers first: a repeat never overtakes the solve written before it.
#[test]
fn pipelined_miss_then_hit_answers_in_request_order() {
    let _shared = shared();
    let server = spawn(2, ServeOptions::default());
    let mut c = WireClient::connect(server.addr()).unwrap();
    assert!(!c.query(&Query::new("demo", 3)).unwrap().cached);
    c.send_line("QUERY dataset=demo k=5 alg=bigreedy\nQUERY dataset=demo k=3 alg=bigreedy")
        .unwrap();
    let first = c.recv_answer().unwrap();
    assert_eq!(
        (first.indices.len(), first.cached),
        (5, false),
        "the uncached query must answer first"
    );
    let second = c.recv_answer().unwrap();
    assert_eq!(
        (second.indices.len(), second.cached),
        (3, true),
        "the cached repeat must answer second"
    );
    server.shutdown();
}

/// Each query counts once, whatever path answers it: a cold query, its
/// repeat and a second cold query read `total_queries=3 hits=1
/// misses=2` on `STATS`, and `METRICS` counts five `engine.cache_lookup`
/// spans — two per cold query (the first look and the re-check under
/// the single-flight claim), one per hit.
#[test]
fn cold_repeat_cold_counts_each_query_once() {
    let _shared = shared();
    let server = spawn(2, ServeOptions::default());
    let mut c = WireClient::connect(server.addr()).unwrap();
    for (k, cached) in [(3, false), (3, true), (4, false)] {
        assert_eq!(
            c.query(&Query::new("demo", k)).unwrap().cached,
            cached,
            "k={k}"
        );
    }
    c.send_line("STATS").unwrap();
    match c.recv().unwrap() {
        Response::Stats {
            total_queries,
            hits,
            misses,
            hit_rate,
            ..
        } => {
            assert_eq!((total_queries, hits, misses), (3, 1, 2));
            assert_eq!(hit_rate, 1.0 / 3.0);
        }
        other => panic!("expected STATS, got {other:?}"),
    }
    let (_, counters, histograms) = c.metrics().unwrap();
    let total = counters.iter().find(|(n, _)| n == "queries.total");
    assert_eq!(total.map(|(_, v)| *v), Some(3));
    let lookups = histograms.iter().find(|h| h.name == "engine.cache_lookup");
    assert_eq!(lookups.map(|h| h.count), Some(5));
    server.shutdown();
}

/// Shutdown is a wake, not a timeout expiry: with 100 idle connections
/// attached it completes promptly.
#[test]
fn event_shutdown_is_immediate_with_idle_connections() {
    let _shared = shared();
    let server = spawn(2, ServeOptions::default());
    let _idle: Vec<WireClient> = (0..100).map(|_| connect_pinged(&server)).collect();
    let t = Instant::now();
    server.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "event shutdown took {:?} with idle connections",
        t.elapsed()
    );
}

/// A `SHUTDOWN` pipelined behind a `QUERY` in one write still answers the
/// query first, then `OK bye`, and the server stops: the loop keeps
/// delivering completions until the connection's earlier requests have
/// answered.
#[test]
fn pipelined_query_then_shutdown_answers_both() {
    let _shared = shared();
    let server = spawn(2, ServeOptions::default());
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"QUERY dataset=demo k=3 alg=bigreedy skyline=false\nSHUTDOWN\n")
        .unwrap();
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("OK alg=BiGreedy"),
        "expected the query's answer first, got {line:?}"
    );
    line.clear();
    r.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "OK bye");
    line.clear();
    assert_eq!(r.read_line(&mut line).unwrap(), 0, "expected EOF after bye");
    let t = Instant::now();
    server.join();
    assert!(
        t.elapsed() < Duration::from_secs(3),
        "SHUTDOWN did not stop the server"
    );
}
