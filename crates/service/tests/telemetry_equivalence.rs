//! Telemetry equivalence suite: recording per-stage histograms must be
//! **provably inert** — every registry algorithm returns bit-identical
//! answers (`mhr` compared by bits) with telemetry enabled vs. disabled
//! — and the METRICS wire surface must report a non-zero snapshot over
//! *both* codecs after a mixed workload.
//!
//! Engines are built with *explicit* [`TelemetryConfig`]s, and one test
//! drives a telemetry-on and a telemetry-off TCP server through the same
//! mixed workload over both codecs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::registry::ALGORITHMS;
use fairhms_data::{gen, Dataset};
use fairhms_service::protocol::{Response, WireAnswer};
use fairhms_service::{
    Catalog, CodecKind, Query, QueryEngine, Server, ServerConfig, ServiceError, TelemetryConfig,
    WarmConfig, WireClient,
};

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

fn engine(data: Dataset, telemetry: bool) -> QueryEngine {
    let cat = Arc::new(Catalog::new());
    let eng = QueryEngine::with_config(
        Arc::clone(&cat),
        1024,
        WarmConfig { capacity: 256 },
        TelemetryConfig { enabled: telemetry },
    );
    cat.insert_dataset(data).unwrap();
    eng
}

fn assert_same_outcome(
    a: &Result<fairhms_service::QueryResponse, fairhms_service::ServiceError>,
    b: &Result<fairhms_service::QueryResponse, fairhms_service::ServiceError>,
    ctx: &str,
) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.answer.indices, b.answer.indices,
                "{ctx}: indices diverged"
            );
            assert_eq!(
                a.answer.mhr.map(f64::to_bits),
                b.answer.mhr.map(f64::to_bits),
                "{ctx}: mhr bits diverged"
            );
            assert_eq!(
                a.answer.violations, b.answer.violations,
                "{ctx}: violations diverged"
            );
            assert_eq!(a.answer.alg, b.answer.alg, "{ctx}: alg name diverged");
        }
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{ctx}: errors diverged"),
        (a, b) => panic!("{ctx}: one path failed, the other did not: {a:?} vs {b:?}"),
    }
}

/// The headline contract: every registry algorithm, both bounds
/// policies, skyline on/off, cold and cached, is bit-identical between
/// a telemetry-on engine and a telemetry-off one. Spans read clocks and
/// bump atomics — they must never touch solver state.
#[test]
fn served_answers_are_telemetry_invariant() {
    let data = || generated("tel", 240, 2, 3, 21);
    let on = engine(data(), true);
    let off = engine(data(), false);

    for alg in ALGORITHMS.iter().map(|a| a.key) {
        for (k, balanced, skyline) in [(3usize, false, true), (5, true, true), (4, false, false)] {
            for alpha in [0.05f64, 0.2] {
                let mut q = Query::new("tel", k);
                q.alg = alg.to_string();
                q.balanced = balanced;
                q.skyline = skyline;
                q.alpha = alpha;
                // Twice each: the repeat exercises the cache-hit path
                // (whose lookup span is the hottest) on both engines.
                for round in 0..2 {
                    let a = on.execute(&q);
                    let b = off.execute(&q);
                    assert_same_outcome(
                        &a,
                        &b,
                        &format!(
                            "alg={alg} k={k} balanced={balanced} skyline={skyline} \
                             α={alpha} round={round}"
                        ),
                    );
                }
            }
        }
    }

    // Telemetry actually recorded on the enabled engine…
    let snap = on.metrics().snapshot();
    assert!(snap.enabled);
    assert!(
        snap.histograms
            .iter()
            .any(|(n, h)| n == "engine.cache_lookup" && h.count() > 0),
        "no cache_lookup spans recorded"
    );
    assert!(
        snap.histograms
            .iter()
            .any(|(n, h)| n.starts_with("engine.solve.") && h.count() > 0),
        "no solve spans recorded"
    );
    // …and the disabled engine recorded no histogram samples at all
    // (total_queries is an always-on counter by design).
    let snap_off = off.metrics().snapshot();
    assert!(!snap_off.enabled);
    assert!(
        snap_off.histograms.iter().all(|(_, h)| h.count() == 0),
        "disabled telemetry recorded spans: {:?}",
        snap_off
            .histograms
            .iter()
            .map(|(n, _)| n)
            .collect::<Vec<_>>()
    );
    assert_eq!(snap_off.histograms.len(), 0, "empty histograms not elided");
}

/// The `stages` breakdown rides on responses exactly when telemetry is
/// on, and its parts are consistent with the total.
#[test]
fn stage_timings_present_iff_telemetry_enabled() {
    let on = engine(generated("st", 160, 2, 3, 7), true);
    let off = engine(generated("st", 160, 2, 3, 7), false);
    let q = Query::new("st", 4);

    let cold = on.execute(&q).unwrap();
    let st = cold.stages.expect("telemetry on: stages missing");
    assert!(st.solve_ns > 0, "cold solve recorded no solve time");
    let hit = on.execute(&q).unwrap();
    assert!(hit.cached);
    let st = hit.stages.expect("telemetry on: stages missing on hit");
    assert_eq!(st.solve_ns, 0, "cache hit must not report solve time");

    assert!(off.execute(&q).unwrap().stages.is_none());
    assert!(off.execute(&q).unwrap().stages.is_none());
}

/// METRICS over a real TCP server: after a mixed workload the snapshot
/// is non-zero, and the text and binary codecs decode the same counter
/// set (histogram quantiles are monotone; counts match across codecs
/// for the already-recorded past).
#[test]
fn metrics_verb_reports_nonzero_over_both_codecs() {
    let cat = Arc::new(Catalog::new());
    let eng = Arc::new(QueryEngine::with_config(
        Arc::clone(&cat),
        1024,
        WarmConfig { capacity: 64 },
        TelemetryConfig { enabled: true },
    ));
    cat.insert_dataset(generated("wire", 200, 2, 3, 5)).unwrap();
    let server = Server::spawn(
        Arc::clone(&eng),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
        },
    )
    .unwrap();
    let addr = server.addr();

    // Mixed workload over BOTH codecs: cold solves, repeats (hits), an
    // error, and a batch.
    for kind in [CodecKind::Text, CodecKind::Binary] {
        let mut client = WireClient::negotiate(addr, kind).unwrap();
        for k in [3usize, 4, 5] {
            let mut q = Query::new("wire", k);
            q.alg = "bigreedy".into();
            client.query(&q).unwrap();
            client.query(&q).unwrap(); // cache hit
        }
        let qs: Vec<Query> = (3..7).map(|k| Query::new("wire", k)).collect();
        let results = client.batch(&qs, false).unwrap();
        assert_eq!(results.len(), qs.len());
    }

    // METRICS decodes over both codecs and reports the workload.
    for kind in [CodecKind::Text, CodecKind::Binary] {
        let mut client = WireClient::negotiate(addr, kind).unwrap();
        let (enabled, counters, histograms) = client.metrics().unwrap();
        assert!(enabled, "codec {kind:?}: telemetry reported disabled");
        let total = counters
            .iter()
            .find(|(n, _)| n == "queries.total")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(total >= 20, "codec {kind:?}: queries.total = {total}");
        for want in ["engine.cache_lookup", "server.encode", "executor.run"] {
            let h = histograms
                .iter()
                .find(|h| h.name == want)
                .unwrap_or_else(|| panic!("codec {kind:?}: histogram {want} missing"));
            assert!(h.count > 0, "codec {kind:?}: {want} empty");
            assert!(
                h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max,
                "codec {kind:?}: {want} quantiles not monotone: {h:?}"
            );
        }
        assert!(
            histograms
                .iter()
                .any(|h| h.name.starts_with("engine.solve.") && h.count > 0),
            "codec {kind:?}: no per-family solve histogram"
        );
    }

    server.shutdown();
}

/// A TCP server over `generated("wire", …)` with telemetry on or off.
fn wire_server(telemetry: bool) -> Server {
    let cat = Arc::new(Catalog::new());
    let eng = Arc::new(QueryEngine::with_config(
        Arc::clone(&cat),
        1024,
        WarmConfig { capacity: 64 },
        TelemetryConfig { enabled: telemetry },
    ));
    cat.insert_dataset(generated("wire", 200, 2, 3, 5)).unwrap();
    Server::spawn(
        eng,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
        },
    )
    .unwrap()
}

/// One answer as the wire carries it, minus the execution time.
fn timeless(a: Result<WireAnswer, ServiceError>) -> String {
    format!("{:?}", a.map(|a| WireAnswer { micros: 0, ..a }))
}

/// Runs the mixed workload — single queries and their repeats, a batch,
/// one `APPEND`, and a query after it — on one connection per codec,
/// keeping every connection open. Returns the transcript (execution
/// times stripped) and the open clients.
fn mixed_workload(server: &Server) -> (Vec<String>, Vec<WireClient>) {
    let mut transcript = Vec::new();
    let mut clients = Vec::new();
    for (pass, kind) in [CodecKind::Text, CodecKind::Binary].into_iter().enumerate() {
        let mut client = WireClient::negotiate(server.addr(), kind).unwrap();
        let mut queries = Vec::new();
        for (k, alg, skyline) in [(3usize, "bigreedy", true), (4, "f-greedy", false)] {
            let mut q = Query::new("wire", k);
            q.alg = alg.into();
            q.skyline = skyline;
            queries.push(q);
        }
        for q in queries.iter().chain(&queries) {
            transcript.push(timeless(client.query(q)));
        }
        // A batch mixing a repeat with fresh queries and an error.
        let mut batch = vec![queries[0].clone(), Query::new("wire", 5)];
        let mut unknown = Query::new("wire", 3);
        unknown.alg = "nope".into();
        batch.push(unknown);
        for a in client.batch(&batch, false).unwrap() {
            transcript.push(timeless(a));
        }
        // One append per pass, so each codec decodes a MUTATED frame:
        // (1, 1) joins the skyline, the second pass's (0.75, 1) is
        // dominated by it. Then the skyline query again.
        let top = 1.0 - pass as f64 * 0.25;
        transcript.push(format!("{:?}", client.append("wire", &[top, 1.0], 0)));
        transcript.push(timeless(client.query(&queries[0])));
        clients.push(client);
    }
    (transcript, clients)
}

/// The same mixed workload against a telemetry-on and a telemetry-off
/// server, over both codecs: identical wire answers and identical
/// always-on admission counters; the off server's METRICS reports
/// `enabled=false` and no histograms.
#[test]
fn servers_answer_and_count_alike_with_telemetry_on_or_off() {
    let on = wire_server(true);
    let off = wire_server(false);
    let (on_transcript, mut on_clients) = mixed_workload(&on);
    let (off_transcript, mut off_clients) = mixed_workload(&off);
    assert_eq!(on_transcript, off_transcript);
    let mutated: Vec<&String> = on_transcript
        .iter()
        .filter(|l| l.contains("Mutated"))
        .collect();
    assert!(
        mutated.len() == 2
            && mutated[0].contains("sky_changed: true")
            && mutated[1].contains("sky_changed: false"),
        "{mutated:?}"
    );

    let stats = |client: &mut WireClient| {
        client.send_line("STATS").unwrap();
        match client.recv().unwrap() {
            Response::Stats {
                total_queries,
                shed_total,
                conns_open,
                mutations_total,
                ..
            } => (total_queries, shed_total, conns_open, mutations_total),
            other => panic!("expected STATS, got {other:?}"),
        }
    };
    let on_stats = stats(&mut on_clients[0]);
    assert_eq!(on_stats, stats(&mut off_clients[0]));
    // 8 queries and 1 mutation per codec pass; both connections open.
    assert_eq!(on_stats, (16, 0, 2, 2));

    let (enabled, _, histograms) = on_clients[1].metrics().unwrap();
    assert!(enabled && !histograms.is_empty());
    let (enabled, _, histograms) = off_clients[1].metrics().unwrap();
    assert!(!enabled, "telemetry-off server reports enabled");
    assert!(histograms.is_empty(), "telemetry-off server recorded spans");

    drop((on_clients, off_clients));
    on.shutdown();
    off.shutdown();
}
