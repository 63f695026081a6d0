//! End-to-end serving tests: a generated dataset behind a real TCP server,
//! a mixed batch of 100+ queries, and the cache-identity guarantees the
//! engine promises.
//!
//! The TCP test replays its batch over both codecs — the assertions are
//! codec-independent because answers are contractually bit-identical
//! under both.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_data::{gen, Dataset};
use fairhms_service::protocol::{self, Response, WireAnswer};
use fairhms_service::{Catalog, CodecKind, Query, QueryEngine, ServeOptions, Server, WireClient};

/// An anti-correlated dataset in the paper's evaluation style: n points,
/// d attributes, c groups assigned by attribute-sum quantiles.
fn generated_dataset(name: &str, n: usize, d: usize, c: usize, seed: u64) -> Dataset {
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

fn engine_with(name: &str) -> Arc<QueryEngine> {
    let catalog = Arc::new(Catalog::new());
    catalog
        .insert_dataset(generated_dataset(name, 400, 3, 3, 9))
        .unwrap();
    Arc::new(QueryEngine::new(catalog, 4096))
}

/// ≥ 100 mixed (k, bounds policy, algorithm, seed) queries with planned
/// repeats, so a batch exercises both cold solves and cache hits.
fn mixed_queries(dataset: &str) -> Vec<Query> {
    let algs = ["bigreedy", "f-greedy", "g-greedy", "streaming"];
    let mut qs = Vec::new();
    for round in 0..3 {
        for k in [4usize, 5, 6, 8, 10] {
            for (i, alg) in algs.iter().enumerate() {
                for balanced in [false, true] {
                    let mut q = Query::new(dataset, k);
                    q.alg = alg.to_string();
                    q.balanced = balanced;
                    q.alpha = 0.25;
                    // round 2 varies the seed → distinct fingerprints;
                    // rounds 0 and 1 are identical → guaranteed hits.
                    q.seed = if round == 2 { 1000 + i as u64 } else { 42 };
                    qs.push(q);
                }
            }
        }
    }
    assert!(qs.len() >= 100, "only {} queries", qs.len());
    qs
}

#[test]
fn tcp_end_to_end_mixed_batch_with_cache_hits() {
    let engine = engine_with("anticor");
    let server = Server::spawn(
        Arc::clone(&engine),
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Cold reference answers, computed through the engine directly.
    let reference = engine_with("anticor");
    let queries = mixed_queries("anticor");
    let expected: Vec<WireAnswer> = queries
        .iter()
        .map(|q| {
            let r = reference.execute(q).unwrap();
            WireAnswer {
                alg: r.answer.alg.clone(),
                cached: false,
                micros: 0,
                violations: r.answer.violations,
                mhr: r.answer.mhr,
                indices: r.answer.indices.clone(),
            }
        })
        .collect();

    for kind in [CodecKind::Text, CodecKind::Binary] {
        let mut client = WireClient::negotiate(addr, kind).unwrap();
        let results = client.batch(&queries, false).unwrap();

        let mut hits = 0usize;
        for (i, (got, exp)) in results.iter().zip(&expected).enumerate() {
            let got = got
                .as_ref()
                .unwrap_or_else(|e| panic!("query {i} failed: {e}"));
            if got.cached {
                hits += 1;
            }
            // Cached or cold, over the wire or in process: identical
            // payloads, bit-exact MHR.
            assert_eq!(got.indices, exp.indices, "query {i} indices diverged");
            assert_eq!(
                got.mhr.map(f64::to_bits),
                exp.mhr.map(f64::to_bits),
                "query {i} mhr diverged"
            );
            assert_eq!(got.alg, exp.alg, "query {i} algorithm diverged");
            assert_eq!(got.violations, exp.violations);
        }
        // Rounds 0 and 1 are identical, so at least a quarter of the batch
        // must be cache hits (single-flight may convert even more; the
        // second codec's pass finds every answer cached).
        assert!(
            hits >= queries.len() / 4,
            "expected cache hits, got {hits}/{}",
            queries.len()
        );

        // STATS agrees there were hits.
        client.send_line("STATS").unwrap();
        match client.recv().unwrap() {
            Response::Stats { hit_rate, hits, .. } => {
                assert!(hit_rate > 0.0 && hits > 0, "hit_rate={hit_rate}");
            }
            other => panic!("expected STATS reply, got {other:?}"),
        }
    } // drop each client connection before shutting down

    server.shutdown();
}

#[test]
fn protocol_round_trip_then_solve_matches_direct_execution() {
    // serialize → parse → solve must equal solving the original query.
    let engine = engine_with("rt");
    let mut q = Query::new("rt", 7);
    q.alg = "BiGreedy".into();
    q.alpha = 0.3;
    q.balanced = true;
    q.seed = 5;
    let wire = protocol::query_to_wire(&q).unwrap();
    let parsed = match protocol::parse_request(&wire).unwrap() {
        protocol::Request::Query(b) => *b,
        other => panic!("{other:?}"),
    };
    assert_eq!(parsed, q);

    let direct = engine.execute(&q).unwrap();
    let via_wire = engine.execute(&parsed).unwrap();
    assert_eq!(direct.answer.indices, via_wire.answer.indices);
    assert_eq!(
        direct.answer.mhr.map(f64::to_bits),
        via_wire.answer.mhr.map(f64::to_bits)
    );
    assert!(via_wire.cached, "identical fingerprint must hit the cache");
}

#[test]
fn cache_hit_is_bit_identical_to_cold_solve_across_algorithms() {
    let engine = engine_with("ident");
    for alg in ["bigreedy", "bigreedy+", "f-greedy", "g-greedy", "streaming"] {
        let mut q = Query::new("ident", 6);
        q.alg = alg.into();
        let cold = engine.execute(&q).unwrap();
        let warm = engine.execute(&q).unwrap();
        assert!(!cold.cached && warm.cached, "{alg}");
        assert!(
            Arc::ptr_eq(&cold.answer, &warm.answer),
            "{alg}: cache must share the answer allocation"
        );
        assert_eq!(cold.answer.indices, warm.answer.indices, "{alg}");
        assert_eq!(
            cold.answer.mhr.map(f64::to_bits),
            warm.answer.mhr.map(f64::to_bits),
            "{alg}"
        );
    }
}
