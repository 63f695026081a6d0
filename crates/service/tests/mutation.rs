//! Mutable-catalog integration suite: the `APPEND`/`DELETE` wire verbs,
//! incremental skyline maintenance pinned against a from-scratch re-prep
//! oracle, and group-delta cache invalidation (cached answers whose
//! digest a mutation did not move must keep hitting).
//!
//! The `WireClient` tests run over both codecs, one fresh server each.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::registry::ALGORITHMS;
use fairhms_data::{gen, Dataset};
use fairhms_service::{
    Catalog, CodecKind, Query, QueryEngine, Response, Server, ServerConfig, WireClient,
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

/// An engine over one small 2-dimensional dataset (so even `intcov`,
/// exact and 2D-only, participates).
fn engine_with(name: &str, n: usize, seed: u64) -> QueryEngine {
    let catalog = Arc::new(Catalog::new());
    catalog
        .insert_dataset(generated(name, n, 2, 3, seed))
        .unwrap();
    QueryEngine::new(catalog, 4096)
}

/// Rebuilds a fresh engine from the live prep's *stored* rows — the
/// re-prep oracle. The normalization invariant (every column max exactly
/// 0 or 1 after any mutation) makes `prepare`'s normalize the identity
/// on stored rows, so the oracle is exact, not approximate.
fn reprep_oracle(live: &QueryEngine, name: &str) -> QueryEngine {
    let prep = live.catalog().get(name).expect("dataset registered");
    let data = Dataset::new(
        name,
        prep.dataset.dim(),
        prep.dataset.points_flat().to_vec(),
        prep.dataset.groups().to_vec(),
        prep.dataset.group_names().to_vec(),
    )
    .unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog.insert_dataset(data).unwrap();
    QueryEngine::new(catalog, 4096)
}

/// Asserts the live (mutated) engine and a from-scratch re-prep agree:
/// identical group skyline, and bit-identical answers from every
/// registered algorithm in both query forms.
fn assert_matches_oracle(live: &QueryEngine, name: &str, ctx: &str) {
    let fresh = reprep_oracle(live, name);
    let live_prep = live.catalog().get(name).unwrap();
    let fresh_prep = fresh.catalog().get(name).unwrap();
    assert_eq!(
        live_prep.skyline_rows, fresh_prep.skyline_rows,
        "{ctx}: incremental group skyline diverged from re-prep"
    );
    for alg in ALGORITHMS.iter().map(|a| a.key) {
        for skyline in [true, false] {
            let mut q = Query::new(name, 3);
            q.alg = alg.to_string();
            q.skyline = skyline;
            match (live.execute(&q), fresh.execute(&q)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.answer.indices, b.answer.indices,
                        "{ctx}: {alg} skyline={skyline} indices diverged"
                    );
                    assert_eq!(
                        a.answer.mhr.map(f64::to_bits),
                        b.answer.mhr.map(f64::to_bits),
                        "{ctx}: {alg} skyline={skyline} mhr bits diverged"
                    );
                }
                // Typed refusals (e.g. DMM's k-vs-d floor) must agree too.
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea, eb, "{ctx}: {alg} skyline={skyline} errors diverged")
                }
                (a, b) => panic!(
                    "{ctx}: {alg} skyline={skyline} live/fresh disagree on success: \
                     {a:?} vs {b:?}"
                ),
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Append { coords: [f64; 2], group: usize },
    Delete { raw: usize },
    Query { k: usize, alg: usize, skyline: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The last coordinate choice (1.3) exceeds 1.0, forcing the
    // normalization-rebuild slow path into the interleaving mix.
    const COORDS: [f64; 6] = [0.0, 0.2, 0.5, 0.85, 1.0, 1.3];
    (
        (
            0usize..3,
            0usize..COORDS.len(),
            0usize..COORDS.len(),
            0usize..3,
        ),
        (
            0usize..10_000,
            2usize..5,
            0usize..ALGORITHMS.len(),
            0usize..2,
        ),
    )
        .prop_map(|((kind, xi, yi, group), (raw, k, alg, sky))| match kind {
            0 => Op::Append {
                coords: [COORDS[xi], COORDS[yi]],
                group,
            },
            1 => Op::Delete { raw },
            _ => Op::Query {
                k,
                alg,
                skyline: sky == 0,
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole pin: any interleaving of APPEND/DELETE/QUERY leaves the
    /// catalog — skylines, every derived structure answers
    /// are solved from — bit-identical to preparing the surviving rows
    /// from scratch. Queries run *between* mutations so stale `OnceLock`
    /// SoA views or cached `db_max` preimages would be observed, not
    /// skipped over.
    #[test]
    fn mutation_interleavings_match_a_fresh_reprep(ops in proptest::collection::vec(op_strategy(), 0..14)) {
        let live = engine_with("mut", 40, 17);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Append { coords, group } => {
                    live.append_row("mut", coords, *group).unwrap();
                }
                Op::Delete { raw } => {
                    let rows = live.catalog().get("mut").unwrap().dataset.len();
                    if rows > 4 {
                        live.delete_row("mut", raw % rows).unwrap();
                    }
                }
                Op::Query { k, alg, skyline } => {
                    let mut q = Query::new("mut", *k);
                    q.alg = ALGORITHMS[*alg].key.to_string();
                    q.skyline = *skyline;
                    // Typed refusals (small-k floors) are fine mid-run;
                    // the oracle comparison re-checks them at the end.
                    let _ = live.execute(&q);
                }
            }
            if i == ops.len() - 1 {
                assert_matches_oracle(&live, "mut", &format!("after {} ops", ops.len()));
            }
        }
        if ops.is_empty() {
            assert_matches_oracle(&live, "mut", "no ops");
        }
    }
}

/// Staleness regression: a query answered *before* a mutation must not
/// leave any derived structure (`Dataset::soa()` SoA views, cached
/// `db_max` preimages) serving pre-mutation rows afterwards.
/// Every solve reads the blocked SoA view, so a stale view would surface
/// here.
#[test]
fn append_after_queries_serves_fresh_rows() {
    let live = engine_with("stale", 60, 23);
    // Populate every cache tier and OnceLock before mutating.
    for alg in ALGORITHMS.iter().map(|a| a.key) {
        for skyline in [true, false] {
            let mut q = Query::new("stale", 3);
            q.alg = alg.to_string();
            q.skyline = skyline;
            let _ = live.execute(&q);
        }
    }
    // A dominating point: every group-0 skyline answer must now see it.
    let rep = live.append_row("stale", &[1.0, 1.0], 0).unwrap();
    assert!(
        rep.sky_changed,
        "a dominating append must change the skyline"
    );
    assert_matches_oracle(&live, "stale", "after dominating append");

    // And the delete direction: drop the dominating row again.
    let rows = live.catalog().get("stale").unwrap().dataset.len();
    let rep = live.delete_row("stale", rows - 1).unwrap();
    assert!(rep.sky_changed);
    assert_matches_oracle(&live, "stale", "after deleting the dominator");
}

fn spawn_two_dataset_server() -> Server {
    let catalog = Arc::new(Catalog::new());
    catalog
        .insert_dataset(generated("demo", 120, 2, 3, 11))
        .unwrap();
    catalog
        .insert_dataset(generated("other", 80, 2, 2, 7))
        .unwrap();
    let engine = Arc::new(QueryEngine::new(catalog, 4096));
    Server::spawn(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
        },
    )
    .unwrap()
}

fn warm(client: &mut WireClient, q: &Query) {
    let cold = client.query(q).unwrap();
    assert!(!cold.cached, "first solve must be cold");
    let hot = client.query(q).unwrap();
    assert!(hot.cached, "second solve must hit the cache");
}

/// Satellite pin: delta invalidation over the wire. A dominated append
/// moves only the full-form digest, so the skyline-form cached answer
/// and every entry for an untouched dataset keep hitting; a
/// sky-changing append drops the skyline-form entry too.
#[test]
fn delta_invalidation_preserves_untouched_cached_answers() {
    for kind in [CodecKind::Text, CodecKind::Binary] {
        let server = spawn_two_dataset_server();
        let addr = server.addr();
        let mut client = WireClient::negotiate(addr, kind).unwrap();

        let mut q_sky = Query::new("demo", 3);
        q_sky.alg = "bigreedy".into();
        let mut q_full = q_sky.clone();
        q_full.skyline = false;
        let mut q_other = Query::new("other", 3);
        q_other.alg = "f-greedy".into();
        warm(&mut client, &q_sky);
        warm(&mut client, &q_full);
        warm(&mut client, &q_other);

        // 1. Dominated append: (0,0) sits under every group-0 point.
        let resp = client.append("demo", &[0.0, 0.0], 0).unwrap();
        let Response::Mutated {
            op,
            sky_changed,
            rows,
            ..
        } = &resp
        else {
            panic!("expected Mutated, got {resp:?}");
        };
        assert_eq!(op, "append");
        assert_eq!(*rows, 121);
        assert!(!sky_changed, "(0,0) must be dominated");
        // Skyline-form entry survives (sky digest unmoved); the untouched
        // dataset survives; the full-form entry is gone (row count moved).
        assert!(
            client.query(&q_sky).unwrap().cached,
            "sky entry must survive"
        );
        assert!(
            client.query(&q_other).unwrap().cached,
            "other dataset must survive"
        );
        assert!(
            !client.query(&q_full).unwrap().cached,
            "full entry must drop"
        );
        let hot = client.query(&q_full).unwrap();
        assert!(hot.cached);

        // 2. Dominated delete of the appended row (highest id, off-skyline:
        //    no generation moves except full).
        let resp = client.delete("demo", 120).unwrap();
        let Response::Mutated {
            op,
            sky_changed,
            rows,
            ..
        } = &resp
        else {
            panic!("expected Mutated, got {resp:?}");
        };
        assert_eq!(op, "delete");
        assert_eq!(*rows, 120);
        assert!(!sky_changed);
        assert!(
            client.query(&q_sky).unwrap().cached,
            "sky entry must still survive"
        );
        assert!(client.query(&q_other).unwrap().cached);

        // 3. Sky-changing append drops the skyline-form entry as well.
        let resp = client.append("demo", &[1.0, 1.0], 0).unwrap();
        let Response::Mutated { sky_changed, .. } = &resp else {
            panic!("expected Mutated, got {resp:?}");
        };
        assert!(sky_changed, "(1,1) must enter the skyline");
        assert!(!client.query(&q_sky).unwrap().cached, "sky entry must drop");
        assert!(
            client.query(&q_other).unwrap().cached,
            "other dataset still untouched"
        );

        // STATS counts all three mutations (appended-field, both codecs).
        client.send_line("STATS").unwrap();
        match client.recv().unwrap() {
            Response::Stats {
                mutations_total, ..
            } => assert_eq!(mutations_total, 3),
            other => panic!("expected Stats, got {other:?}"),
        }
        server.shutdown();
    }
}

/// Mutation errors are typed wire errors and leave the connection usable.
#[test]
fn mutation_errors_answer_err_and_keep_the_connection() {
    for kind in [CodecKind::Text, CodecKind::Binary] {
        let server = spawn_two_dataset_server();
        let addr = server.addr();
        let mut client = WireClient::negotiate(addr, kind).unwrap();

        // Unknown dataset, wrong dimension, out-of-range row.
        for line in [
            "APPEND name=absent row=0.5,0.5 group=0",
            "APPEND name=demo row=0.5,0.5,0.5 group=0",
            "APPEND name=demo row=0.5,0.5 group=99",
            "DELETE name=demo row=100000",
            "DELETE name=absent row=0",
        ] {
            client.send_line(line).unwrap();
            match client.recv().unwrap() {
                Response::Error { .. } => {}
                other => panic!("{line}: expected ERR, got {other:?}"),
            }
        }
        // The connection still answers; and no mutation was counted.
        client.send_line("STATS").unwrap();
        match client.recv().unwrap() {
            Response::Stats {
                mutations_total, ..
            } => assert_eq!(mutations_total, 0),
            other => panic!("expected Stats, got {other:?}"),
        }
        server.shutdown();
    }
}

/// Pipelined mutate→query keeps sequential semantics: the query arriving
/// in the same TCP segment as the APPEND must execute *after* it (the
/// connection's input is parked behind its control barrier until the
/// append completes).
#[test]
fn pipelined_mutate_then_query_is_sequential() {
    let server = spawn_two_dataset_server();
    let addr = server.addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    // One write carrying both requests: a sky-changing append and a
    // skyline query behind it.
    write!(
        writer,
        "APPEND name=demo row=1.0,1.0 group=0\nQUERY dataset=demo k=3 alg=bigreedy\n"
    )
    .unwrap();
    writer.flush().unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("OK mutated") && line.contains("sky_changed=true"),
        "first frame must be the mutation ack, got {line:?}"
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("OK alg="),
        "second frame must be the answer, got {line:?}"
    );

    // If the pipelined query had raced ahead of the append, its cache
    // entry would carry the pre-mutation digest and the append would
    // have dropped it — this follow-up would then be a cold miss.
    let mut follow = WireClient::connect(addr).unwrap();
    let mut q = Query::new("demo", 3);
    q.alg = "bigreedy".into();
    let hit = follow.query(&q).unwrap();
    assert!(
        hit.cached,
        "pipelined query must have executed after the append"
    );
    server.shutdown();
}
