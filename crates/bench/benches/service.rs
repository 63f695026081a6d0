//! Smoke benchmarks for the serving engine: cache-hit latency in process
//! and over TCP, cold-solve dispatch, a `BATCH` round trip over TCP, and
//! wire-protocol codec. Sizes are tiny — the point is CI-checkable
//! relative numbers, not paper-scale measurements.

use std::cell::Cell;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_data::{gen, Dataset};
use fairhms_service::{
    protocol, Catalog, PreparedDataset, Query, QueryEngine, ServeOptions, Server, WireClient,
};

fn bench_dataset(n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(17);
    let d = 3;
    let points = gen::anti_correlated(n, d, &mut rng);
    let groups = gen::groups_by_sum(&points, d, 3);
    Dataset::new("bench", d, points, groups, vec![]).unwrap()
}

fn engine(n: usize) -> Arc<QueryEngine> {
    let catalog = Arc::new(Catalog::new());
    catalog.insert_dataset(bench_dataset(n)).unwrap();
    Arc::new(QueryEngine::new(catalog, 4096))
}

fn bench_service(c: &mut Criterion) {
    let eng = engine(200);
    let mut group = c.benchmark_group("service");

    // Hot path: the answer is cached; measures fingerprint + LRU lookup.
    let hot = Query::new("bench", 5);
    eng.execute(&hot).unwrap();
    group.throughput(Throughput::Elements(1));
    group.bench_function("cache_hit", |b| {
        b.iter(|| eng.execute(std::hint::black_box(&hot)).unwrap())
    });

    // The same hit as one `QUERY` round trip through an in-process
    // server over loopback TCP: codec, event loop and cache. Its gap to
    // `cache_hit` is the front end's share of a cached read.
    let server = Server::spawn(
        Arc::clone(&eng),
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut client = WireClient::connect(server.addr()).unwrap();
    assert!(client.query(&hot).unwrap().cached);
    group.bench_function("cache_hit_wire", |b| {
        b.iter(|| client.query(std::hint::black_box(&hot)).unwrap())
    });
    drop(client);
    server.shutdown();

    // Cold path: a fresh seed per iteration defeats the cache, measuring
    // catalog access + instance build + a small BiGreedy solve.
    let seed = Cell::new(0u64);
    group.sample_size(10).bench_function("cold_solve", |b| {
        b.iter(|| {
            let mut q = Query::new("bench", 5);
            q.seed = seed.replace(seed.get() + 1);
            eng.execute(std::hint::black_box(&q)).unwrap()
        })
    });

    // Per-query instance construction exactly as the engine's cold path
    // performs it: `PreparedDataset::instance` on the full form (bounds,
    // candidate set, `FairHmsInstance::new`). This isolates the
    // data-handoff cost the zero-copy refactor targets — before it,
    // `.clone()` deep-copied the whole point matrix per query; with
    // `Arc<Dataset>` it is a refcount bump — from the solve itself.
    for n in [2_000usize, 20_000] {
        let prep = PreparedDataset::prepare("cold", bench_dataset(n)).unwrap();
        let mut q = Query::new("cold", 10);
        q.skyline = false;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(
            BenchmarkId::new("cold_instance_build_full", n),
            &prep,
            |b, prep| b.iter(|| prep.instance(std::hint::black_box(&q)).unwrap()),
        );
    }

    // End-to-end cold solve on the *full* (unrestricted) matrix of a
    // larger dataset: the per-query copy the refactor removes is biggest
    // here. Fresh seeds defeat the cache.
    let big = engine(20_000);
    let cold_seed = Cell::new(1_000_000u64);
    group
        .sample_size(10)
        .bench_function("cold_solve_full_n20000", |b| {
            b.iter(|| {
                let mut q = Query::new("bench", 10);
                q.skyline = false;
                q.seed = cold_seed.replace(cold_seed.get() + 1);
                big.execute(std::hint::black_box(&q)).unwrap()
            })
        });

    // `BATCH 32` round trip over loopback TCP at several worker counts
    // (warm cache): wire codec, event loop, worker hop and cache hit.
    let queries: Vec<Query> = (0..32)
        .map(|i| {
            let mut q = Query::new("bench", 4 + (i % 4));
            q.alg = ["bigreedy", "f-greedy"][i % 2].to_string();
            q
        })
        .collect();
    for workers in [1usize, 4] {
        let server = Server::spawn(
            Arc::clone(&eng),
            ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut client = WireClient::connect(server.addr()).unwrap();
        client.batch(&queries, false).unwrap(); // warm the cache
        group.throughput(Throughput::Elements(queries.len() as u64));
        group.bench_function(BenchmarkId::new("warm_batch32", workers), |b| {
            b.iter(|| client.batch(std::hint::black_box(&queries), false).unwrap())
        });
        drop(client);
        server.shutdown();
    }
    group.finish();

    // Wire codec round trip.
    let mut codec = c.benchmark_group("protocol");
    let q = Query::new("bench", 8);
    let resp = eng.execute(&q).unwrap();
    codec.bench_function("format+parse", |b| {
        b.iter(|| {
            let s = protocol::format_response(std::hint::black_box(&resp)).unwrap();
            protocol::parse_response(&s).unwrap()
        })
    });
    codec.bench_function("parse_request", |b| {
        let wire = protocol::query_to_wire(&q).unwrap();
        b.iter(|| protocol::parse_request(std::hint::black_box(&wire)).unwrap())
    });
    codec.finish();
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
