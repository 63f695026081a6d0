//! Warm-start benchmark: what the second cache tier saves end to end.
//!
//! At n = 20 000 / 100 000, cold-solves a *near-miss* BiGreedy query
//! stream (same `(dataset, k, seed)`, fresh α per iteration, so the
//! solution cache always misses) on one warm engine, whose tier hands
//! every solve its cached `db_max` vector, vs. a fresh engine per query,
//! whose empty tier recomputes it.
//!
//! Numbers feed the "Warm-start tier" table in docs/ARCHITECTURE.md.

use std::cell::Cell;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_data::{gen, Dataset};
use fairhms_service::{Catalog, Query, QueryEngine};

fn bench_dataset(n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(29);
    let d = 3;
    let points = gen::anti_correlated(n, d, &mut rng);
    let groups = gen::groups_by_sum(&points, d, 3);
    Dataset::new("warmbench", d, points, groups, vec![]).unwrap()
}

fn bench_warmstart(c: &mut Criterion) {
    // End-to-end: a near-miss query stream (fresh α each iteration →
    // solution-cache miss, warm-key hit) on one warm engine vs. a fresh
    // engine per query over the same prepared catalog.
    for n in [20_000usize, 100_000] {
        let mut group = c.benchmark_group(format!("warm_near_miss_solve_n{n}"));
        group.sample_size(10);
        let catalog = Arc::new(Catalog::new());
        catalog.insert_dataset(bench_dataset(n)).unwrap();
        let eng = QueryEngine::new(Arc::clone(&catalog), 4096);
        // Populate the warm entry once so the measured iterations are
        // steady-state near-misses, not the first-touch `db_max` pass.
        eng.execute(&Query::new("warmbench", 10)).unwrap();
        let tick = Cell::new(0u64);
        let near_miss = || {
            let mut q = Query::new("warmbench", 10);
            // A fresh, never-repeating α: always a cold solve.
            q.alpha = 0.1 + 1e-9 * tick.replace(tick.get() + 1) as f64;
            q
        };
        group.bench_function("warmstart_on", |b| {
            b.iter(|| eng.execute(std::hint::black_box(&near_miss())).unwrap())
        });
        group.bench_function("fresh_engine", |b| {
            b.iter(|| {
                QueryEngine::new(Arc::clone(&catalog), 4096)
                    .execute(std::hint::black_box(&near_miss()))
                    .unwrap()
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_warmstart);
criterion_main!(benches);
