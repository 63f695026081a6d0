//! Warm-start benchmarks: what the second cache tier actually saves.
//!
//! Three layers, at n = 20 000 / 100 000:
//!
//! * **component level** — the `O(n)` `PreparedBounds` label scan vs. the
//!   `O(C)` warm rebuild from a prepared scan, and δ-net sampling vs.
//!   reuse (an `Arc` clone);
//! * **end-to-end** — cold-solving a *near-miss* query stream (same
//!   `(dataset, k)`, fresh α per iteration, so the solution cache always
//!   misses) on one warm engine vs. a fresh engine per query, whose
//!   empty tier recomputes every component.
//!
//! Numbers feed the "Warm-start tier" table in docs/ARCHITECTURE.md.

use std::cell::Cell;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::SampledNet;
use fairhms_data::{gen, Dataset};
use fairhms_matroid::{proportional_bounds, PreparedBounds};
use fairhms_service::{Catalog, Query, QueryEngine};

fn bench_dataset(n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(29);
    let d = 3;
    let points = gen::anti_correlated(n, d, &mut rng);
    let groups = gen::groups_by_sum(&points, d, 3);
    Dataset::new("warmbench", d, points, groups, vec![]).unwrap()
}

fn bench_warmstart(c: &mut Criterion) {
    // Component level: the O(n) scan the tier amortizes, vs. the O(C)
    // per-query rebuild it leaves behind.
    for n in [20_000usize, 100_000] {
        let data = Arc::new(bench_dataset(n));
        let k = 10;
        let (lower, upper) = proportional_bounds(&data.group_sizes(), k, 0.1);
        let mut group = c.benchmark_group(format!("warm_components_n{n}"));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function("bounds_scan_cold", |b| {
            b.iter(|| {
                PreparedBounds::new(
                    std::hint::black_box(data.shared_groups()),
                    data.num_groups(),
                )
                .unwrap()
            })
        });
        let prepared = PreparedBounds::new(data.shared_groups(), data.num_groups()).unwrap();
        group.bench_function("bounds_rebuild_warm", |b| {
            b.iter(|| {
                std::hint::black_box(&prepared)
                    .matroid(lower.clone(), upper.clone(), k)
                    .unwrap()
            })
        });
        group.finish();
    }

    // δ-net sampling at the paper's m = 10·k·d (k = 10, d = 3): the cost
    // a warm hit skips entirely (reuse is an Arc clone).
    let mut nets = c.benchmark_group("warm_net");
    let (d, m) = (3usize, 10 * 10 * 3);
    nets.bench_function(BenchmarkId::new("sample_cold", m), |b| {
        let seed = Cell::new(0u64);
        b.iter(|| SampledNet::generate(d, m, seed.replace(seed.get() + 1)))
    });
    let cached = Arc::new(SampledNet::generate(d, m, 42));
    nets.bench_function(BenchmarkId::new("reuse_warm", m), |b| {
        b.iter(|| Arc::clone(std::hint::black_box(&cached)))
    });
    nets.finish();

    // The engine's full per-query setup (everything `solve_cold` does
    // before the solver runs): bounds scan + instance build + δ-net,
    // cold vs. reusing warm state. This is the per-query cost the tier
    // eliminates — the successor of PR 2's prepared-data hand-off
    // measurement (whose remaining O(n) was exactly this scan).
    for n in [20_000usize, 100_000] {
        let data = Arc::new(bench_dataset(n));
        let k = 10;
        let (lower, upper) = proportional_bounds(&data.group_sizes(), k, 0.1);
        let (d, m) = (data.dim(), 10 * k * data.dim());
        let mut group = c.benchmark_group(format!("warm_query_setup_n{n}"));
        group.throughput(Throughput::Elements(1));
        group.bench_function("cold", |b| {
            b.iter(|| {
                let pb = PreparedBounds::new(data.shared_groups(), data.num_groups()).unwrap();
                let inst = fairhms_core::types::FairHmsInstance::with_bounds(
                    Arc::clone(std::hint::black_box(&data)),
                    k,
                    lower.clone(),
                    upper.clone(),
                    &pb,
                )
                .unwrap();
                (inst, SampledNet::generate(d, m, 42))
            })
        });
        let warm_pb =
            Arc::new(PreparedBounds::new(data.shared_groups(), data.num_groups()).unwrap());
        let warm_net = Arc::new(SampledNet::generate(d, m, 42));
        group.bench_function("warm", |b| {
            b.iter(|| {
                let inst = fairhms_core::types::FairHmsInstance::with_bounds(
                    Arc::clone(std::hint::black_box(&data)),
                    k,
                    lower.clone(),
                    upper.clone(),
                    &warm_pb,
                )
                .unwrap();
                (inst, Arc::clone(&warm_net))
            })
        });
        group.finish();
    }

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
        // steady-state near-misses, not the first-touch scan.
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
