//! Warm-start benchmark: what the second cache tier saves end to end.
//!
//! At n = 20 000 / 100 000, cold-solves a *near-miss* BiGreedy query
//! stream (same `(dataset, k, seed)`, fresh α per iteration, so the
//! solution cache always misses) on one warm engine, whose tier hands
//! every solve its cached `db_max` vector and τ-probe log, vs. a fresh
//! engine per query, whose empty tier recomputes the vector and runs every
//! probe. Two warm streams:
//! - `warmstart_on`: α stays within a hair of the recorded solve's, so the
//!   bounds and every probe's feasibility agree and each probe is
//!   replayed;
//! - `warmstart_partial`: α alternates between 0.1 and 0.15, whose bounds
//!   differ, so each solve replays only the probes whose feasibility
//!   agrees with the previous solve's and runs the rest. The bench checks
//!   that before it times anything.
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

/// `(warm.probes_replayed, warm.probes_run)` of `eng` so far.
fn probe_counters(eng: &QueryEngine) -> (u64, u64) {
    let counters = eng.metrics().counters();
    let get = |name: &str| {
        counters
            .iter()
            .find_map(|(n, v)| (n == name).then_some(*v))
            .unwrap_or(0)
    };
    (get("warm.probes_replayed"), get("warm.probes_run"))
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
        // A fresh, never-repeating α near `base`: always a cold solve.
        let near_miss = |base: f64| {
            let mut q = Query::new("warmbench", 10);
            q.alpha = base + 1e-9 * tick.replace(tick.get() + 1) as f64;
            q
        };
        group.bench_function("warmstart_on", |b| {
            b.iter(|| eng.execute(std::hint::black_box(&near_miss(0.1))).unwrap())
        });

        // The partial stream alternates two α whose bounds differ. Check
        // once that such a solve replays some probes and runs others, so
        // the timing below measures the path it names.
        let flip = Cell::new(false);
        let partial = || near_miss(if flip.replace(!flip.get()) { 0.1 } else { 0.15 });
        eng.execute(&partial()).unwrap();
        let before = probe_counters(&eng);
        eng.execute(&partial()).unwrap();
        let after = probe_counters(&eng);
        let (replayed, run) = (after.0 - before.0, after.1 - before.1);
        assert!(
            replayed > 0 && run > 0,
            "n = {n}: the partial near-miss replayed {replayed} probes and ran {run}"
        );
        group.bench_function("warmstart_partial", |b| {
            b.iter(|| eng.execute(std::hint::black_box(&partial())).unwrap())
        });
        group.bench_function("fresh_engine", |b| {
            b.iter(|| {
                QueryEngine::new(Arc::clone(&catalog), 4096)
                    .execute(std::hint::black_box(&near_miss(0.1)))
                    .unwrap()
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_warmstart);
criterion_main!(benches);
