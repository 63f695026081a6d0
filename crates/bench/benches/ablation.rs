//! Ablation benches for the design choices documented in the
//! `fairhms_core::bigreedy` and `fairhms_core::streaming` module docs:
//! binary vs linear τ search, and streaming vs offline selection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::bigreedy::{bigreedy, BiGreedyConfig, TauSearch};
use fairhms_core::streaming::{streaming_fairhms, StreamingFairHmsConfig};
use fairhms_core::types::FairHmsInstance;
use fairhms_data::gen::anti_correlated_dataset;
use fairhms_data::skyline::group_skyline_indices;
use fairhms_matroid::proportional_bounds;

fn instance(n: usize, d: usize, k: usize) -> FairHmsInstance {
    let mut rng = StdRng::seed_from_u64(17);
    let data = anti_correlated_dataset(n, d, 3, &mut rng);
    let input = data.subset(&group_skyline_indices(&data));
    let (l, h) = proportional_bounds(&input.group_sizes(), k, 0.1);
    FairHmsInstance::new(input, k, l, h).unwrap()
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    let k = 10;
    let inst = instance(800, 4, k);

    // Deviation #1: τ binary search vs the paper's literal linear sweep.
    for (name, search) in [
        ("tau_binary", TauSearch::Binary),
        ("tau_linear", TauSearch::Linear),
    ] {
        let cfg = BiGreedyConfig {
            tau_search: search,
            ..BiGreedyConfig::paper_default(k, 4)
        };
        group.bench_with_input(BenchmarkId::new(name, "n800_d4"), &inst, |b, inst| {
            b.iter(|| bigreedy(inst, &cfg).unwrap())
        });
    }

    // Streaming (one pass + aggregates) vs offline BiGreedy.
    group.bench_with_input(
        BenchmarkId::new("streaming", "n800_d4"),
        &inst,
        |b, inst| b.iter(|| streaming_fairhms(inst, &StreamingFairHmsConfig::default()).unwrap()),
    );
    group.bench_with_input(BenchmarkId::new("offline", "n800_d4"), &inst, |b, inst| {
        b.iter(|| bigreedy(inst, &BiGreedyConfig::paper_default(k, 4)).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
