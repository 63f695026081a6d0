//! End-to-end `BiGreedy` / `BiGreedy+` — the multi-dimensional solvers
//! behind Figures 5–9 — plus one cold `BiGreedy` solve at the serving
//! benchmark's `cold` shape and that solve's score-cache build alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::adaptive::{bigreedy_plus, BiGreedyPlusConfig};
use fairhms_core::bigreedy::{bigreedy, db_max_of, BiGreedyConfig, SampledNet};
use fairhms_core::objective::TruncatedMhrObjective;
use fairhms_core::types::FairHmsInstance;
use fairhms_data::gen::anti_correlated_dataset;
use fairhms_data::skyline::group_skyline_indices;
use fairhms_matroid::proportional_bounds;

fn instance(n: usize, d: usize, k: usize) -> FairHmsInstance {
    let mut rng = StdRng::seed_from_u64(6);
    let data = anti_correlated_dataset(n, d, 3, &mut rng);
    let input = data.subset(&group_skyline_indices(&data));
    let (l, h) = proportional_bounds(&input.group_sizes(), k, 0.1);
    FairHmsInstance::new(input, k, l, h).unwrap()
}

fn bench_bigreedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigreedy");
    group.sample_size(10);
    let k = 10;
    for (n, d) in [(500usize, 4usize), (1_000, 6)] {
        let inst = instance(n, d, k);
        group.bench_with_input(
            BenchmarkId::new("bigreedy", format!("n{n}_d{d}")),
            &inst,
            |b, inst| b.iter(|| bigreedy(inst, &BiGreedyConfig::paper_default(k, d)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("bigreedy_plus", format!("n{n}_d{d}")),
            &inst,
            |b, inst| {
                b.iter(|| bigreedy_plus(inst, &BiGreedyPlusConfig::paper_default(k, d)).unwrap())
            },
        );
    }
    // The serving benchmark's `cold` query shape: the group skyline of
    // 20 000 anti-correlated rows (about 9 700 rows), k = 10, m = 400.
    let (n, d) = (20_000, 4);
    let inst = instance(n, d, k);
    group.bench_with_input(
        BenchmarkId::new(
            "bigreedy_cold",
            format!("n{n}_d{d}_sky{}", inst.data().len()),
        ),
        &inst,
        |b, inst| b.iter(|| bigreedy(inst, &BiGreedyConfig::paper_default(k, d)).unwrap()),
    );
    // The same solve's n × m score-cache build alone.
    let config = BiGreedyConfig::paper_default(k, d);
    let net = SampledNet::generate(d, config.resolve_m(d), config.seed);
    let db_max = db_max_of(inst.data(), &net.vectors);
    group.bench_function(
        BenchmarkId::new(
            "objective_build",
            format!("sky{}_m{}", inst.data().len(), net.m),
        ),
        // Each dropped objective hands its buffer to the next, as in
        // serving.
        |b| b.iter(|| TruncatedMhrObjective::new(inst.data(), &net.vectors, &db_max, 1.0)),
    );
    group.finish();
}

criterion_group!(benches, bench_bigreedy);
criterion_main!(benches);
