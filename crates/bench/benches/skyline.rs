//! Skyline computation — the preprocessing step of every experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_data::gen::{anti_correlated, anti_correlated_dataset, uniform};
use fairhms_data::skyline::{group_skyline_indices, skyline_of};

fn bench_skyline(c: &mut Criterion) {
    let mut group = c.benchmark_group("skyline");
    for (name, d, n) in [
        ("anticor_2d", 2usize, 10_000usize),
        ("anticor_6d", 6, 5_000),
        ("uniform_4d", 4, 10_000),
    ] {
        let mut rng = StdRng::seed_from_u64(3);
        let pts = if name.starts_with("anticor") {
            anti_correlated(n, d, &mut rng)
        } else {
            uniform(n, d, &mut rng)
        };
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &pts, |b, pts| {
            b.iter(|| skyline_of(std::hint::black_box(pts), d))
        });
    }

    // Two distinct, mutually incomparable points repeated: every row is
    // on the skyline and every row has thousands of exact duplicates.
    let n = 30_000;
    let dup: Vec<f64> = (0..n)
        .flat_map(|i| {
            if i % 2 == 0 {
                [0.9, 0.1, 0.5, 0.5]
            } else {
                [0.1, 0.9, 0.5, 0.5]
            }
        })
        .collect();
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("duplicates_4d_30k"),
        &dup,
        |b, pts| b.iter(|| skyline_of(std::hint::black_box(pts), 4)),
    );

    // The catalog's registration shape at the largest benchmark size:
    // the union of per-group skylines of a normalized 200k dataset.
    let n = 200_000;
    let data = anti_correlated_dataset(n, 4, 3, &mut StdRng::seed_from_u64(9901));
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("group_anticor_4d_c3_200k"),
        &data,
        |b, data| b.iter(|| group_skyline_indices(std::hint::black_box(data))),
    );
    group.finish();
}

criterion_group!(benches, bench_skyline);
criterion_main!(benches);
