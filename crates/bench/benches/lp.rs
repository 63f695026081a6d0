//! Regret-LP solve times — the unit cost of exact evaluation, RDP-Greedy,
//! and F-Greedy — and one whole F-Greedy solve.
//!
//! The paper attributes F-Greedy's slowness to one LP per candidate per
//! pick. The shared lazy loop behind F-Greedy and RDP-Greedy solves a
//! candidate's LP only while its upper bound (an earlier LP value, lowered
//! after each pick to the closed-form regret against the picked point)
//! comes within a 1e-9 margin of the pick's best fresh value. The
//! `f_greedy` group times that loop at the serving benchmark's pool shape:
//! the 51 760-row group skyline of 200k anti-correlated rows, d = 4,
//! C = 3, k = 8, α = 0.1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::adapt::f_greedy;
use fairhms_core::types::FairHmsInstance;
use fairhms_data::gen::{anti_correlated, anti_correlated_dataset};
use fairhms_data::skyline::group_skyline_indices;
use fairhms_lp::hms::point_regret;
use fairhms_matroid::proportional_bounds;

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("regret_lp");
    for (d, s) in [(2usize, 5usize), (4, 10), (6, 20), (8, 40)] {
        let mut rng = StdRng::seed_from_u64(2);
        let sel = anti_correlated(s, d, &mut rng);
        let p = anti_correlated(1, d, &mut rng);
        group.bench_with_input(
            BenchmarkId::new(format!("d{d}"), format!("S{s}")),
            &(sel, p),
            |b, (sel, p)| {
                b.iter(|| point_regret(d, std::hint::black_box(sel), std::hint::black_box(p)))
            },
        );
    }
    group.finish();
}

fn bench_f_greedy(c: &mut Criterion) {
    let (n, k) = (200_000, 8);
    let mut rng = StdRng::seed_from_u64(9901);
    let full = anti_correlated_dataset(n, 4, 3, &mut rng);
    let sky = full.subset(&group_skyline_indices(&full));
    let (l, h) = proportional_bounds(&sky.group_sizes(), k, 0.1);
    let inst = FairHmsInstance::new(sky, k, l, h).expect("valid proportional bounds");
    let mut group = c.benchmark_group("f_greedy");
    group.bench_with_input(
        BenchmarkId::new("sky_n200k_d4", format!("k{k}")),
        &inst,
        |b, inst| b.iter(|| f_greedy(std::hint::black_box(inst))),
    );
    group.finish();
}

criterion_group!(benches, bench_lp, bench_f_greedy);
criterion_main!(benches);
