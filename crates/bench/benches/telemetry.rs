//! Telemetry overhead measurement + service throughput snapshot.
//!
//! Not a criterion bench: a plain harness that
//!
//! 1. measures the **warm-hit** path (the hottest request path — a
//!    solution-cache hit) with telemetry enabled vs. disabled and
//!    asserts the per-query overhead stays under 1 µs (the budget
//!    docs/ARCHITECTURE.md promises);
//! 2. runs a mixed workload on a telemetry-on engine and writes
//!    `BENCH_service.json` — queries/sec, points/sec, and the per-stage
//!    latency quantiles from the engine's own [`MetricsSnapshot`] — so
//!    CI archives a machine-readable service profile per commit.
//!
//! Output path: `BENCH_service.json` in the working directory, or
//! `$FAIRHMS_BENCH_JSON` when set. `cargo bench -p fairhms-bench
//! --bench telemetry` runs it; CI treats a failed overhead assertion as
//! a regression.

#![allow(clippy::disallowed_methods)] // benchmarks measure wall time by design (R5 governs the serving stack, not the harness)
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::bigreedy::{bigreedy, db_max_of, BiGreedyConfig};
use fairhms_core::types::FairHmsInstance;
use fairhms_core::SampledNet;
use fairhms_data::skyline::group_skyline_indices;
use fairhms_data::{gen, Dataset};
use fairhms_geometry::vecmath::max_utility;
use fairhms_matroid::proportional_bounds;
use fairhms_obs::json;
use fairhms_service::{
    Catalog, Query, QueryEngine, Server, ServerConfig, TelemetryConfig, WarmConfig, WireClient,
};

const DATASET_N: usize = 2_000;

fn bench_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(41);
    let d = 3;
    let points = gen::anti_correlated(DATASET_N, d, &mut rng);
    let groups = gen::groups_by_sum(&points, d, 3);
    Dataset::new("telbench", d, points, groups, vec![]).unwrap()
}

fn engine(telemetry: bool) -> Arc<QueryEngine> {
    let catalog = Arc::new(Catalog::new());
    let eng = Arc::new(QueryEngine::with_config(
        Arc::clone(&catalog),
        4096,
        WarmConfig { capacity: 256 },
        TelemetryConfig { enabled: telemetry },
    ));
    catalog.insert_dataset(bench_dataset()).unwrap();
    eng
}

/// Mean nanoseconds per warm-hit execute over `iters` iterations.
fn warm_hit_ns(eng: &QueryEngine, iters: u64) -> f64 {
    let q = Query::new("telbench", 5);
    eng.execute(&q).unwrap(); // populate the cache
    let t = Instant::now();
    for _ in 0..iters {
        let r = eng.execute(std::hint::black_box(&q)).unwrap();
        assert!(r.cached);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Warm-hit telemetry overhead: median-of-5 interleaved (on, off)
/// rounds, so slow-machine noise and frequency scaling hit both sides.
fn measure_overhead() -> (f64, f64, f64) {
    const ITERS: u64 = 50_000;
    let on = engine(true);
    let off = engine(false);
    // Warm-up round for both engines (page in code, settle the cache).
    warm_hit_ns(&on, 5_000);
    warm_hit_ns(&off, 5_000);
    let mut on_ns = Vec::new();
    let mut off_ns = Vec::new();
    for _ in 0..5 {
        on_ns.push(warm_hit_ns(&on, ITERS));
        off_ns.push(warm_hit_ns(&off, ITERS));
    }
    on_ns.sort_by(f64::total_cmp);
    off_ns.sort_by(f64::total_cmp);
    let (on_med, off_med) = (on_ns[2], off_ns[2]);
    (on_med, off_med, (on_med - off_med).max(0.0))
}

/// Mixed workload (cold solves, cache hits, two algorithm families) on a
/// telemetry-on engine; returns (queries, elapsed_secs, engine).
fn run_workload() -> (u64, f64, Arc<QueryEngine>) {
    let eng = engine(true);
    let mut queries = 0u64;
    let t = Instant::now();
    for round in 0..3u64 {
        for k in [3usize, 4, 5, 6] {
            for alg in ["bigreedy", "f-greedy"] {
                let mut q = Query::new("telbench", k);
                q.alg = alg.to_string();
                q.seed = round; // rounds repeat a seed → cache hits
                eng.execute(&q).unwrap();
                queries += 1;
            }
        }
    }
    (queries, t.elapsed().as_secs_f64(), eng)
}

const SOLVER_N: usize = 20_000;
const SOLVER_D: usize = 4;
const SOLVER_K: usize = 8;
/// `k` of the skyline-form leg; `paper_default` gives it `m = 400`.
const SOLVER_K_SKY: usize = 10;

/// Solver-side measurement for the `solver` section of
/// `BENCH_service.json`.
struct SolverProfile {
    db_max_ms_scalar: f64,
    db_max_ms_blocked: f64,
    /// Utility evaluations (row dot products) per second through the
    /// db_max pass, scalar oracle and blocked kernels.
    evals_per_sec_scalar: f64,
    evals_per_sec_blocked: f64,
    net_size: u64,
    /// A cold full-table BiGreedy solve (k = 8); see [`median_solve_ms`].
    bigreedy_cold_ms: f64,
    /// A cold BiGreedy solve over the group skyline of the same dataset
    /// at k = 10, m = 400 — the serving benchmark's `cold` query shape.
    bigreedy_cold_ms_sky: f64,
    sky_points: u64,
}

/// Solver-side kernel measurement: the cold `m × n` db_max pass at
/// n = 20k through the scalar oracle (`vecmath::max_utility` mapped over
/// the net) and through the blocked SoA kernels, asserting bit-identical
/// maxima, plus a cold BiGreedy solve in each prepared form.
fn solver_kernels() -> SolverProfile {
    let mut rng = StdRng::seed_from_u64(63);
    let data = gen::anti_correlated_dataset(SOLVER_N, SOLVER_D, 3, &mut rng);
    let sky = data.subset(&group_skyline_indices(&data));
    let cfg = BiGreedyConfig::paper_default(SOLVER_K, SOLVER_D);
    let m = cfg.resolve_m(SOLVER_D);
    let net = SampledNet::generate(SOLVER_D, m, cfg.seed);
    let (l, h) = proportional_bounds(&data.group_sizes(), SOLVER_K, 0.1);
    let inst = FairHmsInstance::new(data, SOLVER_K, l, h).unwrap();
    let data = inst.data();

    let evals = (m * SOLVER_N) as f64;
    let t = Instant::now();
    let scalar: Vec<f64> = net
        .vectors
        .iter()
        .map(|u| max_utility(data.points_flat(), SOLVER_D, u))
        .collect();
    let scalar_secs = t.elapsed().as_secs_f64();
    // Build the SoA view outside the clock: it is constructed once per
    // prepared dataset, not per query — the pass being measured is the
    // per-(net, dataset) extreme-value scan.
    data.soa();
    let t = Instant::now();
    let blocked = db_max_of(data, &net.vectors);
    let blocked_secs = t.elapsed().as_secs_f64();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&scalar),
        bits(&blocked),
        "scalar and blocked db_max diverged"
    );

    let bigreedy_cold_ms = median_solve_ms(&inst, &cfg);

    let sky_points = sky.len() as u64;
    let (l, h) = proportional_bounds(&sky.group_sizes(), SOLVER_K_SKY, 0.1);
    let sky_inst = FairHmsInstance::new(sky, SOLVER_K_SKY, l, h).unwrap();
    sky_inst.data().soa();
    let sky_cfg = BiGreedyConfig::paper_default(SOLVER_K_SKY, SOLVER_D);
    let bigreedy_cold_ms_sky = median_solve_ms(&sky_inst, &sky_cfg);

    SolverProfile {
        db_max_ms_scalar: scalar_secs * 1e3,
        db_max_ms_blocked: blocked_secs * 1e3,
        evals_per_sec_scalar: evals / scalar_secs,
        evals_per_sec_blocked: evals / blocked_secs,
        net_size: m as u64,
        bigreedy_cold_ms,
        bigreedy_cold_ms_sky,
        sky_points,
    }
}

/// Timed cold BiGreedy solves per reported figure, after one untimed
/// warm-up solve. A single solve spreads by about 40 % run to run, which
/// hides any smaller solver change.
const COLD_SOLVES: usize = 5;

/// The median wall time of [`COLD_SOLVES`] BiGreedy solves of `inst`, in
/// ms. Every solve starts from scratch (nothing is cached between them).
fn median_solve_ms(inst: &FairHmsInstance, cfg: &BiGreedyConfig) -> f64 {
    std::hint::black_box(bigreedy(inst, cfg).unwrap());
    let mut ms: Vec<f64> = (0..COLD_SOLVES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(bigreedy(inst, cfg).unwrap());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[COLD_SOLVES / 2]
}

/// Mutation-path measurement for the `mutation` section of
/// `BENCH_service.json`: incremental APPEND/DELETE latency, the
/// delta-invalidation fan-out over a populated solution cache (entries
/// dropped by a dominated append vs. a skyline-changing one), and the
/// from-scratch re-preparation cost the incremental path avoids.
struct MutationProfile {
    append_us: f64,
    delete_us: f64,
    cached_before: u64,
    dropped_dominated: u64,
    dropped_sky_change: u64,
    full_reprep_ms: f64,
}

fn mutation_profile() -> MutationProfile {
    let eng = engine(true);

    // Populate the solution cache across both query forms (skyline and
    // full-table) and two algorithm families, so the invalidation sweep
    // has a realistic mixed population to walk.
    let populate = |eng: &QueryEngine| -> u64 {
        let mut cached = 0u64;
        for k in [3usize, 4, 5] {
            for alg in ["bigreedy", "f-greedy"] {
                for skyline in [true, false] {
                    let mut q = Query::new("telbench", k);
                    q.alg = alg.to_string();
                    q.skyline = skyline;
                    if eng.execute(&q).is_ok() {
                        cached += 1;
                    }
                }
            }
        }
        cached
    };
    let cached_before = populate(&eng);

    // Dominated append: every per-group skyline is provably unchanged,
    // so only full-table entries for the touched group's digest drop.
    let rep = eng.append_row("telbench", &[0.0, 0.0, 0.0], 0).unwrap();
    assert!(!rep.sky_changed && !rep.rebuilt);
    let dropped_dominated = rep.cache_dropped;

    // Skyline-changing append: (1,1,1) dominates the whole dataset, so
    // both query forms drop.
    populate(&eng);
    let rep = eng.append_row("telbench", &[1.0, 1.0, 1.0], 0).unwrap();
    assert!(rep.sky_changed);
    let dropped_sky_change = rep.cache_dropped;
    let mut rows = rep.rows;

    // Incremental latency: dominated appends and tail deletes exercise
    // the cheapest repair path (skyline test + derived-state rebuild).
    const REPS: usize = 32;
    let t = Instant::now();
    for _ in 0..REPS {
        rows = eng
            .append_row("telbench", &[0.0, 0.0, 0.0], 1)
            .unwrap()
            .rows;
    }
    let append_us = t.elapsed().as_micros() as f64 / REPS as f64;
    let t = Instant::now();
    for _ in 0..REPS {
        rows = eng.delete_row("telbench", rows - 1).unwrap().rows;
    }
    let delete_us = t.elapsed().as_micros() as f64 / REPS as f64;

    // The alternative the incremental path replaces: a from-scratch
    // re-preparation of the mutated dataset (normalize + group partition
    // + group-skyline index).
    let live = eng.catalog().get("telbench").unwrap();
    let data = Dataset::new(
        "reprep",
        live.dataset.dim(),
        live.dataset.points_flat().to_vec(),
        live.dataset.groups().to_vec(),
        live.dataset.group_names().to_vec(),
    )
    .unwrap();
    let t = Instant::now();
    let fresh = fairhms_service::PreparedDataset::prepare("reprep", data).unwrap();
    let full_reprep_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fresh.skyline_rows.len(), live.skyline_rows.len());

    MutationProfile {
        append_us,
        delete_us,
        cached_before,
        dropped_dominated,
        dropped_sky_change,
        full_reprep_ms,
    }
}

/// Deletes of group-skyline members on the `cold`-sized dataset (n = 20k,
/// d = 4, C = 3), mean milliseconds per delete. Each one makes the
/// catalog recompute the member's whole group skyline from the group's
/// remaining rows — the expensive delete repair, where `delete_us` times
/// only dominated tail deletes. Members with an exact-1.0 coordinate are
/// skipped: removing one may force a full re-preparation instead.
fn skyline_delete_ms() -> f64 {
    let mut rng = StdRng::seed_from_u64(63);
    let data = gen::anti_correlated_dataset(SOLVER_N, SOLVER_D, 3, &mut rng);
    let catalog = Catalog::new();
    let mut prep = catalog.insert_named("skydel", data).unwrap();
    const REPS: usize = 4;
    let mut total = 0.0;
    for _ in 0..REPS {
        let row = *prep
            .skyline_rows
            .iter()
            .find(|&&r| prep.dataset.point(r).iter().all(|&v| v < 1.0))
            .expect("a skyline member without an exact-1.0 coordinate");
        let t = Instant::now();
        let out = catalog.delete_row("skydel", row).unwrap();
        total += t.elapsed().as_secs_f64() * 1e3;
        assert!(out.sky_changed && !out.rebuilt);
        prep = out.prep;
    }
    total / REPS as f64
}

/// OS threads in this process (`/proc/self/status`; 0 where unavailable).
fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:")?.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Idle-connection fan-out on the event front end: opens `connections`
/// pinged-idle clients against a live server and reports
/// `(threads_grown, ping_us_under_fanout)` — how many OS threads the
/// fan-out cost (the loop + worker pool only; idle sockets are poll-set
/// entries) and the PING round-trip latency through the loaded poll set.
fn idle_fanout(connections: usize) -> (u64, f64) {
    let before = thread_count();
    let server = Server::spawn(
        Arc::new(QueryEngine::new(Arc::new(Catalog::new()), 16)),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
        },
    )
    .expect("spawn server");
    let mut idle = Vec::with_capacity(connections);
    for _ in 0..connections {
        let mut c = WireClient::connect(server.addr()).expect("connect");
        c.send_line("PING").unwrap();
        c.recv().unwrap();
        idle.push(c);
    }
    let grown = thread_count().saturating_sub(before);

    const ITERS: u32 = 2_000;
    let mut probe = WireClient::connect(server.addr()).unwrap();
    for _ in 0..200 {
        probe.send_line("PING").unwrap();
        probe.recv().unwrap();
    }
    let t = Instant::now();
    for _ in 0..ITERS {
        probe.send_line("PING").unwrap();
        probe.recv().unwrap();
    }
    let ping_us = t.elapsed().as_micros() as f64 / ITERS as f64;
    drop(idle);
    server.shutdown();
    (grown, ping_us)
}

fn main() {
    let (on_ns, off_ns, overhead_ns) = measure_overhead();
    println!(
        "warm-hit: telemetry on {on_ns:.0} ns/op, off {off_ns:.0} ns/op, \
         overhead {overhead_ns:.0} ns/op"
    );
    assert!(
        overhead_ns < 1_000.0,
        "warm-hit telemetry overhead {overhead_ns:.0} ns exceeds the 1 µs budget"
    );

    let (queries, secs, eng) = run_workload();
    let qps = queries as f64 / secs;
    let pps = qps * DATASET_N as f64;
    println!("workload: {queries} queries in {secs:.3}s ({qps:.0} q/s)");

    const FANOUT_CONNS: usize = 500;
    let (threads_grown, ping_us) = idle_fanout(FANOUT_CONNS);
    println!(
        "idle fan-out: {FANOUT_CONNS} idle connections cost {threads_grown} threads, \
         ping {ping_us:.1} µs under load"
    );

    let sp = solver_kernels();
    println!(
        "solver kernels (n={SOLVER_N}, d={SOLVER_D}, m={}): db_max {:.2} ms scalar vs {:.2} ms \
         blocked; cold bigreedy (median of {COLD_SOLVES}) {:.0} ms full, {:.0} ms group skyline \
         (n={}, k={SOLVER_K_SKY})",
        sp.net_size,
        sp.db_max_ms_scalar,
        sp.db_max_ms_blocked,
        sp.bigreedy_cold_ms,
        sp.bigreedy_cold_ms_sky,
        sp.sky_points
    );

    let mp = mutation_profile();
    let sky_delete_ms = skyline_delete_ms();
    println!(
        "mutation: append {:.1} µs, delete {:.1} µs; invalidation fan-out \
         {}/{} entries (dominated) vs {}/{} (sky change); full re-prep {:.2} ms",
        mp.append_us,
        mp.delete_us,
        mp.dropped_dominated,
        mp.cached_before,
        mp.dropped_sky_change,
        mp.cached_before,
        mp.full_reprep_ms
    );
    println!("mutation: skyline-member delete at n = {SOLVER_N}: {sky_delete_ms:.2} ms");

    let snapshot = eng.metrics().snapshot();
    let out = json::Obj::new()
        .str("bench", "service")
        .u64("dataset_points", DATASET_N as u64)
        .u64("queries", queries)
        .f64("elapsed_secs", secs)
        .f64("queries_per_sec", qps)
        .f64("points_per_sec", pps)
        .f64("warm_hit_ns_telemetry_on", on_ns)
        .f64("warm_hit_ns_telemetry_off", off_ns)
        .f64("warm_hit_overhead_ns", overhead_ns)
        .raw(
            "idle_fanout",
            &json::Obj::new()
                .u64("connections", FANOUT_CONNS as u64)
                .u64("threads_grown", threads_grown)
                .f64("ping_us_under_fanout", ping_us)
                .build(),
        )
        .raw(
            "solver",
            &json::Obj::new()
                .u64("dataset_points", SOLVER_N as u64)
                .u64("dim", SOLVER_D as u64)
                .u64("net_size", sp.net_size)
                .f64("db_max_ms_scalar", sp.db_max_ms_scalar)
                .f64("db_max_ms_blocked", sp.db_max_ms_blocked)
                .f64("points_per_sec_scalar", sp.evals_per_sec_scalar)
                .f64("points_per_sec", sp.evals_per_sec_blocked)
                .f64("bigreedy_cold_ms", sp.bigreedy_cold_ms)
                .u64("sky_points", sp.sky_points)
                .f64("bigreedy_cold_ms_sky", sp.bigreedy_cold_ms_sky)
                .build(),
        )
        .raw(
            "mutation",
            &json::Obj::new()
                .u64("dataset_points", DATASET_N as u64)
                .f64("append_us", mp.append_us)
                .f64("delete_us", mp.delete_us)
                .u64("cached_entries_before", mp.cached_before)
                .u64("dropped_by_dominated_append", mp.dropped_dominated)
                .u64("dropped_by_skyline_append", mp.dropped_sky_change)
                .f64("full_reprep_ms", mp.full_reprep_ms)
                .u64("skyline_delete_dataset_points", SOLVER_N as u64)
                .f64("skyline_delete_ms", sky_delete_ms)
                .build(),
        )
        .raw("metrics", &snapshot.to_json())
        .build();

    let path = std::env::var("FAIRHMS_BENCH_JSON").unwrap_or_else(|_| "BENCH_service.json".into());
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}
