//! End-to-end and per-layer benchmark of a live `fairhms serve`.
//!
//! ```text
//! fairhms-perfbench --workload cold|churn --seed N --seconds S --trace 0|1 \
//!     --server PATH [--out-dir DIR]
//! ```
//!
//! Generates the workload's CSVs from the seed into a scratch `--load-root`,
//! starts the server on an ephemeral port, sets it up several times, runs a
//! closed-loop window of `S` seconds in phases and checks every answer.
//! Wall-clock timings are counted in steal-free time (see `Steal`). `--trace 0`
//! prints the end-to-end metrics; `--trace 1` additionally replays the
//! workload in process with spans around each layer's public calls and
//! prints the per-layer metrics. The last stdout line is one JSON object.

mod replay;
mod stats;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fairhms_data::{csv, Dataset};
use fairhms_service::protocol::WireAnswer;
use fairhms_service::CodecKind;

use replay::{Expect, Tracer};
use stats::{mean, median, percentile, Metric, Steal, StealMeter, TAIL_PERCENTILE};
use wire::{Class, Conn, ConnLog, Metrics, Server, Tally, Window};
use workload::{Kind, Workload, DATASET, SETUP_REPEATS, WINDOW_PHASE};

/// A run still going this long after its longest window (one and a half
/// times `--seconds`, see [`CALM_STEAL`]) is stopped and fails: churn's
/// 200k set-ups, probes and traced replay take under a minute, so this
/// leaves twice that for a slow host.
const WATCHDOG_ALLOWANCE: Duration = Duration::from_secs(120);
/// The window runs in phases of this many seconds.
const PHASE_SECS: u64 = 3;
/// A phase is calm when the host stole at most this share of the CPU time
/// of the vCPUs the workload runs on.
///
/// Steal comes in spells from seconds to whole runs, and past a few
/// percent it slows the server by more than its share (see
/// `wire::pin_to_cpu0`). So the window runs `--seconds` of phases, then
/// more phases until half that many are calm or the window has run one
/// and a half times `--seconds`, and the metrics come from the calm
/// phases (or, failing that, from the calmest half of `--seconds`'s
/// worth).
const CALM_STEAL: f64 = 0.05;
/// Requests in the idle-server hit probe.
const HIT_PROBE_REPS: usize = 400;
/// Closed-loop reads replayed in process on churn.
const REPLAY_READS: usize = 2000;
/// Mutation pairs replayed in process.
const REPLAY_MUTATION_PAIRS: u64 = 40;

struct Args {
    workload: Workload,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)
            .ok_or(format!("missing {flag}"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name, num("--seed")?)
        .ok_or(format!("unknown workload {name:?} (cold, churn)"))?;
    Ok(Args {
        workload,
        seconds: num("--seconds")?.max(1),
        trace: num("--trace")? != 0,
        server: PathBuf::from(get("--server").ok_or("missing --server")?),
        out_dir: PathBuf::from(get("--out-dir").unwrap_or(".bench_build/perfbench")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let dir = args.out_dir.join(format!(
        "run-{}-{}-{}",
        w.name(),
        w.seed,
        std::process::id()
    ));
    let watchdog_dir = dir.clone();
    let deadline = WATCHDOG_ALLOWANCE + Duration::from_secs(args.seconds * 3 / 2);
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("perfbench: run exceeded {deadline:?}; stopping");
        wire::kill_server();
        let _ = std::fs::remove_dir_all(&watchdog_dir);
        std::process::exit(3);
    });
    let outcome = std::panic::catch_unwind(|| run(&args, &dir));
    wire::kill_server();
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(Ok((correct, line))) => {
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Ok(Err(e)) => eprintln!("perfbench: {e}"),
        Err(_) => eprintln!("perfbench: panicked"),
    }
    std::process::exit(1);
}

/// One phase of the timed window.
struct Phase {
    logs: Vec<ConnLog>,
    /// Server CPU time over the phase.
    cpu_ms: f64,
    steal: Steal,
}

/// Everything the wire part of a run measured.
struct WireRun {
    data: Dataset,
    /// Each set-up's wall time, with the steal over it.
    setups: Vec<(f64, Steal)>,
    pool_answers: Vec<WireAnswer>,
    phases: Vec<Phase>,
    /// Indices of the phases the metrics come from.
    used: Vec<usize>,
    /// Host steal over the whole window.
    steal: Steal,
    peak_rss_mb: f64,
    metrics: (Metrics, Metrics),
    stats: ([u64; 4], [u64; 4]),
    pings_us: Vec<f64>,
    hit_probe_ms: Vec<f64>,
    hit_line: String,
    tally: Tally,
    window: Tally,
}

impl WireRun {
    fn logs(&self) -> impl Iterator<Item = &ConnLog> {
        self.phases.iter().flat_map(|p| &p.logs)
    }

    fn used(&self) -> impl Iterator<Item = &Phase> {
        self.used.iter().map(|&i| &self.phases[i])
    }
}

/// The phases the metrics come from: every calm phase if at least
/// `need` are calm, else the `need` calmest.
fn used_phases(phases: &[Phase], need: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..phases.len()).collect();
    order.sort_by(|&a, &b| phases[a].steal.share.total_cmp(&phases[b].steal.share));
    let calm = order
        .iter()
        .take_while(|&&i| phases[i].steal.share <= CALM_STEAL)
        .count();
    order.truncate(calm.max(need));
    order.sort_unstable();
    order
}

fn run(args: &Args, dir: &Path) -> Result<(bool, String), String> {
    let w = &args.workload;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let main_csv = dir.join("main.csv");
    w.write_inputs(&main_csv, &dir.join("boot.csv"))
        .map_err(|e| format!("write inputs: {e}"))?;
    let wr = run_wire(args, dir, &main_csv)?;
    let mut tally = Tally::default();
    tally.merge(wr.tally.clone());
    tally.merge(wr.window.clone());
    let cross = cross_check(&wr);
    let e2e = end_to_end(w, &wr);
    print_diagnostics(w, &wr, &e2e);

    let metrics = if args.trace {
        let (layers, replay_tally) = traced(args, &main_csv, &wr)?;
        tally.merge(replay_tally);
        println!(
            "traced-run end-to-end (minus the untraced medians = tracing overhead): {}",
            e2e.iter()
                .map(|m| format!("{}={:.4}{}", m.name, m.value, m.unit))
                .collect::<Vec<_>>()
                .join(" ")
        );
        layers
    } else {
        if w.kind == Kind::Cold {
            // Each connection's first fresh/near-miss pair, solved again
            // in process.
            let requests = cold_replay_requests(w, &wr, workload::CONNS);
            let r = replay::replay(&main_csv, w.n(), &requests, &mut Tracer::new())?;
            tally.merge(r.tally);
        }
        e2e
    };
    tally.check(cross);
    // A metric that could not be measured (no samples, no stage timings)
    // fails the run instead of printing as a perfect 0.
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        tally.check(Err(format!(
            "metric {} was not measured ({})",
            m.name, m.value
        )));
    }
    for note in &tally.notes {
        println!("check failed: {note}");
    }
    let correct = tally.checks_failed == 0 && tally.failed == 0;
    println!(
        "requests: sent={} succeeded={} failed={} (busy={}) checks_failed={} correct={correct}",
        tally.sent, tally.ok, tally.failed, tally.busy, tally.checks_failed
    );
    Ok((
        correct,
        stats::result_line(correct, tally.sent.max(1), tally.failed, &metrics),
    ))
}

fn run_wire(args: &Args, dir: &Path, main_csv: &Path) -> Result<WireRun, String> {
    let w = &args.workload;
    // The dataset exactly as the server parses it, so that group ids and
    // row counts match the server's.
    let data = csv::read_dataset_auto(main_csv, DATASET).map_err(|e| e.to_string())?;
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let pin = w.kind == Kind::Churn;
    let server = Server::spawn(&args.server, &dir.join("boot.csv"), dir, workers, pin)?;
    let mut conns = wire::open_conns(server.addr)?;
    let mut admin = Conn::connect(server.addr, CodecKind::Text)?;
    let pool_lines: Vec<String> = w.pool().iter().map(wire::wire_line).collect();
    // Churn's server and load run on CPU 0 only, so only its steal counts.
    let mut steal = StealMeter::new(pin.then_some(0));

    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut pool: Vec<Option<WireAnswer>> = Vec::new();
    for r in 0..SETUP_REPEATS {
        let (secs, answers) = wire::setup(w, &mut conns, r as u64, &pool_lines, &mut tally)?;
        setups.push((secs, steal.lap()));
        if r > 0 {
            let same = answers.iter().zip(&pool).all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => wire::same_solution(a, b),
                _ => false,
            });
            tally.check(if same {
                Ok(())
            } else {
                Err(format!("set-up {r} pre-warmed different answers"))
            });
        }
        pool = answers;
    }
    let pool_answers: Vec<WireAnswer> = pool
        .into_iter()
        .map(|a| a.ok_or("a pool query went unanswered"))
        .collect::<Result<_, _>>()?;

    let m0 = Metrics::fetch(&mut admin)?;
    let s0 = wire::cache_stats(&mut admin)?;
    steal.lap();
    let mut window_steal = StealMeter::new(pin.then_some(0));
    let pid = server.pid;
    let want = (args.seconds / PHASE_SECS).max(2) as usize;
    let need = want.div_ceil(2);
    let mut phases: Vec<Phase> = Vec::new();
    let mut pings_us = Vec::new();
    let calm = |phases: &[Phase]| {
        phases
            .iter()
            .filter(|p| p.steal.share <= CALM_STEAL)
            .count()
    };
    while phases.len() < want || (phases.len() < want + need && calm(&phases) < need) {
        let cpu0 = stats::cpu_ms(pid)?;
        let start = Instant::now() + Duration::from_millis(20);
        let win = Window {
            start,
            end: start + Duration::from_secs(PHASE_SECS),
        };
        let phase = WINDOW_PHASE + phases.len() as u64;
        let logs = std::thread::scope(|s| {
            let load = s.spawn(|| {
                wire::run_window(
                    w,
                    &data,
                    &mut conns,
                    &pool_lines,
                    &pool_answers,
                    phase,
                    &win,
                )
            });
            // PING probes of the front end, in traced runs only.
            let mut tick = win.start;
            while args.trace && tick < win.end {
                wire::sleep_until(tick);
                let t0 = Instant::now();
                if tally.call(&mut admin, "PING").is_ok() {
                    pings_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                tick += Duration::from_millis(200);
            }
            load.join().expect("load thread panicked")
        });
        let cpu_ms = stats::cpu_ms(pid)? - cpu0;
        if let Some(e) = logs.iter().find_map(|l| l.error.as_ref()) {
            return Err(format!("load connection failed: {e}"));
        }
        phases.push(Phase {
            logs,
            cpu_ms,
            steal: steal.lap(),
        });
    }
    let window_steal = window_steal.lap();
    let m1 = Metrics::fetch(&mut admin)?;
    let s1 = wire::cache_stats(&mut admin)?;
    let mut window = Tally::default();
    for log in phases.iter().flat_map(|p| &p.logs) {
        window.merge(log.tally.clone());
    }

    // Idle-server probe of the front end's cost of a hit.
    let (hit_line, hit_want) = match w.kind {
        Kind::Cold => {
            let (_, a) = phases[0].logs[0]
                .answers
                .first()
                .ok_or("cold answered nothing")?;
            (
                wire::wire_line(&w.cold_query(0, WINDOW_PHASE, 0)),
                a.clone(),
            )
        }
        _ => (pool_lines[0].clone(), pool_answers[0].clone()),
    };
    let hit_probe_ms =
        wire::hit_probe(&mut admin, &hit_line, &hit_want, HIT_PROBE_REPS, &mut tally)?;
    let peak_rss_mb = stats::peak_rss_mb(pid)?;
    drop(conns);
    drop(admin);
    server.shutdown();
    Ok(WireRun {
        data,
        setups,
        pool_answers,
        used: used_phases(&phases, need),
        phases,
        steal: window_steal,
        peak_rss_mb,
        metrics: (m0, m1),
        stats: (s0, s1),
        pings_us,
        hit_probe_ms,
        hit_line,
        tally,
        window,
    })
}

/// The window's request accounting against the server's own counters.
fn cross_check(wr: &WireRun) -> Result<(), String> {
    let (m0, m1) = &wr.metrics;
    let d = |name: &str| m1.counter(name) - m0.counter(name);
    let t = &wr.window;
    let want = [
        ("queries.total", t.queries - t.busy),
        ("shed.total", t.busy),
        ("mutations.total", t.mutations_ok),
    ];
    for (name, expected) in want {
        if d(name) != expected {
            return Err(format!(
                "METRICS {name} moved by {} over the window; the clients counted {expected}",
                d(name)
            ));
        }
    }
    Ok(())
}

fn primary(kind: Kind, class: Class) -> bool {
    match kind {
        Kind::Cold => matches!(class, Class::Fresh | Class::NearMiss),
        Kind::Churn => class == Class::Read,
    }
}

fn latencies<'a>(
    logs: impl IntoIterator<Item = &'a ConnLog>,
    keep: impl Fn(Class) -> bool,
) -> Vec<f64> {
    logs.into_iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.ok && keep(s.class))
        .map(|s| s.latency_ms())
        .collect()
}

/// The primary class in one phase, or in the whole window.
#[derive(Default)]
struct Part {
    answers: usize,
    /// Seconds from the phase's start to its last primary answer, so the
    /// last slow solves of a phase do not quantise the rate.
    busy_s: f64,
    /// Server CPU; mutations ride along on both workloads, but the CPU is
    /// charged to the primary answers, which are what the server is asked
    /// for.
    cpu_ms: f64,
    lat_ms: Vec<f64>,
}

impl Part {
    fn merge(mut self, o: Part) -> Part {
        self.answers += o.answers;
        self.busy_s += o.busy_s;
        self.cpu_ms += o.cpu_ms;
        self.lat_ms.extend(o.lat_ms);
        self
    }
}

/// When every used phase has at least this many primary answers (churn),
/// each rate and latency is the median of the phases' values. Otherwise
/// (cold, about ten solves per phase) the phases are pooled.
const MIN_PHASE_ANSWERS: usize = 100;

/// The primary class in phase `ph`, with its wall-clock timings multiplied
/// by `f`.
fn primary_part(w: &Workload, ph: &Phase, f: f64) -> Option<Part> {
    let prim: Vec<&wire::Sample> = ph
        .logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.ok && primary(w.kind, s.class))
        .collect();
    let last = prim.iter().map(|s| s.done_ns).max()?;
    Some(Part {
        answers: prim.len(),
        busy_s: last as f64 / 1e9 * f,
        cpu_ms: ph.cpu_ms,
        lat_ms: prim.iter().map(|s| s.latency_ms() * f).collect(),
    })
}

/// `(throughput, p50, tail, cpu per answer)` of the primary class over
/// `phases`, with each phase's wall-clock timings multiplied by `factor`
/// of its steal.
fn primary_metrics<'a>(
    w: &Workload,
    phases: impl Iterator<Item = &'a Phase>,
    factor: fn(&Steal) -> f64,
) -> [f64; 4] {
    let mut parts: Vec<Part> = phases
        .filter_map(|ph| primary_part(w, ph, factor(&ph.steal)))
        .collect();
    if parts.iter().any(|p| p.answers < MIN_PHASE_ANSWERS) {
        parts = vec![parts.into_iter().fold(Part::default(), Part::merge)];
    }
    let of = |f: &dyn Fn(&Part) -> f64| median(&parts.iter().map(f).collect::<Vec<f64>>());
    [
        of(&|p| p.answers as f64 / p.busy_s),
        of(&|p| median(&p.lat_ms)),
        of(&|p| percentile(&p.lat_ms, TAIL_PERCENTILE)),
        of(&|p| p.cpu_ms / p.answers as f64),
    ]
}

/// Mutation latencies of the used phases, each multiplied by `factor` of
/// its phase's steal.
fn mutation_ms(wr: &WireRun, factor: fn(&Steal) -> f64) -> Vec<f64> {
    wr.used()
        .flat_map(|ph| {
            let f = factor(&ph.steal);
            latencies(&ph.logs, |c| c == Class::Mutation)
                .into_iter()
                .map(move |m| m * f)
        })
        .collect()
}

fn end_to_end(w: &Workload, wr: &WireRun) -> Vec<Metric> {
    let [rps, p50, tail, cpu] = primary_metrics(w, wr.used(), Steal::free);
    let setup: Vec<f64> = wr.setups.iter().map(|(s, st)| s * st.free()).collect();
    vec![
        Metric::new("setup_s", "s", median(&setup)),
        Metric::new("throughput_rps", "req/s", rps),
        Metric::new("latency_p50_ms", "ms", p50),
        Metric::new("latency_tail_ms", "ms", tail),
        Metric::new("server_cpu_ms_per_req", "ms", cpu),
        Metric::new("peak_rss_mb", "MB", wr.peak_rss_mb),
    ]
}

fn print_diagnostics(w: &Workload, wr: &WireRun, e2e: &[Metric]) {
    let setups: Vec<f64> = wr.setups.iter().map(|s| s.0).collect();
    let steal: Vec<String> = wr
        .setups
        .iter()
        .map(|s| format!("{:.4}", s.1.share))
        .collect();
    println!(
        "workload={} seed={} n={}; set-ups as measured {setups:?} at host steal [{}]",
        w.name(),
        w.seed,
        w.n(),
        steal.join(" ")
    );
    println!(
        "window: {} phases of {PHASE_SECS} s, used {:?} (calm: steal <= {CALM_STEAL})",
        wr.phases.len(),
        wr.used
    );
    for ph in &wr.phases {
        if let Some(p) = primary_part(w, ph, 1.0) {
            println!(
                "  steal={:.4} as measured: answered/s={:.1} p50={:.4}ms p75={:.4}ms p90={:.4}ms cpu/req={:.4}ms",
                ph.steal.share,
                p.answers as f64 / p.busy_s,
                median(&p.lat_ms),
                percentile(&p.lat_ms, 75.0),
                percentile(&p.lat_ms, 90.0),
                p.cpu_ms / p.answers as f64
            );
        }
    }
    let [rps, p50, tail, cpu] = primary_metrics(w, wr.used(), |_| 1.0);
    println!(
        "used phases as measured (no steal-free correction): throughput={rps:.4}/s p50={p50:.4}ms tail={tail:.4}ms cpu/req={cpu:.4}ms mutation_p50={:.4}ms",
        median(&mutation_ms(wr, |_| 1.0))
    );
    // Not an end-to-end metric: over five runs of one build it spread by
    // 0.22 (cold) and 0.33 (churn) of its median, beyond any usable bound.
    println!(
        "mutation_p50_ms (diagnostic, used phases, steal-free) = {:.4}",
        median(&mutation_ms(wr, Steal::free))
    );
    let lat = latencies(wr.logs(), |c| primary(w.kind, c));
    println!(
        "all phases pooled as measured: n={} p50={:.4}ms p75={:.4}ms p90={:.4}ms p99={:.4}ms max={:.4}ms",
        lat.len(),
        median(&lat),
        percentile(&lat, 75.0),
        percentile(&lat, 90.0),
        percentile(&lat, 99.0),
        percentile(&lat, 100.0)
    );
    for class in [Class::Fresh, Class::NearMiss, Class::Read, Class::Mutation] {
        let l = latencies(wr.logs(), |c| c == class);
        if !l.is_empty() {
            println!(
                "  {class:?}: n={} p50={:.4}ms p90={:.4}ms p99={:.4}ms p99.9={:.4}ms",
                l.len(),
                median(&l),
                percentile(&l, 90.0),
                percentile(&l, 99.0),
                percentile(&l, 99.9)
            );
        }
    }
    if w.kind == Kind::Churn {
        let late: Vec<f64> = wr
            .logs()
            .skip(1)
            .step_by(workload::CONNS)
            .flat_map(|l| l.lateness_ms.iter().copied())
            .collect();
        println!(
            "writer lateness: n={} p50={:.4}ms p99={:.4}ms",
            late.len(),
            median(&late),
            percentile(&late, 99.0)
        );
    }
    let t = &wr.window;
    println!(
        "window requests: sent={} succeeded={} failed={} busy={}; host steal share={:.4}; server cpu={:.0}ms",
        t.sent,
        t.ok,
        t.failed,
        t.busy,
        wr.steal.share,
        wr.phases.iter().map(|p| p.cpu_ms).sum::<f64>()
    );
    for m in e2e {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
}

/// Cold's first `pairs` fresh/near-miss pairs of each connection, with the
/// wire's answers as the expectation.
fn cold_replay_requests(w: &Workload, wr: &WireRun, conns: usize) -> Vec<(String, Expect)> {
    let mut out = Vec::new();
    for (c, log) in wr.phases[0].logs.iter().enumerate().take(conns) {
        for (i, a) in log.answers.iter().take(2) {
            out.push((
                wire::wire_line(&w.cold_query(c, WINDOW_PHASE, *i)),
                Expect::Answer(a.clone()),
            ));
        }
    }
    out
}

/// The traced run's in-process part: replays the workload's requests with
/// spans, probes the cache and the solver, and derives the per-layer
/// metrics.
fn traced(args: &Args, main_csv: &Path, wr: &WireRun) -> Result<(Vec<Metric>, Tally), String> {
    let w = &args.workload;
    let mut requests: Vec<(String, Expect)> = Vec::new();
    match w.kind {
        Kind::Cold => requests = cold_replay_requests(w, wr, workload::CONNS),
        _ => {
            let lines: Vec<String> = w.pool().iter().map(wire::wire_line).collect();
            for (line, a) in lines.iter().zip(&wr.pool_answers) {
                requests.push((line.clone(), Expect::Answer(a.clone())));
            }
            let mut picker = w.picker(0);
            for _ in 0..REPLAY_READS {
                let i = picker.next_index();
                requests.push((lines[i].clone(), Expect::Answer(wr.pool_answers[i].clone())));
            }
        }
    }
    for p in 0..REPLAY_MUTATION_PAIRS {
        let [append, delete] = w.mutation_lines(&wr.data, p);
        requests.push((append, Expect::Mutated(true)));
        requests.push((delete, Expect::Mutated(false)));
    }

    let mut tr = Tracer::new();
    let t0 = Instant::now();
    let r = replay::replay(main_csv, w.n(), &requests, &mut tr)?;
    let replay_s = t0.elapsed().as_secs_f64();
    let mut tally = r.tally;
    let warm = r.engine.warm_stats();

    // In-process hit probe on the wire hit probe's query.
    let q = match fairhms_service::protocol::parse_request(&wr.hit_line) {
        Ok(fairhms_service::Request::Query(q)) => q,
        other => return Err(format!("hit probe line did not parse: {other:?}")),
    };
    let mut hit_us = Vec::new();
    let mut lookup_us = Vec::new();
    for _ in 0..HIT_PROBE_REPS {
        let (resp, ms) = tr.timed("engine.execute", |_| r.engine.execute(&q));
        let resp = resp.map_err(|e| e.to_string())?;
        hit_us.push(ms * 1e3);
        lookup_us.push(
            resp.stages
                .map_or(f64::NAN, |s| s.cache_lookup_ns as f64 / 1e3),
        );
    }

    // The solver phase by phase; the full form only where it fits.
    let sky = replay::solver_probe(w, &r.engine, true, &mut tr, &mut tally)?;
    if w.kind != Kind::Churn {
        let full = replay::solver_probe(w, &r.engine, false, &mut tr, &mut tally)?;
        println!(
            "layer (diagnostic) engine.solve_ms.full={:.3} solver.net_ms.full={:.4} solver.db_max_ms.full={:.3} solver.greedy_ms.full={:.3}",
            full.engine_solve_ms, full.net_ms, full.db_max_ms, full.greedy_ms
        );
    }

    // Per-layer metrics.
    let (m0, m1) = &wr.metrics;
    let (qc0, qs0) = m0.histo("executor.queue_wait");
    let (qc1, qs1) = m1.histo("executor.queue_wait");
    let [h0, mi0, ..] = wr.stats.0;
    let [h1, mi1, ..] = wr.stats.1;
    let us = |name: &str| median(&tr.durations(name, 1e3));
    let ms = |name: &str| median(&tr.durations(name, 1e6));
    let mut inproc_mutation = tr.durations("engine.append_row", 1e6);
    inproc_mutation.extend(tr.durations("engine.delete_row", 1e6));
    let layers = vec![
        Metric::new("codec.parse_request_us", "us", us("protocol.parse_request")),
        Metric::new("codec.encode_us.text", "us", us("codec.encode.text")),
        Metric::new("codec.encode_us.binary", "us", us("codec.encode.binary")),
        Metric::new("codec.frame_bytes.text", "bytes", mean(&r.frame_bytes[0])),
        Metric::new("codec.frame_bytes.binary", "bytes", mean(&r.frame_bytes[1])),
        Metric::new("frontend.ping_rtt_us", "us", median(&wr.pings_us)),
        Metric::new(
            "frontend.hit_overhead_us",
            "us",
            median(&wr.hit_probe_ms) * 1e3 - median(&hit_us),
        ),
        Metric::new(
            "executor.queue_wait_us",
            "us",
            (qs1 - qs0) as f64 / (qc1 - qc0).max(1) as f64 / 1e3,
        ),
        Metric::new(
            "frontend.shed_share",
            "ratio",
            wr.window.busy as f64 / wr.window.sent.max(1) as f64,
        ),
        Metric::new("engine.hit_us", "us", median(&hit_us)),
        Metric::new("cache.lookup_us", "us", median(&lookup_us)),
        Metric::new(
            "cache.hit_ratio",
            "ratio",
            (h1 - h0) as f64 / ((h1 - h0) + (mi1 - mi0)).max(1) as f64,
        ),
        Metric::new(
            "warm.hit_ratio",
            "ratio",
            warm.hits as f64 / (warm.hits + warm.misses).max(1) as f64,
        ),
        Metric::new("warm.probe_us", "us", median(&r.warm_probe_us)),
        Metric::new("engine.solve_ms.sky", "ms", sky.engine_solve_ms),
        Metric::new("solver.net_ms.sky", "ms", sky.net_ms),
        Metric::new("solver.db_max_ms.sky", "ms", sky.db_max_ms),
        Metric::new("solver.greedy_ms.sky", "ms", sky.greedy_ms),
        Metric::new("data.csv_read_s", "s", ms("data.csv_read") / 1e3),
        Metric::new("catalog.prepare_s", "s", ms("catalog.prepare") / 1e3),
        Metric::new("catalog.append_ms", "ms", ms("engine.append_row")),
        Metric::new("catalog.delete_ms", "ms", ms("engine.delete_row")),
        Metric::new(
            "catalog.mutation_wire_overhead_ms",
            "ms",
            median(&mutation_ms(wr, |_| 1.0)) - median(&inproc_mutation),
        ),
        Metric::new(
            "catalog.invalidated_per_mutation",
            "count",
            mean(&r.invalidated),
        ),
    ];

    println!("span self times (name, count, total ms, self ms):");
    for (name, count, total, own) in tr.self_times() {
        println!("  {name:<24} {count:>6} {total:>12.3} {own:>12.3}");
    }
    let cost = Tracer::span_cost_ns();
    println!(
        "tracing overhead: {} spans x {cost:.0} ns = {:.3} ms over a {replay_s:.3} s replay",
        tr.spans.len(),
        tr.spans.len() as f64 * cost / 1e6
    );
    let spans = args
        .out_dir
        .join(format!("trace-{}-{}.jsonl", w.name(), w.seed));
    tr.write(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    println!("spans written to {}", spans.display());
    for m in &layers {
        println!("layer {} = {} {}", m.name, m.value, m.unit);
    }
    Ok((layers, tally))
}
