//! `fairhms` — command-line interface to the FairHMS library.
//!
//! ```text
//! fairhms gen    --out data.csv --n 10000 --d 4 --c 3 [--kind anticor|uniform|correlated] [--seed 1]
//! fairhms stats  --input data.csv --dim 4
//! fairhms solve  --input data.csv --dim 4 --k 10 [--alg bigreedy] [--alpha 0.1]
//!                [--balanced] [--no-skyline] [--seed 42]
//! ```
//!
//! `solve` prints the selected rows (0-based indices into the input file),
//! the evaluated MHR, the fairness-violation count, and wall-clock time.
//! `--alg` takes any algorithm the server's `ALGS` lists (the registry
//! table; `intcov` is exact and 2D only), by key, display name or alias.

#![allow(clippy::disallowed_methods)] // the CLI reports wall-clock solve time to the user by design
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms::core::registry;
use fairhms::core::types::Solution;
use fairhms::data::gen;
use fairhms::data::stats::DatasetStats;
use fairhms::service::{PreparedDataset, Query};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some((_, run, flags)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        eprintln!("error: unknown command {cmd:?}\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(rest, flags) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "fairhms — happiness maximizing sets under group fairness constraints

USAGE:
  fairhms gen   --out FILE --n N --d D --c C [--kind anticor|uniform|correlated] [--seed S]
  fairhms stats --input FILE --dim D
  fairhms solve --input FILE --dim D --k K [--alg NAME] [--alpha A] [--balanced]
                [--no-skyline] [--seed S]
  fairhms serve --data NAME=FILE[,NAME=FILE...] [--addr HOST:PORT] [--workers N]
                [--cache N] [--load-root DIR] [--max-streams N] [--warm-capacity N]
                [--no-telemetry] [--slow-query-ms N] [--max-conns N]
                [--queue-depth N]
  fairhms query --addr HOST:PORT (--dataset NAME --k K [--alg NAME] [--alpha A]
                [--balanced] [--no-skyline] [--seed S] | --file FILE [--stream])
                [--codec text|binary] [--show-stats]
  fairhms append --addr HOST:PORT --dataset NAME --row C1,...,CD --group G
                 [--codec text|binary]
  fairhms delete --addr HOST:PORT --dataset NAME --row ID [--codec text|binary]
  fairhms metrics --addr HOST:PORT [--codec text|binary]

ALGORITHMS (for --alg):
  intcov bigreedy bigreedy+ f-greedy g-greedy g-dmm g-hs g-sphere streaming
  greedy dmm hs sphere (unfair baselines)

`serve` loads each CSV once (dimensionality sniffed from the first row),
precomputes its union of per-group skylines in one pass, and answers the
protocol documented in docs/PROTOCOL.md. --load-root DIR allows the LOAD
admin verb to register CSVs under DIR at runtime; --max-streams caps
concurrent streamed batches (excess answered ERR busy). `append` and
`delete` mutate a served dataset in place through the APPEND/DELETE wire
verbs: skylines are maintained incrementally and only cached answers
whose form the mutation changed are invalidated. --cache N holds at most
N answers (default 4096). A BiGreedy near-miss (same dataset, form, k
and seed; different bounds) reuses the warm-start tier's cached db_max
vector, the m x n part of BiGreedy's set-up, and replays each cached
tau-probe whose picks its bounds leave unchanged — answers are
bit-identical to a cold solve; --warm-capacity bounds the tier's
resident entries.
Per-stage latency histograms are recorded by default (answers are
bit-identical with telemetry on or off); --no-telemetry disables them
and --slow-query-ms N logs one structured stderr line per query slower
than N ms. One poll(2) event loop serves every connection (--frontend
event, its only value, is still accepted) and --workers resident
threads run the solves, under admission control: --max-conns caps open
connections and --queue-depth bounds the global solve queue (excess
load answers ERR busy with retry_after_ms back-off advice); --workers,
--cache, --max-conns, --queue-depth and --warm-capacity must each be at
least 1.
`metrics` dumps a running server's telemetry snapshot via the METRICS
verb. `query` is the matching client: --codec binary negotiates the v2
length-prefixed framing (answers are bit-identical to text), and --file
sends a BATCH of QUERY lines through the server's worker pool — with
--stream the answers are printed as the server completes them
(seq-tagged) instead of in request order.

INPUT FORMAT: CSV rows `attr_1,...,attr_D,group_label` (no header).";

type Flags = HashMap<String, String>;

type Command = fn(&Flags) -> Result<(), String>;

/// Every subcommand with its handler and the (space-separated) flags it
/// reads.
const COMMANDS: &[(&str, Command, &str)] = &[
    ("gen", cmd_gen, "out n d c kind seed"),
    ("stats", cmd_stats, "input dim"),
    (
        "solve",
        cmd_solve,
        "input dim k alg alpha balanced no-skyline seed",
    ),
    (
        "serve",
        cmd_serve,
        "data addr workers cache load-root max-streams warm-capacity \
         no-telemetry slow-query-ms frontend max-conns queue-depth",
    ),
    (
        "query",
        cmd_query,
        "addr dataset k alg alpha balanced no-skyline seed file stream codec show-stats",
    ),
    ("append", cmd_append, "addr dataset row group codec"),
    ("delete", cmd_delete, "addr dataset row codec"),
    ("metrics", cmd_metrics, "addr codec"),
];

/// Parses `--key value` pairs and boolean `--key` switches, rejecting any
/// flag outside `known` so a typo fails loudly instead of being ignored.
fn parse_flags(args: &[String], known: &str) -> Result<Flags, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        if !known.split_whitespace().any(|f| f == key) {
            return Err(format!("unknown flag --{key}"));
        }
        match key {
            // boolean flags
            "balanced" | "no-skyline" | "show-stats" | "stream" | "no-telemetry" => {
                out.insert(key.to_string(), "true".to_string());
            }
            _ => {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.insert(key.to_string(), v.clone());
            }
        }
    }
    Ok(out)
}

fn req<'a>(opts: &'a Flags, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn num<T: std::str::FromStr>(opts: &Flags, key: &str) -> Result<Option<T>, String> {
    match opts.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("--{key}: cannot parse {v:?}")),
    }
}

/// [`num`] for a count that must be at least 1: a zero worker,
/// connection or queue limit would start a server that never answers,
/// the answer cache always holds at least one answer, and `gen` cannot
/// write a dataset with no rows, attributes or groups.
fn positive(opts: &Flags, key: &str) -> Result<Option<usize>, String> {
    match num::<usize>(opts, key)? {
        Some(0) => Err(format!("--{key} must be at least 1")),
        v => Ok(v),
    }
}

fn cmd_gen(opts: &Flags) -> Result<(), String> {
    let out = PathBuf::from(req(opts, "out")?);
    let n = positive(opts, "n")?.ok_or("missing --n")?;
    let d = positive(opts, "d")?.ok_or("missing --d")?;
    let c = positive(opts, "c")?.ok_or("missing --c")?;
    let seed: u64 = num(opts, "seed")?.unwrap_or(1);
    let kind = opts.get("kind").map(|s| s.as_str()).unwrap_or("anticor");
    let mut rng = StdRng::seed_from_u64(seed);
    let points = match kind {
        "anticor" => gen::anti_correlated(n, d, &mut rng),
        "uniform" => gen::uniform(n, d, &mut rng),
        "correlated" => gen::correlated(n, d, 0.6, &mut rng),
        other => return Err(format!("unknown --kind {other:?}")),
    };
    let groups = gen::groups_by_sum(&points, d, c);
    let data = fairhms::data::Dataset::new(
        format!("{kind}_{d}d"),
        d,
        points,
        groups,
        (0..c).map(|g| format!("g{g}")).collect(),
    )
    .map_err(|e| e.to_string())?;
    fairhms::data::csv::write_dataset(&out, &data).map_err(|e| e.to_string())?;
    println!(
        "wrote {} rows ({kind}, d={d}, C={c}) to {}",
        n,
        out.display()
    );
    Ok(())
}

/// Reads `--input` with `--dim` attributes per row, as stored (not yet
/// normalized).
fn load(opts: &Flags) -> Result<fairhms::data::Dataset, String> {
    let input = PathBuf::from(req(opts, "input")?);
    let dim: usize = num(opts, "dim")?.ok_or("missing --dim")?;
    fairhms::data::csv::read_dataset(&input, "input", dim).map_err(|e| e.to_string())
}

fn cmd_stats(opts: &Flags) -> Result<(), String> {
    let mut data = load(opts)?;
    data.normalize();
    let st = DatasetStats::compute(&data);
    println!("{}", st.table_row());
    for (g, (size, sky)) in st.group_sizes.iter().zip(&st.group_skylines).enumerate() {
        println!(
            "  group {:<12} |D_c| = {:<8} skyline = {}",
            data.group_names()[g],
            size,
            sky
        );
    }
    Ok(())
}

fn cmd_solve(opts: &Flags) -> Result<(), String> {
    let k: usize = num(opts, "k")?.ok_or("missing --k")?;
    let alpha = fairhms::service::query::check_alpha(num(opts, "alpha")?.unwrap_or(0.1))?;
    let seed: u64 = num(opts, "seed")?.unwrap_or(registry::DEFAULT_SEED);
    let alg_name = opts.get("alg").map(|s| s.as_str()).unwrap_or("bigreedy");
    let prep = PreparedDataset::prepare("input", load(opts)?).map_err(|e| e.to_string())?;

    // The serving engine's instance builder: the group-skyline union
    // (lossless) unless disabled, bounds from that form's group sizes,
    // and the map back to original row ids.
    let mut q = Query::new("input", k);
    q.alpha = alpha;
    q.balanced = opts.contains_key("balanced");
    q.skyline = !opts.contains_key("no-skyline");
    let (cand, inst) = prep.instance(&q).map_err(|e| e.to_string())?;
    let input = cand.data();
    let bounds = inst.matroid();
    println!("bounds: l = {:?}, h = {:?}", bounds.lower(), bounds.upper());

    let alg = registry::by_name(alg_name).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let sol: Solution = alg.solve(&inst, seed).map_err(|e| e.to_string())?;
    let elapsed = t.elapsed();

    let mhr = if input.dim() == 2 {
        fairhms::core::eval::mhr_exact_2d(input, &sol.indices)
    } else {
        fairhms::core::eval::mhr_exact_lp(input, &sol.indices)
    };
    let err = inst.matroid().violations(&sol.indices);
    println!("algorithm : {alg_name}");
    println!("rows      : {:?}", cand.to_original(&sol.indices));
    println!("mhr       : {mhr:.6}");
    println!("err(S)    : {err}");
    println!("time      : {elapsed:?}");
    Ok(())
}

/// `fairhms serve`: load datasets into a catalog and run the TCP front end
/// in the foreground until a client sends SHUTDOWN (or the process is
/// killed).
fn cmd_serve(opts: &Flags) -> Result<(), String> {
    use fairhms::service::{Catalog, QueryEngine, ServeOptions, Server};
    use std::sync::Arc;

    // `event` is the only front end; the flag stays accepted so existing
    // invocations keep working.
    match opts.get("frontend").map(String::as_str) {
        None | Some("event") => {}
        Some("threaded") => {
            return Err("--frontend threaded: the threaded front end was removed; \
                        `event` is the only front end"
                .into())
        }
        Some(f) => return Err(format!("--frontend: expected event, got {f:?}")),
    }

    let specs = req(opts, "data")?;
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:4077".to_string());
    let workers = positive(opts, "workers")?.unwrap_or(4);
    // Enough for every distinct answer of a few tens of seconds of cold
    // BiGreedy solves, so a client repeating a recent query still hits.
    let cache = positive(opts, "cache")?.unwrap_or(4096);
    let mut serve_opts = ServeOptions {
        addr,
        workers,
        ..ServeOptions::default()
    };
    if let Some(n) = positive(opts, "max-conns")? {
        serve_opts.max_conns = n;
    }
    if let Some(n) = positive(opts, "queue-depth")? {
        serve_opts.queue_depth = n;
    }

    let mut warm = fairhms::service::WarmConfig::default();
    if let Some(n) = positive(opts, "warm-capacity")? {
        warm.capacity = n;
    }

    let mut telemetry = fairhms::service::TelemetryConfig::default();
    if opts.contains_key("no-telemetry") {
        telemetry.enabled = false;
    }

    let catalog = Arc::new(Catalog::new());
    // The engine wires the telemetry registry into the catalog, so build
    // it before loading datasets: initial prepare spans are recorded.
    let engine = Arc::new(QueryEngine::with_config(
        Arc::clone(&catalog),
        cache,
        warm,
        telemetry,
    ));
    for spec in specs.split(',').filter(|s| !s.is_empty()) {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--data: expected NAME=FILE, got {spec:?}"))?;
        let t = Instant::now();
        let prep = catalog
            .load_csv(name, &PathBuf::from(path))
            .map_err(|e| e.to_string())?;
        println!(
            "loaded {:<16} n={:<8} d={} groups={} skyline={} ({:?})",
            prep.name,
            prep.dataset.len(),
            prep.dataset.dim(),
            prep.dataset.num_groups(),
            prep.skyline_rows.len(),
            t.elapsed()
        );
    }
    if catalog.is_empty() {
        return Err("no datasets loaded (use --data NAME=FILE)".into());
    }

    if let Some(root) = opts.get("load-root") {
        let root = PathBuf::from(root);
        if !root.is_dir() {
            return Err(format!(
                "--load-root: {} is not a directory",
                root.display()
            ));
        }
        serve_opts.load_root = Some(root);
    }
    if let Some(n) = num::<usize>(opts, "max-streams")? {
        serve_opts.max_stream_batches = n;
    }
    serve_opts.slow_query_ms = num::<u64>(opts, "slow-query-ms")?;

    let load_root = serve_opts.load_root.clone();
    let max_streams = serve_opts.max_stream_batches;
    let frontend_banner = format!(
        "event front end ({} max conns, queue depth {})",
        serve_opts.max_conns, serve_opts.queue_depth
    );
    let warm_banner = format!("warm-start {} entries", warm.capacity);
    let telemetry_banner = match (telemetry.enabled, serve_opts.slow_query_ms) {
        (false, _) => ", telemetry off".to_string(),
        (true, None) => ", telemetry on".to_string(),
        (true, Some(ms)) => format!(", telemetry on, slow-query log >{ms}ms"),
    };
    let server = Server::spawn(engine, serve_opts).map_err(|e| e.to_string())?;
    println!(
        "fairhms-service listening on {} ({}, {} batch workers, cache {} answers, \
         {} max streams, {}{}{})",
        server.addr(),
        frontend_banner,
        workers,
        cache,
        max_streams,
        warm_banner,
        telemetry_banner,
        match &load_root {
            Some(r) => format!(", LOAD root {}", r.display()),
            None => ", LOAD disabled".to_string(),
        }
    );
    server.join();
    println!("server stopped");
    Ok(())
}

/// `fairhms query`: one-shot client for a running `fairhms serve`.
///
/// Built on the service crate's typed [`fairhms::service::WireClient`]:
/// `--codec binary` negotiates the v2 length-prefixed framing via
/// `HELLO`; without the flag the client is a plain v1 text client.
/// Output is identical under both codecs (responses are re-rendered
/// through the v1 text encoding for display).
fn cmd_query(opts: &Flags) -> Result<(), String> {
    use fairhms::service::protocol::{encode_response_line, Response};

    let mut client = connect_client(opts)?;

    if let Some(file) = opts.get("file") {
        // Batch mode: every non-empty, non-comment line is a query.
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let lines: Vec<String> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                if l.to_ascii_uppercase().starts_with("QUERY") {
                    l.to_string()
                } else {
                    format!("QUERY {l}")
                }
            })
            .collect();
        let stream = opts.contains_key("stream");
        let header = if stream {
            format!("BATCH {} stream=true", lines.len())
        } else {
            format!("BATCH {}", lines.len())
        };
        let mut block = header;
        for l in &lines {
            block.push('\n');
            block.push_str(l);
        }
        client.send_line(&block).map_err(|e| e.to_string())?;
        match client.recv().map_err(|e| e.to_string())? {
            Response::BatchHeader { n, .. } if n == lines.len() => {}
            Response::Busy { message, .. } | Response::Error { message, .. } => {
                return Err(format!("batch rejected: {message}"))
            }
            other => return Err(format!("unexpected batch header: {other:?}")),
        }
        let (mut hits, mut errs) = (0usize, 0usize);
        for i in 0..lines.len() {
            let resp = client.recv().map_err(|e| e.to_string())?;
            // `seq` maps a streamed (completion-order) answer back to its
            // request line; buffered answers arrive in request order.
            let (seq, is_err, cached) = match &resp {
                Response::Answer { seq, answer } => (*seq, false, answer.cached),
                Response::Busy { seq, .. } | Response::Error { seq, .. } => (*seq, true, false),
                other => return Err(format!("unexpected batch frame: {other:?}")),
            };
            if is_err {
                errs += 1;
            } else if cached {
                hits += 1;
            }
            let slot = seq.map_or(i, |s| s as usize);
            let line = encode_response_line(&resp).map_err(|e| e.to_string())?;
            println!("{}\n  -> {line}", lines.get(slot).map_or("?", |l| l));
        }
        println!(
            "batch: {} queries, {} served from cache, {} errors{}",
            lines.len(),
            hits,
            errs,
            if stream { " (streamed)" } else { "" }
        );
        // Scripted callers rely on the exit status; a batch with failed
        // queries must not report success.
        if errs > 0 {
            return Err(format!("{errs} of {} batch queries failed", lines.len()));
        }
    } else {
        // Single-query mode mirrors `solve`'s flags.
        let mut q = Query::new(req(opts, "dataset")?, num(opts, "k")?.ok_or("missing --k")?);
        if let Some(alg) = opts.get("alg") {
            q.alg = alg.clone();
        }
        if let Some(alpha) = num(opts, "alpha")? {
            q.alpha = alpha;
        }
        if let Some(seed) = num(opts, "seed")? {
            q.seed = seed;
        }
        q.balanced = opts.contains_key("balanced");
        q.skyline = !opts.contains_key("no-skyline");
        let ans = client.query(&q).map_err(|e| e.to_string())?;
        println!("algorithm : {}", ans.alg);
        println!("rows      : {:?}", ans.indices);
        match ans.mhr {
            Some(m) => println!("mhr       : {m:.6}"),
            None => println!("mhr       : (not evaluated)"),
        }
        println!("err(S)    : {}", ans.violations);
        println!("cached    : {}", ans.cached);
        println!("time      : {}µs", ans.micros);
    }

    if opts.contains_key("show-stats") {
        client.send_line("STATS").map_err(|e| e.to_string())?;
        let stats = client.recv().map_err(|e| e.to_string())?;
        // Re-render through the v1 text encoding so the output line is
        // identical whichever codec carried it.
        println!(
            "server {}",
            encode_response_line(&stats).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

/// Connects a [`fairhms::service::WireClient`] honouring `--codec`.
fn connect_client(opts: &Flags) -> Result<fairhms::service::WireClient, String> {
    use fairhms::service::{CodecKind, WireClient};
    let addr = req(opts, "addr")?;
    match opts.get("codec") {
        None => WireClient::connect(addr),
        Some(c) => {
            let kind = CodecKind::parse(c)
                .ok_or_else(|| format!("--codec: expected text|binary, got {c:?}"))?;
            WireClient::negotiate(addr, kind)
        }
    }
    .map_err(|e| format!("connect {addr}: {e}"))
}

/// Prints one `Mutated` frame in the CLI's key/value style.
fn print_mutated(resp: &fairhms::service::Response) {
    if let fairhms::service::Response::Mutated {
        name,
        op,
        rows,
        skyline,
        sky_changed,
        cache_dropped,
        warm_dropped,
    } = resp
    {
        println!("dataset      : {name}");
        println!("op           : {op}");
        println!("rows         : {rows}");
        println!("skyline      : {skyline}");
        println!("sky changed  : {sky_changed}");
        println!("cache dropped: {cache_dropped}");
        println!("warm dropped : {warm_dropped}");
    }
}

/// `fairhms append`: add one row to a served dataset's live catalog.
fn cmd_append(opts: &Flags) -> Result<(), String> {
    let dataset = req(opts, "dataset")?;
    let row: Vec<f64> = req(opts, "row")?
        .split(',')
        .map(|c| {
            c.trim()
                .parse::<f64>()
                .map_err(|_| format!("--row: cannot parse coordinate {c:?}"))
        })
        .collect::<Result<_, _>>()?;
    let group: usize = num(opts, "group")?.ok_or("missing --group")?;
    let mut client = connect_client(opts)?;
    let resp = client
        .append(dataset, &row, group)
        .map_err(|e| e.to_string())?;
    print_mutated(&resp);
    Ok(())
}

/// `fairhms delete`: remove one row (by current 0-based id) from a served
/// dataset's live catalog.
fn cmd_delete(opts: &Flags) -> Result<(), String> {
    let dataset = req(opts, "dataset")?;
    let row: usize = num(opts, "row")?.ok_or("missing --row")?;
    let mut client = connect_client(opts)?;
    let resp = client.delete(dataset, row).map_err(|e| e.to_string())?;
    print_mutated(&resp);
    Ok(())
}

/// `fairhms metrics`: dump a running server's telemetry snapshot
/// (per-stage latency histograms + counters) in a human table.
fn cmd_metrics(opts: &Flags) -> Result<(), String> {
    let mut client = connect_client(opts)?;

    let (enabled, counters, histograms) = client.metrics().map_err(|e| e.to_string())?;
    println!(
        "telemetry : {}",
        if enabled { "enabled" } else { "disabled" }
    );
    if !counters.is_empty() {
        println!("counters  :");
        for (name, v) in &counters {
            println!("  {name:<24} {v}");
        }
    }
    if histograms.is_empty() {
        println!("histograms: (none recorded)");
    } else {
        println!(
            "histograms: (nanoseconds){:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "count", "sum", "p50", "p90", "p99", "max"
        );
        for h in &histograms {
            println!(
                "  {:<24} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
                h.name, h.count, h.sum, h.p50, h.p90, h.p99, h.max
            );
        }
    }
    Ok(())
}
