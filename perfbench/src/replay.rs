//! The in-process replay: the workload's requests against a telemetry-on
//! `QueryEngine`, with a span around every call into a layer's public
//! functions. Spans stay in memory and are written out at the end.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fairhms_core::bigreedy::bigreedy_on_net_with_db_max;
use fairhms_core::{BiGreedyConfig, CachedDbMax, FairHmsInstance, SampledNet};
use fairhms_data::csv;
use fairhms_matroid::proportional_bounds;
use fairhms_service::protocol::{self, WireAnswer};
use fairhms_service::{
    Catalog, CodecKind, MutationReport, QueryEngine, Request, Response, ServiceError,
    TelemetryConfig, WarmConfig,
};

use crate::wire::{check_mutated, same_answer, Tally};
use crate::workload::{Workload, DATASET};

/// The server's default answer-cache size, so cache behaviour matches.
const CACHE_CAPACITY: usize = 1024;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Request id stamped on every span opened from now on.
    pub req: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: self.req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// [`Tracer::span`] that also returns the span's duration in ms.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let idx = self.spans.len();
        let out = self.span(name, f);
        let s = &self.spans[idx];
        (out, (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Durations, in `unit_ns` units, of every span named `name`.
    pub fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / unit_ns)
            .collect()
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is a
    /// span's duration minus its children's. Sorted by self time.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = (s.end_ns - s.start_ns) as f64 / 1e6;
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e6;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, dur, own)),
            }
        }
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// Cost of one empty span, in nanoseconds (the tracer's own overhead).
    pub fn span_cost_ns() -> f64 {
        let mut t = Tracer::new();
        let reps = 20_000;
        let t0 = Instant::now();
        for _ in 0..reps {
            t.span("empty", |_| ());
        }
        t0.elapsed().as_nanos() as f64 / reps as f64
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// What a replayed request must produce.
pub enum Expect {
    /// This answer, to the bit (the `cached` flag and timings aside).
    Answer(WireAnswer),
    /// A `MUTATED` reply of a dominated append (`true`) or its delete.
    Mutated(bool),
}

pub struct Replay {
    pub engine: QueryEngine,
    pub tally: Tally,
    /// Encoded answer and `MUTATED` frame sizes per codec, bytes.
    pub frame_bytes: [Vec<f64>; 2],
    /// Warm-tier probe time of every replayed solve, µs.
    pub warm_probe_us: Vec<f64>,
    /// `(cache + warm entries dropped)` per replayed mutation.
    pub invalidated: Vec<f64>,
}

pub const CODECS: [(CodecKind, &str); 2] = [
    (CodecKind::Text, "codec.encode.text"),
    (CodecKind::Binary, "codec.encode.binary"),
];

fn mutated(op: &str, r: Result<MutationReport, ServiceError>) -> Response {
    match r {
        Ok(rep) => Response::Mutated {
            name: DATASET.to_string(),
            op: op.to_string(),
            rows: rep.rows,
            skyline: rep.skyline,
            sky_changed: rep.sky_changed,
            cache_dropped: rep.cache_dropped,
            warm_dropped: rep.warm_dropped,
        },
        Err(e) => Response::error(&e),
    }
}

/// Loads the workload CSV into a fresh telemetry-on engine and replays
/// `requests`, checking each reply against what the wire returned.
pub fn replay(
    csv_path: &Path,
    n: usize,
    requests: &[(String, Expect)],
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let data = tr
        .span("data.csv_read", |_| {
            csv::read_dataset_auto(csv_path, DATASET)
        })
        .map_err(|e| format!("read {}: {e}", csv_path.display()))?;
    let catalog = Arc::new(Catalog::new());
    let engine = QueryEngine::with_config(
        Arc::clone(&catalog),
        CACHE_CAPACITY,
        WarmConfig::default(),
        TelemetryConfig { enabled: true },
    );
    tr.span("catalog.prepare", |_| catalog.insert_named(DATASET, data))
        .map_err(|e| e.to_string())?;
    let codecs = CODECS.map(|(kind, name)| (kind.new_codec(), name));
    let mut tally = Tally::default();
    let mut frame_bytes = [Vec::new(), Vec::new()];
    let mut warm_probe_us = Vec::new();
    let mut invalidated = Vec::new();
    let mut buf = Vec::new();
    for (id, (line, expect)) in requests.iter().enumerate() {
        tr.req = id as u64 + 1;
        let resp = tr.span("request", |tr| {
            let resp = match tr.span("protocol.parse_request", |_| protocol::parse_request(line)) {
                Ok(Request::Query(q)) => {
                    let r = tr.span("engine.execute", |_| engine.execute(&q));
                    if let Ok(qr) = &r {
                        if let (false, Some(st)) = (qr.cached, qr.stages) {
                            warm_probe_us.push(st.warm_probe_ns as f64 / 1e3);
                        }
                    }
                    Response::from_result(None, &r)
                }
                Ok(Request::Append { name, row, group }) => mutated(
                    "append",
                    tr.span("engine.append_row", |_| {
                        engine.append_row(&name, &row, group)
                    }),
                ),
                Ok(Request::Delete { name, row }) => mutated(
                    "delete",
                    tr.span("engine.delete_row", |_| engine.delete_row(&name, row)),
                ),
                Ok(other) => Response::Error {
                    seq: None,
                    message: format!("not replayable: {other:?}"),
                },
                Err(e) => Response::error(&e),
            };
            for (slot, (codec, name)) in codecs.iter().enumerate() {
                buf.clear();
                if let Err(e) = tr.span(name, |_| codec.encode_frame(&resp, &mut buf)) {
                    tally.check(Err(format!("encode: {e}")));
                }
                frame_bytes[slot].push(buf.len() as f64);
            }
            resp
        });
        tally.sent += 1;
        let res = match expect {
            Expect::Answer(want) => same_answer(&resp, want, false),
            Expect::Mutated(append) => {
                if let Response::Mutated {
                    cache_dropped,
                    warm_dropped,
                    ..
                } = &resp
                {
                    invalidated.push((cache_dropped + warm_dropped) as f64);
                }
                check_mutated(&resp, n, *append)
            }
        };
        match &res {
            Ok(()) => tally.ok += 1,
            Err(_) => tally.failed += 1,
        }
        tally.check(res.map_err(|e| format!("replay of {line:.80}: {e}")));
    }
    tr.req = 0;
    Ok(Replay {
        engine,
        tally,
        frame_bytes,
        warm_probe_us,
        invalidated,
    })
}

/// Timings of one BiGreedy problem: the engine's solve, then the same
/// problem phase by phase through the solver's public functions.
pub struct SolverProbe {
    pub engine_solve_ms: f64,
    pub net_ms: f64,
    pub db_max_ms: f64,
    pub greedy_ms: f64,
}

/// Solves `w`'s probe query of one form through the engine, then again
/// through `SampledNet::generate`, `CachedDbMax::compute` and
/// `bigreedy_on_net_with_db_max`, and checks the two answers agree.
pub fn solver_probe(
    w: &Workload,
    engine: &QueryEngine,
    skyline: bool,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<SolverProbe, String> {
    let q = w.probe_query(skyline);
    let resp = tr
        .span("engine.execute", |_| engine.execute(&q))
        .map_err(|e| e.to_string())?;
    let engine_solve_ms = resp.stages.map_or(f64::NAN, |s| s.solve_ns as f64 / 1e6);
    let prep = engine
        .catalog()
        .get_required(DATASET)
        .map_err(|e| e.to_string())?;
    let (data, sizes) = if skyline {
        (&prep.skyline_data, &prep.skyline_group_sizes)
    } else {
        (&prep.dataset, &prep.group_sizes)
    };
    let (lower, upper) = proportional_bounds(sizes, q.k, q.alpha);
    let inst =
        FairHmsInstance::new(Arc::clone(data), q.k, lower, upper).map_err(|e| e.to_string())?;
    let m = 10 * q.k * inst.dim();
    let cfg = BiGreedyConfig {
        sample_size: Some(m),
        seed: q.seed,
        ..BiGreedyConfig::default()
    };
    let (sol, spans) = tr.span(if skyline { "solver.sky" } else { "solver.full" }, |tr| {
        let first = tr.spans.len();
        let net = tr.span("solver.net", |_| {
            SampledNet::generate(inst.dim(), m, q.seed)
        });
        let db = tr.span("solver.db_max", |_| CachedDbMax::compute(inst.data(), &net));
        let sol = tr.span("solver.greedy", |_| {
            bigreedy_on_net_with_db_max(&inst, &net.vectors, &db.values, &cfg)
        });
        (sol, first..tr.spans.len())
    });
    let (sol, _tau) = sol.map_err(|e| e.to_string())?;
    let mut indices: Vec<usize> = if skyline {
        sol.indices.iter().map(|&i| prep.skyline_rows[i]).collect()
    } else {
        sol.indices.clone()
    };
    indices.sort_unstable();
    tally.check(
        if indices == resp.answer.indices
            && sol.mhr.map(f64::to_bits) == resp.answer.mhr.map(f64::to_bits)
        {
            Ok(())
        } else {
            Err(format!(
                "phase-by-phase BiGreedy {indices:?} differs from the engine's {:?}",
                resp.answer.indices
            ))
        },
    );
    let ms = |name: &str| {
        tr.spans[spans.clone()]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    };
    Ok(SolverProbe {
        engine_solve_ms,
        net_ms: ms("solver.net"),
        db_max_ms: ms("solver.db_max"),
        greedy_ms: ms("solver.greedy"),
    })
}
