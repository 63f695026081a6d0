//! Timed runs, MHR evaluation, table printing, CSV persistence.

#![allow(clippy::disallowed_methods)] // the bench harness measures wall time by design (R5 governs the serving stack)
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::eval::{mhr_exact_2d, mhr_exact_lp, NetEvaluator};
use fairhms_core::registry::{Algorithm, DEFAULT_SEED};
use fairhms_core::types::{CoreError, FairHmsInstance};
use fairhms_data::Dataset;
use fairhms_geometry::sphere::random_net;

/// Above this input size the exact LP evaluation is replaced by a large
/// fixed utility sample (4,000 vectors, fixed seed) — the difference is
/// below plotting resolution and keeps the harness interactive.
const LP_EVAL_LIMIT: usize = 1_500;

/// Outcome of one timed algorithm run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm display name.
    pub alg: String,
    /// Evaluated MHR (exact in 2D or for small inputs; dense-sample
    /// estimate otherwise). `None` when the run failed.
    pub mhr: Option<f64>,
    /// Fairness violations `err(S)` of the produced solution.
    pub err: Option<usize>,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Failure note (empty on success).
    pub note: String,
}

impl RunResult {
    /// `"-"`-padded MHR cell.
    pub fn mhr_cell(&self) -> String {
        match self.mhr {
            Some(v) => format!("{v:.4}"),
            None => "-".into(),
        }
    }

    /// `"-"`-padded err cell.
    pub fn err_cell(&self) -> String {
        match self.err {
            Some(v) => v.to_string(),
            None => "-".into(),
        }
    }
}

/// Evaluates a solution's MHR: envelope-exact in 2D, LP-exact for small
/// inputs, dense-sample estimate otherwise.
pub fn evaluate_mhr(data: &Dataset, sel: &[usize]) -> f64 {
    if sel.is_empty() {
        return 0.0;
    }
    if data.dim() == 2 {
        mhr_exact_2d(data, sel)
    } else if data.len() <= LP_EVAL_LIMIT {
        mhr_exact_lp(data, sel)
    } else {
        let mut rng = StdRng::seed_from_u64(9_999);
        let ev = NetEvaluator::new(data, random_net(data.dim(), 4_000, &mut rng));
        ev.mhr(data, sel)
    }
}

/// Runs `alg` on `inst` at [`DEFAULT_SEED`], timing it and evaluating
/// the result.
pub fn run(alg: &Algorithm, inst: &FairHmsInstance) -> RunResult {
    let t = Instant::now();
    let out = alg.solve(inst, DEFAULT_SEED);
    let millis = t.elapsed().as_secs_f64() * 1e3;
    match out {
        Ok(sol) => RunResult {
            alg: alg.name.to_string(),
            mhr: Some(evaluate_mhr(inst.data(), &sol.indices)),
            err: Some(inst.matroid().violations(&sol.indices)),
            millis,
            note: String::new(),
        },
        Err(CoreError::ResourceLimit { what }) => RunResult {
            alg: alg.name.to_string(),
            mhr: None,
            err: None,
            millis,
            note: what.to_string(),
        },
        Err(e) => RunResult {
            alg: alg.name.to_string(),
            mhr: None,
            err: None,
            millis,
            note: e.to_string(),
        },
    }
}

/// Prints an aligned table.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// `results/` at the workspace root (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(d) => PathBuf::from(d).join("../../results"),
        Err(_) => PathBuf::from("results"),
    };
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV into `results/` and reports the path.
pub fn save_csv(file: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(file);
    fairhms_data::csv::write_series(&path, header, rows).expect("write csv");
    println!("[saved {}]", path.display());
}

/// `--full` flag check for extended sweeps.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}
