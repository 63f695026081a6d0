//! Figure 4: two-dimensional results — MHR and running time vs `k`, number
//! of groups `C`, and dataset size `n`, with the unconstrained optimum (the
//! paper's black "price of fairness" line).
//!
//! `cargo run --release -p fairhms-bench --bin fig4 [--full]`

use fairhms_bench::harness::{full_mode, print_table, run, save_csv, RunResult};
use fairhms_bench::workloads::{self, proportional_instance, Workload};
use fairhms_core::intcov::intcov;
use fairhms_core::registry::{by_name, fair_algorithms};
use fairhms_core::types::FairHmsInstance;

fn main() {
    let full = full_mode();
    let mut csv: Vec<Vec<String>> = Vec::new();

    // Panels (a)-(c) + (f)-(h): vary k.
    let panels: Vec<(Workload, Vec<usize>)> = vec![
        (workloads::lawschs("gender"), (2..=6).collect()),
        (workloads::lawschs("race"), (5..=10).collect()),
        (workloads::anticor(10_000, 2, 3), (5..=10).collect()),
    ];
    for (w, k_values) in &panels {
        sweep(
            &format!("Figure 4 — {} (vary k)", w.name),
            w,
            k_values.iter().map(|&k| (k.to_string(), k, None)).collect(),
            &mut csv,
        );
    }

    // Panels (d) + (i): vary C on AntiCor_2D, k = 5.
    let c_runs: Vec<(String, usize, Option<Workload>)> = (2..=5)
        .map(|c| (c.to_string(), 5, Some(workloads::anticor(10_000, 2, c))))
        .collect();
    sweep_with_workloads("Figure 4 — AntiCor_2D (vary C, k=5)", c_runs, &mut csv);

    // Panels (e) + (j): vary n on AntiCor_2D, k = 5.
    let mut ns = vec![100usize, 1_000, 10_000, 100_000];
    if full {
        ns.push(1_000_000);
    }
    let n_runs: Vec<(String, usize, Option<Workload>)> = ns
        .into_iter()
        .map(|n| (n.to_string(), 5, Some(workloads::anticor(n, 2, 3))))
        .collect();
    sweep_with_workloads("Figure 4 — AntiCor_2D (vary n, k=5)", n_runs, &mut csv);

    save_csv("fig4.csv", &["panel", "x", "alg", "mhr", "millis"], &csv);
    println!("\nExpected shape (paper): IntCov always the highest MHR (exact) but the slowest; BiGreedy/BiGreedy+ above the adapted baselines; price of fairness mostly < 0.02.");
}

/// Runs all algorithms on one workload for a series of (label, k).
fn sweep(
    title: &str,
    w: &Workload,
    points: Vec<(String, usize, Option<Workload>)>,
    csv: &mut Vec<Vec<String>>,
) {
    let owned: Vec<(String, usize, Option<Workload>)> = points;
    run_points(title, Some(w), owned, csv);
}

fn sweep_with_workloads(
    title: &str,
    points: Vec<(String, usize, Option<Workload>)>,
    csv: &mut Vec<Vec<String>>,
) {
    run_points(title, None, points, csv);
}

fn run_points(
    title: &str,
    shared: Option<&Workload>,
    points: Vec<(String, usize, Option<Workload>)>,
    csv: &mut Vec<Vec<String>>,
) {
    let algs: Vec<_> = std::iter::once(by_name("intcov").expect("IntCov is registered"))
        .chain(fair_algorithms())
        .collect();
    let mut header: Vec<String> = vec!["x".into(), "OPT(unfair)".into()];
    header.extend(algs.iter().map(|a| format!("{} mhr", a.name)));
    header.extend(algs.iter().map(|a| format!("{} ms", a.name)));
    let mut rows = Vec::new();
    for (label, k, wl) in &points {
        let w = wl.as_ref().or(shared).expect("workload available");
        if *k > w.input.len() || *k < w.input.num_groups() {
            continue;
        }
        let inst = proportional_instance(w, *k, 0.1);
        // Black line: unconstrained exact optimum.
        let unc = FairHmsInstance::unconstrained(std::sync::Arc::clone(&w.input), *k).unwrap();
        let opt = intcov(&unc).map(|s| s.mhr.unwrap_or(0.0)).unwrap_or(0.0);
        let results: Vec<RunResult> = algs.iter().map(|a| run(a, &inst)).collect();
        let mut row = vec![label.clone(), format!("{opt:.4}")];
        for r in &results {
            row.push(r.mhr_cell());
        }
        for r in &results {
            row.push(format!("{:.1}", r.millis));
        }
        for r in &results {
            csv.push(vec![
                title.to_string(),
                label.clone(),
                r.alg.clone(),
                r.mhr_cell(),
                format!("{:.2}", r.millis),
            ]);
        }
        rows.push(row);
    }
    print_table(title, &header, &rows);
}
