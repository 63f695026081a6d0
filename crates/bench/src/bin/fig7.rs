//! Figure 7: scalability on anti-correlated data — varying dimensionality
//! `d`, number of groups `C`, and dataset size `n`, at `k = 20`.
//!
//! `cargo run --release -p fairhms-bench --bin fig7 [--full]`

use fairhms_bench::harness::{full_mode, print_table, run, save_csv, RunResult};
use fairhms_bench::workloads::{self, proportional_instance, Workload};
use fairhms_core::registry::fair_algorithms;

fn main() {
    let full = full_mode();
    let k = 20;
    let base_n = if full { 10_000 } else { 2_000 };
    let mut csv: Vec<Vec<String>> = Vec::new();

    // (a) vary d (paper: 2..16; the default stops at 8, `--full` runs to 16).
    let dims: Vec<usize> = if full {
        vec![2, 4, 6, 8, 10, 12, 16]
    } else {
        vec![2, 4, 6, 8]
    };
    let d_points: Vec<(String, Workload)> = dims
        .into_iter()
        .map(|d| (format!("d={d}"), workloads::anticor(base_n, d, 3)))
        .collect();
    sweep("Figure 7a — AntiCor (vary d, k=20)", k, d_points, &mut csv);

    // (b) vary C at d = 6.
    let c_points: Vec<(String, Workload)> = (2..=10)
        .step_by(2)
        .map(|c| (format!("C={c}"), workloads::anticor(base_n, 6, c)))
        .collect();
    sweep(
        "Figure 7b — AntiCor_6D (vary C, k=20)",
        k,
        c_points,
        &mut csv,
    );

    // (c) vary n at d = 6.
    let mut ns = vec![100usize, 1_000, 10_000];
    if full {
        ns.extend([100_000, 1_000_000]);
    }
    let n_points: Vec<(String, Workload)> = ns
        .into_iter()
        .map(|n| (format!("n={n}"), workloads::anticor(n, 6, 3)))
        .collect();
    sweep(
        "Figure 7c — AntiCor_6D (vary n, k=20)",
        k,
        n_points,
        &mut csv,
    );

    save_csv("fig7.csv", &["panel", "x", "alg", "mhr", "millis"], &csv);
    println!("\nExpected shape (paper): MHR falls and time rises with d and C; time roughly linear in n; BiGreedy/BiGreedy+ advantage over baselines grows with C and n.");
}

fn sweep(title: &str, k: usize, points: Vec<(String, Workload)>, csv: &mut Vec<Vec<String>>) {
    let algs = fair_algorithms();
    let mut header: Vec<String> = vec!["x".into()];
    header.extend(algs.iter().map(|a| format!("{} mhr", a.name)));
    header.extend(algs.iter().map(|a| format!("{} ms", a.name)));
    let mut rows = Vec::new();
    for (label, w) in &points {
        if k > w.input().len() || k < w.input().num_groups() {
            continue;
        }
        let inst = proportional_instance(w, k, 0.1);
        let results: Vec<RunResult> = algs.iter().map(|a| run(a, &inst)).collect();
        let mut row = vec![label.clone()];
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
