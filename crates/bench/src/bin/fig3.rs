//! Figure 3: fairness violations `err(S)` of the original (unfair)
//! algorithms vs our fair algorithms, varying the solution size `k`, under
//! proportional representation with α = 0.1.
//!
//! `cargo run --release -p fairhms-bench --bin fig3 [--full]`

use fairhms_bench::harness::{full_mode, print_table, run, save_csv};
use fairhms_bench::workloads::{self, proportional_instance, Workload};
use fairhms_core::registry::fig3_algorithms;

fn main() {
    let full = full_mode();
    let panels: Vec<(Workload, Vec<usize>)> = vec![
        (workloads::adult(&["gender"]), ks(10, 20, 2)),
        (workloads::adult(&["race"]), ks(10, 20, 2)),
        (
            workloads::anticor(if full { 10_000 } else { 2_000 }, 6, 3),
            ks(10, 50, 10),
        ),
        (workloads::compas(&["gender"]), ks(10, 50, 10)),
        (workloads::credit("job"), ks(10, 50, 10)),
    ];
    let algs = fig3_algorithms();
    let mut csv: Vec<Vec<String>> = Vec::new();

    for (w, k_values) in &panels {
        let header: Vec<String> = std::iter::once("k".to_string())
            .chain(algs.iter().map(|a| a.name.to_string()))
            .collect();
        let mut rows = Vec::new();
        for &k in k_values {
            if k > w.input.len() {
                continue;
            }
            let inst = proportional_instance(w, k, 0.1);
            let mut row = vec![k.to_string()];
            for alg in &algs {
                let r = run(alg, &inst);
                csv.push(vec![
                    w.name.clone(),
                    k.to_string(),
                    r.alg.clone(),
                    r.err_cell(),
                    format!("{:.2}", r.millis),
                ]);
                row.push(r.err_cell());
            }
            rows.push(row);
        }
        print_table(&format!("Figure 3 — err(S) on {}", w.name), &header, &rows);
    }
    save_csv("fig3.csv", &["dataset", "k", "alg", "err", "millis"], &csv);
    println!("\nExpected shape (paper): unfair Greedy/DMM/HS/Sphere violate in almost all cases, growing with k; BiGreedy/BiGreedy+ always 0.");
}

fn ks(from: usize, to: usize, step: usize) -> Vec<usize> {
    (from..=to).step_by(step).collect()
}
