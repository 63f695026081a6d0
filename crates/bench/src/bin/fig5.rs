//! Figures 5 and 6: MHR (Fig. 5) and running time (Fig. 6) of the fair
//! algorithms on the ten multi-dimensional dataset variants, varying `k`,
//! with the best unconstrained baseline as the "price of fairness" line.
//!
//! `cargo run --release -p fairhms-bench --bin fig5 [--full]`
//! (fig6 shares this harness; both views are printed and saved here.)

use fairhms_bench::harness::{full_mode, print_table, run, save_csv, RunResult};
use fairhms_bench::workloads::{self, proportional_instance};
use fairhms_core::baselines::rdp_greedy;
use fairhms_core::registry::fair_algorithms;
use fairhms_core::types::FairHmsInstance;

fn main() {
    let full = full_mode();
    let suite = workloads::md_suite(if full { 10_000 } else { 2_000 });
    let algs = fair_algorithms();
    let mut csv: Vec<Vec<String>> = Vec::new();

    for w in &suite {
        let ks: Vec<usize> = if w.name.starts_with("Adult (gender)") {
            (6..=16).step_by(2).collect()
        } else {
            (10..=20).step_by(2).collect()
        };
        let mut header: Vec<String> = vec!["k".into(), "unfair".into()];
        header.extend(algs.iter().map(|a| format!("{} mhr", a.name)));
        header.extend(algs.iter().map(|a| format!("{} ms", a.name)));
        let mut rows = Vec::new();
        for k in ks {
            if k > w.input.len() || k < w.input.num_groups() {
                continue;
            }
            let inst = proportional_instance(w, k, 0.1);
            // "Price of fairness" reference: the unconstrained greedy.
            let unc = FairHmsInstance::unconstrained(std::sync::Arc::clone(&w.input), k).unwrap();
            let unfair = rdp_greedy(unc.data(), k)
                .map(|sel| fairhms_bench::harness::evaluate_mhr(unc.data(), &sel))
                .unwrap_or(0.0);
            let results: Vec<RunResult> = algs.iter().map(|a| run(a, &inst)).collect();
            let mut row = vec![k.to_string(), format!("{unfair:.4}")];
            for r in &results {
                row.push(r.mhr_cell());
            }
            for r in &results {
                row.push(format!("{:.1}", r.millis));
            }
            for r in &results {
                csv.push(vec![
                    w.name.clone(),
                    k.to_string(),
                    r.alg.clone(),
                    r.mhr_cell(),
                    format!("{:.2}", r.millis),
                    format!("{unfair:.4}"),
                ]);
            }
            rows.push(row);
        }
        print_table(&format!("Figures 5+6 — {}", w.name), &header, &rows);
    }
    save_csv(
        "fig5_fig6.csv",
        &["dataset", "k", "alg", "mhr", "millis", "unfair_ref"],
        &csv,
    );
    println!("\nExpected shape (paper): BiGreedy ≥ BiGreedy+ > adapted baselines in MHR on most datasets (F-Greedy competitive at large k on Credit); G-Sphere fastest but weakest; G-DMM absent on Compas (d=9>7).");
}
