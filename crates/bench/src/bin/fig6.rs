//! Figure 6: running time of the fair algorithms on the multi-dimensional
//! datasets, varying `k`.
//!
//! Figure 6 plots the *time* view of exactly the runs behind Figure 5; this
//! binary reuses the shared CSV when present (produced by `--bin fig5`) and
//! otherwise tells the user to generate it — re-running hours of identical
//! work by default would be wasteful.
//!
//! `cargo run --release -p fairhms-bench --bin fig6`

use std::collections::BTreeMap;

use fairhms_bench::harness::{print_table, results_dir};

fn main() {
    let path = results_dir().join("fig5_fig6.csv");
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(_) => {
            eprintln!(
                "{} not found — run `cargo run --release -p fairhms-bench --bin fig5` first;\nFigure 6 is the time view of the same experiment.",
                path.display()
            );
            std::process::exit(1);
        }
    };

    // dataset -> k -> alg -> millis
    let mut panels: BTreeMap<String, BTreeMap<usize, BTreeMap<String, String>>> = BTreeMap::new();
    let mut algs: Vec<String> = Vec::new();
    for line in content.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() < 5 {
            continue;
        }
        let (dataset, k, alg, millis) = (cells[0], cells[1], cells[2], cells[4]);
        let k: usize = match k.parse() {
            Ok(v) => v,
            Err(_) => continue,
        };
        if !algs.iter().any(|a| a == alg) {
            algs.push(alg.to_string());
        }
        panels
            .entry(dataset.to_string())
            .or_default()
            .entry(k)
            .or_default()
            .insert(alg.to_string(), millis.to_string());
    }

    for (dataset, by_k) in &panels {
        let mut header: Vec<String> = vec!["k".into()];
        header.extend(algs.iter().map(|a| format!("{a} ms")));
        let rows: Vec<Vec<String>> = by_k
            .iter()
            .map(|(k, by_alg)| {
                let mut row = vec![k.to_string()];
                for a in &algs {
                    row.push(by_alg.get(a).cloned().unwrap_or_else(|| "-".into()));
                }
                row
            })
            .collect();
        print_table(&format!("Figure 6 — {dataset} (time, ms)"), &header, &rows);
    }
    println!("\nExpected shape (paper): G-Sphere fastest; BiGreedy+ up to ~5x faster than BiGreedy; F-Greedy slowest of the greedy family (one LP per skyline item per iteration). This F-Greedy solves only the LPs whose upper bound can still win, so its gap is narrower.");
}
