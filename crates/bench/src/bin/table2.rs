//! Regenerates Table 2: statistics of the datasets used in the experiments
//! (n, d, C, and the sum of per-group skyline sizes).
//!
//! `cargo run --release -p fairhms-bench --bin table2`

use fairhms_bench::harness::{print_table, save_csv};
use fairhms_bench::workloads;
use fairhms_data::stats::DatasetStats;

fn main() {
    let mut specs: Vec<fairhms_bench::workloads::Workload> = vec![
        workloads::anticor(10_000, 2, 3),
        workloads::anticor(10_000, 6, 3),
        workloads::lawschs("gender"),
        workloads::lawschs("race"),
        workloads::adult(&["gender"]),
        workloads::adult(&["race"]),
        workloads::adult(&["gender", "race"]),
        workloads::compas(&["gender"]),
        workloads::compas(&["isRecid"]),
        workloads::compas(&["gender", "isRecid"]),
        workloads::credit("housing"),
        workloads::credit("job"),
        workloads::credit("working_years"),
    ];

    let header: Vec<String> = ["Dataset", "d", "n", "C", "#skylines"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for w in specs.iter_mut() {
        // d and C read the same on either form; n is the full table's
        // row count and the skyline count the restricted input's.
        let st = DatasetStats::compute(w.input());
        rows.push(vec![
            w.name().to_string(),
            st.d.to_string(),
            w.prep.dataset.len().to_string(),
            st.c.to_string(),
            w.input().len().to_string(),
        ]);
    }
    print_table("Table 2: dataset statistics", &header, &rows);
    save_csv("table2.csv", &["dataset", "d", "n", "C", "skylines"], &rows);
    println!("\nPaper reference: Lawschs 19/42, Adult 130/206/339, Compas 195/229/296, Credit 120/126/185, AntiCor 0.9n-n.");
}
