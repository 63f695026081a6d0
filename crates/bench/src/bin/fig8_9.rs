//! Figures 8 and 9: MHR (Fig. 8) and running time (Fig. 9) of BiGreedy and
//! BiGreedy+ as the sample size `m` (resp. maximum sample size `M`) varies
//! over {1.25, 2.5, 5, 10, 20, 40} × k·d.
//!
//! `cargo run --release -p fairhms-bench --bin fig8_9 [--full]`

#![allow(clippy::disallowed_methods)] // figure reproduction measures wall time by design
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_bench::harness::{evaluate_mhr, full_mode, print_table, save_csv};
use fairhms_bench::workloads::{self, proportional_instance};
use fairhms_core::adaptive::{bigreedy_plus, BiGreedyPlusConfig};
use fairhms_core::bigreedy::{bigreedy_on_net, BiGreedyConfig};
use fairhms_geometry::sphere::random_net;

fn main() {
    let full = full_mode();
    let k = 10;
    let suite = workloads::md_suite(if full { 10_000 } else { 2_000 });
    let multipliers = [1.25_f64, 2.5, 5.0, 10.0, 20.0, 40.0];
    let mut csv: Vec<Vec<String>> = Vec::new();

    for w in &suite {
        if k > w.input().len() || k < w.input().num_groups() {
            continue;
        }
        let d = w.input().dim();
        let inst = proportional_instance(w, k, 0.1);
        let header: Vec<String> = vec![
            "m (=mult·k·d)".into(),
            "BiGreedy mhr".into(),
            "BiGreedy ms".into(),
            "BiGreedy+ mhr".into(),
            "BiGreedy+ ms".into(),
        ];
        let mut rows = Vec::new();
        for &mult in &multipliers {
            let m = ((mult * k as f64 * d as f64).round() as usize).max(4);

            let cfg = BiGreedyConfig::default();
            let mut rng = StdRng::seed_from_u64(workloads::SEED);
            let net = random_net(d, m, &mut rng);
            let t = Instant::now();
            let (sol_bg, _) = bigreedy_on_net(&inst, &net, &cfg).expect("bigreedy");
            let t_bg = t.elapsed().as_secs_f64() * 1e3;
            let mhr_bg = evaluate_mhr(w.input(), &sol_bg.indices);

            let plus_cfg = BiGreedyPlusConfig {
                m0: Some(((m as f64) * 0.05).ceil() as usize),
                max_m: Some(m),
                // Paper note (Appendix B): this experiment forces BiGreedy+
                // to exhaust M, so λ = 0 disables early stabilization.
                lambda: 0.0,
                seed: workloads::SEED,
                ..BiGreedyPlusConfig::default()
            };
            let t = Instant::now();
            let sol_plus = bigreedy_plus(&inst, &plus_cfg).expect("bigreedy+");
            let t_plus = t.elapsed().as_secs_f64() * 1e3;
            let mhr_plus = evaluate_mhr(w.input(), &sol_plus.indices);

            rows.push(vec![
                m.to_string(),
                format!("{mhr_bg:.4}"),
                format!("{t_bg:.1}"),
                format!("{mhr_plus:.4}"),
                format!("{t_plus:.1}"),
            ]);
            csv.push(vec![
                w.name().to_string(),
                m.to_string(),
                format!("{mhr_bg:.4}"),
                format!("{t_bg:.2}"),
                format!("{mhr_plus:.4}"),
                format!("{t_plus:.2}"),
            ]);
        }
        print_table(
            &format!("Figures 8+9 — {} (vary m, k={k})", w.name()),
            &header,
            &rows,
        );
    }
    save_csv(
        "fig8_fig9.csv",
        &[
            "dataset",
            "m",
            "bigreedy_mhr",
            "bigreedy_ms",
            "plus_mhr",
            "plus_ms",
        ],
        &csv,
    );
    println!("\nExpected shape (paper): MHR mostly increases then flattens beyond m = 10·k·d; time grows roughly linearly with m.");
}
