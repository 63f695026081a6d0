//! Cross-crate exactness checks: IntCov vs brute-force enumeration and vs
//! the independent greedy interval-cover solver, the envelope evaluator vs
//! the LP evaluator, and BiGreedy against the exact optimum.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fairhms::core::bigreedy::{bigreedy, BiGreedyConfig};
use fairhms::core::eval::{mhr_exact_2d, mhr_exact_lp};
use fairhms::core::intcov::intcov;
use fairhms::core::types::FairHmsInstance;
use fairhms::data::Dataset;

mod exact2d_greedy;
use exact2d_greedy::exact2d_greedy;

fn random_2d_instance(seed: u64, n: usize, c: usize, k: usize) -> FairHmsInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<f64> = (0..2 * n).map(|_| rng.gen::<f64>()).collect();
    let groups: Vec<usize> = (0..n).map(|_| rng.gen_range(0..c)).collect();
    let mut data = Dataset::new(
        "rand",
        2,
        points,
        groups,
        (0..c).map(|g| format!("g{g}")).collect(),
    )
    .unwrap();
    data.normalize();
    FairHmsInstance::new(data, k, vec![0; c], vec![k; c]).unwrap()
}

fn brute_force_optimum(inst: &FairHmsInstance) -> f64 {
    let n = inst.len();
    let k = inst.k();
    let mut best = 0.0_f64;
    let mut sel = vec![0usize; k];
    fn rec(
        inst: &FairHmsInstance,
        sel: &mut Vec<usize>,
        depth: usize,
        start: usize,
        best: &mut f64,
    ) {
        let k = sel.len();
        if depth == k {
            if inst.matroid().is_feasible(sel) {
                let m = mhr_exact_2d(inst.data(), sel);
                if m > *best {
                    *best = m;
                }
            }
            return;
        }
        for i in start..inst.len() {
            sel[depth] = i;
            rec(inst, sel, depth + 1, i + 1, best);
        }
    }
    rec(inst, &mut sel, 0, 0, &mut best);
    let _ = n;
    best
}

#[test]
fn intcov_matches_brute_force_unconstrained() {
    for seed in 0..6 {
        let inst = random_2d_instance(seed, 12, 1, 3);
        let sol = intcov(&inst).unwrap();
        let opt = brute_force_optimum(&inst);
        assert!(
            (sol.mhr.unwrap() - opt).abs() < 1e-7,
            "seed {seed}: intcov {} vs brute {opt}",
            sol.mhr.unwrap()
        );
    }
}

#[test]
fn intcov_matches_brute_force_with_fairness() {
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let n = 10;
        let c = 2;
        let points: Vec<f64> = (0..2 * n).map(|_| rng.gen::<f64>()).collect();
        let groups: Vec<usize> = (0..n).map(|i| i % c).collect();
        let mut data =
            Dataset::new("rand", 2, points, groups, vec!["a".into(), "b".into()]).unwrap();
        data.normalize();
        let inst = FairHmsInstance::new(data, 3, vec![1, 1], vec![2, 2]).unwrap();
        let sol = intcov(&inst).unwrap();
        assert!(inst.matroid().is_feasible(&sol.indices));
        let opt = brute_force_optimum(&inst);
        assert!(
            (sol.mhr.unwrap() - opt).abs() < 1e-7,
            "seed {seed}: intcov {} vs brute {opt}",
            sol.mhr.unwrap()
        );
    }
}

#[test]
fn intcov_matches_the_interval_cover_solver_unconstrained() {
    // Larger than brute force reaches: the two exact solvers share only
    // the geometric primitives, not their decision logic.
    for seed in 0..12 {
        let k = 2 + (seed as usize) % 4;
        let inst = random_2d_instance(200 + seed, 60, 1, k);
        let ours = intcov(&inst).unwrap();
        let theirs = exact2d_greedy(inst.data(), k).unwrap();
        assert!(
            (ours.mhr.unwrap() - theirs.mhr.unwrap()).abs() < 1e-9,
            "seed {seed}, k {k}: intcov {} vs interval cover {}",
            ours.mhr.unwrap(),
            theirs.mhr.unwrap()
        );
    }
}

#[test]
fn envelope_and_lp_evaluators_agree_on_random_data() {
    for seed in 0..10 {
        let inst = random_2d_instance(seed, 30, 2, 4);
        let mut rng = StdRng::seed_from_u64(seed * 31 + 7);
        let sel: Vec<usize> = (0..4).map(|_| rng.gen_range(0..inst.len())).collect();
        let a = mhr_exact_2d(inst.data(), &sel);
        let b = mhr_exact_lp(inst.data(), &sel);
        assert!((a - b).abs() < 1e-6, "seed {seed}: {a} vs {b}");
    }
}

#[test]
fn bigreedy_never_beats_the_exact_optimum() {
    for seed in 0..5 {
        let inst = random_2d_instance(seed, 20, 2, 4);
        let exact = intcov(&inst).unwrap();
        let bg = bigreedy(&inst, &BiGreedyConfig::paper_default(4, 2)).unwrap();
        let bg_exact = mhr_exact_2d(inst.data(), &bg.indices);
        assert!(
            bg_exact <= exact.mhr.unwrap() + 1e-9,
            "seed {seed}: approximation {bg_exact} beats optimum {}",
            exact.mhr.unwrap()
        );
        // ...and stays within a sane factor of it
        assert!(
            bg_exact >= 0.5 * exact.mhr.unwrap() - 1e-9,
            "seed {seed}: {bg_exact} below half of {}",
            exact.mhr.unwrap()
        );
    }
}
