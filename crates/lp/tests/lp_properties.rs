//! Property tests for the simplex solver and the regret LPs.

use proptest::prelude::*;

use fairhms_lp::hms::{point_regret, point_regret_with_witness, single_point_regret};
use fairhms_lp::{solve, Constraint, LpProblem, Objective, Relation};

/// Random 2D point sets in (0.05, 1]².
fn points_2d() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec(((0.05f64..=1.0), (0.05f64..=1.0)), 1..8)
}

/// A random point in (0.05, 1]^d.
fn coords(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..=1.0, d)
}

/// A random point in [0, 1]^d where each coordinate is zero with
/// probability 1/3 (so the point may be all-zero).
fn coords_with_zeros(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (0usize..3, 0.05f64..=1.0).prop_map(|(z, x)| if z == 0 { 0.0 } else { x }),
        d,
    )
}

/// Dense scan of `regret(S, p)` over the 2D utility parameter λ.
fn brute_regret_2d(sel: &[(f64, f64)], p: (f64, f64)) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 0..=4000 {
        let l = i as f64 / 4000.0;
        let u = (l, 1.0 - l);
        let fp = u.0 * p.0 + u.1 * p.1;
        if fp <= 1e-12 {
            continue;
        }
        let fs = sel
            .iter()
            .map(|q| u.0 * q.0 + u.1 * q.1)
            .fold(0.0_f64, f64::max);
        worst = worst.max(1.0 - (fs / fp).min(1.0));
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn regret_lp_matches_dense_scan(sel in points_2d(), p in ((0.05f64..=1.0), (0.05f64..=1.0))) {
        let flat: Vec<f64> = sel.iter().flat_map(|&(x, y)| [x, y]).collect();
        let lp = point_regret(2, &flat, &[p.0, p.1]);
        let brute = brute_regret_2d(&sel, p);
        // LP is exact; the scan is a lower bound with grid error
        prop_assert!(lp >= brute - 1e-9, "lp {} < brute {}", lp, brute);
        prop_assert!(lp - brute < 5e-3, "lp {} far above brute {}", lp, brute);
    }

    #[test]
    fn witness_certifies_regret(sel in points_2d(), p in ((0.05f64..=1.0), (0.05f64..=1.0))) {
        let flat: Vec<f64> = sel.iter().flat_map(|&(x, y)| [x, y]).collect();
        let w = point_regret_with_witness(2, &flat, &[p.0, p.1]);
        // utility is scaled so ⟨u,p⟩ = 1 and certifies the regret exactly
        let up = w.utility[0] * p.0 + w.utility[1] * p.1;
        prop_assert!((up - 1.0).abs() < 1e-7, "⟨u,p⟩ = {}", up);
        let best = sel
            .iter()
            .map(|q| w.utility[0] * q.0 + w.utility[1] * q.1)
            .fold(0.0_f64, f64::max);
        prop_assert!(((1.0 - best).clamp(0.0, 1.0) - w.regret).abs() < 1e-7);
        prop_assert!(w.utility.iter().all(|&x| x >= -1e-9), "negative utility");
    }

    #[test]
    fn regret_monotone_in_selection(
        (d, sel, extra, p) in (2usize..=6).prop_flat_map(|d| (
            Just(d),
            prop::collection::vec(coords(d), 1..8),
            coords(d),
            coords(d),
        )),
    ) {
        // adding a point can only reduce the regret; the lazy LP greedy
        // uses an earlier round's value as an upper bound on this
        let flat: Vec<f64> = sel.concat();
        let mut bigger = flat.clone();
        bigger.extend_from_slice(&extra);
        let before = point_regret(d, &flat, &p);
        let after = point_regret(d, &bigger, &p);
        prop_assert!(after <= before + 1e-9, "regret grew: {} -> {}", before, after);
    }

    #[test]
    fn single_point_closed_form_matches_the_lp(
        (d, q, p) in (2usize..=6).prop_flat_map(|d| (Just(d), coords_with_zeros(d), coords_with_zeros(d))),
    ) {
        let closed = single_point_regret(&q, &p);
        let lp = point_regret(d, &q, &p);
        prop_assert!((closed - lp).abs() < 1e-9, "closed form {} vs LP {}", closed, lp);
    }

    #[test]
    fn lp_solutions_are_feasible(
        c in prop::collection::vec(-3.0f64..3.0, 2),
        rows in prop::collection::vec((prop::collection::vec(-2.0f64..2.0, 2), 0.1f64..4.0), 1..5),
    ) {
        // maximize cᵀx over {Ax ≤ b, x ≥ 0} — always feasible (0 works);
        // check the reported optimum satisfies every constraint.
        let problem = LpProblem {
            n_vars: 2,
            objective: Objective::Maximize(c.clone()),
            constraints: rows
                .iter()
                .map(|(a, b)| Constraint::new(a.clone(), Relation::Le, *b))
                .collect(),
        };
        match solve(&problem) {
            Ok(sol) => {
                for (a, b) in &rows {
                    let lhs: f64 = a.iter().zip(&sol.x).map(|(ai, xi)| ai * xi).sum();
                    prop_assert!(lhs <= b + 1e-6, "violated: {} > {}", lhs, b);
                }
                prop_assert!(sol.x.iter().all(|&x| x >= -1e-9));
                let val: f64 = c.iter().zip(&sol.x).map(|(ci, xi)| ci * xi).sum();
                prop_assert!((val - sol.objective).abs() < 1e-6);
                // optimality spot-check: no axis-aligned improving step of 1e-3
                // (cheap necessary condition)
                prop_assert!(sol.objective >= -1e-9 || c.iter().all(|&ci| ci <= 0.0));
            }
            Err(fairhms_lp::LpError::Unbounded) => {
                // plausible when c has a positive direction unconstrained
            }
            Err(e) => prop_assert!(false, "unexpected LP error: {e}"),
        }
    }
}
