//! HMS-specific LP helpers.
//!
//! The classical reduction (Nanongkai et al., VLDB 2010): for a selected
//! set `S` and a database point `p`, the worst-case *regret* that `p`
//! inflicts on `S` is
//!
//! ```text
//! regret(S, p) = max_{u ≥ 0} (⟨u,p⟩ − max_{q∈S} ⟨u,q⟩) / ⟨u,p⟩
//! ```
//!
//! By scale-invariance we may fix `⟨u, p⟩ = 1`, turning the inner problem
//! into the LP `min t  s.t. ⟨u,q⟩ ≤ t ∀q∈S, ⟨u,p⟩ = 1, u ≥ 0`, whose optimum
//! `t*` gives `regret(S, p) = max(0, 1 − t*)`. The maximum regret ratio of
//! `S` over the whole database is the max over `p`, and the minimum
//! happiness ratio is its complement:
//! `mhr(S) = 1 − max_p regret(S, p) = min_p min(1, t*(p))`.

use crate::simplex::{solve, Constraint, LpError, LpProblem, Objective, Relation};

/// Result of one regret LP: the regret value and the witness utility
/// (normalized so `⟨u, p⟩ = 1`).
#[derive(Debug, Clone)]
pub struct RegretWitness {
    /// `max(0, 1 − t*)`, the worst-case regret of `S` against `p`.
    pub regret: f64,
    /// A utility vector attaining it (scaled so `⟨u, p⟩ = 1`).
    pub utility: Vec<f64>,
}

/// Computes `regret(S, p)` together with the maximizing utility.
///
/// `sel` holds the selected points row-major with `dim` columns. An empty
/// selection has regret 1 for any nonzero `p` (witnessed by the utility
/// concentrated on `p`'s largest coordinate); an all-zero `p` has regret 0.
pub fn point_regret_with_witness(dim: usize, sel: &[f64], p: &[f64]) -> RegretWitness {
    assert_eq!(p.len(), dim);
    assert_eq!(sel.len() % dim.max(1), 0);
    let pmax = p.iter().cloned().fold(0.0_f64, f64::max);
    if pmax <= 0.0 {
        return RegretWitness {
            regret: 0.0,
            utility: vec![0.0; dim],
        };
    }
    if sel.is_empty() {
        let mut u = vec![0.0; dim];
        let arg = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        u[arg] = 1.0 / p[arg];
        return RegretWitness {
            regret: 1.0,
            utility: u,
        };
    }

    // Variables: u[0..dim], t (index dim). Minimize t.
    let mut constraints: Vec<Constraint> = Vec::with_capacity(sel.len() / dim + 1);
    for q in sel.chunks_exact(dim) {
        let mut row = Vec::with_capacity(dim + 1);
        row.extend_from_slice(q);
        row.push(-1.0);
        constraints.push(Constraint::new(row, Relation::Le, 0.0));
    }
    let mut fix = Vec::with_capacity(dim + 1);
    fix.extend_from_slice(p);
    fix.push(0.0);
    constraints.push(Constraint::new(fix, Relation::Eq, 1.0));

    let mut c = vec![0.0; dim + 1];
    c[dim] = 1.0;
    let problem = LpProblem {
        n_vars: dim + 1,
        objective: Objective::Minimize(c),
        constraints,
    };
    match solve(&problem) {
        Ok(sol) => {
            let t = sol.objective;
            RegretWitness {
                regret: (1.0 - t).clamp(0.0, 1.0),
                utility: sol.x[..dim].to_vec(),
            }
        }
        Err(LpError::Infeasible) => {
            // ⟨u,p⟩ = 1 infeasible only for p = 0, handled above; defensive.
            RegretWitness {
                regret: 0.0,
                utility: vec![0.0; dim],
            }
        }
        Err(e) => unreachable!("regret LP cannot be unbounded/malformed: {e}"),
    }
}

/// `regret(S, p)` without the witness.
pub fn point_regret(dim: usize, sel: &[f64], p: &[f64]) -> f64 {
    point_regret_with_witness(dim, sel, p).regret
}

/// `regret({q}, p)` in closed form, without an LP.
///
/// Against one point the LP is `min ⟨u,q⟩ s.t. ⟨u,p⟩ = 1, u ≥ 0`, whose
/// optimum sits at a vertex `u = e_i / p_i` with `p_i > 0`. So
/// `t* = min_{i: p_i > 0} q_i / p_i` and the regret is `max(0, 1 − t*)`:
/// the value [`point_regret`] returns for the selection `{q}`, up to float
/// rounding. Both points must have non-negative coordinates, as every
/// dataset row has; an all-zero `p` has regret 0 (`t*` is `+∞`).
pub fn single_point_regret(q: &[f64], p: &[f64]) -> f64 {
    debug_assert_eq!(q.len(), p.len());
    let t = q
        .iter()
        .zip(p)
        .filter(|&(_, &pi)| pi > 0.0)
        .map(|(&qi, &pi)| qi / pi)
        .fold(f64::INFINITY, f64::min);
    (1.0 - t).clamp(0.0, 1.0)
}

/// Maximum regret ratio of the selection over the database:
/// `mrr(S, D) = max_{p∈D} regret(S, p)`.
pub fn max_regret_ratio(dim: usize, sel: &[f64], db: &[f64]) -> f64 {
    db.chunks_exact(dim)
        .map(|p| point_regret(dim, sel, p))
        .fold(0.0, f64::max)
}

/// Exact minimum happiness ratio `mhr(S, D) = 1 − mrr(S, D)`.
pub fn min_happiness_ratio(dim: usize, sel: &[f64], db: &[f64]) -> f64 {
    1.0 - max_regret_ratio(dim, sel, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regret_zero_when_selection_contains_db() {
        let db = [1.0, 0.0, 0.0, 1.0, 0.6, 0.6];
        assert!(max_regret_ratio(2, &db, &db) < 1e-9);
        assert!((min_happiness_ratio(2, &db, &db) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regret_of_empty_selection_is_one() {
        let p = [0.3, 0.8];
        let w = point_regret_with_witness(2, &[], &p);
        assert_eq!(w.regret, 1.0);
        // witness is scaled so ⟨u, p⟩ = 1
        let up: f64 = w.utility.iter().zip(&p).map(|(u, x)| u * x).sum();
        assert!((up - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_point_never_regretted() {
        let sel = [0.5, 0.5];
        assert_eq!(point_regret(2, &sel, &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn known_2d_regret() {
        // S = {(1,0)}, p = (0,1): at u = (0,1), S scores 0, regret 1.
        let sel = [1.0, 0.0];
        assert!((point_regret(2, &sel, &[0.0, 1.0]) - 1.0).abs() < 1e-9);
        // S = {(1,0),(0,1)}, p = (0.8,0.8): worst u is the diagonal;
        // fix ⟨u,p⟩=1 ⇒ u = (0.625, 0.625), t = 0.625, regret 0.375.
        let sel2 = [1.0, 0.0, 0.0, 1.0];
        assert!((point_regret(2, &sel2, &[0.8, 0.8]) - 0.375).abs() < 1e-9);
    }

    #[test]
    fn dominated_point_has_no_regret() {
        let sel = [0.9, 0.9];
        assert!(point_regret(2, &sel, &[0.5, 0.5]) < 1e-9);
        assert!(point_regret(2, &sel, &[0.9, 0.2]) < 1e-9);
    }

    #[test]
    fn mhr_matches_grid_search_3d() {
        // brute-force check in 3D on a tiny instance
        let db: Vec<f64> = vec![
            1.0, 0.1, 0.2, //
            0.1, 1.0, 0.3, //
            0.2, 0.3, 1.0, //
            0.7, 0.7, 0.1, //
        ];
        let sel: Vec<f64> = vec![
            1.0, 0.1, 0.2, //
            0.1, 1.0, 0.3, //
        ];
        let lp_mhr = min_happiness_ratio(3, &sel, &db);
        // dense grid over the simplex
        let mut grid_mhr = f64::INFINITY;
        let steps = 60;
        for i in 0..=steps {
            for j in 0..=(steps - i) {
                let k = steps - i - j;
                let u = [i as f64, j as f64, k as f64];
                let best_db = db
                    .chunks_exact(3)
                    .map(|p| u[0] * p[0] + u[1] * p[1] + u[2] * p[2])
                    .fold(0.0_f64, f64::max);
                if best_db <= 0.0 {
                    continue;
                }
                let best_sel = sel
                    .chunks_exact(3)
                    .map(|p| u[0] * p[0] + u[1] * p[1] + u[2] * p[2])
                    .fold(0.0_f64, f64::max);
                grid_mhr = grid_mhr.min(best_sel / best_db);
            }
        }
        assert!(
            lp_mhr <= grid_mhr + 1e-9,
            "LP mhr {lp_mhr} should lower-bound grid {grid_mhr}"
        );
        assert!(
            grid_mhr - lp_mhr < 0.02,
            "LP mhr {lp_mhr} too far below grid {grid_mhr}"
        );
    }

    #[test]
    fn witness_utility_certifies_regret() {
        let sel = [1.0, 0.0, 0.0, 1.0];
        let p = [0.9, 0.6];
        let w = point_regret_with_witness(2, &sel, &p);
        let up: f64 = w.utility.iter().zip(&p).map(|(u, x)| u * x).sum();
        let best_sel = sel
            .chunks_exact(2)
            .map(|q| w.utility[0] * q[0] + w.utility[1] * q[1])
            .fold(0.0_f64, f64::max);
        assert!((up - 1.0).abs() < 1e-8);
        assert!(((1.0 - best_sel) - w.regret).abs() < 1e-8);
    }
}
