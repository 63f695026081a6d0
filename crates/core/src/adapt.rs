//! Fair adaptations of the unconstrained baselines (paper Section 5.1).
//!
//! * [`g_adapt`] — the `G-<Alg>` scheme: split the budget `k` into
//!   per-group quotas `k_c ∈ [l_c, h_c]` (proportionally, by largest
//!   remainder), run the base algorithm on each group's sub-dataset with
//!   its quota, and take the union. Feasible by construction, but the
//!   per-group runs are blind to each other, so the union tends to contain
//!   redundant points — the quality gap Figures 5–7 show.
//! * [`f_greedy`] — the matroid-greedy adaptation of `RDP-Greedy`: at each
//!   step add the *feasible* point with the maximum LP-computed regret
//!   against the current selection. The paper attributes `F-Greedy`'s
//!   cost to one LP per candidate per step; the shared lazy loop
//!   (`lp_greedy`) solves only the LPs whose upper bound (an earlier LP
//!   value, or the closed-form regret against each pick) still comes
//!   within a 1e-9 margin of the step's best fresh value, and drops a
//!   candidate the matroid refuses for good. It picks what the eager scan
//!   picks.

use fairhms_data::Dataset;
use fairhms_matroid::Matroid;

use crate::lp_greedy::{lazy_lp_greedy, LpGreedy};
use crate::types::{CoreError, FairHmsInstance, Solution};

/// Splits `k` into per-group quotas `k_c ∈ [l_c, min(h_c, |D_c|)]`,
/// proportional to group sizes (largest-remainder rounding on top of the
/// lower bounds).
pub fn distribute_quota(inst: &FairHmsInstance) -> Vec<usize> {
    let m = inst.matroid();
    let sizes = inst.data().group_sizes();
    let c = m.num_groups();
    let n: usize = sizes.iter().sum();
    let mut quota: Vec<usize> = m.lower().to_vec();
    let mut remaining = inst.k().saturating_sub(quota.iter().sum());
    while remaining > 0 {
        // deficit = ideal proportional share − current quota
        let next = (0..c)
            .filter(|&g| quota[g] < m.upper()[g].min(sizes[g]))
            .max_by(|&a, &b| {
                let da = inst.k() as f64 * sizes[a] as f64 / n as f64 - quota[a] as f64;
                let db = inst.k() as f64 * sizes[b] as f64 / n as f64 - quota[b] as f64;
                da.total_cmp(&db)
            });
        match next {
            Some(g) => {
                quota[g] += 1;
                remaining -= 1;
            }
            None => break, // bounds saturated; instance validation makes this unreachable
        }
    }
    quota
}

/// Runs `base` (an unconstrained HMS algorithm) per group with the
/// proportional quotas and unions the results — the paper's `G-<Alg>`
/// adaptation. Errors from any group run propagate (e.g. `G-Sphere` when
/// some quota is below `d`).
pub fn g_adapt<F>(inst: &FairHmsInstance, base: F) -> Result<Solution, CoreError>
where
    F: Fn(&Dataset, usize) -> Result<Vec<usize>, CoreError>,
{
    let data = inst.data();
    let quota = distribute_quota(inst);
    let mut union: Vec<usize> = Vec::with_capacity(inst.k());
    for (g, &kc) in quota.iter().enumerate() {
        if kc == 0 {
            continue;
        }
        let rows = data.group_indices(g);
        let sub = data.subset(&rows);
        let local = base(&sub, kc)?;
        union.extend(local.into_iter().map(|i| rows[i]));
    }
    let sel = inst.complete_to_feasible(&union)?;
    Ok(Solution::new(sel, None))
}

/// `F-Greedy`: matroid-constrained LP greedy. The first pick maximizes the
/// uniform-utility score (the first maximal one); every later pick
/// maximizes the exact regret of the current selection, subject to the
/// fairness matroid. The final set is padded to `k` if the greedy stalls.
pub fn f_greedy(inst: &FairHmsInstance) -> Result<Solution, CoreError> {
    let sel = inst.complete_to_feasible(&f_greedy_picks(inst).sel)?;
    Ok(Solution::new(sel, None))
}

/// `F-Greedy`'s picks before padding, with the LP count.
pub(crate) fn f_greedy_picks(inst: &FairHmsInstance) -> LpGreedy {
    let data = inst.data();
    let matroid = inst.matroid();
    // All regrets are 1 on the first pick: the uniform utility score
    // breaks the tie, as RDP-Greedy does.
    let mut seed: Option<(usize, f64)> = None;
    for i in (0..data.len()).filter(|&i| matroid.can_extend(&[], i)) {
        let score = data.point(i).iter().sum::<f64>();
        if seed.is_none_or(|(_, best)| score > best) {
            seed = Some((i, score));
        }
    }
    match seed {
        Some((i, _)) => {
            lazy_lp_greedy(data, vec![i], inst.k(), |sel, p| matroid.can_extend(sel, p))
        }
        None => LpGreedy {
            sel: Vec::new(),
            lps: 0,
        },
    }
}

/// The eager `F-Greedy` loop — one LP per feasible candidate per
/// pick — kept as the oracle the lazy loop must match.
#[cfg(test)]
pub(crate) fn f_greedy_eager(inst: &FairHmsInstance) -> Result<Solution, CoreError> {
    use fairhms_lp::hms::point_regret;

    let data = inst.data();
    let dim = data.dim();
    let n = data.len();
    let matroid = inst.matroid();

    let mut sel: Vec<usize> = Vec::with_capacity(inst.k());
    let mut sel_flat: Vec<f64> = Vec::new();
    while sel.len() < inst.k() {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if sel.contains(&i) || !matroid.can_extend(&sel, i) {
                continue;
            }
            let gain = if sel.is_empty() {
                data.point(i).iter().sum::<f64>()
            } else {
                point_regret(dim, &sel_flat, data.point(i))
            };
            match best {
                Some((_, bg)) if gain <= bg => {}
                _ => best = Some((i, gain)),
            }
        }
        let Some((i, _)) = best else { break };
        sel.push(i);
        sel_flat.extend_from_slice(data.point(i));
    }
    let sel = inst.complete_to_feasible(&sel)?;
    Ok(Solution::new(sel, None))
}

/// The unconstrained `Greedy` adapted only by quota-splitting — kept
/// separate from [`f_greedy`] because the paper evaluates both
/// (`G-Greedy` vs `F-Greedy`).
pub fn g_greedy(inst: &FairHmsInstance) -> Result<Solution, CoreError> {
    g_adapt(inst, crate::baselines::rdp_greedy)
}

/// Convenience for evaluating seed utilities in tests.
#[cfg(test)]
fn uniform_score(data: &Dataset, i: usize) -> f64 {
    let d = data.dim();
    fairhms_geometry::vecmath::dot(data.point(i), &vec![1.0 / d as f64; d])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{dmm, hitting_set, sphere, DmmConfig, HsConfig};
    use crate::eval::mhr_exact_2d;
    use fairhms_data::realsim::lsac_example;

    fn lsac_instance(k: usize) -> FairHmsInstance {
        let mut ds = lsac_example().dataset(&["gender"]).unwrap();
        ds.normalize();
        let c = ds.num_groups();
        FairHmsInstance::new(ds, k, vec![1; c], vec![k - 1; c]).unwrap()
    }

    #[test]
    fn quota_respects_bounds_and_sums_to_k() {
        for k in 2..=6 {
            let inst = lsac_instance(k);
            let q = distribute_quota(&inst);
            assert_eq!(q.iter().sum::<usize>(), k);
            for (g, &qc) in q.iter().enumerate() {
                assert!(qc >= inst.matroid().lower()[g]);
                assert!(qc <= inst.matroid().upper()[g]);
            }
        }
    }

    #[test]
    fn g_greedy_feasible_and_reasonable() {
        let inst = lsac_instance(4);
        let sol = g_greedy(&inst).unwrap();
        assert_eq!(sol.len(), 4);
        assert!(inst.matroid().is_feasible(&sol.indices));
        let mhr = mhr_exact_2d(inst.data(), &sol.indices);
        assert!(mhr > 0.9, "G-Greedy mhr = {mhr}");
    }

    #[test]
    fn g_adapters_for_all_baselines_are_feasible() {
        let inst = lsac_instance(4);
        let runs: Vec<Solution> = vec![
            g_adapt(&inst, |d, k| dmm(d, k, &DmmConfig::default())).unwrap(),
            g_adapt(&inst, sphere).unwrap(),
            g_adapt(&inst, |d, k| hitting_set(d, k, &HsConfig::default())).unwrap(),
        ];
        for sol in runs {
            assert_eq!(sol.len(), 4);
            assert!(inst.matroid().is_feasible(&sol.indices));
            assert_eq!(inst.matroid().violations(&sol.indices), 0);
        }
    }

    #[test]
    fn g_sphere_fails_when_quota_below_d() {
        // k = 2, two groups, l = h = 1 each: quotas are 1 < d = 2.
        let inst = lsac_instance(2);
        assert!(matches!(
            g_adapt(&inst, sphere).unwrap_err(),
            CoreError::ResourceLimit { .. }
        ));
    }

    #[test]
    fn f_greedy_feasible_and_close_to_optimal() {
        let inst = lsac_instance(3);
        let sol = f_greedy(&inst).unwrap();
        assert_eq!(sol.len(), 3);
        assert!(inst.matroid().is_feasible(&sol.indices));
        let mhr = mhr_exact_2d(inst.data(), &sol.indices);
        // exact fair optimum for k = 3 is ≥ the k = 2 optimum 0.9834
        assert!(mhr > 0.94, "F-Greedy mhr = {mhr}");
    }

    #[test]
    fn f_greedy_beats_or_matches_g_greedy_usually() {
        // On this tiny instance the matroid-aware greedy should not be much
        // worse than the split-quota adaptation.
        let inst = lsac_instance(4);
        let f = mhr_exact_2d(inst.data(), &f_greedy(&inst).unwrap().indices);
        let g = mhr_exact_2d(inst.data(), &g_greedy(&inst).unwrap().indices);
        assert!(f >= g - 0.05, "f = {f}, g = {g}");
    }

    #[test]
    fn uniform_score_helper() {
        let inst = lsac_instance(2);
        // a5 has the best LSAT; uniform score blends both attributes.
        let s4 = uniform_score(inst.data(), 4);
        assert!(s4 > 0.5);
    }
}
