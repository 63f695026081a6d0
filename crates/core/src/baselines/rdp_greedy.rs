//! `RDP-Greedy` (Nanongkai et al., VLDB 2010).
//!
//! The classic regret-driven greedy: seed with the best point for the
//! uniform utility, then repeatedly add the point that currently inflicts
//! the maximum regret on the selection, where a point's regret is the
//! LP `min t s.t. ⟨u,q⟩ ≤ t ∀q∈S, ⟨u,p⟩ = 1, u ≥ 0`. The original solves
//! that LP for every candidate at every step. Here the shared lazy loop
//! (`lp_greedy`, also behind `F-Greedy`) keeps an upper bound per
//! candidate (its last LP value, lowered after each pick to the
//! closed-form regret against the picked point) and solves a candidate's
//! LP only while that bound is within a 1e-9 margin of the step's best
//! fresh value. It picks what the eager scan picks.

use fairhms_data::Dataset;
use fairhms_geometry::vecmath::dot;

use crate::lp_greedy::{lazy_lp_greedy, LpGreedy};
use crate::types::CoreError;

/// Runs RDP-Greedy for an unconstrained size-`k` HMS.
pub fn rdp_greedy(data: &Dataset, k: usize) -> Result<Vec<usize>, CoreError> {
    let mut sel = rdp_greedy_picks(data, k)?.sel;
    sel.sort_unstable();
    Ok(sel)
}

/// RDP-Greedy's picks in pick order, with the LP count.
pub(crate) fn rdp_greedy_picks(data: &Dataset, k: usize) -> Result<LpGreedy, CoreError> {
    let n = data.len();
    if n == 0 {
        return Err(CoreError::EmptyDataset);
    }
    if k == 0 {
        return Err(CoreError::KZero);
    }
    if k > n {
        return Err(CoreError::KTooLarge { k, n });
    }
    // Seed: the best point for the uniform utility (the last one on ties,
    // as `Iterator::max_by` returns).
    let dim = data.dim();
    let uniform = vec![1.0 / dim as f64; dim];
    let seed = (0..n)
        .max_by(|&a, &b| dot(data.point(a), &uniform).total_cmp(&dot(data.point(b), &uniform)))
        .expect("non-empty");
    Ok(lazy_lp_greedy(data, vec![seed], k, |_, _| true))
}

/// The eager RDP-Greedy loop — one LP per candidate per pick — kept as
/// the oracle the lazy loop must match.
#[cfg(test)]
pub(crate) fn rdp_greedy_eager(data: &Dataset, k: usize) -> Result<Vec<usize>, CoreError> {
    use fairhms_lp::hms::point_regret;

    let n = data.len();
    if n == 0 {
        return Err(CoreError::EmptyDataset);
    }
    if k == 0 {
        return Err(CoreError::KZero);
    }
    if k > n {
        return Err(CoreError::KTooLarge { k, n });
    }
    let dim = data.dim();

    // Seed: the best point for the uniform utility.
    let uniform = vec![1.0 / dim as f64; dim];
    let seed = (0..n)
        .max_by(|&a, &b| dot(data.point(a), &uniform).total_cmp(&dot(data.point(b), &uniform)))
        .expect("non-empty");
    let mut sel: Vec<usize> = vec![seed];
    let mut sel_flat: Vec<f64> = data.point(seed).to_vec();

    while sel.len() < k {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if sel.contains(&i) {
                continue;
            }
            let r = point_regret(dim, &sel_flat, data.point(i));
            match best {
                Some((_, br)) if r <= br => {}
                _ => best = Some((i, r)),
            }
        }
        let Some((i, _)) = best else { break };
        sel.push(i);
        sel_flat.extend_from_slice(data.point(i));
    }
    sel.sort_unstable();
    Ok(sel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::mhr_exact_2d;
    use fairhms_data::realsim::lsac_example;

    fn lsac() -> Dataset {
        let mut ds = lsac_example().dataset(&["gender"]).unwrap();
        ds.normalize();
        ds
    }

    #[test]
    fn selects_k_distinct_points() {
        let ds = lsac();
        let sel = rdp_greedy(&ds, 3).unwrap();
        assert_eq!(sel.len(), 3);
        let mut d = sel.clone();
        d.dedup();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn quality_reasonable_on_lsac() {
        // The exact size-3 optimum is 0.9984; the greedy should land close.
        let ds = lsac();
        let sel = rdp_greedy(&ds, 3).unwrap();
        let mhr = mhr_exact_2d(&ds, &sel);
        assert!(mhr > 0.95, "greedy mhr = {mhr}");
    }

    #[test]
    fn covers_extremes_eventually() {
        // With k = n the whole dataset is selected and mhr = 1.
        let ds = lsac();
        let n = ds.len();
        let sel = rdp_greedy(&ds, n).unwrap();
        assert_eq!(sel.len(), n);
        assert!((mhr_exact_2d(&ds, &sel) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn input_validation() {
        let ds = lsac();
        assert_eq!(rdp_greedy(&ds, 0).unwrap_err(), CoreError::KZero);
        assert!(matches!(
            rdp_greedy(&ds, 99).unwrap_err(),
            CoreError::KTooLarge { .. }
        ));
    }
}
