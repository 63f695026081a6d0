//! An independent exact solver for *unconstrained* 2D HMS, used to
//! cross-validate `IntCov`.
//!
//! Asudeh et al. (SIGMOD 2017) solve 2D RMS exactly by reducing the
//! decision problem to covering `[0, 1]` with at most `k` utility
//! intervals, which — without group constraints — the classic greedy scan
//! answers optimally: repeatedly take the interval that starts within the
//! covered prefix and reaches furthest right. Binary search over the
//! candidate MHR array yields the optimum.
//!
//! This module shares no decision logic with IntCov's dynamic program
//! (only the geometric primitives), so agreement between the two is a
//! meaningful end-to-end check — enforced by the tests here and in
//! `tests/exactness.rs`. It is a test oracle only: no solver calls it.

use std::sync::Arc;

use fairhms::core::candidates2d::candidate_mhrs;
use fairhms::core::eval::mhr_exact_2d;
use fairhms::core::intcov::intcov;
use fairhms::core::types::{CoreError, FairHmsInstance, Solution};
use fairhms::data::realsim::lsac_example;
use fairhms::data::Dataset;
use fairhms::geometry::envelope::Envelope;
use fairhms::geometry::line::Line;
use fairhms::geometry::EPS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact unconstrained 2D HMS via greedy interval cover.
///
/// Returns the optimal size-`≤ k` selection (padded to exactly `k` with
/// arbitrary extra points) and its exact MHR.
pub fn exact2d_greedy(data: &Dataset, k: usize) -> Result<Solution, CoreError> {
    if data.dim() != 2 {
        return Err(CoreError::Not2D { dim: data.dim() });
    }
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

    let lines: Vec<Line> = (0..n).map(|i| Line::from_point(data.point(i))).collect();
    let env = Envelope::upper(&lines);
    let h = candidate_mhrs(data);

    let mut lo = 0usize;
    let mut hi = h.len().saturating_sub(1);
    let mut best: Option<Vec<usize>> = None;
    while lo <= hi {
        let mid = (lo + hi) / 2;
        match greedy_cover_at(&lines, &env, h[mid], k) {
            Some(cover) => {
                best = Some(cover);
                lo = mid + 1;
            }
            None => {
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
        }
    }

    let mut sel = best.unwrap_or_default();
    // pad to exactly k with unused points (never hurts the MHR)
    for i in 0..n {
        if sel.len() >= k {
            break;
        }
        if !sel.contains(&i) {
            sel.push(i);
        }
    }
    sel.sort_unstable();
    let mhr = mhr_exact_2d(data, &sel);
    Ok(Solution::new(sel, Some(mhr)))
}

/// Greedy interval cover: can `[0, 1]` be covered by at most `k` of the
/// points' `τ`-intervals? Returns the chosen points if so.
fn greedy_cover_at(lines: &[Line], env: &Envelope, tau: f64, k: usize) -> Option<Vec<usize>> {
    let mut intervals: Vec<(f64, f64, usize)> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| env.tau_interval(l, tau).map(|(a, b)| (a, b, i)))
        .collect();
    intervals.sort_by(|x, y| x.0.total_cmp(&y.0));

    let mut covered = 0.0_f64;
    let mut chosen: Vec<usize> = Vec::new();
    let mut idx = 0usize;
    while covered < 1.0 - EPS {
        if chosen.len() >= k {
            return None;
        }
        // furthest-reaching interval starting within the covered prefix
        let mut best: Option<(f64, usize)> = None;
        while idx < intervals.len() && intervals[idx].0 <= covered + EPS {
            let (_, b, i) = intervals[idx];
            match best {
                Some((bb, _)) if b <= bb => {}
                _ => best = Some((b, i)),
            }
            idx += 1;
        }
        match best {
            Some((reach, i)) if reach > covered + EPS => {
                covered = reach;
                chosen.push(i);
            }
            _ => return None, // gap: no interval extends the cover
        }
    }
    Some(chosen)
}

fn lsac() -> Dataset {
    let mut ds = lsac_example().dataset(&["gender"]).unwrap();
    ds.normalize();
    ds
}

#[test]
fn matches_paper_constants() {
    let ds = lsac();
    let k2 = exact2d_greedy(&ds, 2).unwrap();
    assert!((k2.mhr.unwrap() - 0.9846).abs() < 5e-4);
    let k3 = exact2d_greedy(&ds, 3).unwrap();
    assert!((k3.mhr.unwrap() - 0.9984).abs() < 5e-4);
}

#[test]
fn agrees_with_intcov_on_unconstrained_instances() {
    // Independent decision procedures (greedy scan vs DP) must agree.
    let ds = Arc::new(lsac());
    for k in 1..=6 {
        let a = exact2d_greedy(&ds, k).unwrap();
        let inst = FairHmsInstance::unconstrained(Arc::clone(&ds), k).unwrap();
        let b = intcov(&inst).unwrap();
        assert!(
            (a.mhr.unwrap() - b.mhr.unwrap()).abs() < 1e-9,
            "k={k}: greedy {} vs intcov {}",
            a.mhr.unwrap(),
            b.mhr.unwrap()
        );
    }
}

#[test]
fn agrees_with_intcov_on_random_data() {
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<f64> = (0..60).map(|_| rng.gen::<f64>()).collect();
        let mut ds = Dataset::ungrouped("r", 2, pts).unwrap();
        ds.normalize();
        let ds = Arc::new(ds);
        let k = 2 + (seed as usize % 3);
        let a = exact2d_greedy(&ds, k).unwrap();
        let inst = FairHmsInstance::unconstrained(Arc::clone(&ds), k).unwrap();
        let b = intcov(&inst).unwrap();
        assert!(
            (a.mhr.unwrap() - b.mhr.unwrap()).abs() < 1e-9,
            "seed {seed}, k={k}: {} vs {}",
            a.mhr.unwrap(),
            b.mhr.unwrap()
        );
    }
}

#[test]
fn input_validation() {
    let ds = lsac();
    assert_eq!(exact2d_greedy(&ds, 0).unwrap_err(), CoreError::KZero);
    assert!(matches!(
        exact2d_greedy(&ds, 999).unwrap_err(),
        CoreError::KTooLarge { .. }
    ));
    let three_d = Dataset::ungrouped("3d", 3, vec![0.1, 0.2, 0.3]).unwrap();
    assert_eq!(
        exact2d_greedy(&three_d, 1).unwrap_err(),
        CoreError::Not2D { dim: 3 }
    );
}
