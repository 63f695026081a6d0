//! Minimum-happiness-ratio evaluators.
//!
//! Three evaluators with different exactness/cost trade-offs:
//!
//! * [`mhr_exact_2d`] — exact in 2D via upper envelopes, `O(n log n)`:
//!   `mhr(S) = min_λ env_S(λ)/env_D(λ)`, and since both envelopes are
//!   piecewise linear the ratio is monotone between consecutive breakpoints,
//!   so the minimum is attained at a breakpoint of either envelope.
//! * [`mhr_exact_lp`] — exact in any dimension via one LP per database
//!   point (the classical regret-LP reduction; see `fairhms_lp::hms`).
//! * [`NetEvaluator`] — the δ-net estimate `mhr(S|N) = min_{u∈N} hr(u, S)`,
//!   an upper bound on `mhr(S)` within `2δd/(1+δd)` (Lemma 4.1).

use fairhms_data::Dataset;
use fairhms_geometry::envelope::Envelope;
use fairhms_geometry::line::Line;
use fairhms_geometry::vecmath::dot;
use fairhms_geometry::EPS;

/// Exact `mhr(S, D)` for 2D data via upper envelopes.
///
/// # Panics
/// Panics if the dataset is not 2-dimensional or `sel` is empty.
pub fn mhr_exact_2d(data: &Dataset, sel: &[usize]) -> f64 {
    assert_eq!(data.dim(), 2, "mhr_exact_2d requires 2D data");
    assert!(!sel.is_empty(), "selection must be non-empty");
    let db_lines: Vec<Line> = (0..data.len())
        .map(|i| Line::from_point(data.point(i)))
        .collect();
    let sel_lines: Vec<Line> = sel
        .iter()
        .map(|&i| Line::from_point(data.point(i)))
        .collect();
    let env_db = Envelope::upper(&db_lines);
    let env_sel = Envelope::upper(&sel_lines);

    let mut lambdas: Vec<f64> = Vec::new();
    for seg in env_db.segments().iter().chain(env_sel.segments()) {
        lambdas.push(seg.from);
        lambdas.push(seg.to);
    }
    lambdas.sort_by(f64::total_cmp);
    lambdas.dedup_by(|a, b| (*a - *b).abs() <= EPS);

    let mut mhr = f64::INFINITY;
    for &l in &lambdas {
        let denom = env_db.eval(l);
        let ratio = if denom <= EPS {
            1.0
        } else {
            (env_sel.eval(l) / denom).clamp(0.0, 1.0)
        };
        mhr = mhr.min(ratio);
    }
    mhr
}

/// Exact `mhr(S, D)` in any dimension via the regret LPs.
///
/// Runs `|D|` linear programs of size `(|S|+1) × (d+1)`; callers typically
/// pass a skyline-restricted dataset.
pub fn mhr_exact_lp(data: &Dataset, sel: &[usize]) -> f64 {
    assert!(!sel.is_empty(), "selection must be non-empty");
    let dim = data.dim();
    let sel_flat: Vec<f64> = sel
        .iter()
        .flat_map(|&i| data.point(i).iter().copied())
        .collect();
    fairhms_lp::hms::min_happiness_ratio(dim, &sel_flat, data.points_flat())
}

/// δ-net estimator: caches the per-utility database maxima once and
/// evaluates `mhr(S|N)` for many candidate selections.
#[derive(Debug, Clone)]
pub struct NetEvaluator {
    net: Vec<Vec<f64>>,
    db_max: Vec<f64>,
}

impl NetEvaluator {
    /// Builds the evaluator for `data` and the utility sample `net`.
    pub fn new(data: &Dataset, net: Vec<Vec<f64>>) -> Self {
        // The m × n extreme-value pass through the blocked SoA kernels
        // (bitwise-equal to the scalar fold — see fairhms_geometry::soa).
        let db_max = crate::bigreedy::db_max_of(data, &net);
        Self { net, db_max }
    }

    /// The utility sample.
    pub fn net(&self) -> &[Vec<f64>] {
        &self.net
    }

    /// Per-utility database maxima `max_{p∈D}⟨u,p⟩`.
    pub fn db_max(&self) -> &[f64] {
        &self.db_max
    }

    /// `mhr(S|N) = min_{u∈N} hr(u, S)` — an upper bound on `mhr(S)`.
    pub fn mhr(&self, data: &Dataset, sel: &[usize]) -> f64 {
        assert!(!sel.is_empty(), "selection must be non-empty");
        let mut mhr = f64::INFINITY;
        for (u, &dbm) in self.net.iter().zip(&self.db_max) {
            let ratio = if dbm <= EPS {
                1.0
            } else {
                let best = sel
                    .iter()
                    .map(|&i| dot(data.point(i), u))
                    .fold(0.0_f64, f64::max);
                (best / dbm).clamp(0.0, 1.0)
            };
            mhr = mhr.min(ratio);
            if mhr <= 0.0 {
                break;
            }
        }
        mhr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_data::realsim::lsac_example;
    use fairhms_geometry::sphere::grid_net_2d;

    fn lsac_normalized() -> Dataset {
        let mut ds = lsac_example().dataset(&["gender"]).unwrap();
        ds.normalize();
        ds
    }

    #[test]
    fn lsac_pinned_constants_2d() {
        // Example 2.2 of the paper, reproduced exactly under scale-only
        // normalization (indices: a1..a8 ↦ 0..7).
        let ds = lsac_normalized();
        let m45 = mhr_exact_2d(&ds, &[3, 4]); // {a4, a5}
        assert!((m45 - 0.9846).abs() < 5e-4, "mhr(a4,a5) = {m45}");
        let m58 = mhr_exact_2d(&ds, &[4, 7]); // {a5, a8}
        assert!((m58 - 0.9834).abs() < 5e-4, "mhr(a5,a8) = {m58}");
        let m457 = mhr_exact_2d(&ds, &[3, 4, 6]); // {a4, a5, a7}
        assert!((m457 - 0.9984).abs() < 5e-4, "mhr(a4,a5,a7) = {m457}");
    }

    #[test]
    fn lp_evaluator_agrees_with_2d_envelope() {
        let ds = lsac_normalized();
        for sel in [vec![3, 4], vec![4, 7], vec![3, 4, 6], vec![0, 1], vec![2]] {
            let a = mhr_exact_2d(&ds, &sel);
            let b = mhr_exact_lp(&ds, &sel);
            assert!((a - b).abs() < 1e-6, "sel {sel:?}: envelope {a} vs LP {b}");
        }
    }

    #[test]
    fn full_selection_has_mhr_one() {
        let ds = lsac_normalized();
        let all: Vec<usize> = (0..ds.len()).collect();
        assert!((mhr_exact_2d(&ds, &all) - 1.0).abs() < 1e-9);
        assert!((mhr_exact_lp(&ds, &all) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn net_upper_bounds_exact() {
        let ds = lsac_normalized();
        let ev = NetEvaluator::new(&ds, grid_net_2d(64));
        for sel in [vec![3, 4], vec![4, 7], vec![0]] {
            let exact = mhr_exact_2d(&ds, &sel);
            let net = ev.mhr(&ds, &sel);
            assert!(
                net >= exact - 1e-9,
                "net {net} should upper-bound exact {exact} (Lemma 4.1)"
            );
            assert!(
                net - exact < 0.05,
                "net estimate too loose: {net} vs {exact}"
            );
        }
    }
}
