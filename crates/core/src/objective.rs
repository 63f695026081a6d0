//! The truncated MHR objective (Equation 2).
//!
//! `mhr_τ(S|N) = (1/m) Σ_{u∈N} min(hr(u,S), τ)` — a nonnegative linear
//! combination of truncated happiness ratios, hence monotone and submodular
//! (Lemma 4.3). [`TruncatedMhrObjective`] exposes it through the
//! [`IncrementalObjective`] interface with a per-utility running-maximum
//! state, so a greedy step costs `O(m)` per candidate (plus the `O(m·d)`
//! score computation unless the score matrix is cached).

use fairhms_data::Dataset;
use fairhms_geometry::soa::BLOCK;
use fairhms_geometry::vecmath::dot;
use fairhms_geometry::EPS;
use fairhms_submodular::IncrementalObjective;

/// Above this many `n × m` entries, scores are computed on the fly instead
/// of cached (the cache would exceed ~400 MB of `f64`s).
const CACHE_LIMIT: usize = 50_000_000;

/// The truncated MHR objective over a fixed utility sample.
pub struct TruncatedMhrObjective<'a> {
    data: &'a Dataset,
    net: &'a [Vec<f64>],
    /// `max_{p∈D}⟨u,p⟩` per utility.
    db_max: &'a [f64],
    tau: f64,
    /// Optional row-major `n × m` cache of normalized scores
    /// `⟨u,p⟩ / db_max[u]`.
    scores: Option<Vec<f64>>,
}

impl<'a> TruncatedMhrObjective<'a> {
    /// Creates the objective for cap `tau`. Pass `cache = true` to
    /// precompute the normalized score matrix (skipped automatically above
    /// an internal entry limit of fifty million).
    pub fn new(
        data: &'a Dataset,
        net: &'a [Vec<f64>],
        db_max: &'a [f64],
        tau: f64,
        cache: bool,
    ) -> Self {
        debug_assert_eq!(net.len(), db_max.len());
        let m = net.len();
        let n = data.len();
        let scores = if cache && n.saturating_mul(m) <= CACHE_LIMIT {
            // Tile-outer build: for each 64-row tile, sweep all utilities
            // while the tile (a few KB) and its slice of the row-major
            // cache (64 rows × m) stay cache-resident — a utility-outer
            // sweep would re-fetch the whole n × m cache once per utility
            // through the stride-m scatter. Each raw dot is bitwise-equal
            // to the scalar `dot` (see fairhms_geometry::soa), so every
            // entry equals `normalized_score(point(i), u, db_max[u])`.
            let mut s = vec![0.0; n * m];
            let mut acc = [0.0; BLOCK];
            let soa = data.soa();
            for b in 0..soa.num_tiles() {
                let start = b * BLOCK;
                for (u_idx, (u, &dbm)) in net.iter().zip(db_max).enumerate() {
                    let rows = soa.dot_tile(b, u, &mut acc);
                    for (r, &raw) in acc[..rows].iter().enumerate() {
                        s[(start + r) * m + u_idx] = normalize_raw(raw, dbm);
                    }
                }
            }
            Some(s)
        } else {
            None
        };
        Self {
            data,
            net,
            db_max,
            tau,
            scores,
        }
    }

    /// The cap `τ`.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Re-caps the objective without recomputing the score cache.
    pub fn set_tau(&mut self, tau: f64) {
        self.tau = tau;
    }

    #[inline]
    fn score(&self, item: usize, u_idx: usize) -> f64 {
        match &self.scores {
            Some(s) => s[item * self.net.len() + u_idx],
            None => normalized_score(self.data.point(item), &self.net[u_idx], self.db_max[u_idx]),
        }
    }

    /// Untruncated `mhr(S|N)` of the set represented by `state`.
    pub fn mhr_of_state(&self, state: &[f64]) -> f64 {
        state.iter().copied().fold(f64::INFINITY, f64::min).min(1.0)
    }

    /// Builds the state for an explicit selection.
    pub fn state_of(&self, sel: &[usize]) -> Vec<f64> {
        let mut st = self.empty_state();
        for &i in sel {
            self.add(&mut st, i);
        }
        st
    }
}

#[inline]
fn normalized_score(p: &[f64], u: &[f64], db_max: f64) -> f64 {
    normalize_raw(dot(p, u), db_max)
}

#[inline]
fn normalize_raw(raw: f64, db_max: f64) -> f64 {
    if db_max <= EPS {
        1.0 // the whole database scores 0: every subset is fully happy
    } else {
        (raw / db_max).clamp(0.0, 1.0)
    }
}

impl IncrementalObjective for TruncatedMhrObjective<'_> {
    /// Per-utility best normalized score of the current set.
    type State = Vec<f64>;

    fn empty_state(&self) -> Vec<f64> {
        vec![0.0; self.net.len()]
    }

    fn value(&self, state: &Vec<f64>) -> f64 {
        let m = state.len().max(1);
        state.iter().map(|&s| s.min(self.tau)).sum::<f64>() / m as f64
    }

    fn gain(&self, state: &Vec<f64>, item: usize) -> f64 {
        let m = state.len().max(1);
        let mut g = 0.0;
        for (u_idx, &cur) in state.iter().enumerate() {
            if cur >= self.tau {
                continue; // already capped: no headroom on this utility
            }
            let s = self.score(item, u_idx);
            if s > cur {
                g += s.min(self.tau) - cur;
            }
        }
        g / m as f64
    }

    fn add(&self, state: &mut Vec<f64>, item: usize) {
        for (u_idx, cur) in state.iter_mut().enumerate() {
            let s = self.score(item, u_idx);
            if s > *cur {
                *cur = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_data::Dataset;
    use fairhms_geometry::sphere::grid_net_2d;

    fn setup() -> (Dataset, Vec<Vec<f64>>, Vec<f64>) {
        let ds = Dataset::ungrouped("t", 2, vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7, 0.2, 0.3]).unwrap();
        let net = grid_net_2d(9);
        let db_max: Vec<f64> = net
            .iter()
            .map(|u| {
                (0..ds.len())
                    .map(|i| dot(ds.point(i), u))
                    .fold(0.0_f64, f64::max)
            })
            .collect();
        (ds, net, db_max)
    }

    #[test]
    fn value_matches_definition() {
        let (ds, net, db_max) = setup();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.9, true);
        let st = obj.state_of(&[0]);
        // manual: mean over utilities of min(0.9, score(0, u))
        let manual: f64 = net
            .iter()
            .zip(&db_max)
            .map(|(u, &m)| (dot(ds.point(0), u) / m).min(0.9))
            .sum::<f64>()
            / net.len() as f64;
        assert!((obj.value(&st) - manual).abs() < 1e-12);
    }

    #[test]
    fn gain_is_value_difference() {
        let (ds, net, db_max) = setup();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.85, true);
        let st = obj.state_of(&[0]);
        for item in 1..ds.len() {
            let g = obj.gain(&st, item);
            let mut st2 = st.clone();
            obj.add(&mut st2, item);
            assert!((g - (obj.value(&st2) - obj.value(&st))).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_and_uncached_agree() {
        let (ds, net, db_max) = setup();
        let a = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.8, true);
        let b = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.8, false);
        assert!(a.scores.is_some());
        assert!(b.scores.is_none());
        let st = a.empty_state();
        for item in 0..ds.len() {
            assert!((a.gain(&st, item) - b.gain(&st, item)).abs() < 1e-12);
        }
    }

    #[test]
    fn score_cache_matches_scalar_oracle_bitwise() {
        // Shapes straddle BLOCK (one partial tile, one full tile, two full
        // tiles plus a tail) and reach both const-dim and generic kernels.
        for n in [1usize, 64, 130] {
            for d in [2usize, 4, 9] {
                let points: Vec<f64> = (0..n * d)
                    .map(|i| ((i * 2654435761) % 1000) as f64 / 997.0)
                    .collect();
                let ds = Dataset::ungrouped("t", d, points).unwrap();
                // Six irregular utilities plus an all-zero one, whose
                // db_max of 0 takes normalize_raw's degenerate branch.
                let mut net: Vec<Vec<f64>> = (0..6)
                    .map(|t| {
                        (0..d)
                            .map(|j| 0.05 + ((t * 7 + j * 3) % 11) as f64 / 10.0)
                            .collect()
                    })
                    .collect();
                net.push(vec![0.0; d]);
                let db_max: Vec<f64> = net
                    .iter()
                    .map(|u| fairhms_geometry::vecmath::max_utility(ds.points_flat(), d, u))
                    .collect();
                let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.8, true);
                let got = obj.scores.as_ref().unwrap();
                // The scalar oracle: one dot per (row, utility), row-major.
                let mut want = Vec::with_capacity(n * net.len());
                for i in 0..n {
                    for (u, &dbm) in net.iter().zip(&db_max) {
                        want.push(normalized_score(ds.point(i), u, dbm));
                    }
                }
                assert_eq!(got.len(), want.len());
                for (k, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} d={d} entry {k}");
                }
            }
        }
    }

    #[test]
    fn submodularity_gains_shrink() {
        let (ds, net, db_max) = setup();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.95, true);
        let empty = obj.empty_state();
        let bigger = obj.state_of(&[0, 1]);
        for item in 2..ds.len() {
            assert!(
                obj.gain(&empty, item) >= obj.gain(&bigger, item) - 1e-12,
                "gain should not grow with the set"
            );
        }
    }

    #[test]
    fn truncation_lemma_4_4() {
        // mhr(S|N) ≥ τ  ⟺  mhr_τ(S|N) = τ.
        let (ds, net, db_max) = setup();
        let sel = vec![0, 1]; // extremes: good mhr on the net
        for tau in [0.3, 0.5, 0.7, 0.9, 0.99] {
            let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, tau, true);
            let st = obj.state_of(&sel);
            let mhr = obj.mhr_of_state(&st);
            let capped = obj.value(&st);
            if mhr >= tau {
                assert!((capped - tau).abs() < 1e-12, "τ={tau}: capped={capped}");
            } else {
                assert!(capped < tau - 1e-15, "τ={tau}: capped={capped} mhr={mhr}");
            }
        }
    }

    #[test]
    fn mhr_of_state_matches_net_evaluator() {
        let (ds, net, db_max) = setup();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 1.0, true);
        let ev = crate::eval::NetEvaluator::new(&ds, net.clone());
        for sel in [vec![0], vec![0, 1], vec![2, 3]] {
            let st = obj.state_of(&sel);
            assert!((obj.mhr_of_state(&st) - ev.mhr(&ds, &sel)).abs() < 1e-12);
        }
    }
}
