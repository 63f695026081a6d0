//! The truncated MHR objective (Equation 2).
//!
//! `mhr_τ(S|N) = (1/m) Σ_{u∈N} min(hr(u,S), τ)` — a nonnegative linear
//! combination of truncated happiness ratios, hence monotone and submodular
//! (Lemma 4.3). [`TruncatedMhrObjective`] exposes it through the
//! [`IncrementalObjective`] interface. Its [`TruncatedState`] keeps the
//! per-utility running maxima plus the ascending list of utilities still
//! below the cap, so a greedy step costs `O(#uncapped)` per candidate —
//! utilities already at `τ` contribute nothing and are never visited —
//! plus the `O(d)` score computation per visited utility unless the score
//! matrix is cached.
//!
//! Every gain is bitwise-equal to the plain loop over all `m` utilities
//! with its two branches (`cur ≥ τ` skip, `s > cur` add): a skipped or
//! clamped term adds exactly `+0.0` to a non-negative running sum that
//! starts at `+0.0`, which leaves it unchanged, and each candidate still
//! sums its terms in ascending utility order.

use std::cell::Cell;

use fairhms_data::Dataset;
use fairhms_geometry::soa::{SoaMatrix, BLOCK};
use fairhms_geometry::vecmath::dot;
use fairhms_geometry::EPS;
use fairhms_submodular::IncrementalObjective;

/// Above this many `n × m` entries, scores are computed on the fly instead
/// of cached (the cache would exceed ~400 MB of `f64`s).
const CACHE_LIMIT: usize = 50_000_000;

/// Largest score-cache buffer, in `f64` entries (32 MiB), a thread keeps
/// for its next objective. Keeping larger ones would pin up to
/// `CACHE_LIMIT` entries per thread; glibc maps blocks that large directly
/// and unmaps them on free, so they are not stranded either.
const SPARE_LIMIT: usize = (32 << 20) / std::mem::size_of::<f64>();

thread_local! {
    /// The score-cache buffer of this thread's last dropped objective.
    ///
    /// A solve builds one `n × m` cache and frees it at the end; serving
    /// repeats that per query. Handing the buffer to the next objective on
    /// the same thread skips the allocator round trip and the zero fill,
    /// and keeps the block from being stranded: freed into glibc's
    /// per-thread arena, a cache-sized block can be pinned by a small
    /// long-lived allocation placed above it, and the next solve then
    /// grows the arena by a second cache.
    static SPARE_SCORES: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

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
    /// Creates the objective for cap `tau`, precomputing the normalized
    /// score matrix unless it would exceed an internal limit of fifty
    /// million entries; above it, scores are computed on the fly. Both
    /// paths return bit-identical gains.
    pub fn new(data: &'a Dataset, net: &'a [Vec<f64>], db_max: &'a [f64], tau: f64) -> Self {
        Self::with_cache_limit(data, net, db_max, tau, CACHE_LIMIT)
    }

    /// [`TruncatedMhrObjective::new`] with the score matrix built only
    /// when it holds at most `limit` entries (`0` never builds a nonempty
    /// one).
    pub(crate) fn with_cache_limit(
        data: &'a Dataset,
        net: &'a [Vec<f64>],
        db_max: &'a [f64],
        tau: f64,
        limit: usize,
    ) -> Self {
        debug_assert_eq!(net.len(), db_max.len());
        debug_assert!(
            net.iter().all(|u| u.len() == data.dim()),
            "net/data dimension mismatch"
        );
        let m = net.len();
        let n = data.len();
        let scores = if n.saturating_mul(m) <= limit {
            // Rows-outer build over a tiled copy of the net: each data row
            // scores one 64-utility tile at a time and writes its m
            // normalized scores contiguously, so the stores stream and the
            // normalization vectorizes with the dots. Each raw dot
            // ⟨u, p⟩ is bitwise-equal to the scalar `dot(p, u)` (see
            // fairhms_geometry::soa; IEEE multiplication commutes), so every
            // entry equals `normalized_score(point(i), u, db_max[u])`. The
            // build writes every entry, so a reused buffer's old contents
            // never show through.
            let mut s = SPARE_SCORES.try_with(Cell::take).unwrap_or_default();
            s.resize(n * m, 0.0);
            if m > 0 {
                // (An empty net has no entries to write.)
                let net_soa = SoaMatrix::from_rows(&net.concat(), data.dim());
                let mut acc = [0.0; BLOCK];
                for (i, row) in s.chunks_exact_mut(m).enumerate() {
                    let p = data.point(i);
                    for (b, (out, dbm)) in
                        row.chunks_mut(BLOCK).zip(db_max.chunks(BLOCK)).enumerate()
                    {
                        let live = net_soa.dot_tile(b, p, &mut acc);
                        for ((o, &raw), &dbm) in out.iter_mut().zip(&acc[..live]).zip(dbm) {
                            *o = normalize_raw(raw, dbm);
                        }
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

    /// `T(τ)`: `m` copies of the cap summed in order from `+0.0`, over
    /// `m`. Every headroom term lies in `[0, τ]` for `τ > 0`, and
    /// round-to-nearest addition is monotone, so `T(τ)` bounds every
    /// empty-set gain from above; a row whose every score is `≥ τ` adds
    /// exactly `τ` per utility and gains `T(τ)` bit for bit.
    pub(crate) fn empty_gain_cap(&self) -> f64 {
        let mut g = 0.0;
        for _ in 0..self.net.len() {
            g += self.tau;
        }
        g / self.net.len().max(1) as f64
    }

    /// Re-caps the objective without recomputing the score cache.
    pub fn set_tau(&mut self, tau: f64) {
        self.tau = tau;
    }

    /// Number of utilities `m` in the net.
    pub(crate) fn num_utilities(&self) -> usize {
        self.net.len()
    }

    #[inline]
    fn score(&self, item: usize, u_idx: usize) -> f64 {
        match &self.scores {
            Some(s) => s[item * self.net.len() + u_idx],
            None => normalized_score(self.data.point(item), &self.net[u_idx], self.db_max[u_idx]),
        }
    }

    /// Untruncated `mhr(S|N)` of the set represented by `state` (any cap).
    pub fn mhr_of_state(&self, state: &TruncatedState) -> f64 {
        state
            .best
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Builds the state for an explicit selection.
    pub fn state_of(&self, sel: &[usize]) -> TruncatedState {
        let mut st = self.empty_state();
        for &i in sel {
            self.add(&mut st, i);
        }
        st
    }

    /// The `τ`-headroom sum of `item` over `state`'s uncapped utilities,
    /// before the `1/m` scaling.
    #[inline]
    fn headroom_sum(&self, state: &TruncatedState, item: usize) -> f64 {
        let tau = self.tau;
        let mut g = 0.0;
        match &self.scores {
            Some(s) => {
                let row = &s[item * self.net.len()..][..self.net.len()];
                for &u in &state.uncapped {
                    g += headroom(row[u], state.best[u], tau);
                }
            }
            None => {
                for &u in &state.uncapped {
                    g += headroom(self.score(item, u), state.best[u], tau);
                }
            }
        }
        g
    }

    #[inline]
    fn check_state(&self, state: &TruncatedState) {
        debug_assert_eq!(
            state.tau.to_bits(),
            self.tau.to_bits(),
            "state built for a different cap"
        );
        debug_assert_eq!(state.best.len(), self.net.len());
    }
}

impl Drop for TruncatedMhrObjective<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scores.take().filter(|s| s.capacity() <= SPARE_LIMIT) {
            // During thread teardown the slot may be gone; then `s` is
            // simply freed.
            let _ = SPARE_SCORES.try_with(|spare| spare.set(s));
        }
    }
}

/// Incremental state of [`TruncatedMhrObjective`] for a growing set.
#[derive(Debug, Clone)]
pub struct TruncatedState {
    /// Per-utility best normalized score of the current set.
    best: Vec<f64>,
    /// Ascending indices of the utilities that are not [`is_capped`] —
    /// the only ones a candidate can still gain on.
    uncapped: Vec<usize>,
    /// The cap the list was built for.
    tau: f64,
}

/// Whether a utility with best score `best` has no headroom left under
/// cap `tau`. False for a NaN cap, so nothing is ever capped then.
#[inline]
fn is_capped(best: f64, tau: f64) -> bool {
    best >= tau
}

/// One utility's contribution `max(min(s, τ) − cur, 0)` to a gain.
///
/// Bitwise-equal to the branchy form (skip when `s ≤ cur`, else add
/// `min(s, τ) − cur`) for every input: when `s > cur` the difference is
/// positive and passes through, otherwise it is `≤ 0` or NaN and becomes
/// `+0.0`. The min is written as a select so a NaN score yields NaN (then
/// `+0.0`) instead of `τ` — exactly what the branchy form's `s > cur`
/// test did with it. Both selects are branch-free.
#[inline(always)]
fn headroom(s: f64, cur: f64, tau: f64) -> f64 {
    let d = (if s > tau { tau } else { s }) - cur;
    if d > 0.0 {
        d
    } else {
        0.0
    }
}

#[inline]
fn normalized_score(p: &[f64], u: &[f64], db_max: f64) -> f64 {
    normalize_raw(dot(p, u), db_max)
}

/// `raw / db_max` clamped to `[0, 1]`, or `1` when `db_max ≤ EPS` (the
/// whole database scores 0: every subset is fully happy). Written as
/// selects, which `f64::clamp`'s branches kept from vectorizing in the
/// score-cache build; each select returns what `clamp` does, NaN and
/// `-0.0` included.
#[inline(always)]
fn normalize_raw(raw: f64, db_max: f64) -> f64 {
    let q = raw / db_max;
    let q = if q < 0.0 { 0.0 } else { q };
    let q = if q > 1.0 { 1.0 } else { q };
    if db_max <= EPS {
        1.0
    } else {
        q
    }
}

impl IncrementalObjective for TruncatedMhrObjective<'_> {
    type State = TruncatedState;

    fn empty_state(&self) -> TruncatedState {
        let tau = self.tau;
        let m = self.net.len();
        TruncatedState {
            best: vec![0.0; m],
            uncapped: (0..m).filter(|_| !is_capped(0.0, tau)).collect(),
            tau,
        }
    }

    fn value(&self, state: &TruncatedState) -> f64 {
        self.check_state(state);
        let m = state.best.len().max(1);
        state.best.iter().map(|&s| s.min(self.tau)).sum::<f64>() / m as f64
    }

    fn gain(&self, state: &TruncatedState, item: usize) -> f64 {
        self.check_state(state);
        self.headroom_sum(state, item) / state.best.len().max(1) as f64
    }

    /// Four candidates at a time over the row-major score cache: four
    /// independent accumulators, each summing in ascending-`u` order, so
    /// every entry is bitwise-equal to [`TruncatedMhrObjective::gain`].
    fn gains(&self, state: &TruncatedState, items: &[usize], out: &mut [f64]) {
        self.check_state(state);
        assert_eq!(items.len(), out.len(), "one output slot per item");
        let m = self.net.len();
        let scale = state.best.len().max(1) as f64;
        let Some(s) = &self.scores else {
            for (o, &item) in out.iter_mut().zip(items) {
                *o = self.headroom_sum(state, item) / scale;
            }
            return;
        };
        let tau = self.tau;
        let mut quads = items.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (q, o) in (&mut quads).zip(&mut outs) {
            let row = |j: usize| &s[q[j] * m..][..m];
            let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
            let mut g = [0.0; 4];
            for &u in &state.uncapped {
                let cur = state.best[u];
                g[0] += headroom(r0[u], cur, tau);
                g[1] += headroom(r1[u], cur, tau);
                g[2] += headroom(r2[u], cur, tau);
                g[3] += headroom(r3[u], cur, tau);
            }
            for (o, g) in o.iter_mut().zip(g) {
                *o = g / scale;
            }
        }
        for (o, &item) in outs.into_remainder().iter_mut().zip(quads.remainder()) {
            *o = self.headroom_sum(state, item) / scale;
        }
    }

    fn add(&self, state: &mut TruncatedState, item: usize) {
        self.check_state(state);
        for (u_idx, cur) in state.best.iter_mut().enumerate() {
            let s = self.score(item, u_idx);
            if s > *cur {
                *cur = s;
            }
        }
        let (best, tau) = (&state.best, state.tau);
        state.uncapped.retain(|&u| !is_capped(best[u], tau));
    }

    /// No uncapped utility is left: every gain sums no term and is `+0.0`,
    /// and `add` only ever shrinks the list.
    fn saturated(&self, state: &TruncatedState) -> bool {
        self.check_state(state);
        state.uncapped.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_data::Dataset;
    use fairhms_geometry::sphere::grid_net_2d;
    use fairhms_matroid::FairnessMatroid;
    use fairhms_submodular::{greedy_matroid, lazy_greedy_matroid, lazy_greedy_matroid_seeded};
    use proptest::prelude::*;

    /// The branchy loop over all `m` utilities that `gain` replaced: the
    /// reference the uncapped-list, select-based sum must equal bitwise.
    fn gain_oracle(obj: &TruncatedMhrObjective<'_>, state: &TruncatedState, item: usize) -> f64 {
        let m = state.best.len().max(1);
        let mut g = 0.0;
        for (u_idx, &cur) in state.best.iter().enumerate() {
            if cur >= obj.tau {
                continue; // already capped: no headroom on this utility
            }
            let s = obj.score(item, u_idx);
            if s > cur {
                g += s.min(obj.tau) - cur;
            }
        }
        g / m as f64
    }

    /// A small random instance from `seed`: `n` points in `d` dimensions
    /// on a 1/8 grid (so gains tie), `c` groups, and `m` random utilities
    /// plus an all-zero one (`db_max = 0`).
    fn random_instance(
        seed: u64,
        n: usize,
        d: usize,
        m: usize,
        c: usize,
    ) -> (Dataset, Vec<Vec<f64>>, Vec<f64>) {
        let mut x = seed;
        let mut next = move |bound: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % bound
        };
        let points: Vec<f64> = (0..n * d).map(|_| next(9) as f64 / 8.0).collect();
        let groups: Vec<usize> = (0..n).map(|_| next(c as u64) as usize).collect();
        let ds = Dataset::new("p", d, points, groups, vec![]).unwrap();
        let mut net: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..d).map(|_| next(5) as f64 / 4.0).collect())
            .collect();
        net.push(vec![0.0; d]);
        let db_max: Vec<f64> = net
            .iter()
            .map(|u| fairhms_geometry::vecmath::max_utility(ds.points_flat(), d, u))
            .collect();
        (ds, net, db_max)
    }

    /// τ drawn from {0, 1/m, a random value, 1} by `kind`.
    fn pick_tau(kind: usize, m: usize, r: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => 1.0 / m as f64,
            2 => r,
            _ => 1.0,
        }
    }

    /// A state over `obj` with no (`kind` 0), some (1) or all (2)
    /// utilities capped; kind 2 re-caps `obj` at the selection's minimum
    /// per-utility score.
    fn state_of_kind(obj: &mut TruncatedMhrObjective<'_>, kind: usize, tau: f64) -> TruncatedState {
        let n = obj.data.len();
        obj.set_tau(tau);
        match kind {
            0 => obj.empty_state(),
            1 => obj.state_of(&[0, n / 2]),
            _ => {
                let all: Vec<usize> = (0..n).collect();
                let floor = obj.mhr_of_state(&obj.state_of(&all));
                obj.set_tau(floor);
                let st = obj.state_of(&all);
                assert!(st.uncapped.is_empty());
                st
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn gain_matches_branchy_oracle_bitwise(
            seed in 0u64..1_000_000,
            (n, d, m) in (2usize..=12, 1usize..=4, 1usize..=9),
            kind in 0usize..3,
            tau_kind in 0usize..5,
            r in 0.05f64..0.95,
            cache in 0usize..2,
        ) {
            let (ds, net, db_max) = random_instance(seed, n, d, m, 1);
            // τ kind 4 is NaN: nothing counts as capped, no term is clamped.
            let tau = if tau_kind == 4 { f64::NAN } else { pick_tau(tau_kind, m, r) };
            let mut obj = TruncatedMhrObjective::with_cache_limit(&ds, &net, &db_max, tau, cache * CACHE_LIMIT);
            let st = state_of_kind(&mut obj, if tau.is_nan() { kind.min(1) } else { kind }, tau);
            for item in 0..n {
                prop_assert_eq!(
                    obj.gain(&st, item).to_bits(),
                    gain_oracle(&obj, &st, item).to_bits(),
                    "item {} τ {}", item, tau
                );
            }
        }

        #[test]
        fn gains_match_per_item_gain_bitwise(
            seed in 0u64..1_000_000,
            (n, d, m) in (2usize..=12, 1usize..=4, 1usize..=9),
            kind in 0usize..3,
            r in 0.05f64..0.95,
            cache in 0usize..2,
            picks in prop::collection::vec(0usize..1_000, 0..=9),
        ) {
            let (ds, net, db_max) = random_instance(seed, n, d, m, 1);
            let mut obj = TruncatedMhrObjective::with_cache_limit(&ds, &net, &db_max, r, cache * CACHE_LIMIT);
            let st = state_of_kind(&mut obj, kind, r);
            let items: Vec<usize> = picks.iter().map(|&p| p % n).collect();
            let mut out = vec![f64::NAN; items.len()];
            obj.gains(&st, &items, &mut out);
            for (&item, &g) in items.iter().zip(&out) {
                prop_assert_eq!(g.to_bits(), obj.gain(&st, item).to_bits(), "item {}", item);
            }
        }

        #[test]
        fn lazy_seeded_and_unseeded_match_eager_bitwise(
            seed in 0u64..1_000_000,
            (n, d, m, c) in (3usize..=14, 1usize..=4, 1usize..=9, 1usize..=3),
            (k, l, h) in (1usize..=5, 0usize..=2, 1usize..=4),
            tau_kind in 0usize..4,
            r in 0.05f64..0.95,
            lift in 0.0f64..0.5,
        ) {
            let (ds, net, db_max) = random_instance(seed, n, d, m, c);
            let matroid = FairnessMatroid::new(
                ds.groups().to_vec(),
                vec![l.min(h); c],
                vec![h; c],
                k,
            );
            prop_assume!(matroid.is_ok());
            let matroid = matroid.unwrap();
            let tau = pick_tau(tau_kind, net.len(), r);
            let cands: Vec<usize> = (0..n).collect();
            let mut obj = TruncatedMhrObjective::new(&ds, &net, &db_max, tau + lift);
            // Seeds: exact empty-set gains at a cap ≥ τ.
            let mut bounds = vec![0.0; n];
            obj.gains(&obj.empty_state(), &cands, &mut bounds);
            // BiGreedy's seed: the exact τ = 1 gains capped by T(τ).
            obj.set_tau(1.0);
            let mut unit_bounds = vec![0.0; n];
            obj.gains(&obj.empty_state(), &cands, &mut unit_bounds);
            obj.set_tau(tau);
            let cap = obj.empty_gain_cap();
            for b in &mut unit_bounds {
                *b = b.min(cap);
            }

            let eager = greedy_matroid(&obj, &matroid, &cands);
            let lazy = lazy_greedy_matroid(&obj, &matroid, &cands);
            let seeded = lazy_greedy_matroid_seeded(&obj, &matroid, &cands, &mut bounds);
            let unit_seeded = lazy_greedy_matroid_seeded(&obj, &matroid, &cands, &mut unit_bounds);
            prop_assert_eq!(&lazy.items, &eager.items);
            prop_assert_eq!(lazy.value.to_bits(), eager.value.to_bits());
            prop_assert_eq!(&seeded.items, &eager.items);
            prop_assert_eq!(seeded.value.to_bits(), eager.value.to_bits());
            prop_assert_eq!(&unit_seeded.items, &eager.items);
            prop_assert_eq!(unit_seeded.value.to_bits(), eager.value.to_bits());
            // The bounds a seeded run hands on stay upper bounds at τ.
            let empty = obj.empty_state();
            for (&item, (&b, &u)) in cands.iter().zip(bounds.iter().zip(&unit_bounds)) {
                prop_assert!(b >= obj.gain(&empty, item), "item {}", item);
                prop_assert!(u >= obj.gain(&empty, item), "item {}", item);
            }
        }

        #[test]
        fn empty_gain_cap_bounds_every_empty_set_gain(
            seed in 0u64..1_000_000,
            (n, d, m) in (2usize..=12, 1usize..=4, 1usize..=9),
            tau_kind in 1usize..4,
            r in 0.05f64..0.95,
        ) {
            let (ds, net, db_max) = random_instance(seed, n, d, m, 1);
            let mut obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 1.0);
            // The cap at the kind's τ, and at the smallest score of the row
            // whose smallest score is largest: that row reaches the cap.
            let floors: Vec<f64> = (0..n)
                .map(|i| (0..net.len()).map(|u| obj.score(i, u)).fold(f64::INFINITY, f64::min))
                .collect();
            let best_floor = floors.iter().copied().fold(0.0, f64::max);
            for tau in [pick_tau(tau_kind, net.len(), r), best_floor] {
                if tau <= 0.0 {
                    continue; // every score is 0 somewhere: no row reaches a cap
                }
                obj.set_tau(tau);
                let cap = obj.empty_gain_cap();
                let empty = obj.empty_state();
                for (item, &floor) in floors.iter().enumerate() {
                    let g = obj.gain(&empty, item);
                    prop_assert!(g <= cap, "item {} τ {}: {} > {}", item, tau, g, cap);
                    if floor >= tau {
                        prop_assert_eq!(g.to_bits(), cap.to_bits(), "item {} τ {}", item, tau);
                    }
                }
            }
        }
    }

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
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.9);
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
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.85);
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
        let a = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.8);
        let b = TruncatedMhrObjective::with_cache_limit(&ds, &net, &db_max, 0.8, 0);
        assert!(a.scores.is_some());
        assert!(b.scores.is_none());
        let st = a.empty_state();
        for item in 0..ds.len() {
            assert_eq!(a.gain(&st, item).to_bits(), b.gain(&st, item).to_bits());
        }
    }

    #[test]
    fn score_cache_matches_scalar_oracle_bitwise() {
        // Net sizes straddle BLOCK (the build tiles the net, 64 utilities
        // per tile) and dims 1–10 reach every const-dim kernel and the
        // generic fallback; two data sizes keep rows apart.
        for m in [1usize, 63, 64, 65, 130, 400] {
            for d in 1usize..=10 {
                for n in [1usize, 7] {
                    let points: Vec<f64> = (0..n * d)
                        .map(|i| ((i * 2654435761) % 1000) as f64 / 997.0)
                        .collect();
                    let ds = Dataset::ungrouped("t", d, points).unwrap();
                    // Irregular utilities, with an all-zero one (db_max of 0:
                    // normalize_raw's degenerate branch) mid-tile and last.
                    let net: Vec<Vec<f64>> = (0..m)
                        .map(|t| {
                            if m > 1 && (t == m / 2 || t == m - 1) {
                                return vec![0.0; d];
                            }
                            (0..d)
                                .map(|j| 0.05 + ((t * 7 + j * 3) % 11) as f64 / 10.0)
                                .collect()
                        })
                        .collect();
                    let db_max: Vec<f64> = net
                        .iter()
                        .map(|u| fairhms_geometry::vecmath::max_utility(ds.points_flat(), d, u))
                        .collect();
                    let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.8);
                    let got = obj.scores.as_ref().unwrap();
                    // The scalar oracle: one dot per (row, utility), row-major.
                    let mut want = Vec::with_capacity(n * m);
                    for i in 0..n {
                        for (u, &dbm) in net.iter().zip(&db_max) {
                            want.push(normalized_score(ds.point(i), u, dbm));
                        }
                    }
                    assert_eq!(got.len(), want.len());
                    for (k, (x, y)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(x.to_bits(), y.to_bits(), "m={m} d={d} n={n} entry {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn normalize_raw_matches_clamp_form_bitwise() {
        // The form the selects replaced.
        let clamped = |raw: f64, db_max: f64| {
            if db_max <= EPS {
                1.0
            } else {
                (raw / db_max).clamp(0.0, 1.0)
            }
        };
        let values = [
            0.0,
            -0.0,
            -1.0,
            EPS / 2.0,
            EPS,
            0.3,
            1.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for raw in values {
            for db_max in values {
                assert_eq!(
                    normalize_raw(raw, db_max).to_bits(),
                    clamped(raw, db_max).to_bits(),
                    "raw {raw} db_max {db_max}"
                );
            }
        }
    }

    #[test]
    fn submodularity_gains_shrink() {
        let (ds, net, db_max) = setup();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.95);
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
            let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, tau);
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
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 1.0);
        let ev = crate::eval::NetEvaluator::new(&ds, net.clone());
        for sel in [vec![0], vec![0, 1], vec![2, 3]] {
            let st = obj.state_of(&sel);
            assert!((obj.mhr_of_state(&st) - ev.mhr(&ds, &sel)).abs() < 1e-12);
        }
    }
}
