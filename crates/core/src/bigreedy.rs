//! `BiGreedy`: the bicriteria approximation for multi-dimensional FairHMS
//! (Algorithm 3 of the paper).
//!
//! Pipeline: sample a `δ/(d(2−δ))`-net `N` of `m` utility vectors (Lemma
//! 4.1 caps the MHR estimation error at `δ`), then search the capped value
//! `τ` over the geometric grid `{(1−ε/2)^j}` for the largest value at which
//! the multi-round greedy `MRGreedy` — the Fisher–Nemhauser–Wolsey greedy
//! on the truncated objective `mhr_τ(·|N)` under the fairness matroid, run
//! for up to `γ = ⌈log₂(2m/ε)⌉` rounds (Lemma 4.5) — reaches
//! `mhr_τ(S|N) ≥ (1 − ε/2m)·τ`.
//!
//! Each τ-probe is a lazy matroid greedy that skips work whose result is
//! already known, with unchanged picks: it starts from upper bounds on
//! the empty-set gains instead of a heap fill (the exact gains at τ = 1,
//! or a failed probe's bounds, each capped by the gain `T(τ)` of a row
//! scoring at least τ on every utility), refreshes every feasible
//! candidate in one batched pass before its second pick, stops once the
//! selection reaches the matroid's rank, and takes the candidates left
//! after every utility is capped in ascending index order. The exactness
//! arguments are in `docs/ARCHITECTURE.md`, "τ-search greedy".
//!
//! Two deliberate engineering deviations from the paper's pseudocode:
//!
//! 1. **τ search.** Instead of sweeping every grid value — `O(ln(m)/ε)`
//!    MRGreedy invocations — we binary-search the grid, which the paper's
//!    own experiments implicitly require to reach their reported runtimes.
//!    The binary search *assumes* that achievability of `τ` is monotone
//!    (smaller caps easier). That is false on at least one instance:
//!    AntiCor_4D (n = 5 000, data seed 2) at k = 15 with net seed 42,
//!    where the binary search settles at τ = 0.8687 and the literal
//!    sweep passes at τ = 0.9044 (ROADMAP.md,
//!    "BiGreedy's answer must not depend on the τ search path").
//!    [`BiGreedyMode::Feasible`] returns the argmax of `mhr(S|N)` over the
//!    bases the search probed, so which τ values it visits can change the
//!    answer. A failed greedy additionally aborts early once a round stops
//!    improving the objective (further rounds repeat the argument of the
//!    stalled round on a strictly smaller candidate pool).
//! 2. **Feasible output.** The theoretical guarantee allows `|S| ≤ γk`
//!    (bicriteria), yet the paper's experiments report `|S| = k` and
//!    `err(S) = 0`. [`BiGreedyMode::Feasible`] (the default) therefore runs
//!    `MRGreedy` with `γ = 1`: every greedy base of the fairness matroid is
//!    itself a feasible size-`k` selection, so the achieved `τ` certifies
//!    exactly the returned set. [`BiGreedyMode::Bicriteria`] keeps the full
//!    `γ`-round union with its `(O(d log 1/δε), 1−ε−δ/OPT)` guarantee.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_data::Dataset;
use fairhms_geometry::sphere::{bigreedy_net_delta, net_size, random_net_with_basis};
use fairhms_matroid::{FairnessBounds, FairnessMatroid};
use fairhms_submodular::{lazy_greedy_matroid, lazy_greedy_matroid_seeded, IncrementalObjective};

use crate::objective::TruncatedMhrObjective;
use crate::types::{CoreError, FairHmsInstance, Solution};

/// Output contract of [`bigreedy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BiGreedyMode {
    /// Always return a feasible size-`k` selection (prune + pad).
    #[default]
    Feasible,
    /// Return the raw multi-round union (up to `γ·k` points, bounds scaled
    /// by the number of rounds) — the theoretical bicriteria object.
    Bicriteria,
}

/// How the capped value `τ` is searched over the geometric grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TauSearch {
    /// Binary search over the grid (engineering deviation #1; default).
    /// `O(log(ln(m)/ε))` `MRGreedy` invocations.
    #[default]
    Binary,
    /// The paper's literal lines 3–8: try every grid value descending.
    /// `O(ln(m)/ε)` invocations — kept for fidelity and ablation.
    Linear,
}

/// Configuration for [`bigreedy`].
#[derive(Debug, Clone)]
pub struct BiGreedyConfig {
    /// Cap-search accuracy `ε ∈ (0, 1)`; the paper fixes 0.02.
    pub epsilon: f64,
    /// Explicit δ-net size `m`. The paper's experiments use `m = 10·k·d`.
    /// When `None`, `m` is derived from `delta` via the covering bound.
    pub sample_size: Option<usize>,
    /// Net parameter `δ` used only when `sample_size` is `None`.
    pub delta: f64,
    /// Output contract.
    pub mode: BiGreedyMode,
    /// τ-grid traversal strategy.
    pub tau_search: TauSearch,
    /// RNG seed for the δ-net sample.
    pub seed: u64,
}

impl Default for BiGreedyConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.02,
            sample_size: None,
            delta: 0.1,
            mode: BiGreedyMode::Feasible,
            tau_search: TauSearch::Binary,
            seed: 42,
        }
    }
}

impl BiGreedyConfig {
    /// The paper's experimental configuration: `m = 10·k·d`, `ε = 0.02`.
    pub fn paper_default(k: usize, d: usize) -> Self {
        Self {
            sample_size: Some(10 * k * d),
            ..Self::default()
        }
    }

    /// Smallest `epsilon` [`BiGreedyConfig::validate`] accepts. Below
    /// this the geometric τ grid `{(1−ε/2)^j}` down to `1/m` explodes to
    /// billions of entries, so tiny ε is rejected up front instead of
    /// being silently clamped (the pre-validation behaviour).
    pub const EPSILON_MIN: f64 = 1e-6;
    /// Largest `epsilon` [`BiGreedyConfig::validate`] accepts.
    pub const EPSILON_MAX: f64 = 0.999;

    /// Validates the numeric parameters: `epsilon` must be finite and in
    /// `[EPSILON_MIN, EPSILON_MAX]` — exactly the range the solver runs
    /// at; there is no silent clamp between validation and use — and,
    /// when `sample_size` is `None` so it actually drives the covering
    /// bound, `delta` must be finite in `(0, 1)`. A NaN here would
    /// otherwise poison every threshold comparison downstream, silently
    /// returning garbage instead of an error.
    pub fn validate(&self) -> Result<(), CoreError> {
        let e = self.epsilon;
        if !e.is_finite() || !(Self::EPSILON_MIN..=Self::EPSILON_MAX).contains(&e) {
            return Err(CoreError::InvalidParameter {
                param: "epsilon",
                value: format!("{e}"),
                expected: "a finite value in [1e-6, 0.999]",
            });
        }
        if self.sample_size.is_none() {
            let v = self.delta;
            if !v.is_finite() || v <= 0.0 || v >= 1.0 {
                return Err(CoreError::InvalidParameter {
                    param: "delta",
                    value: format!("{v}"),
                    expected: "a finite value in (0, 1)",
                });
            }
        }
        Ok(())
    }

    /// The net size `m` this configuration samples at for dimension `d`.
    pub fn resolve_m(&self, d: usize) -> usize {
        match self.sample_size {
            Some(m) => m.max(2),
            None => net_size(bigreedy_net_delta(self.delta, d.max(2)), d.max(2)),
        }
    }
}

/// A sampled δ-net together with the exact preimage (`dim`, `m`, `seed`)
/// that generated it. Sampling is deterministic in that preimage, and
/// [`CachedDbMax::compute`] copies it into the `db_max` vector it tags.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledNet {
    /// Utility-space dimensionality the net was sampled in.
    pub dim: usize,
    /// Number of net vectors.
    pub m: usize,
    /// RNG seed the sample was drawn with.
    pub seed: u64,
    /// The net vectors (first `min(d, m)` are the basis directions).
    pub vectors: Vec<Vec<f64>>,
}

impl SampledNet {
    /// Samples the net exactly as [`bigreedy`] does internally: a fresh
    /// `StdRng` from `seed`, then [`random_net_with_basis`].
    pub fn generate(dim: usize, m: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let vectors = random_net_with_basis(dim, m, &mut rng);
        Self {
            dim,
            m,
            seed,
            vectors,
        }
    }
}

/// The per-utility database maxima `db_max[u] = max_{p ∈ D} ⟨u, p⟩` for a
/// [`SampledNet`] over an `n`-point dataset.
///
/// Routed through [`Dataset::max_dot_many`], the cache-blocked batched
/// sweep (one stream of the point matrix for all `m` utilities) —
/// bitwise-equal to the per-utility scalar scan.
pub fn db_max_of(data: &Dataset, net: &[Vec<f64>]) -> Vec<f64> {
    data.max_dot_many(net)
}

/// A computed `db_max` vector together with the exact preimage that
/// produced it — the one piece of `BiGreedy` setup the serving layer's
/// warm-start tier keeps.
///
/// `db_max` is a pure function of the net (identified by `(dim, m, seed)`)
/// and the point matrix (identified, within one catalog epoch and prepared
/// form, by `n`). The warm tier keys entries by epoch, form and seed, so a
/// cached vector whose [`CachedDbMax::matches`] preimage checks out is
/// **bit-identical** to recomputation: reuse skips the `m × n` setup pass
/// without being able to change an answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedDbMax {
    /// Utility-space dimensionality of the generating net.
    pub dim: usize,
    /// Net size `m` (`values.len() == m` net vectors were scanned).
    pub m: usize,
    /// RNG seed of the generating net.
    pub seed: u64,
    /// Number of points in the dataset the maxima were taken over.
    pub n: usize,
    /// `values[u] = max_{p ∈ D} ⟨net[u], p⟩`.
    pub values: Vec<f64>,
}

impl CachedDbMax {
    /// Computes the maxima for `net` over `data` (through the blocked
    /// SoA kernels) and records the preimage.
    pub fn compute(data: &Dataset, net: &SampledNet) -> Self {
        Self {
            dim: net.dim,
            m: net.m,
            seed: net.seed,
            n: data.len(),
            values: db_max_of(data, &net.vectors),
        }
    }

    /// Whether this vector was computed from exactly `(dim, m, seed)` over
    /// an `n`-point dataset — the precondition for reuse being
    /// bit-identical to recomputation.
    pub fn matches(&self, dim: usize, m: usize, seed: u64, n: usize) -> bool {
        self.dim == dim && self.m == m && self.seed == seed && self.n == n
    }
}

/// Runs `BiGreedy` on `inst`. The returned [`Solution::mhr`] is the δ-net
/// estimate `mhr(S|N)` (an upper bound on the true MHR within `δ`).
pub fn bigreedy(inst: &FairHmsInstance, config: &BiGreedyConfig) -> Result<Solution, CoreError> {
    config.validate()?;
    let net = SampledNet::generate(inst.dim(), config.resolve_m(inst.dim()), config.seed);
    let (sol, _tau) = bigreedy_on_net(inst, &net.vectors, config)?;
    Ok(sol)
}

/// `BiGreedy` on an explicit utility sample; also returns the largest
/// achieved capped value `τ` (consumed by `BiGreedy+`'s stopping rule).
///
/// In [`BiGreedyMode::Feasible`] the multi-round budget is `γ = 1`: a
/// single greedy base of the fairness matroid is always a feasible size-`k`
/// selection (a base has `Σ count_c = k` with `count_c ≤ h_c`, and
/// `Σ max(count_c, l_c) ≤ k` then forces `count_c ≥ l_c`), so the achieved
/// `τ` certifies the *returned* set. [`BiGreedyMode::Bicriteria`] uses the
/// full `γ = ⌈log₂(2m/ε)⌉` rounds of Lemma 4.5 and returns the union.
pub fn bigreedy_on_net(
    inst: &FairHmsInstance,
    net: &[Vec<f64>],
    config: &BiGreedyConfig,
) -> Result<(Solution, f64), CoreError> {
    config.validate()?;
    let db_max = db_max_of(inst.data(), net);
    bigreedy_on_net_with_db_max(inst, net, &db_max, config)
}

/// [`bigreedy_on_net`] with the `m × n` `db_max` setup pass supplied by
/// the caller — the warm-start entry point. `db_max[u]` **must** equal
/// `max_{p ∈ D} ⟨net[u], p⟩` over `inst`'s dataset (see [`CachedDbMax`]);
/// callers verify the cached preimage before passing a reused vector.
pub fn bigreedy_on_net_with_db_max(
    inst: &FairHmsInstance,
    net: &[Vec<f64>],
    db_max: &[f64],
    config: &BiGreedyConfig,
) -> Result<(Solution, f64), CoreError> {
    bigreedy_replaying(inst, net, db_max, config, None).map(|run| (run.solution, run.tau))
}

/// One τ-probe of a [`ProbeLog`]: its cap, the end of its picks in the
/// log's flat pick list, and whether it passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoggedProbe {
    tau_bits: u64,
    end: u32,
    passed: bool,
}

/// The τ-probes of one `BiGreedy` solve, so that a later solve of the
/// same data, net and `db_max` under other fairness bounds can replay
/// them instead of running them ([`bigreedy_replaying`]).
///
/// It holds each probe's τ bits, its base in pick order (flat `u32`
/// picks) and its pass flag, plus what the probes ran under: the
/// matroid's bounds `(l, h, k)`, ε, the mode, the τ search, `n`, `m` and a
/// fingerprint of the net and `db_max`. At the `cold` serving shape
/// (k = 10, C = 3, ten or eleven probes) that is 752–808 bytes.
///
/// A probe's picks depend only on the objective, τ and which candidates
/// `can_extend` admits at each state along them: the lazy greedy picks
/// the eager greedy's argmax whatever upper bounds it starts from. The
/// fairness matroid's answer depends only on the set's per-group counts
/// and the element's group ([`FairnessBounds::group_can_extend`]). So a
/// recorded probe is replayed exactly when the new bounds give the same
/// answer as the recorded ones for every group at every state
/// `S_0 ⊂ … ⊂ S_j` (`j < k`) along its picks: an `O(k·C)` check.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeLog {
    bounds: FairnessBounds,
    epsilon_bits: u64,
    mode: BiGreedyMode,
    tau_search: TauSearch,
    n: usize,
    m: usize,
    source: u64,
    probes: Vec<LoggedProbe>,
    picks: Vec<u32>,
}

impl ProbeLog {
    /// An empty log for a solve of `inst` on `net`/`db_max` under
    /// `config`.
    fn new(
        inst: &FairHmsInstance,
        net: &[Vec<f64>],
        db_max: &[f64],
        config: &BiGreedyConfig,
    ) -> Self {
        // FNV-1a over the bits of the net and `db_max`, so a log is
        // never replayed on another net.
        let source = net
            .iter()
            .flatten()
            .chain(db_max)
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, x| {
                (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
            });
        Self {
            bounds: inst.matroid().bounds(),
            epsilon_bits: config.epsilon.to_bits(),
            mode: config.mode,
            tau_search: config.tau_search,
            n: inst.data().len(),
            m: net.len(),
            source,
            probes: Vec::new(),
            picks: Vec::new(),
        }
    }

    /// Number of probes recorded.
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// Bytes the log occupies, its own size included.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + 2 * std::mem::size_of_val(&self.bounds.lower[..])
            + std::mem::size_of_val(&self.probes[..])
            + std::mem::size_of_val(&self.picks[..])
    }

    fn push(&mut self, tau: f64, picks: &[usize], passed: bool) {
        // The lazy greedy asserts fewer than `u32::MAX` candidates, and a
        // solve's picks, all probes together, stay far below that.
        let id = |p: usize| u32::try_from(p).expect("picks and their count fit in u32");
        self.picks.extend(picks.iter().map(|&p| id(p)));
        self.probes.push(LoggedProbe {
            tau_bits: tau.to_bits(),
            end: id(self.picks.len()),
            passed,
        });
    }

    /// Whether a solve whose (still empty) log is `fresh` may replay this
    /// one's probes: the same candidates, net, ε and τ search, the same
    /// number of groups and `k`, and both in [`BiGreedyMode::Feasible`],
    /// whose one greedy round per probe is what the check covers.
    fn fits(&self, fresh: &ProbeLog) -> bool {
        self.mode == BiGreedyMode::Feasible
            && fresh.mode == BiGreedyMode::Feasible
            && (
                self.epsilon_bits,
                self.tau_search,
                self.n,
                self.m,
                self.source,
            ) == (
                fresh.epsilon_bits,
                fresh.tau_search,
                fresh.n,
                fresh.m,
                fresh.source,
            )
            && self.bounds.k == fresh.bounds.k
            && self.bounds.lower.len() == fresh.bounds.lower.len()
    }

    /// The base and pass flag of the recorded probe at `tau`, if there is
    /// one and a greedy under `now` would make the same picks: `now` and
    /// the recorded bounds give every group the same `can_extend` answer
    /// at every state along the picks short of `k`. `matroid` supplies
    /// the groups.
    fn replay(
        &self,
        tau: f64,
        now: &FairnessBounds,
        matroid: &FairnessMatroid,
    ) -> Option<(Vec<usize>, bool)> {
        let i = self
            .probes
            .iter()
            .position(|p| p.tau_bits == tau.to_bits())?;
        let start = i.checked_sub(1).map_or(0, |j| self.probes[j].end as usize);
        let picks = &self.picks[start..self.probes[i].end as usize];
        let groups = now.lower.len();
        let mut counts = vec![0usize; groups];
        for j in 0..(picks.len() + 1).min(now.k) {
            if (0..groups).any(|g| {
                self.bounds.group_can_extend(&counts, g) != now.group_can_extend(&counts, g)
            }) {
                return None;
            }
            if let Some(&p) = picks.get(j) {
                counts[matroid.group_of(p as usize)] += 1;
            }
        }
        let base = picks.iter().map(|&p| p as usize).collect();
        Some((base, self.probes[i].passed))
    }
}

/// What [`bigreedy_replaying`] returns.
#[derive(Debug, Clone)]
pub struct ReplayedSolve {
    /// The answer, as [`bigreedy_on_net_with_db_max`] returns it.
    pub solution: Solution,
    /// The largest achieved capped value `τ`.
    pub tau: f64,
    /// This solve's probes, replayed ones included, under its own bounds.
    pub log: ProbeLog,
    /// How many of the probes were replayed from the recorded log; the
    /// other `log.probe_count() - replayed` ran.
    pub replayed: usize,
}

/// [`bigreedy_on_net_with_db_max`] that records its τ-probes and replays
/// those of `recorded` that would run the same (see [`ProbeLog`]).
///
/// The answer, `mhr` and τ are bit-identical to a solve without a log.
/// `recorded` must come from a solve on the same dataset; one from
/// another net, ε, τ search, `k` or candidate count is ignored. A probe
/// that is not replayed runs as usual, seeded from `g1 ∧ T(τ)` or from the
/// most recent probe that ran and failed. The score cache and the τ = 1
/// gains are built by the first probe that runs, so a solve whose every
/// probe is replayed builds neither and ranks its bases through scores
/// computed on the fly, which are bit-identical to the cached ones.
pub fn bigreedy_replaying(
    inst: &FairHmsInstance,
    net: &[Vec<f64>],
    db_max: &[f64],
    config: &BiGreedyConfig,
    recorded: Option<&ProbeLog>,
) -> Result<ReplayedSolve, CoreError> {
    config.validate()?;
    debug_assert_eq!(db_max.len(), net.len(), "db_max/net length mismatch");
    let data = inst.data();
    let m = net.len().max(1);
    // validate() pins epsilon to exactly the range used here — no clamp.
    let epsilon = config.epsilon;
    let gamma = match config.mode {
        BiGreedyMode::Feasible => 1,
        BiGreedyMode::Bicriteria => ((2.0 * m as f64 / epsilon).log2().ceil() as usize).max(1),
    };
    let mut log = ProbeLog::new(inst, net, db_max, config);
    let recorded = recorded.filter(|r| r.fits(&log));

    // Geometric τ grid from 1 down to 1/m (Algorithm 3, lines 3–8).
    let ratio = 1.0 - epsilon / 2.0;
    let mut grid: Vec<f64> = Vec::new();
    let mut tau = 1.0_f64;
    while tau >= 1.0 / m as f64 {
        grid.push(tau);
        tau *= ratio;
    }

    // Probe the τ grid, collecting *every* generated solution — Algorithm
    // 3's line 9 returns the argmax of mhr(S|N) over all candidate
    // solutions, and the bases produced while attempting a too-ambitious τ
    // are frequently the best worst-case covers even though they miss the
    // average-value target.
    //
    // Every probe that runs seeds its first greedy round with upper bounds
    // on the empty-set gains, so no probe fills its heap with exact gains.
    // Empty-set gains never decrease as τ grows (every term `min(s, τ)`
    // is monotone in τ, and so is round-to-nearest addition), so both the
    // exact gains at τ = 1 and the bounds of a failed probe are upper
    // bounds at any smaller τ — and both τ searches only probe below
    // their most recent failure (a binary search moves up only from a
    // pass and never above a failure; the linear sweep only descends).
    // A replayed failure leaves the seed alone: the last failure that ran
    // lies above it. Each bound is further capped by `T(τ)`, the gain of a
    // row that scores at least τ on every utility, which it reaches bit
    // for bit: at a low τ the first such row picks at once. The lazy
    // greedy needs nothing more than upper bounds, so no pick changes.
    //
    // The score cache, the candidate list and the exact τ = 1 gains are
    // built by the first probe that runs.
    let mut built: Option<(TruncatedMhrObjective<'_>, Vec<usize>, Vec<f64>)> = None;
    let mut achieved: Option<f64> = None; // largest passed τ
    let mut pool: Vec<(Vec<usize>, bool)> = Vec::new(); // (union, passed)
    let (mut seed_tau, mut seed) = (f64::INFINITY, Vec::new()); // failed probe's bounds
    let mut bounds: Vec<f64> = Vec::new(); // the running probe's bounds
    let mut replayed = 0usize;
    let mut probe = |tau: f64| -> bool {
        let replay = recorded.and_then(|r| r.replay(tau, &log.bounds, inst.matroid()));
        let (union, passed) = match replay {
            Some(base) => {
                replayed += 1;
                base
            }
            None => {
                let (objective, candidates, unit_gains) = built.get_or_insert_with(|| {
                    let objective = TruncatedMhrObjective::new(data, net, db_max, 1.0);
                    let candidates: Vec<usize> = (0..data.len()).collect();
                    let mut unit_gains = vec![0.0; candidates.len()];
                    objective.gains(&objective.empty_state(), &candidates, &mut unit_gains);
                    (objective, candidates, unit_gains)
                });
                debug_assert!(seed.is_empty() || seed_tau > tau, "seed from a smaller τ");
                bounds.clone_from(if seed.is_empty() { &*unit_gains } else { &seed });
                let (union, passed) = mr_greedy(
                    inst,
                    objective,
                    candidates,
                    tau,
                    gamma,
                    epsilon,
                    &mut bounds,
                );
                if !passed {
                    seed_tau = tau;
                    std::mem::swap(&mut seed, &mut bounds);
                }
                (union, passed)
            }
        };
        log.push(tau, &union, passed);
        if !union.is_empty() {
            pool.push((union, passed));
        }
        if passed && achieved.is_none_or(|a| tau > a) {
            achieved = Some(tau);
        }
        passed
    };
    match config.tau_search {
        TauSearch::Binary => {
            // Binary search the boundary, assuming achievability is
            // monotone in τ; it is not always (see the module doc).
            let mut lo = 0usize; // grid is descending: smaller index = larger τ
            let mut hi = grid.len() - 1;
            // First check the easiest cap to guarantee a fallback solution.
            if probe(grid[hi]) && hi > 0 {
                hi -= 1;
                while lo <= hi {
                    let mid = (lo + hi) / 2;
                    if probe(grid[mid]) {
                        if mid == 0 {
                            break;
                        }
                        hi = mid - 1; // try larger τ (smaller index)
                    } else {
                        lo = mid + 1; // τ too ambitious
                    }
                }
            }
        }
        TauSearch::Linear => {
            // The paper's literal sweep from τ = 1 downward. Once a cap has
            // passed, a few more grid steps suffice: every later candidate
            // certifies a strictly smaller mhr_τ and cannot win the argmax.
            let mut passed_steps = 0usize;
            for &tau in &grid {
                if probe(tau) {
                    passed_steps += 1;
                    if passed_steps > 4 {
                        break;
                    }
                }
            }
        }
    }
    let achieved_tau = achieved.unwrap_or(0.0);

    // Rank the candidate solutions by their net-estimated MHR. When every
    // probe was replayed there is no score cache, and building one for a
    // few dozen rows would cost more than the replay saved: score them on
    // the fly, bit-identically.
    let mut uncached;
    let objective = match &mut built {
        Some((objective, ..)) => objective,
        None => {
            uncached = TruncatedMhrObjective::with_cache_limit(data, net, db_max, 1.0, 0);
            &mut uncached
        }
    };
    objective.set_tau(1.0);
    let rank = |sel: &[usize]| -> f64 {
        let state = objective.state_of(sel);
        objective.mhr_of_state(&state)
    };
    let indices = match config.mode {
        BiGreedyMode::Bicriteria => {
            // The theoretical object: the best *passed* union, falling back
            // to the best base when nothing passed.
            let best = pool
                .iter()
                .filter(|(_, passed)| *passed)
                .max_by(|a, b| rank(&a.0).total_cmp(&rank(&b.0)))
                .or_else(|| pool.iter().max_by(|a, b| rank(&a.0).total_cmp(&rank(&b.0))));
            match best {
                Some((union, _)) => union.clone(),
                None => inst.complete_to_feasible(&[])?,
            }
        }
        BiGreedyMode::Feasible => {
            // Every γ = 1 base is feasible: take the argmax over all of
            // them (paper line 9), pad only the degenerate empty fallback.
            let best = pool.iter().max_by(|a, b| rank(&a.0).total_cmp(&rank(&b.0)));
            match best {
                Some((union, _)) => inst.complete_to_feasible(union)?,
                None => inst.complete_to_feasible(&[])?,
            }
        }
    };

    let mhr_net = rank(&indices);
    Ok(ReplayedSolve {
        solution: Solution::new(indices, Some(mhr_net)),
        tau: achieved_tau,
        log,
        replayed,
    })
}

/// `MRGreedy` (Algorithm 3, lines 10–22): up to `gamma` greedy rounds on
/// disjoint candidate pools. Returns the union (possibly partial) and
/// whether it met the target `mhr_τ(S|N) ≥ (1 − ε/2m)·τ`.
///
/// `bounds` holds upper bounds on every candidate's empty-set gain at a
/// cap `≥ tau`. Each is lowered to `T(τ)`, which bounds every empty-set
/// gain at `tau`, and the result seeds the lazy first round (see
/// [`lazy_greedy_matroid_seeded`]); on return `bounds` holds upper
/// bounds at `tau`. Later rounds run on smaller pools and are not seeded.
fn mr_greedy(
    inst: &FairHmsInstance,
    objective: &mut TruncatedMhrObjective<'_>,
    candidates: &[usize],
    tau: f64,
    gamma: usize,
    epsilon: f64,
    bounds: &mut Vec<f64>,
) -> (Vec<usize>, bool) {
    objective.set_tau(tau);
    let cap = objective.empty_gain_cap();
    for b in bounds.iter_mut() {
        *b = b.min(cap);
    }
    let m = objective.num_utilities().max(1);
    let target = (1.0 - epsilon / (2.0 * m as f64)) * tau;

    let mut union: Vec<usize> = Vec::new();
    let mut union_state = objective.empty_state();
    // Round 0 runs on `candidates` itself; each later round's pool is the
    // previous one minus its picks, built only when such a round follows
    // (never in `Feasible` mode, where `gamma` is 1).
    let mut rest: Vec<usize> = Vec::new();
    let mut last_value = f64::NEG_INFINITY;
    for round_idx in 0..gamma {
        let pool = if round_idx == 0 {
            candidates
        } else {
            &rest[..]
        };
        if pool.is_empty() {
            break;
        }
        let round = if round_idx == 0 {
            lazy_greedy_matroid_seeded(objective, inst.matroid(), pool, bounds)
        } else {
            lazy_greedy_matroid(objective, inst.matroid(), pool)
        };
        if round.items.is_empty() {
            break;
        }
        for &i in &round.items {
            objective.add(&mut union_state, i);
        }
        union.extend_from_slice(&round.items);

        let value = objective.value(&union_state);
        if value >= target - 1e-12 {
            return (union, true);
        }
        if value <= last_value + 1e-12 {
            break; // plateau: additional rounds cannot help
        }
        last_value = value;
        if round_idx + 1 < gamma {
            rest = pool
                .iter()
                .copied()
                .filter(|i| !round.items.contains(i))
                .collect();
        }
    }
    (union, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{mhr_exact_2d, mhr_exact_lp};
    use fairhms_data::realsim::lsac_example;
    use fairhms_data::Dataset;

    fn lsac_instance(k: usize, fair: bool) -> FairHmsInstance {
        let mut ds = lsac_example().dataset(&["gender"]).unwrap();
        ds.normalize();
        let c = ds.num_groups();
        if fair {
            FairHmsInstance::new(ds, k, vec![1; c], vec![k - 1; c]).unwrap()
        } else {
            FairHmsInstance::unconstrained(ds, k).unwrap()
        }
    }

    #[test]
    fn feasible_mode_returns_feasible_k_set() {
        for k in 2..=4 {
            let inst = lsac_instance(k, true);
            let sol = bigreedy(&inst, &BiGreedyConfig::paper_default(k, 2)).unwrap();
            assert_eq!(sol.len(), k);
            assert!(inst.matroid().is_feasible(&sol.indices));
            assert_eq!(inst.matroid().violations(&sol.indices), 0);
        }
    }

    #[test]
    fn near_optimal_on_lsac() {
        // IntCov's optimum for the fair k = 2 instance is 0.9834; BiGreedy
        // with a decent net should land within δ-ish of it.
        let inst = lsac_instance(2, true);
        let sol = bigreedy(&inst, &BiGreedyConfig::paper_default(2, 2)).unwrap();
        let exact = mhr_exact_2d(inst.data(), &sol.indices);
        assert!(exact > 0.93, "exact mhr of BiGreedy solution = {exact}");
    }

    #[test]
    fn net_mhr_upper_bounds_exact_mhr() {
        let inst = lsac_instance(3, false);
        let sol = bigreedy(&inst, &BiGreedyConfig::paper_default(3, 2)).unwrap();
        let exact = mhr_exact_lp(inst.data(), &sol.indices);
        assert!(sol.mhr.unwrap() >= exact - 1e-9, "Lemma 4.1 violated");
    }

    #[test]
    fn bicriteria_mode_may_exceed_k() {
        let inst = lsac_instance(2, true);
        let cfg = BiGreedyConfig {
            mode: BiGreedyMode::Bicriteria,
            ..BiGreedyConfig::paper_default(2, 2)
        };
        let sol = bigreedy(&inst, &cfg).unwrap();
        assert!(!sol.is_empty());
        // union of feasible rounds: per-group counts within γ·h_c
        assert!(sol.len() >= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = lsac_instance(3, true);
        let cfg = BiGreedyConfig::paper_default(3, 2);
        let a = bigreedy(&inst, &cfg).unwrap();
        let b = bigreedy(&inst, &cfg).unwrap();
        assert_eq!(a.indices, b.indices);
    }

    #[test]
    fn non_finite_or_out_of_range_params_yield_typed_errors() {
        // Regression (PR 5): a NaN ε used to survive `clamp` and run the
        // whole solve with NaN thresholds. Regression (PR 8): validated
        // values like 1e-9 or 0.9999 used to pass `(0, 1)` validation and
        // then run silently clamped to [1e-6, 0.999] — a *different* ε
        // than requested. validate() now accepts exactly the range the
        // solver runs at, and the clamp is gone.
        let inst = lsac_instance(2, true);
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.5,
            1.0,
            1.5,
            1e-9,   // previously validated, then silently ran at 1e-6
            0.9999, // previously validated, then silently ran at 0.999
        ] {
            let cfg = BiGreedyConfig {
                epsilon: bad,
                ..BiGreedyConfig::paper_default(2, 2)
            };
            match bigreedy(&inst, &cfg) {
                Err(CoreError::InvalidParameter {
                    param: "epsilon", ..
                }) => {}
                other => panic!("epsilon = {bad}: expected typed error, got {other:?}"),
            }
            // The explicit-net entry point validates identically.
            let net = SampledNet::generate(2, 10, 42);
            assert!(matches!(
                bigreedy_on_net(&inst, &net.vectors, &cfg),
                Err(CoreError::InvalidParameter {
                    param: "epsilon",
                    ..
                })
            ));
        }
        // δ is validated only when it drives the net size.
        for bad in [f64::NAN, 0.0, 1.0] {
            let cfg = BiGreedyConfig {
                delta: bad,
                sample_size: None,
                ..BiGreedyConfig::default()
            };
            assert!(matches!(
                bigreedy(&inst, &cfg),
                Err(CoreError::InvalidParameter { param: "delta", .. })
            ));
            // …and ignored when an explicit sample size overrides it.
            let cfg = BiGreedyConfig {
                delta: bad,
                sample_size: Some(20),
                ..BiGreedyConfig::default()
            };
            assert!(
                bigreedy(&inst, &cfg).is_ok(),
                "delta = {bad} with explicit m"
            );
        }
    }

    #[test]
    fn epsilon_boundaries_run_unclamped() {
        // The accepted range *is* the range used: both boundary values run
        // (no clamp can change them), and just-outside values error.
        let inst = lsac_instance(2, true);
        for eps in [BiGreedyConfig::EPSILON_MIN, BiGreedyConfig::EPSILON_MAX] {
            let cfg = BiGreedyConfig {
                epsilon: eps,
                ..BiGreedyConfig::paper_default(2, 2)
            };
            let sol = bigreedy(&inst, &cfg).unwrap_or_else(|e| panic!("epsilon = {eps}: {e:?}"));
            assert_eq!(sol.len(), 2);
        }
    }

    #[test]
    fn cached_db_max_reuse_is_bit_identical_to_recomputation() {
        let inst = lsac_instance(3, true);
        let cfg = BiGreedyConfig::paper_default(3, 2);
        let net = SampledNet::generate(inst.dim(), cfg.resolve_m(inst.dim()), cfg.seed);
        let cached = CachedDbMax::compute(inst.data(), &net);
        assert!(cached.matches(net.dim, net.m, net.seed, inst.data().len()));
        assert!(!cached.matches(net.dim, net.m, net.seed + 1, inst.data().len()));
        assert!(!cached.matches(net.dim, net.m, net.seed, inst.data().len() + 1));
        // Recomputation is deterministic…
        let again = CachedDbMax::compute(inst.data(), &net);
        let (ba, bb): (Vec<u64>, Vec<u64>) = (
            cached.values.iter().map(|x| x.to_bits()).collect(),
            again.values.iter().map(|x| x.to_bits()).collect(),
        );
        assert_eq!(ba, bb);
        // …and the solver consuming a cached vector equals the
        // compute-inline entry point to the bit.
        let (with_cache, tau_a) =
            bigreedy_on_net_with_db_max(&inst, &net.vectors, &cached.values, &cfg).unwrap();
        let (inline, tau_b) = bigreedy_on_net(&inst, &net.vectors, &cfg).unwrap();
        assert_eq!(with_cache.indices, inline.indices);
        assert_eq!(
            with_cache.mhr.map(f64::to_bits),
            inline.mhr.map(f64::to_bits)
        );
        assert_eq!(tau_a.to_bits(), tau_b.to_bits());
    }

    #[test]
    fn sampled_net_reuse_is_bit_identical_to_regeneration() {
        let a = SampledNet::generate(3, 90, 42);
        let b = SampledNet::generate(3, 90, 42);
        assert_eq!(a.vectors.len(), 90);
        for (va, vb) in a.vectors.iter().zip(&b.vectors) {
            let (ba, bb): (Vec<u64>, Vec<u64>) = (
                va.iter().map(|x| x.to_bits()).collect(),
                vb.iter().map(|x| x.to_bits()).collect(),
            );
            assert_eq!(ba, bb);
        }

        // And the solver consuming a pre-sampled net equals the all-in-one
        // entry point to the bit.
        let inst = lsac_instance(3, true);
        let cfg = BiGreedyConfig::paper_default(3, 2);
        let net = SampledNet::generate(inst.dim(), cfg.resolve_m(inst.dim()), cfg.seed);
        let (on_net, _) = bigreedy_on_net(&inst, &net.vectors, &cfg).unwrap();
        let direct = bigreedy(&inst, &cfg).unwrap();
        assert_eq!(on_net.indices, direct.indices);
        assert_eq!(on_net.mhr.map(f64::to_bits), direct.mhr.map(f64::to_bits));
    }

    #[test]
    fn linear_sweep_matches_binary_search_quality() {
        // Ablation for engineering deviation #1: on this instance the
        // paper's literal τ sweep and our binary search land on solutions
        // within 0.02 in exact quality. The binary search assumes
        // achievability is monotone in τ, which does not hold on every
        // instance (see the module doc), and each search returns the
        // argmax over the bases it probed, so the two can differ
        // elsewhere.
        let inst = lsac_instance(3, true);
        let binary = bigreedy(&inst, &BiGreedyConfig::paper_default(3, 2)).unwrap();
        let linear = bigreedy(
            &inst,
            &BiGreedyConfig {
                tau_search: TauSearch::Linear,
                ..BiGreedyConfig::paper_default(3, 2)
            },
        )
        .unwrap();
        let mb = mhr_exact_2d(inst.data(), &binary.indices);
        let ml = mhr_exact_2d(inst.data(), &linear.indices);
        assert!((mb - ml).abs() < 0.02, "binary {mb} vs linear {ml}");
        assert!(inst.matroid().is_feasible(&linear.indices));
    }

    #[test]
    fn works_in_higher_dimensions() {
        // 4D simplex corners + interior points, two groups. The optimal
        // feasible base is the four corners (mhr 0.625); the greedy's first
        // pick is the high-average diagonal point, so its base misses one
        // corner and lands at 0.4 — within the 1/2-approximation of the
        // matroid greedy, which is all Feasible mode promises.
        let pts = vec![
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 0.0, 0.0, 1.0, //
            0.4, 0.4, 0.4, 0.4, //
            0.3, 0.3, 0.3, 0.3, //
        ];
        let ds = Dataset::new("4d", 4, pts, vec![0, 0, 1, 1, 0, 1], vec![]).unwrap();
        let inst = FairHmsInstance::new(ds, 4, vec![1, 1], vec![3, 3]).unwrap();
        let sol = bigreedy(&inst, &BiGreedyConfig::paper_default(4, 4)).unwrap();
        assert_eq!(sol.len(), 4);
        assert!(inst.matroid().is_feasible(&sol.indices));
        let exact = mhr_exact_lp(inst.data(), &sol.indices);
        assert!(exact >= 0.5 * 0.625 - 1e-9, "exact = {exact}");

        // The bicriteria union, by contrast, reaches the Lemma 4.5 bound —
        // here the full dataset, mhr 1.
        let cfg = BiGreedyConfig {
            mode: BiGreedyMode::Bicriteria,
            ..BiGreedyConfig::paper_default(4, 4)
        };
        let union = bigreedy(&inst, &cfg).unwrap();
        let exact_union = mhr_exact_lp(inst.data(), &union.indices);
        assert!(exact_union > 0.99, "bicriteria exact = {exact_union}");
    }

    /// The replay pin, a property test over 256 drawn cases: a solve under
    /// bounds B that replays a log recorded under bounds A returns what a
    /// solve under B from scratch returns (indices, `mhr` bits, τ bits)
    /// and records the same log. The cases must include both full and
    /// partial replays, or the pin shows nothing, so the cases are drawn
    /// in a loop that counts them rather than through `proptest!`.
    #[test]
    fn replayed_probes_match_a_solve_from_scratch() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;

        let strategy = (
            (0u64..1_000_000, 2usize..=4, 2usize..=4, 8usize..=40),
            (2usize..=6, 8usize..=48, 0usize..2),
            prop::collection::vec((0usize..=2, 0usize..=3), 4),
            prop::collection::vec(0usize..=3, 4),
        );
        let mut rng = TestRng::from_seed(0x7265_706c_6179); // "replay"
        let (mut full, mut partial, mut cases) = (0usize, 0usize, 0usize);
        while cases < 256 {
            let ((seed, d, c, n), (k, m, linear), raw, nudge) = strategy.new_value(&mut rng);
            let mut x = seed;
            let mut next = move |bound: u64| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % bound
            };
            let points: Vec<f64> = (0..n * d).map(|_| next(9) as f64 / 8.0).collect();
            let groups: Vec<usize> = (0..n).map(|_| next(c as u64) as usize).collect();
            let data = std::sync::Arc::new(Dataset::new("r", d, points, groups, vec![]).unwrap());
            // A draws each group's bounds; B nudges them, so feasibility
            // sometimes agrees along a probe's picks and sometimes not.
            let (mut la, mut ua, mut lb, mut ub) = (vec![], vec![], vec![], vec![]);
            for g in 0..c {
                let (l, h) = (raw[g].0, raw[g].0 + 1 + raw[g].1);
                la.push(l);
                ua.push(h);
                let (l, h) = match nudge[g] {
                    0 => (l.saturating_sub(1), h),
                    1 => (l, h + 1),
                    2 => (l, (h - 1).max(l)),
                    _ => (l, h),
                };
                lb.push(l);
                ub.push(h);
            }
            let instance = |lower: &[usize], upper: &[usize]| {
                FairHmsInstance::new(
                    std::sync::Arc::clone(&data),
                    k,
                    lower.to_vec(),
                    upper.to_vec(),
                )
            };
            let (Ok(a), Ok(b)) = (instance(&la, &ua), instance(&lb, &ub)) else {
                continue;
            };
            cases += 1;
            let cfg = BiGreedyConfig {
                sample_size: Some(m),
                tau_search: [TauSearch::Binary, TauSearch::Linear][linear],
                seed,
                ..BiGreedyConfig::default()
            };
            let net = SampledNet::generate(d, cfg.resolve_m(d), seed);
            let db_max = db_max_of(&data, &net.vectors);
            let solve = |inst: &FairHmsInstance, log: Option<&ProbeLog>| {
                bigreedy_replaying(inst, &net.vectors, &db_max, &cfg, log).unwrap()
            };
            let recorded = solve(&a, None);
            let scratch = solve(&b, None);
            let replayed = solve(&b, Some(&recorded.log));
            let ctx = format!(
                "seed {seed} d {d} c {c} n {n} k {k} m {m} A {la:?}/{ua:?} B {lb:?}/{ub:?}"
            );
            assert_eq!(scratch.replayed, 0, "{ctx}");
            assert_eq!(replayed.solution.indices, scratch.solution.indices, "{ctx}");
            assert_eq!(
                replayed.solution.mhr.map(f64::to_bits),
                scratch.solution.mhr.map(f64::to_bits),
                "{ctx}"
            );
            assert_eq!(replayed.tau.to_bits(), scratch.tau.to_bits(), "{ctx}");
            assert_eq!(replayed.log, scratch.log, "{ctx}");
            if replayed.replayed == replayed.log.probe_count() {
                full += 1;
            } else if replayed.replayed > 0 {
                partial += 1;
            }
        }
        assert!(
            full > 0 && partial > 0,
            "{full} full and {partial} partial replays in {cases} cases: a path is missing"
        );
    }

    #[test]
    fn logs_replay_only_on_their_own_net_and_settings() {
        let inst = lsac_instance(3, true);
        let cfg = BiGreedyConfig::paper_default(3, 2);
        let net = SampledNet::generate(inst.dim(), cfg.resolve_m(inst.dim()), cfg.seed);
        let db_max = db_max_of(inst.data(), &net.vectors);
        let first = bigreedy_replaying(&inst, &net.vectors, &db_max, &cfg, None).unwrap();
        assert!(first.log.probe_count() > 0 && first.log.bytes() < 1024);
        // The same solve again replays every probe.
        let again =
            bigreedy_replaying(&inst, &net.vectors, &db_max, &cfg, Some(&first.log)).unwrap();
        assert_eq!(again.replayed, first.log.probe_count());
        assert_eq!(again.solution.indices, first.solution.indices);
        // Another net, another ε or the bicriteria mode replays nothing.
        let other = SampledNet::generate(inst.dim(), net.m, cfg.seed + 1);
        let other_max = db_max_of(inst.data(), &other.vectors);
        let on_other =
            bigreedy_replaying(&inst, &other.vectors, &other_max, &cfg, Some(&first.log));
        assert_eq!(on_other.unwrap().replayed, 0);
        for changed in [
            BiGreedyConfig {
                epsilon: 0.05,
                ..cfg.clone()
            },
            BiGreedyConfig {
                mode: BiGreedyMode::Bicriteria,
                ..cfg.clone()
            },
            BiGreedyConfig {
                tau_search: TauSearch::Linear,
                ..cfg.clone()
            },
        ] {
            let run = bigreedy_replaying(&inst, &net.vectors, &db_max, &changed, Some(&first.log));
            assert_eq!(run.unwrap().replayed, 0, "{changed:?}");
        }
    }
}
