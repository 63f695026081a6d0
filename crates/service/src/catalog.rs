//! Named-dataset catalog with memoized, optionally sharded preprocessing.
//!
//! Every FairHMS algorithm consumes the same prepared form of a dataset:
//! scale-normalized coordinates restricted to the union of per-group
//! skylines. The batch CLI recomputes that on every `solve`; the catalog
//! computes it **once per dataset** at registration time and hands out
//! shared [`PreparedDataset`]s, so a query's marginal cost is just the
//! solve itself.
//!
//! With [`CatalogConfig::shards`] > 1, the skyline reduction is
//! *partitioned*: a [`ShardPlan`] splits the rows, each shard's group
//! skyline runs on its own std thread against the one shared matrix (a
//! view, never a copy), and a final merge pass reduces the union — an
//! output **bit-identical** to the unsharded pipeline (see
//! [`fairhms_data::shard`]), so sharding is purely a preparation-latency
//! knob, invisible to answers.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

use fairhms_obs::sync::{read_or_recover, write_or_recover};
use std::time::Instant;

use fairhms_data::csv;
use fairhms_data::shard::{merge_shard_skylines_parallel, PartitionStrategy, ShardPlan};
use fairhms_data::skyline::{bucket_skyline, dominates, group_skyline_of_rows};
use fairhms_data::Dataset;

use crate::ServiceError;

/// Upper limit on the configurable shard count (CLI `--shards`, wire
/// `SHARDS`): beyond this, per-shard thread and merge overhead dwarfs any
/// parallelism a realistic machine can supply.
pub const MAX_SHARDS: usize = 64;

/// Catalog-wide preparation tunables, applied to every subsequent dataset
/// registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogConfig {
    /// Number of preparation shards (clamped to `1..=`[`MAX_SHARDS`]).
    /// 1 = the classic unsharded pipeline.
    pub shards: usize,
    /// How rows are dealt to shards.
    pub strategy: PartitionStrategy,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            strategy: PartitionStrategy::GroupStratified,
        }
    }
}

impl CatalogConfig {
    /// A config with `shards` shards and the default (group-stratified)
    /// strategy.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: shards.clamp(1, MAX_SHARDS),
            ..Self::default()
        }
    }

    /// The default config, with the shard count overridden by the
    /// `FAIRHMS_TEST_SHARDS` environment variable when set.
    ///
    /// This is the CI hook that re-runs the whole service test suite over
    /// the sharded pipeline (`scripts/ci.sh` sets `FAIRHMS_TEST_SHARDS=4`
    /// for the second pass): [`Catalog::new`] routes through it, so every
    /// test that builds a catalog exercises whichever pipeline the
    /// environment selects. Unset (production) it is exactly
    /// `CatalogConfig::default()`.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("FAIRHMS_TEST_SHARDS") {
            if let Ok(n) = v.parse::<usize>() {
                cfg.shards = n.clamp(1, MAX_SHARDS);
            }
        }
        cfg
    }
}

/// One shard's view of a prepared dataset: which rows it owned, what its
/// local group skyline kept (and what it dominated), and what the pass
/// cost.
///
/// Holds row indices only — the points stay in the parent
/// [`PreparedDataset`]'s shared matrix.
#[derive(Debug, Clone)]
pub struct ShardPrep {
    /// How many rows this shard was dealt.
    pub num_rows: usize,
    /// This shard's group-skyline survivors (global row ids, ascending).
    /// The union over shards, reduced once more, is the exact global
    /// group skyline.
    pub skyline_rows: Vec<usize>,
    /// The shard's dealt rows its local group skyline *dominated* (global
    /// row ids, ascending; disjoint from `skyline_rows`, union = dealt
    /// rows). This is the repair set of incremental deletion: removing a
    /// local skyline member can only resurrect rows it dominated, and
    /// those all live in its own shard's dominated set.
    pub dominated_rows: Vec<usize>,
    /// Per-group row counts of the shard's dealt rows.
    pub group_sizes: Vec<usize>,
    /// Wall-clock of this shard's skyline pass, microseconds.
    pub prep_micros: u64,
}

/// Per-group mutation generations of a prepared dataset — the refinement
/// of the flat registration epoch that makes *delta* invalidation
/// possible.
///
/// Each group holds two monotone counters: `full[g]` advances whenever a
/// mutation touches group `g`'s rows at all, `sky[g]` only when group
/// `g`'s *skyline* (contents or row ids) changed. The engine folds a
/// digest of the relevant vector into every cache key and `WarmKey`, so
/// a mutation that provably cannot affect a cached answer — the common
/// dominated append, or a mutation on a different dataset — leaves those
/// keys valid instead of orphaning them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupGenerations {
    sky: Vec<u64>,
    full: Vec<u64>,
}

impl GroupGenerations {
    /// Generation zero for `num_groups` groups (a fresh registration).
    pub fn new(num_groups: usize) -> Self {
        Self {
            sky: vec![0; num_groups],
            full: vec![0; num_groups],
        }
    }

    /// Per-group skyline generations.
    pub fn sky(&self) -> &[u64] {
        &self.sky
    }

    /// Per-group full-form generations.
    pub fn full(&self) -> &[u64] {
        &self.full
    }

    /// Advances group `g`'s full-form generation (its row set mutated).
    pub fn bump_full(&mut self, g: usize) {
        self.full[g] += 1;
    }

    /// Advances group `g`'s skyline generation (its skyline changed).
    pub fn bump_sky(&mut self, g: usize) {
        self.sky[g] += 1;
    }

    /// Advances every generation — the full-rebuild (invariant-repair)
    /// path, where nothing incremental can be trusted to have survived.
    pub fn bump_all(&mut self) {
        for g in self.sky.iter_mut().chain(self.full.iter_mut()) {
            *g += 1;
        }
    }
}

/// FNV-1a over a word stream — the digest `GroupGenerations` vectors are
/// folded down to for cache keys (same constants as the query
/// fingerprint). A digest match is probabilistic (2⁻⁶⁴ collision odds);
/// the answer cache additionally verifies the stored `(epoch, digest,
/// query)` preimage on every hit, so a collision degrades to a miss,
/// never a wrong answer.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// A dataset plus everything the engine precomputes for it.
///
/// Both dataset forms are held behind [`Arc`] so the engine hands the
/// *same* allocation to every concurrent solve: a cold query costs an
/// `Arc` refcount bump, never a point-matrix copy
/// (`fairhms_core::types::FairHmsInstance` shares the handle).
#[derive(Debug)]
pub struct PreparedDataset {
    /// Catalog key.
    pub name: String,
    /// The full dataset, scale-normalized — shared, never copied, by
    /// `skyline=false` solves.
    pub dataset: Arc<Dataset>,
    /// Union of per-group skyline rows (indices into `dataset`), the
    /// lossless restriction every algorithm runs on by default. Shared
    /// (`Arc<[usize]>`) so the engine's per-query
    /// [`fairhms_core::types::CandidateSet`] holds the row map by
    /// refcount, not by copy.
    pub skyline_rows: Arc<[usize]>,
    /// `dataset` restricted to `skyline_rows` (row `i` here is row
    /// `skyline_rows[i]` of `dataset`) — shared by default-path solves.
    pub skyline_data: Arc<Dataset>,
    /// Per-group row counts of the full dataset.
    pub group_sizes: Vec<usize>,
    /// Per-group row counts of `skyline_data` — the form bounds are
    /// derived from on the default (skyline-restricted) solve path, so
    /// the engine does not rescan group labels per cold solve.
    pub skyline_group_sizes: Vec<usize>,
    /// Registration epoch, unique per catalog insert. The engine folds it
    /// into cache keys, so replacing a dataset under the same name
    /// orphans (rather than serves) every answer cached against the old
    /// data. 0 for datasets prepared outside a catalog.
    pub epoch: u64,
    /// Wall-clock cost of normalization + skyline preprocessing.
    pub prep_micros: u64,
    /// Wall-clock of the final shard-skyline merge pass alone,
    /// microseconds (a component of `prep_micros`) — the catalog's
    /// `catalog.merge` telemetry observation.
    pub merge_micros: u64,
    /// Partition strategy the preparation ran under.
    pub strategy: PartitionStrategy,
    /// Per-shard preparation views (length 1 for the unsharded pipeline).
    /// `skyline_rows` is always the merged, exact global group skyline.
    pub shards: Vec<ShardPrep>,
    /// Per-group mutation generations (see [`GroupGenerations`]); all
    /// zero at registration. `sky_digest`/`full_digest` are derived from
    /// them and must be refreshed together.
    pub generations: GroupGenerations,
    /// Digest of the skyline generations + skyline size — folded into
    /// cache keys of `skyline=true` queries.
    pub sky_digest: u64,
    /// Digest of the full-form generations + row count — folded into
    /// cache keys of `skyline=false` queries.
    pub full_digest: u64,
    /// Per column: how many rows hold the coordinate exactly `1.0`.
    /// Together with `nonzeros_per_col` this tracks the normalization
    /// invariant *every column maximum is exactly 0 or 1* (scale-only
    /// normalization makes each nonzero column's max element `x/x == 1.0`
    /// exactly), under which re-normalization is the identity — the
    /// precondition of every incremental mutation fast path.
    pub ones_per_col: Vec<usize>,
    /// Per column: how many rows hold a coordinate `> 0`.
    pub nonzeros_per_col: Vec<usize>,
}

impl PreparedDataset {
    /// Normalizes `data` and builds the group-skyline restriction through
    /// the classic single-shard pipeline.
    pub fn prepare(name: impl Into<String>, data: Dataset) -> Result<Self, ServiceError> {
        Self::prepare_with(name, data, &CatalogConfig::default())
    }

    /// Normalizes `data` and builds the group-skyline restriction,
    /// partitioned across `cfg.shards` preparation shards.
    ///
    /// Each shard's group-skyline pass runs on its own scoped std thread
    /// and reads the one shared point matrix (no per-shard dataset copy);
    /// [`merge_shard_skylines_parallel`] then reduces the union to the
    /// exact global
    /// group skyline, so the resulting `skyline_rows`/`skyline_data` are
    /// **bit-identical for every shard count and strategy** — pinned by
    /// the shard-equivalence test suite.
    #[allow(clippy::disallowed_methods)] // prep-stage timing; see R5 waivers inside
    pub fn prepare_with(
        name: impl Into<String>,
        mut data: Dataset,
        cfg: &CatalogConfig,
    ) -> Result<Self, ServiceError> {
        if data.is_empty() {
            return Err(ServiceError::Dataset("dataset has no rows".into()));
        }
        // fairhms-lint: allow(R5) one-time prep-stage wall clock; feeds
        // the STATS prep_micros field, not a per-query hot path.
        let t = Instant::now();
        let plan = ShardPlan::build(&data, cfg.shards.clamp(1, MAX_SHARDS), cfg.strategy);
        let strategy = plan.strategy();
        data.normalize_parallel(plan.num_shards());
        let shards = prepare_shards(&data, plan);
        let per_shard: Vec<&[usize]> = shards.iter().map(|s| s.skyline_rows.as_slice()).collect();
        // fairhms-lint: allow(R5) one-time prep-stage wall clock (merge).
        let tm = Instant::now();
        let skyline_rows: Arc<[usize]> = merge_shard_skylines_parallel(&data, &per_shard).into();
        let merge_micros = tm.elapsed().as_micros() as u64;
        let skyline_data = Arc::new(data.subset(&skyline_rows));
        let group_sizes = data.group_sizes();
        let skyline_group_sizes = skyline_data.group_sizes();
        let mut ones_per_col = vec![0usize; data.dim()];
        let mut nonzeros_per_col = vec![0usize; data.dim()];
        for p in data.points_flat().chunks_exact(data.dim()) {
            for (c, &v) in p.iter().enumerate() {
                if v == 1.0 {
                    ones_per_col[c] += 1;
                }
                if v > 0.0 {
                    nonzeros_per_col[c] += 1;
                }
            }
        }
        let generations = GroupGenerations::new(data.num_groups());
        let mut prepared = Self {
            name: name.into(),
            dataset: Arc::new(data),
            skyline_rows,
            skyline_data,
            group_sizes,
            skyline_group_sizes,
            epoch: 0,
            prep_micros: t.elapsed().as_micros() as u64,
            merge_micros,
            strategy,
            shards,
            generations,
            sky_digest: 0,
            full_digest: 0,
            ones_per_col,
            nonzeros_per_col,
        };
        prepared.refresh_digests();
        Ok(prepared)
    }

    /// Recomputes `sky_digest`/`full_digest` from the current generations
    /// and dataset shape. Must be called after any generation bump.
    fn refresh_digests(&mut self) {
        let sky = &self.generations.sky;
        self.sky_digest = fnv1a_words(
            [0x51u64, self.skyline_rows.len() as u64]
                .into_iter()
                .chain(sky.iter().copied()),
        );
        let full = &self.generations.full;
        self.full_digest = fnv1a_words(
            [0xF1u64, self.dataset.len() as u64]
                .into_iter()
                .chain(full.iter().copied()),
        );
    }

    /// The digest a query of the given form (`skyline=true`/`false`)
    /// folds into its cache key and `WarmKey`.
    pub fn digest_for(&self, skyline: bool) -> u64 {
        if skyline {
            self.sky_digest
        } else {
            self.full_digest
        }
    }

    /// One-line summary for `LIST` responses: `name:n:d:groups:skyline`.
    pub fn summary(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}",
            self.name,
            self.dataset.len(),
            self.dataset.dim(),
            self.dataset.num_groups(),
            self.skyline_rows.len()
        )
    }

    /// Number of preparation shards this dataset was prepared with.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

/// Runs every shard's group-skyline pass — on scoped std threads when the
/// plan has more than one shard. Each thread reads the shared matrix
/// through `&Dataset`; only row-index lists are moved, nothing is copied.
#[allow(clippy::disallowed_methods)] // prep-stage timing; see R5 waiver inside
fn prepare_shards(data: &Dataset, plan: ShardPlan) -> Vec<ShardPrep> {
    let prep_one = |rows: Vec<usize>| -> ShardPrep {
        // fairhms-lint: allow(R5) per-shard prep-stage wall clock; feeds
        // the catalog.shard_prep span, recorded only when enabled.
        let t = Instant::now();
        let skyline_rows = group_skyline_of_rows(data, &rows);
        let mut group_sizes = vec![0usize; data.num_groups()];
        for &r in &rows {
            group_sizes[data.group_of(r)] += 1;
        }
        // Dealt rows minus local survivors (both sorted ascending): the
        // shard's dominated set, kept as the repair unit of incremental
        // deletion. Computed here — the assignment lists are dropped
        // after the merge.
        let mut dominated_rows = Vec::with_capacity(rows.len() - skyline_rows.len());
        let mut sky_it = skyline_rows.iter().peekable();
        for &r in &rows {
            if sky_it.peek() == Some(&&r) {
                sky_it.next();
            } else {
                dominated_rows.push(r);
            }
        }
        ShardPrep {
            num_rows: rows.len(),
            skyline_rows,
            dominated_rows,
            group_sizes,
            prep_micros: t.elapsed().as_micros() as u64,
        }
    };
    let mut assignments = plan.into_assignments();
    if assignments.len() == 1 {
        return vec![prep_one(assignments.pop().expect("one shard"))];
    }
    std::thread::scope(|s| {
        let prep_one = &prep_one;
        let handles: Vec<_> = assignments
            .into_iter()
            .map(|rows| s.spawn(move || prep_one(rows)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// What a catalog mutation did — the engine turns this into delta cache
/// sweeps and the wire `MUTATED` response.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// The dataset's new prepared form (already published in the catalog).
    pub prep: Arc<PreparedDataset>,
    /// Whether any group's skyline changed (contents or row ids).
    pub sky_changed: bool,
    /// Whether the slow path ran: the mutation broke the normalization
    /// invariant and the dataset was fully re-prepared from scratch.
    pub rebuilt: bool,
}

/// Sorted-`Vec` helpers for the shard bookkeeping lists.
fn insert_sorted(v: &mut Vec<usize>, x: usize) {
    let pos = v.partition_point(|&r| r < x);
    v.insert(pos, x);
}

fn remove_sorted(v: &mut Vec<usize>, x: usize) -> bool {
    match v.binary_search(&x) {
        Ok(pos) => {
            v.remove(pos);
            true
        }
        Err(_) => false,
    }
}

fn contains_sorted(v: &[usize], x: usize) -> bool {
    v.binary_search(&x).is_ok()
}

/// Shifts every id greater than `removed` down by one (ascending lists
/// stay ascending — the order is preserved by a monotone map).
fn renumber_after(v: &mut [usize], removed: usize) {
    for r in v.iter_mut() {
        if *r > removed {
            *r -= 1;
        }
    }
}

/// The slow mutation path: the fast-path invariant broke (a column
/// maximum left `{0, 1}`), so `data` — the already-mutated row set — is
/// re-prepared from scratch (re-normalizing it, which restores the
/// invariant). Every generation bumps: nothing incremental survived.
fn rebuild_prepared(
    prep: &PreparedDataset,
    data: Dataset,
    cfg: &CatalogConfig,
) -> Result<PreparedDataset, ServiceError> {
    let mut rebuilt = PreparedDataset::prepare_with(prep.name.clone(), data, cfg)?;
    rebuilt.epoch = prep.epoch;
    rebuilt.generations = prep.generations.clone();
    rebuilt.generations.bump_all();
    rebuilt.refresh_digests();
    Ok(rebuilt)
}

/// Incremental append: `coords` joins `prep` as the last row of `group`.
///
/// Fast path (the normalization invariant holds afterwards): the new
/// point is tested against its group's skyline only — first the local
/// skyline of the shard it is dealt to, then the global one — inserting
/// it and pruning newly dominated members; no other group's state is
/// touched and no full prep runs. Returns the new prepared form plus
/// `(sky_changed, rebuilt)`.
fn apply_append(
    prep: &PreparedDataset,
    coords: &[f64],
    group: usize,
    cfg: &CatalogConfig,
) -> Result<(PreparedDataset, bool, bool), ServiceError> {
    let data = prep
        .dataset
        .with_appended_row(coords, group)
        .map_err(|e| ServiceError::Dataset(e.to_string()))?;
    // Fast path only while every column max stays exactly 0 or 1: a
    // coordinate past 1, or a strictly-interior coordinate landing in an
    // all-zero column, changes some column's max — re-normalization is
    // no longer the identity, so prep must rerun.
    let breaks_invariant = coords
        .iter()
        .enumerate()
        .any(|(c, &v)| v > 1.0 || (v > 0.0 && v < 1.0 && prep.ones_per_col[c] == 0));
    if breaks_invariant {
        return Ok((rebuild_prepared(prep, data, cfg)?, true, true));
    }

    let new_row = data.len() - 1;
    let p = data.point(new_row);
    let mut shards = prep.shards.clone();
    let mut skyline_rows = prep.skyline_rows.to_vec();
    let mut sky_changed = false;

    // Deal the new row to the least-loaded shard (ties to the lowest
    // index — deterministic, so mutation sequences replay identically).
    let s = shards
        .iter()
        .enumerate()
        .min_by_key(|(i, sp)| (sp.num_rows, *i))
        .map(|(i, _)| i)
        .expect("prepared datasets have at least one shard");
    let shard = &mut shards[s];
    let dominated_locally = shard
        .skyline_rows
        .iter()
        .any(|&r| data.group_of(r) == group && dominates(data.point(r), p));
    if dominated_locally {
        // Dominated by a same-group local member: by transitivity it is
        // dominated globally too — no skyline anywhere changes.
        insert_sorted(&mut shard.dominated_rows, new_row);
    } else {
        // Joins the shard's local group skyline, pruning members it
        // dominates into the shard's dominated set.
        let mut pruned = Vec::new();
        shard.skyline_rows.retain(|&r| {
            if data.group_of(r) == group && dominates(p, data.point(r)) {
                pruned.push(r);
                false
            } else {
                true
            }
        });
        insert_sorted(&mut shard.skyline_rows, new_row);
        for r in pruned {
            insert_sorted(&mut shard.dominated_rows, r);
        }
        // Global test: members the new point dominates leave the global
        // skyline (they stay valid in *other* shards' local skylines —
        // those only rank rows against shard-local competitors). If the
        // point is dominated by a global member, the global skyline is
        // already exact: anything it dominates was already pruned by
        // that member, transitively.
        let dominated_globally = skyline_rows
            .iter()
            .any(|&r| data.group_of(r) == group && dominates(data.point(r), p));
        if !dominated_globally {
            skyline_rows.retain(|&r| !(data.group_of(r) == group && dominates(p, data.point(r))));
            insert_sorted(&mut skyline_rows, new_row);
            sky_changed = true;
        }
    }
    shard.num_rows += 1;
    shard.group_sizes[group] += 1;

    let mut ones_per_col = prep.ones_per_col.clone();
    let mut nonzeros_per_col = prep.nonzeros_per_col.clone();
    for (c, &v) in coords.iter().enumerate() {
        if v == 1.0 {
            ones_per_col[c] += 1;
        }
        if v > 0.0 {
            nonzeros_per_col[c] += 1;
        }
    }
    let mut group_sizes = prep.group_sizes.clone();
    group_sizes[group] += 1;

    let dataset = Arc::new(data);
    // An unchanged skyline keeps its derived structures by refcount: the
    // restricted dataset's rows (ids, coords, groups) are identical, so
    // its cached SoA view stays valid — sharing is what keeps a
    // dominated append O(|skyline of one group|).
    let (skyline_rows, skyline_data, skyline_group_sizes) = if sky_changed {
        let rows: Arc<[usize]> = skyline_rows.into();
        let sd = Arc::new(dataset.subset(&rows));
        let sg = sd.group_sizes();
        (rows, sd, sg)
    } else {
        (
            Arc::clone(&prep.skyline_rows),
            Arc::clone(&prep.skyline_data),
            prep.skyline_group_sizes.clone(),
        )
    };
    let mut generations = prep.generations.clone();
    generations.bump_full(group);
    if sky_changed {
        generations.bump_sky(group);
    }
    let mut next = PreparedDataset {
        name: prep.name.clone(),
        dataset,
        skyline_rows,
        skyline_data,
        group_sizes,
        skyline_group_sizes,
        epoch: prep.epoch,
        prep_micros: prep.prep_micros,
        merge_micros: prep.merge_micros,
        strategy: prep.strategy,
        shards,
        generations,
        sky_digest: 0,
        full_digest: 0,
        ones_per_col,
        nonzeros_per_col,
    };
    next.refresh_digests();
    Ok((next, sky_changed, false))
}

/// Incremental delete of `row` (current compacted id; later rows shift
/// down by one).
///
/// Fast path: a dominated row leaves its shard's dominated set and no
/// skyline anywhere changes; a skyline member's group is repaired from
/// the per-shard dominated set (shard-locally) and from the shards'
/// local skylines (globally) — never from a full prep. Returns the new
/// prepared form plus `(sky_changed, rebuilt)`.
fn apply_delete(
    prep: &PreparedDataset,
    row: usize,
    cfg: &CatalogConfig,
) -> Result<(PreparedDataset, bool, bool), ServiceError> {
    let n = prep.dataset.len();
    if row >= n {
        return Err(ServiceError::Dataset(format!(
            "row {row} out of range (dataset has {n} rows)"
        )));
    }
    if n == 1 {
        return Err(ServiceError::Dataset(
            "deleting the last row would leave an empty dataset".into(),
        ));
    }
    let group = prep.dataset.group_of(row);
    let removed_point = prep.dataset.point(row).to_vec();
    let data = prep
        .dataset
        .with_removed_row(row)
        .map_err(|e| ServiceError::Dataset(e.to_string()))?;

    // Invariant check: removing a column's last exact-1.0 while other
    // rows are still nonzero there leaves that column max strictly
    // inside (0, 1) — re-normalization would rescale it, so prep reruns.
    let mut ones_per_col = prep.ones_per_col.clone();
    let mut nonzeros_per_col = prep.nonzeros_per_col.clone();
    let mut breaks_invariant = false;
    for (c, &v) in removed_point.iter().enumerate() {
        if v == 1.0 {
            ones_per_col[c] -= 1;
        }
        if v > 0.0 {
            nonzeros_per_col[c] -= 1;
        }
        if ones_per_col[c] == 0 && nonzeros_per_col[c] > 0 {
            breaks_invariant = true;
        }
    }
    if breaks_invariant {
        return Ok((rebuild_prepared(prep, data, cfg)?, true, true));
    }

    let old = &prep.dataset; // id space of the bookkeeping lists below
    let mut shards = prep.shards.clone();
    let mut skyline_rows = prep.skyline_rows.to_vec();
    let s = shards
        .iter()
        .position(|sp| {
            contains_sorted(&sp.skyline_rows, row) || contains_sorted(&sp.dominated_rows, row)
        })
        .expect("every row lives in exactly one shard");
    let was_local_sky = remove_sorted(&mut shards[s].skyline_rows, row);
    if !was_local_sky {
        remove_sorted(&mut shards[s].dominated_rows, row);
    }
    let was_global_sky = contains_sorted(&skyline_rows, row);
    debug_assert!(
        was_local_sky || !was_global_sky,
        "a global skyline member survives its own shard"
    );
    let mut sky_changed = false;
    if was_local_sky {
        // Shard-local repair of the removed member's group: its skyline
        // is recomputed from the surviving local members plus the
        // shard's dominated rows of that group — the only rows the
        // removal can resurrect (anything else is dominated by a member
        // that still exists).
        let shard = &mut shards[s];
        let mut cand: Vec<usize> = shard
            .skyline_rows
            .iter()
            .chain(shard.dominated_rows.iter())
            .copied()
            .filter(|&r| old.group_of(r) == group)
            .collect();
        cand.sort_unstable();
        let local_sky = bucket_skyline(old, &cand);
        shard.skyline_rows.retain(|&r| old.group_of(r) != group);
        shard.dominated_rows.retain(|&r| old.group_of(r) != group);
        for &r in &cand {
            if contains_sorted(&local_sky, r) {
                shard.skyline_rows.push(r);
            } else {
                shard.dominated_rows.push(r);
            }
        }
        shard.skyline_rows.sort_unstable();
        shard.dominated_rows.sort_unstable();
        if was_global_sky {
            // Global repair of the group: reduce the union of every
            // shard's (updated) local skyline for it — exactly the merge
            // step of sharded prep, restricted to one group.
            remove_sorted(&mut skyline_rows, row);
            let mut cand: Vec<usize> = shards
                .iter()
                .flat_map(|sp| sp.skyline_rows.iter().copied())
                .filter(|&r| old.group_of(r) == group)
                .collect();
            cand.sort_unstable();
            let global_sky = bucket_skyline(old, &cand);
            skyline_rows.retain(|&r| old.group_of(r) != group);
            skyline_rows.extend(global_sky);
            skyline_rows.sort_unstable();
            sky_changed = true;
        }
        // A locally-sky but globally-dominated member: its global
        // dominator also dominates (transitively) everything it
        // dominated, so the global skyline is already exact.
    }

    // Deletion renumbers every later row. A group whose skyline holds
    // any id past the removed row serves *different indices* after the
    // shift — cached answers quoting the old ids must drop, so those
    // groups' skyline generations bump alongside the mutated group's.
    let mut bump_sky = vec![false; old.num_groups()];
    if sky_changed {
        bump_sky[group] = true;
    }
    for &r in skyline_rows.iter().filter(|&&r| r > row) {
        bump_sky[old.group_of(r)] = true;
    }
    renumber_after(&mut skyline_rows, row);
    for sp in &mut shards {
        renumber_after(&mut sp.skyline_rows, row);
        renumber_after(&mut sp.dominated_rows, row);
    }
    shards[s].num_rows -= 1;
    shards[s].group_sizes[group] -= 1;
    let mut group_sizes = prep.group_sizes.clone();
    group_sizes[group] -= 1;

    let dataset = Arc::new(data);
    // Same sharing rule as append: an unchanged skyline *set* (same rows
    // modulo the id shift, identical coords and groups) keeps the
    // restricted dataset and its cached SoA view by refcount.
    let (skyline_rows, skyline_data, skyline_group_sizes) = if sky_changed {
        let rows: Arc<[usize]> = skyline_rows.into();
        let sd = Arc::new(dataset.subset(&rows));
        let sg = sd.group_sizes();
        (rows, sd, sg)
    } else {
        (
            skyline_rows.into(),
            Arc::clone(&prep.skyline_data),
            prep.skyline_group_sizes.clone(),
        )
    };
    let mut generations = prep.generations.clone();
    generations.bump_full(group);
    for (g, bump) in bump_sky.into_iter().enumerate() {
        if bump {
            generations.bump_sky(g);
        }
    }
    let mut next = PreparedDataset {
        name: prep.name.clone(),
        dataset,
        skyline_rows,
        skyline_data,
        group_sizes,
        skyline_group_sizes,
        epoch: prep.epoch,
        prep_micros: prep.prep_micros,
        merge_micros: prep.merge_micros,
        strategy: prep.strategy,
        shards,
        generations,
        sky_digest: 0,
        full_digest: 0,
        ones_per_col,
        nonzeros_per_col,
    };
    next.refresh_digests();
    Ok((next, sky_changed, false))
}

/// A concurrent map of named [`PreparedDataset`]s.
///
/// Reads (the per-query hot path) take a shared lock; registration — rare —
/// takes the exclusive lock only to publish the already-prepared entry, so
/// queries are never blocked behind preprocessing.
pub struct Catalog {
    inner: RwLock<HashMap<String, Arc<PreparedDataset>>>,
    /// Monotone counter handing each insert a fresh epoch (starting at 1
    /// so the standalone-`prepare` epoch 0 never collides).
    next_epoch: std::sync::atomic::AtomicU64,
    /// Preparation tunables applied to future registrations (the wire
    /// `SHARDS` verb mutates it at runtime, hence the lock).
    config: RwLock<CatalogConfig>,
    /// Telemetry sink for preparation spans, linked by the engine that
    /// owns this catalog (see [`crate::QueryEngine::with_config`]).
    /// `None` for catalogs used outside an engine — preparation then
    /// simply records nothing.
    metrics: RwLock<Option<Arc<crate::metrics::ServiceMetrics>>>,
}

impl Default for Catalog {
    /// Same as [`Catalog::new`]: empty, configured from the environment.
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog with [`CatalogConfig::from_env`] preparation
    /// settings (the defaults unless `FAIRHMS_TEST_SHARDS`/`_STRATEGY`
    /// are set — see that method for why the environment is consulted).
    pub fn new() -> Self {
        Self::with_config(CatalogConfig::from_env())
    }

    /// An empty catalog with explicit preparation settings.
    pub fn with_config(config: CatalogConfig) -> Self {
        Self {
            inner: RwLock::new(HashMap::new()),
            next_epoch: std::sync::atomic::AtomicU64::new(0),
            config: RwLock::new(config),
            metrics: RwLock::new(None),
        }
    }

    /// Links the telemetry surface preparation spans record into.
    /// Called by the engine that owns this catalog; idempotent.
    pub fn set_metrics(&self, metrics: Arc<crate::metrics::ServiceMetrics>) {
        *write_or_recover(&self.metrics) = Some(metrics);
    }

    /// The current preparation config.
    pub fn config(&self) -> CatalogConfig {
        *read_or_recover(&self.config)
    }

    /// Sets the shard count for *future* registrations (already-prepared
    /// datasets are untouched — their answers are identical under any
    /// shard count anyway). Clamped to `1..=`[`MAX_SHARDS`].
    pub fn set_shards(&self, shards: usize) -> usize {
        let clamped = shards.clamp(1, MAX_SHARDS);
        write_or_recover(&self.config).shards = clamped;
        clamped
    }

    /// Registers `data` under its own dataset name. Returns the prepared
    /// entry; replaces any previous dataset with the same name.
    pub fn insert_dataset(&self, data: Dataset) -> Result<Arc<PreparedDataset>, ServiceError> {
        let name = data.name().to_string();
        self.insert_named(name, data)
    }

    /// Registers `data` under an explicit catalog key.
    ///
    /// Names must be valid on the wire: non-empty, no whitespace (the
    /// protocol tokenizes on spaces) and none of `=,:"` (field/list
    /// delimiters in `QUERY` and `LIST`). A name that violated this would
    /// register fine but be unreachable or corrupt `LIST` output for
    /// every client, so it is rejected up front.
    pub fn insert_named(
        &self,
        name: impl Into<String>,
        data: Dataset,
    ) -> Result<Arc<PreparedDataset>, ServiceError> {
        let name = name.into();
        if name.is_empty()
            || name
                .chars()
                .any(|c| c.is_whitespace() || matches!(c, '=' | ',' | ':' | '"'))
        {
            return Err(ServiceError::Dataset(format!(
                "invalid catalog name {name:?}: must be non-empty, without whitespace or '=,:\"'"
            )));
        }
        let mut prepared = PreparedDataset::prepare_with(name.clone(), data, &self.config())?;
        prepared.epoch = 1 + self
            .next_epoch
            // ordering: epoch tickets only need uniqueness; fetch_add
            // provides it without ordering other memory.
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Preparation telemetry: one `catalog.shard_prep` observation per
        // shard plus one `catalog.merge` — derived from the wall-clock
        // numbers the prepare pipeline already measures, so this costs no
        // extra clock reads on any path.
        if let Some(m) = read_or_recover(&self.metrics).as_ref() {
            if m.enabled() {
                for s in &prepared.shards {
                    m.shard_prep.record(s.prep_micros.saturating_mul(1000));
                }
                m.merge.record(prepared.merge_micros.saturating_mul(1000));
            }
        }
        let prepared = Arc::new(prepared);
        write_or_recover(&self.inner).insert(name, Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Loads a `attr_1,…,attr_d,group` CSV (dimensionality sniffed from the
    /// first row) and registers it under `name`.
    pub fn load_csv(
        &self,
        name: impl Into<String>,
        path: &Path,
    ) -> Result<Arc<PreparedDataset>, ServiceError> {
        let name = name.into();
        let data = csv::read_dataset_auto(path, &name)
            .map_err(|e| ServiceError::Dataset(format!("{}: {e}", path.display())))?;
        self.insert_named(name, data)
    }

    /// Appends one row (`coords`, labeled `group`) to the dataset
    /// registered under `name`, maintaining its prepared form
    /// incrementally (see `apply_append`'s fast/slow paths).
    ///
    /// Copy-on-write under the catalog's existing write lock: the new
    /// [`PreparedDataset`] is built from the old one's parts (sharing
    /// what the mutation provably did not touch) and published
    /// atomically — concurrent queries see either the old or the new
    /// prepared form, never a half-mutated one. Mutations to the same
    /// catalog serialize on the lock; no other lock is held inside.
    pub fn append_row(
        &self,
        name: &str,
        coords: &[f64],
        group: usize,
    ) -> Result<MutationOutcome, ServiceError> {
        let cfg = self.config();
        let mut map = write_or_recover(&self.inner);
        let prep = map.get(name).ok_or_else(|| ServiceError::UnknownDataset {
            name: name.to_string(),
        })?;
        let (next, sky_changed, rebuilt) = apply_append(prep, coords, group, &cfg)?;
        let next = Arc::new(next);
        map.insert(name.to_string(), Arc::clone(&next));
        Ok(MutationOutcome {
            prep: next,
            sky_changed,
            rebuilt,
        })
    }

    /// Deletes `row` (current compacted id) from the dataset registered
    /// under `name`, repairing its prepared form incrementally (see
    /// `apply_delete`). Same copy-on-write publication discipline as
    /// [`Catalog::append_row`].
    pub fn delete_row(&self, name: &str, row: usize) -> Result<MutationOutcome, ServiceError> {
        let cfg = self.config();
        let mut map = write_or_recover(&self.inner);
        let prep = map.get(name).ok_or_else(|| ServiceError::UnknownDataset {
            name: name.to_string(),
        })?;
        let (next, sky_changed, rebuilt) = apply_delete(prep, row, &cfg)?;
        let next = Arc::new(next);
        map.insert(name.to_string(), Arc::clone(&next));
        Ok(MutationOutcome {
            prep: next,
            sky_changed,
            rebuilt,
        })
    }

    /// The prepared dataset registered under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<PreparedDataset>> {
        read_or_recover(&self.inner).get(name).cloned()
    }

    /// Like [`Catalog::get`] but with a typed error for the engine.
    pub fn get_required(&self, name: &str) -> Result<Arc<PreparedDataset>, ServiceError> {
        self.get(name).ok_or_else(|| ServiceError::UnknownDataset {
            name: name.to_string(),
        })
    }
}

/// Resolves a `LOAD path=<path>` request against the server's
/// `--load-root` allowlist directory.
///
/// The admin verb must not become an arbitrary-file read: `requested` has
/// to be a relative path, and its canonical form (symlinks and `..`
/// resolved by the OS) must still sit under the canonical root — so
/// `path=../secret.csv`, absolute paths, and symlink escapes are all
/// refused with a typed error before any file is opened.
pub fn resolve_under_root(
    root: &Path,
    requested: &str,
) -> Result<std::path::PathBuf, ServiceError> {
    if requested.is_empty() || Path::new(requested).is_absolute() {
        return Err(ServiceError::Protocol(format!(
            "path: {requested:?} must be relative to the server's --load-root"
        )));
    }
    let root = root
        .canonicalize()
        .map_err(|e| ServiceError::Dataset(format!("load root {}: {e}", root.display())))?;
    let full = root
        .join(requested)
        .canonicalize()
        .map_err(|e| ServiceError::Dataset(format!("{requested}: {e}")))?;
    if !full.starts_with(&root) {
        return Err(ServiceError::Protocol(format!(
            "path: {requested:?} escapes the server's --load-root"
        )));
    }
    Ok(full)
}

impl Catalog {
    /// Sorted catalog keys.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = read_or_recover(&self.inner).keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        read_or_recover(&self.inner).len()
    }

    /// True when no dataset is registered.
    pub fn is_empty(&self) -> bool {
        read_or_recover(&self.inner).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        // 6 points, 2 groups; rows 4 (0.2,0.2) and 5 (0.3,0.1) are
        // dominated within their groups.
        Dataset::new(
            "toy",
            2,
            vec![1.0, 0.1, 0.8, 0.6, 0.2, 0.9, 0.9, 0.3, 0.2, 0.2, 0.3, 0.1],
            vec![0, 0, 1, 1, 0, 1],
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn prepare_normalizes_and_restricts() {
        let prep = PreparedDataset::prepare("toy", toy()).unwrap();
        // normalize() is scale-only: max per attribute becomes 1.
        let max0 = (0..prep.dataset.len())
            .map(|i| prep.dataset.point(i)[0])
            .fold(0.0f64, f64::max);
        assert!((max0 - 1.0).abs() < 1e-12);
        // dominated rows are dropped from the skyline restriction
        assert!(prep.skyline_rows.len() < prep.dataset.len());
        assert_eq!(prep.skyline_data.len(), prep.skyline_rows.len());
        assert_eq!(prep.group_sizes, vec![3, 3]);
        assert_eq!(
            prep.summary(),
            format!("toy:6:2:2:{}", prep.skyline_rows.len())
        );
    }

    #[test]
    fn catalog_round_trip_and_listing() {
        let cat = Catalog::new();
        assert!(cat.is_empty());
        cat.insert_dataset(toy()).unwrap();
        cat.insert_named("alias", toy()).unwrap();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.names(), vec!["alias".to_string(), "toy".to_string()]);
        assert!(cat.get("toy").is_some());
        assert_eq!(
            cat.get_required("nope").unwrap_err(),
            ServiceError::UnknownDataset {
                name: "nope".into()
            }
        );
    }

    #[test]
    fn load_csv_sniffs_dimensionality() {
        let dir = std::env::temp_dir().join("fairhms_catalog_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d3.csv");
        std::fs::write(&path, "0.5,0.2,0.9,a\n0.9,0.8,0.1,b\n0.2,0.9,0.5,a\n").unwrap();
        let cat = Catalog::new();
        let prep = cat.load_csv("d3", &path).unwrap();
        assert_eq!(prep.dataset.dim(), 3);
        assert_eq!(prep.dataset.num_groups(), 2);
        assert!(cat.get("d3").is_some());
    }

    #[test]
    fn rejects_wire_unsafe_names() {
        let cat = Catalog::new();
        for bad in ["", "my data", "a,b", "a:b", "a=b", "tab\tname"] {
            assert!(
                matches!(cat.insert_named(bad, toy()), Err(ServiceError::Dataset(_))),
                "{bad:?} should be rejected"
            );
        }
        assert!(cat.insert_named("ok-name_2", toy()).is_ok());
    }

    #[test]
    fn resolve_under_root_confines_load_paths() {
        let root = std::env::temp_dir().join("fairhms_load_root_test");
        std::fs::create_dir_all(root.join("sub")).unwrap();
        std::fs::write(root.join("ok.csv"), "0.1,0.2,a\n").unwrap();
        std::fs::write(root.join("sub/nested.csv"), "0.1,0.2,a\n").unwrap();
        let outside = std::env::temp_dir().join("fairhms_load_root_outside.csv");
        std::fs::write(&outside, "0.1,0.2,a\n").unwrap();

        // In-root files resolve, including nested ones.
        assert!(resolve_under_root(&root, "ok.csv").is_ok());
        assert!(resolve_under_root(&root, "sub/nested.csv").is_ok());
        // `..` inside the root is fine as long as it does not escape.
        assert!(resolve_under_root(&root, "sub/../ok.csv").is_ok());

        // Absolute paths, traversal escapes, empty and missing paths: no.
        let abs = outside.to_string_lossy().to_string();
        for bad in [
            abs.as_str(),
            "../fairhms_load_root_outside.csv",
            "sub/../../fairhms_load_root_outside.csv",
            "",
            "missing.csv",
        ] {
            assert!(
                resolve_under_root(&root, bad).is_err(),
                "{bad:?} should be refused"
            );
        }
    }

    /// Re-preps `prep`'s current stored rows from scratch and asserts the
    /// incremental bookkeeping matches it exactly: global skyline rows,
    /// restricted dataset, group sizes, invariant counters, and the
    /// shard lists' partition discipline.
    fn assert_matches_oracle(cat: &Catalog, name: &str) {
        let prep = cat.get(name).unwrap();
        let data = Dataset::new(
            name,
            prep.dataset.dim(),
            prep.dataset.points_flat().to_vec(),
            prep.dataset.groups().to_vec(),
            prep.dataset.group_names().to_vec(),
        )
        .unwrap();
        let oracle = PreparedDataset::prepare_with(name, data, &cat.config()).unwrap();
        assert_eq!(
            prep.dataset.points_flat(),
            oracle.dataset.points_flat(),
            "stored rows must already be normalized (column maxes 0 or 1)"
        );
        assert_eq!(&*prep.skyline_rows, &*oracle.skyline_rows, "skyline rows");
        assert_eq!(
            prep.skyline_data.points_flat(),
            oracle.skyline_data.points_flat()
        );
        assert_eq!(prep.skyline_data.groups(), oracle.skyline_data.groups());
        assert_eq!(prep.group_sizes, oracle.group_sizes);
        assert_eq!(prep.skyline_group_sizes, oracle.skyline_group_sizes);
        assert_eq!(prep.ones_per_col, oracle.ones_per_col);
        assert_eq!(prep.nonzeros_per_col, oracle.nonzeros_per_col);
        // Shard bookkeeping: disjoint skyline/dominated per shard, union
        // over shards = all rows, and each shard's lists are consistent
        // (every dealt row is in exactly one list).
        let mut seen = vec![0usize; prep.dataset.len()];
        for sp in &prep.shards {
            assert_eq!(sp.num_rows, sp.skyline_rows.len() + sp.dominated_rows.len());
            for &r in sp.skyline_rows.iter().chain(&sp.dominated_rows) {
                seen[r] += 1;
            }
            // each shard's local skyline is exact for its own rows
            let mut rows: Vec<usize> = sp
                .skyline_rows
                .iter()
                .chain(&sp.dominated_rows)
                .copied()
                .collect();
            rows.sort_unstable();
            assert_eq!(sp.skyline_rows, group_skyline_of_rows(&prep.dataset, &rows));
        }
        assert!(seen.iter().all(|&c| c == 1), "rows partition across shards");
    }

    #[test]
    fn append_and_delete_track_the_reprep_oracle() {
        let cat = Catalog::new();
        cat.insert_dataset(toy()).unwrap();
        // Dominated append: no skyline changes.
        let out = cat.append_row("toy", &[0.1, 0.1], 0).unwrap();
        assert!(!out.sky_changed && !out.rebuilt);
        assert_matches_oracle(&cat, "toy");
        // Skyline-joining append that prunes a member.
        let out = cat.append_row("toy", &[1.0, 1.0], 0).unwrap();
        assert!(out.sky_changed && !out.rebuilt);
        assert_matches_oracle(&cat, "toy");
        // Delete a dominated row (row 4 = (0.2,0.2) pre-normalization,
        // still dominated after): skyline untouched.
        let out = cat.delete_row("toy", 4).unwrap();
        assert!(!out.sky_changed && !out.rebuilt);
        assert_matches_oracle(&cat, "toy");
        // Delete a skyline member: repair from the dominated set.
        let prep = cat.get("toy").unwrap();
        let member = prep.skyline_rows[0];
        let out = cat.delete_row("toy", member).unwrap();
        assert!(out.sky_changed && !out.rebuilt);
        assert_matches_oracle(&cat, "toy");
    }

    #[test]
    fn invariant_breaking_mutations_take_the_rebuild_path() {
        let cat = Catalog::new();
        cat.insert_dataset(toy()).unwrap();
        // A coordinate past 1 breaks the normalized domain: full rebuild.
        let out = cat.append_row("toy", &[2.0, 0.5], 0).unwrap();
        assert!(out.rebuilt);
        assert_matches_oracle(&cat, "toy");
        // Deleting the only exact-1.0 of a column while interior values
        // remain also rebuilds (the 2.0 append above renormalized; find
        // the row holding column 0's max).
        let prep = cat.get("toy").unwrap();
        let row_max = (0..prep.dataset.len())
            .find(|&i| prep.dataset.point(i)[0] == 1.0)
            .unwrap();
        let out = cat.delete_row("toy", row_max).unwrap();
        assert!(out.rebuilt);
        assert_matches_oracle(&cat, "toy");
    }

    #[test]
    fn mutation_generations_and_digests_move_only_when_they_must() {
        let cat = Catalog::new();
        cat.insert_dataset(toy()).unwrap();
        let before = cat.get("toy").unwrap();
        // Dominated append in group 0: full digest moves (row count and
        // group 0's rows changed), sky digest must NOT (the skyline —
        // contents and ids — is untouched).
        let out = cat.append_row("toy", &[0.05, 0.05], 0).unwrap();
        assert_eq!(out.prep.sky_digest, before.sky_digest);
        assert_ne!(out.prep.full_digest, before.full_digest);
        assert_eq!(out.prep.generations.sky(), before.generations.sky());
        assert_ne!(out.prep.generations.full(), before.generations.full());
        assert_eq!(out.prep.epoch, before.epoch, "mutations never re-epoch");
        // Deleting that trailing dominated row (id n-1, past every
        // skyline id): sky digest again unchanged.
        let n = out.prep.dataset.len();
        let before = out.prep;
        let out = cat.delete_row("toy", n - 1).unwrap();
        assert_eq!(out.prep.sky_digest, before.sky_digest);
        assert_ne!(out.prep.full_digest, before.full_digest);
        // A skyline-changing append moves the sky digest.
        let before = out.prep;
        let out = cat.append_row("toy", &[1.0, 1.0], 1).unwrap();
        assert!(out.sky_changed);
        assert_ne!(out.prep.sky_digest, before.sky_digest);
    }

    #[test]
    fn unchanged_skyline_mutations_share_derived_structures() {
        let cat = Catalog::new();
        cat.insert_dataset(toy()).unwrap();
        let before = cat.get("toy").unwrap();
        let out = cat.append_row("toy", &[0.05, 0.05], 0).unwrap();
        assert!(Arc::ptr_eq(&out.prep.skyline_data, &before.skyline_data));
        assert!(!Arc::ptr_eq(&out.prep.dataset, &before.dataset));
        let out2 = cat.append_row("toy", &[1.0, 1.0], 0).unwrap();
        assert!(!Arc::ptr_eq(&out2.prep.skyline_data, &before.skyline_data));
    }

    #[test]
    fn mutation_errors_are_typed_and_leave_the_catalog_untouched() {
        let cat = Catalog::new();
        cat.insert_dataset(toy()).unwrap();
        let before = cat.get("toy").unwrap();
        assert!(matches!(
            cat.append_row("nope", &[0.1, 0.1], 0),
            Err(ServiceError::UnknownDataset { .. })
        ));
        assert!(matches!(
            cat.append_row("toy", &[0.1], 0),
            Err(ServiceError::Dataset(_))
        ));
        assert!(matches!(
            cat.append_row("toy", &[0.1, 0.1], 99),
            Err(ServiceError::Dataset(_))
        ));
        assert!(matches!(
            cat.delete_row("toy", 999),
            Err(ServiceError::Dataset(_))
        ));
        let after = cat.get("toy").unwrap();
        assert!(
            Arc::ptr_eq(&before, &after),
            "failed mutations publish nothing"
        );
    }

    #[test]
    fn mutation_churn_matches_oracle_across_shard_counts() {
        // A deterministic mixed append/delete workload over several shard
        // counts and both strategies; after every step the incremental
        // state must equal a from-scratch re-prep of the stored rows.
        for shards in [1usize, 3] {
            for strategy in [
                PartitionStrategy::RoundRobin,
                PartitionStrategy::GroupStratified,
            ] {
                let cat = Catalog::with_config(CatalogConfig { shards, strategy });
                cat.insert_dataset(toy()).unwrap();
                let mut x = 0.17_f64;
                for step in 0..40 {
                    let prep = cat.get("toy").unwrap();
                    let n = prep.dataset.len();
                    x = (x * 883.11).fract();
                    if step % 3 == 2 && n > 2 {
                        let row = (x * n as f64) as usize % n;
                        cat.delete_row("toy", row).unwrap();
                    } else {
                        let g = step % 2;
                        // Quantized coords: plenty of ties, duplicates,
                        // exact 1.0s, and zeros.
                        let a = (x * 5.0).floor() / 4.0; // may exceed 1 → rebuilds
                        x = (x * 883.11).fract();
                        let b = (x * 4.0).floor() / 4.0;
                        cat.append_row("toy", &[a.min(1.25), b], g).unwrap();
                    }
                    assert_matches_oracle(&cat, "toy");
                }
            }
        }
    }

    #[test]
    fn rejects_empty_dataset() {
        let empty = Dataset::ungrouped("e", 2, vec![]).unwrap();
        assert!(matches!(
            Catalog::new().insert_dataset(empty),
            Err(ServiceError::Dataset(_))
        ));
    }
}
