//! Named-dataset catalog with memoized preprocessing.
//!
//! Every FairHMS algorithm consumes the same prepared form of a dataset:
//! scale-normalized coordinates restricted to the union of per-group
//! skylines. The batch CLI prepares it on every `solve`; the catalog
//! computes it **once per dataset** at registration time — normalize,
//! then [`group_skyline_indices`], then the restricted subset — and hands
//! out shared [`PreparedDataset`]s, so a query's marginal cost is just
//! the solve itself. Both, and the figure harness, turn a query into the
//! instance it solves through [`PreparedDataset::instance`].
//! `APPEND`/`DELETE` then maintain the global skyline row list
//! incrementally instead of re-preparing.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

use fairhms_obs::sync::{lock_or_recover, read_or_recover, write_or_recover};
use std::time::Instant;

use fairhms_core::types::{CandidateSet, FairHmsInstance};
use fairhms_data::csv;
use fairhms_data::skyline::{bucket_skyline, dominates, group_skyline_indices};
use fairhms_data::Dataset;
use fairhms_matroid::{balanced_bounds, proportional_bounds};

use crate::query::Query;
use crate::ServiceError;

/// A dataset plus everything the engine precomputes for it.
///
/// Both dataset forms are held behind [`Arc`] so the engine hands the
/// *same* allocation to every concurrent solve: a cold query costs an
/// `Arc` refcount bump, never a point-matrix copy
/// (`fairhms_core::types::FairHmsInstance` shares the handle).
///
/// Every stored row is normalized: each column maximum is exactly 0 or 1
/// (scale-only normalization makes a nonzero column's maximum `x/x ==
/// 1.0` exactly), so re-normalizing is the identity. The incremental
/// mutation paths rely on that; see `with_new_skyline`.
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
    /// Per-group row counts of `skyline_data`.
    pub skyline_group_sizes: Vec<usize>,
    /// Registration epoch, unique per catalog insert. The engine folds it
    /// into cache keys, so replacing a dataset under the same name
    /// orphans (rather than serves) every answer cached against the old
    /// data. 0 for datasets prepared outside a catalog.
    pub epoch: u64,
    /// Wall-clock cost of a registration's normalization + skyline
    /// preprocessing — the catalog's `catalog.prepare` telemetry
    /// observation. 0 for a form a mutation derived.
    pub prep_micros: u64,
    /// Mutation generation of the skyline form: advances whenever the
    /// group-skyline union changes (membership or row ids). 0 at
    /// registration.
    pub sky_generation: u64,
    /// Mutation generation of the full form: advances on every mutation.
    /// 0 at registration.
    pub full_generation: u64,
}

impl PreparedDataset {
    /// Normalizes `data` and builds the group-skyline restriction.
    #[allow(clippy::disallowed_methods)] // prep-stage timing; see R5 waiver inside
    pub fn prepare(name: impl Into<String>, mut data: Dataset) -> Result<Self, ServiceError> {
        if data.is_empty() {
            return Err(ServiceError::Dataset("dataset has no rows".into()));
        }
        // fairhms-lint: allow(R5) one-time prep-stage wall clock; feeds
        // the catalog.prepare histogram, not a per-query hot path.
        let t = Instant::now();
        data.normalize();
        let skyline_rows = group_skyline_indices(&data).into();
        let mut prepared = Self::derive(name.into(), 0, data, skyline_rows, None, 0, 0);
        prepared.prep_micros = t.elapsed().as_micros() as u64;
        Ok(prepared)
    }

    /// The one constructor: every other field is derived from these.
    /// `skyline_data` is the restriction of `dataset` to `skyline_rows`
    /// when the caller already holds it (shared by refcount when a
    /// mutation left the skyline alone); `None` copies it out here.
    fn derive(
        name: String,
        epoch: u64,
        dataset: Dataset,
        skyline_rows: Arc<[usize]>,
        skyline_data: Option<Arc<Dataset>>,
        sky_generation: u64,
        full_generation: u64,
    ) -> Self {
        let skyline_data = skyline_data.unwrap_or_else(|| Arc::new(dataset.subset(&skyline_rows)));
        Self {
            name,
            group_sizes: dataset.group_sizes(),
            skyline_group_sizes: skyline_data.group_sizes(),
            dataset: Arc::new(dataset),
            skyline_rows,
            skyline_data,
            epoch,
            prep_micros: 0,
            sky_generation,
            full_generation,
        }
    }

    /// The mutation generation of the given form (`skyline=true`/`false`),
    /// which a query folds into its cache key and `WarmKey`.
    pub fn generation(&self, skyline: bool) -> u64 {
        if skyline {
            self.sky_generation
        } else {
            self.full_generation
        }
    }

    /// The instance `q` solves, plus the map from its rows back to
    /// `dataset`'s row ids.
    ///
    /// The candidate rows are the group-skyline union (`q.skyline`) or the
    /// full table, both shared by refcount; the bounds come from that
    /// form's group sizes under `q`'s policy (`balanced_bounds` or
    /// `proportional_bounds`) with `q.k` and `q.alpha`. Every solve path —
    /// the engine, the CLI `solve`, the figure harness — builds its
    /// instance here, so they all solve the same problem for the same
    /// parameters.
    pub fn instance(&self, q: &Query) -> Result<(CandidateSet, FairHmsInstance), ServiceError> {
        let (cand, group_sizes) = if q.skyline {
            (
                CandidateSet::reduced(
                    Arc::clone(&self.skyline_data),
                    Arc::clone(&self.skyline_rows),
                ),
                &self.skyline_group_sizes,
            )
        } else {
            (
                CandidateSet::full(Arc::clone(&self.dataset)),
                &self.group_sizes,
            )
        };
        let (lower, upper) = if q.balanced {
            balanced_bounds(group_sizes, q.k, q.alpha)
        } else {
            proportional_bounds(group_sizes, q.k, q.alpha)
        };
        let inst = FairHmsInstance::new(Arc::clone(cand.data()), q.k, lower, upper)?;
        Ok((cand, inst))
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

/// The new prepared form after a mutation whose skyline changed to
/// `skyline_rows` (indices into `data`, the already-mutated row set),
/// plus whether it had to be rebuilt.
///
/// A column maximum of the whole table is always reached on the
/// group-skyline union: a row that reaches it is either on its group's
/// skyline or dominated by a row that also reaches it. So the
/// normalization invariant holds exactly when every column maximum over
/// the new skyline rows — copied out here anyway — is 0 or 1. When it
/// broke (a coordinate past 1, an interior value in an all-zero column,
/// or the last 1 of a column deleted), re-normalization is no longer the
/// identity and `data` is re-prepared from scratch.
fn with_new_skyline(
    prep: &PreparedDataset,
    mut data: Dataset,
    skyline_rows: Arc<[usize]>,
    full_generation: u64,
) -> (PreparedDataset, bool) {
    let skyline_data = data.subset(&skyline_rows);
    let mut maxima = vec![0.0_f64; data.dim()];
    for p in skyline_data.points_flat().chunks_exact(data.dim()) {
        for (m, &v) in maxima.iter_mut().zip(p) {
            *m = m.max(v);
        }
    }
    let normalized = maxima.iter().all(|&m| m == 0.0 || m == 1.0);
    let (skyline_rows, skyline_data) = if normalized {
        (skyline_rows, Some(Arc::new(skyline_data)))
    } else {
        data.normalize();
        (group_skyline_indices(&data).into(), None)
    };
    let next = PreparedDataset::derive(
        prep.name.clone(),
        prep.epoch,
        data,
        skyline_rows,
        skyline_data,
        prep.sky_generation + 1,
        full_generation,
    );
    (next, !normalized)
}

/// Incremental append: `coords` joins `prep` as the last row of `group`.
///
/// One dominance scan of the group's skyline members. A dominated point
/// changes nothing, not even a column maximum (its dominator is at least
/// as large everywhere), so the old skyline is shared. Otherwise it
/// joins, pruning the members it dominates, and [`with_new_skyline`]
/// checks the normalization invariant. Returns the new prepared form plus
/// `(sky_changed, rebuilt)`.
fn apply_append(
    prep: &PreparedDataset,
    coords: &[f64],
    group: usize,
) -> Result<(PreparedDataset, bool, bool), ServiceError> {
    let data = prep
        .dataset
        .with_appended_row(coords, group)
        .map_err(|e| ServiceError::Dataset(e.to_string()))?;
    let new_row = data.len() - 1;
    let p = data.point(new_row);
    let full_generation = prep.full_generation + 1;
    if prep
        .skyline_rows
        .iter()
        .any(|&r| data.group_of(r) == group && dominates(data.point(r), p))
    {
        // The restricted dataset's rows (ids, coords, groups) are
        // identical, so its cached SoA view stays valid — sharing is what
        // keeps a dominated append O(|skyline of one group|).
        let next = PreparedDataset::derive(
            prep.name.clone(),
            prep.epoch,
            data,
            Arc::clone(&prep.skyline_rows),
            Some(Arc::clone(&prep.skyline_data)),
            prep.sky_generation,
            full_generation,
        );
        return Ok((next, false, false));
    }
    // Anything the new point dominates leaves, and the point joins as the
    // largest id, so the list stays ascending.
    let rows: Arc<[usize]> = prep
        .skyline_rows
        .iter()
        .copied()
        .filter(|&r| !(data.group_of(r) == group && dominates(p, data.point(r))))
        .chain([new_row])
        .collect();
    let (next, rebuilt) = with_new_skyline(prep, data, rows, full_generation);
    Ok((next, true, rebuilt))
}

/// Incremental delete of `row` (current compacted id; later rows shift
/// down by one).
///
/// A dominated row leaves every skyline and every column maximum
/// unchanged (only later ids renumber). Removing a skyline member can
/// only resurrect rows of its own group, so that group's skyline is
/// recomputed from its remaining rows — never a full prep. Returns the
/// new prepared form plus `(sky_changed, rebuilt)`.
fn apply_delete(
    prep: &PreparedDataset,
    row: usize,
) -> Result<(PreparedDataset, bool, bool), ServiceError> {
    let old = &prep.dataset; // id space of `skyline_rows` below
    let n = old.len();
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
    let data = old
        .with_removed_row(row)
        .map_err(|e| ServiceError::Dataset(e.to_string()))?;
    let full_generation = prep.full_generation + 1;
    let mut skyline_rows = prep.skyline_rows.to_vec();
    let on_skyline = skyline_rows.binary_search(&row);
    if let Ok(pos) = on_skyline {
        let group = old.group_of(row);
        skyline_rows.remove(pos);
        let cand: Vec<usize> = old
            .group_indices(group)
            .into_iter()
            .filter(|&r| r != row)
            .collect();
        skyline_rows.retain(|&r| old.group_of(r) != group);
        skyline_rows.extend(bucket_skyline(old, &cand));
        skyline_rows.sort_unstable();
    }
    // Deletion renumbers every later row: a skyline holding any id past
    // the removed row serves *different indices* after the shift, so
    // cached answers quoting the old ids must drop.
    let renumbered = skyline_rows.last().is_some_and(|&r| r > row);
    for r in skyline_rows.iter_mut().filter(|r| **r > row) {
        *r -= 1;
    }
    if on_skyline.is_ok() {
        let (next, rebuilt) = with_new_skyline(prep, data, skyline_rows.into(), full_generation);
        return Ok((next, true, rebuilt));
    }
    // Same sharing rule as append: an unchanged skyline *set* (same rows
    // modulo the id shift, identical coords and groups) keeps the
    // restricted dataset and its cached SoA view by refcount.
    let next = PreparedDataset::derive(
        prep.name.clone(),
        prep.epoch,
        data,
        skyline_rows.into(),
        Some(Arc::clone(&prep.skyline_data)),
        prep.sky_generation + u64::from(renumbered),
        full_generation,
    );
    Ok((next, false, false))
}

/// A concurrent map of named [`PreparedDataset`]s.
///
/// Reads (the per-query hot path, the event loop's cache hits included)
/// take a shared lock; registrations and mutations take the exclusive
/// lock only to publish an already-built entry, so queries are never
/// blocked behind preprocessing or a mutation's copy.
pub struct Catalog {
    inner: RwLock<HashMap<String, Arc<PreparedDataset>>>,
    /// Serializes publishers: a mutation holds it while it builds the
    /// next prepared form from the current one, a registration while it
    /// publishes, so a mutation never publishes over an entry that
    /// landed while it was building. Readers never take it.
    publish: Mutex<()>,
    /// Monotone counter handing each insert a fresh epoch (starting at 1
    /// so the standalone-`prepare` epoch 0 never collides).
    next_epoch: std::sync::atomic::AtomicU64,
    /// Telemetry sink for preparation spans, linked by the engine that
    /// owns this catalog (see [`crate::QueryEngine::with_config`]).
    /// `None` for catalogs used outside an engine — preparation then
    /// simply records nothing.
    metrics: RwLock<Option<Arc<crate::metrics::ServiceMetrics>>>,
}

impl Default for Catalog {
    /// Same as [`Catalog::new`].
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog. Every registration runs
    /// [`PreparedDataset::prepare`]; the environment is not consulted.
    pub fn new() -> Self {
        Self {
            inner: RwLock::new(HashMap::new()),
            publish: Mutex::new(()),
            next_epoch: std::sync::atomic::AtomicU64::new(0),
            metrics: RwLock::new(None),
        }
    }

    /// Links the telemetry surface preparation spans record into.
    /// Called by the engine that owns this catalog; idempotent.
    pub fn set_metrics(&self, metrics: Arc<crate::metrics::ServiceMetrics>) {
        *write_or_recover(&self.metrics) = Some(metrics);
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
        let mut prepared = PreparedDataset::prepare(name.clone(), data)?;
        prepared.epoch = 1 + self
            .next_epoch
            // ordering: epoch tickets only need uniqueness; fetch_add
            // provides it without ordering other memory.
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Preparation telemetry: one `catalog.prepare` observation per
        // registration, derived from the `prep_micros` the prepare step
        // already measures, so this costs no extra clock read.
        if let Some(m) = read_or_recover(&self.metrics).as_ref() {
            if m.enabled() {
                m.prepare.record(prepared.prep_micros.saturating_mul(1000));
            }
        }
        let prepared = Arc::new(prepared);
        let _publishing = lock_or_recover(&self.publish);
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
    /// incrementally (see `apply_append`).
    pub fn append_row(
        &self,
        name: &str,
        coords: &[f64],
        group: usize,
    ) -> Result<MutationOutcome, ServiceError> {
        self.mutate(name, |prep| apply_append(prep, coords, group))
    }

    /// Deletes `row` (current compacted id) from the dataset registered
    /// under `name`, repairing its prepared form incrementally (see
    /// `apply_delete`).
    pub fn delete_row(&self, name: &str, row: usize) -> Result<MutationOutcome, ServiceError> {
        self.mutate(name, |prep| apply_delete(prep, row))
    }

    /// The publish step both mutations share. Copy-on-write: `apply`
    /// builds the new [`PreparedDataset`] from the old one's parts
    /// (sharing what the mutation provably did not touch) under the
    /// publish lock only, and the result is swapped in under a brief
    /// write lock. Concurrent queries read the old prepared form until
    /// then, never a half-mutated one, and never wait for the copy or a
    /// re-prep; a failed mutation publishes nothing. Mutations and
    /// registrations serialize on the publish lock.
    fn mutate(
        &self,
        name: &str,
        apply: impl FnOnce(&PreparedDataset) -> Result<(PreparedDataset, bool, bool), ServiceError>,
    ) -> Result<MutationOutcome, ServiceError> {
        let _publishing = lock_or_recover(&self.publish);
        let prep = self.get_required(name)?;
        let (next, sky_changed, rebuilt) = apply(&prep)?;
        let next = Arc::new(next);
        write_or_recover(&self.inner).insert(name.to_string(), Arc::clone(&next));
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

    /// A mutation builds its next prepared form without the map's write
    /// lock: while it is building, readers get the old form at once.
    #[test]
    fn reads_do_not_wait_for_a_mutation_in_progress() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cat = Arc::new(Catalog::new());
        cat.insert_dataset(toy()).unwrap();
        let (building_tx, building) = mpsc::channel();
        let (go, go_rx) = mpsc::channel::<()>();
        let writer = {
            let cat = Arc::clone(&cat);
            std::thread::spawn(move || {
                cat.mutate("toy", |prep| {
                    building_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    apply_append(prep, &[0.1, 0.1], 0)
                })
            })
        };
        building.recv().unwrap();
        let (read_tx, read) = mpsc::channel();
        let reader = {
            let cat = Arc::clone(&cat);
            std::thread::spawn(move || read_tx.send(cat.get("toy").unwrap().dataset.len()))
        };
        let rows = read.recv_timeout(Duration::from_secs(10));
        go.send(()).unwrap();
        assert_eq!(rows, Ok(6), "a read waited for the mutation's build");
        reader.join().unwrap().unwrap();
        writer.join().unwrap().unwrap();
        assert_eq!(cat.get("toy").unwrap().dataset.len(), 7);
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
    /// incremental bookkeeping matches it exactly: normalized rows, global
    /// skyline rows, restricted dataset and group sizes.
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
        let oracle = PreparedDataset::prepare(name, data).unwrap();
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
        // Delete group 1's sole skyline member, (0.9, 0.3): the row it
        // dominated, (0.3, 0.1), resurrects.
        let prep = cat.get("toy").unwrap();
        assert_eq!(prep.skyline_group_sizes[1], 1);
        let member = prep
            .skyline_rows
            .iter()
            .copied()
            .find(|&r| prep.dataset.group_of(r) == 1)
            .unwrap();
        let out = cat.delete_row("toy", member).unwrap();
        assert!(out.sky_changed && !out.rebuilt);
        assert_eq!(out.prep.skyline_group_sizes[1], 1);
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
        // Dominated append in group 0: the full generation moves (group
        // 0's rows changed), the sky generation must NOT (the skyline —
        // contents and ids — is untouched).
        let out = cat.append_row("toy", &[0.05, 0.05], 0).unwrap();
        assert_eq!(out.prep.sky_generation, before.sky_generation);
        assert_ne!(out.prep.full_generation, before.full_generation);
        assert_eq!(out.prep.epoch, before.epoch, "mutations never re-epoch");
        // Deleting that trailing dominated row (id n-1, past every
        // skyline id): sky generation again unchanged.
        let n = out.prep.dataset.len();
        let before = out.prep;
        let out = cat.delete_row("toy", n - 1).unwrap();
        assert_eq!(out.prep.sky_generation, before.sky_generation);
        assert_ne!(out.prep.full_generation, before.full_generation);
        // A skyline-changing append moves the sky generation.
        let before = out.prep;
        let out = cat.append_row("toy", &[1.0, 1.0], 1).unwrap();
        assert!(out.sky_changed);
        assert_ne!(out.prep.sky_generation, before.sky_generation);
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
    fn mutation_churn_matches_oracle() {
        // A deterministic mixed append/delete workload; after every step
        // the incremental state must equal a from-scratch re-prep of the
        // stored rows.
        let cat = Catalog::new();
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
                // Quantized coords: plenty of ties, duplicates, exact
                // 1.0s, and zeros.
                let a = (x * 5.0).floor() / 4.0; // may exceed 1 → rebuilds
                x = (x * 883.11).fract();
                let b = (x * 4.0).floor() / 4.0;
                cat.append_row("toy", &[a.min(1.25), b], g).unwrap();
            }
            assert_matches_oracle(&cat, "toy");
        }
    }

    /// Solves IntCov with `k` picks and default bounds on dataset `name`.
    fn solve_intcov(cat: Catalog, name: &str, k: usize) -> crate::QueryResponse {
        let eng = crate::QueryEngine::new(Arc::new(cat), 64);
        let mut q = crate::Query::new(name, k);
        q.alg = "intcov".into();
        eng.execute(&q).unwrap()
    }

    #[test]
    fn singleton_group_survives_the_group_skyline() {
        // Group 2 has a single member (row 6: a weak point, kept only
        // because the skyline is per group).
        let data = Dataset::new(
            "tiny-group",
            2,
            vec![
                1.0, 0.1, 0.2, 0.9, 0.7, 0.7, 0.9, 0.3, 0.4, 0.8, 0.6, 0.6, 0.05, 0.05,
            ],
            vec![0, 0, 1, 1, 0, 1, 2],
            vec![],
        )
        .unwrap();
        let cat = Catalog::new();
        let prep = cat.insert_dataset(data).unwrap();
        assert!(prep.skyline_rows.contains(&6));
        assert_eq!(prep.skyline_group_sizes[2], 1);
        // Proportional bounds give group 2 a lower bound of at most 1,
        // which its one row meets.
        let resp = solve_intcov(cat, "tiny-group", 3);
        assert_eq!(resp.answer.violations, 0);
        assert!(resp.answer.indices.iter().all(|&i| i < 7));
    }

    #[test]
    fn vacant_group_degrades_gracefully() {
        // Group 2 is named in the schema but owns no rows.
        let data = Dataset::new(
            "vacant",
            2,
            vec![1.0, 0.1, 0.2, 0.9, 0.7, 0.7, 0.9, 0.3],
            vec![0, 1, 0, 1],
            vec!["a".into(), "b".into(), "ghost".into()],
        )
        .unwrap();
        let cat = Catalog::new();
        let prep = cat.insert_dataset(data).unwrap();
        assert_eq!(prep.skyline_group_sizes, vec![2, 2, 0]);
        // Bounds repair clamps the vacant group to l = h = 0.
        assert_eq!(solve_intcov(cat, "vacant", 2).answer.violations, 0);
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
