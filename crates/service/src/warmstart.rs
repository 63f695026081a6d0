//! The warm-start tier: an LRU cache of `BiGreedy`'s per-net state
//! (its `db_max` vector and the log of its τ-probes), separate from the
//! full-answer [`SolutionCache`](crate::SolutionCache).
//!
//! The solution cache only helps when a query repeats **exactly**. A
//! near-miss query — same dataset, form, `k` and seed, different `alpha`
//! or bounds policy — misses it and solves again. Two parts of that solve
//! can be reused:
//! - the `m × n` pass that computes `db_max[u] = max_p ⟨u, p⟩` for every
//!   net vector `u`, which does not depend on the bounds;
//! - the τ-probes, which depend on the bounds only through which groups
//!   `can_extend` admits along each probe's picks. A near-miss replays
//!   every recorded probe for which its own bounds give the same answers
//!   and runs the others (see [`fairhms_core::ProbeLog`]).
//!
//! So this tier caches a [`WarmEntry`], the [`CachedDbMax`] beside the
//! [`ProbeLog`] of the latest solve that ran a probe, keyed by `(dataset
//! epoch, form, form generation, k, seed)`. That key fixes the vector's
//! whole `(dim, m, seed, n)` preimage: `dim` is the dataset's,
//! `m = 10·k·d`, and the epoch, form and generation fix the candidate rows
//! and so `n`. The solver still checks that preimage
//! ([`fairhms_core::CachedDbMax::matches`]) before it reuses a vector, and
//! the log's own record of its net, `n`, `k` and settings before it
//! replays a probe. The δ-net and the matroid's label scan are rebuilt
//! per solve; both cost well under a millisecond.
//!
//! Only `BiGreedy` solves look the tier up. Each lookup counts one hit
//! (a cached vector was reused) or one miss (the vector was computed and
//! deposited). Other algorithms never touch the tier.
//!
//! **Invalidation contract:** the key folds in the dataset's registration
//! epoch (like the solution cache), so replacing a dataset under the same
//! name makes every stale entry unreachable; unreachable entries age out
//! through the LRU. A mutation drops exactly the entries whose form
//! generation it moved ([`WarmStartCache::invalidate_stale`]). A resident
//! entry holds `m` floats (3.2 KB at `k = 10`, `d = 4`) and a probe log of
//! 752–808 bytes at that shape (ten or eleven probes of ten `u32` picks).
//!
//! Correctness does not depend on this tier at all: the solver verifies
//! the preimage before reuse and replays only probes that would make the
//! same picks, and the equivalence suite
//! (`tests/warmstart_equivalence.rs`) pins every registry algorithm
//! bit-identical between a warm engine and a fresh one whose tier is
//! still empty.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fairhms_obs::sync::lock_or_recover;

use fairhms_core::{CachedDbMax, ProbeLog};

use crate::cache::Lru;

/// Configuration of the warm-start tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmConfig {
    /// Maximum resident entries.
    pub capacity: usize,
}

impl Default for WarmConfig {
    fn default() -> Self {
        Self { capacity: 512 }
    }
}

/// One warm-start entry: a `db_max` vector and the τ-probes of the
/// latest solve under the same key that ran one.
#[derive(Debug, Clone)]
pub struct WarmEntry {
    /// The per-utility database maxima of the key's net.
    pub db_max: Arc<CachedDbMax>,
    /// The τ-probes a near-miss may replay.
    pub probes: Arc<ProbeLog>,
}

/// Key of one warm-start entry: everything the cached `db_max` vector
/// depends on. Only `BiGreedy` builds one, so the key names no algorithm.
/// The epoch makes entries for replaced datasets unreachable (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WarmKey {
    /// Dataset registration epoch.
    pub epoch: u64,
    /// The candidate form the query solves on (`skyline=true`/`false`).
    /// Both forms' generations start at 0, so the form itself keeps
    /// their entries apart.
    pub skyline: bool,
    /// That form's mutation generation
    /// (`PreparedDataset::generation(skyline)`). Keying on the form's own
    /// generation — rather than one whole-dataset value — is what makes
    /// mutation invalidation a *delta*: a mutation that leaves a form's
    /// generation alone (e.g. a dominated append never moves
    /// `sky_generation`) leaves that form's warm state reachable and
    /// verifiably current.
    pub generation: u64,
    /// Solution size (fixes the net size `m = 10·k·d`).
    pub k: usize,
    /// The query's RNG seed, which the δ-net is sampled from.
    pub seed: u64,
}

/// Effectiveness counters of the warm-start tier (reported by the wire
/// `STATS` verb as `warm_hits=… warm_misses=… warm_entries=…`).
///
/// One hit or one miss per `BiGreedy` `db_max` lookup on a cold solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// `db_max` vectors reused from the tier.
    pub hits: u64,
    /// `db_max` vectors computed fresh (and deposited).
    pub misses: u64,
    /// Resident `db_max` vectors.
    pub entries: usize,
}

/// The warm-start cache: a bounded LRU of [`WarmEntry`]s.
///
/// One mutex suffices: it is held only to clone/insert two `Arc`s, never
/// while a vector is computed or a swept entry freed. Racing solves of one key
/// deposit identical vectors and logs that are each valid for any later
/// solve; the last writer wins.
pub struct WarmStartCache {
    lru: Mutex<Lru<WarmKey, WarmEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WarmStartCache {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The entry under `key`, refreshing its recency. Does not touch
    /// the hit/miss counters: the engine counts a hit only once the
    /// solver has actually reused the vector (see
    /// [`WarmStartCache::note_hit`] / [`WarmStartCache::note_miss`]).
    pub fn get(&self, key: &WarmKey) -> Option<WarmEntry> {
        lock_or_recover(&self.lru).get(key).cloned()
    }

    /// Inserts (or replaces) the entry under `key`, evicting the least
    /// recently used one when full.
    pub fn insert(&self, key: WarmKey, entry: WarmEntry) {
        lock_or_recover(&self.lru).insert(key, entry);
    }

    /// Delta invalidation after a mutation of the dataset registered at
    /// `epoch`: drops exactly the entries keyed to that epoch whose form
    /// generation the mutation moved — each entry is checked against its
    /// own form's live generation (`sky_generation` or
    /// `full_generation`). Entries for other datasets (other epochs) and
    /// entries whose form survived the mutation untouched are kept.
    /// Returns the number dropped.
    ///
    /// (Re-*registration* under the same name bumps the epoch instead;
    /// those entries become unreachable and age out through the LRU, as
    /// before — this sweep is the mutation path only.)
    pub fn invalidate_stale(&self, epoch: u64, sky_generation: u64, full_generation: u64) -> u64 {
        let dropped = lock_or_recover(&self.lru).retain(|k, _| {
            let live = if k.skyline {
                sky_generation
            } else {
                full_generation
            };
            k.epoch != epoch || k.generation == live
        });
        // The guard is gone: the entries are freed outside the lock.
        dropped.len() as u64
    }

    /// Records one `db_max` vector reused from the tier.
    pub fn note_hit(&self) {
        // ordering: independent stat counter, no cross-variable sync.
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one `db_max` vector computed fresh.
    pub fn note_miss(&self) {
        // ordering: independent stat counter, no cross-variable sync.
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.lru).len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    pub fn stats(&self) -> WarmStats {
        WarmStats {
            // ordering: stat reads; a snapshot tolerates torn counters.
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: stat reads; a snapshot tolerates torn counters.
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64, k: usize) -> WarmKey {
        WarmKey {
            epoch,
            skyline: true,
            generation: 0,
            k,
            seed: 42,
        }
    }

    /// A real entry: the `db_max` vector of a `seed` net over two rows,
    /// and the probes of a BiGreedy solve on it.
    fn entry(seed: u64) -> WarmEntry {
        use fairhms_core::bigreedy::bigreedy_replaying;
        use fairhms_core::{BiGreedyConfig, FairHmsInstance, SampledNet};
        let ds = fairhms_data::Dataset::new("t", 2, vec![1.0, 0.0, 0.0, 1.0], vec![0, 1], vec![])
            .unwrap();
        let inst = FairHmsInstance::new(ds, 2, vec![1, 1], vec![1, 1]).unwrap();
        let net = SampledNet::generate(2, 4, seed);
        let db_max = CachedDbMax::compute(inst.data(), &net);
        let cfg = BiGreedyConfig::default();
        let run = bigreedy_replaying(&inst, &net.vectors, &db_max.values, &cfg, None).unwrap();
        WarmEntry {
            db_max: Arc::new(db_max),
            probes: Arc::new(run.log),
        }
    }

    #[test]
    fn get_after_insert_and_replacement() {
        let cache = WarmStartCache::new(8);
        assert!(cache.get(&key(1, 3)).is_none());
        cache.insert(key(1, 3), entry(42));
        assert_eq!(cache.get(&key(1, 3)).expect("entry").db_max.seed, 42);
        // Same key: replaced in place, no growth.
        cache.insert(key(1, 3), entry(7));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1, 3)).unwrap().db_max.seed, 7);
        // A bumped epoch or another seed is a distinct key.
        assert!(cache.get(&key(2, 3)).is_none());
        let other_seed = WarmKey {
            seed: 43,
            ..key(1, 3)
        };
        assert!(cache.get(&other_seed).is_none());
    }

    #[test]
    fn lru_eviction_and_recency_refresh() {
        let cache = WarmStartCache::new(2);
        cache.insert(key(1, 1), entry(1));
        cache.insert(key(1, 2), entry(1));
        // Touch the older entry, then insert a third: the untouched one
        // is the eviction victim.
        assert!(cache.get(&key(1, 1)).is_some());
        cache.insert(key(1, 3), entry(1));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, 1)).is_some(), "recently used evicted");
        assert!(cache.get(&key(1, 2)).is_none(), "LRU entry survived");
    }

    #[test]
    fn stats_count_components_not_entries() {
        let cache = WarmStartCache::new(4);
        cache.note_miss();
        cache.note_miss();
        cache.note_hit();
        cache.insert(key(1, 1), entry(1));
        assert_eq!(
            cache.stats(),
            WarmStats {
                hits: 1,
                misses: 2,
                entries: 1
            }
        );
        assert!(!cache.is_empty());
    }

    #[test]
    fn invalidate_stale_drops_only_moved_digests() {
        let cache = WarmStartCache::new(8);
        let k_at = |epoch: u64, skyline: bool, generation: u64| WarmKey {
            epoch,
            skyline,
            generation,
            k: 3,
            seed: 42,
        };
        // Epoch 5: skyline-form state at generation 10, full-form at 20.
        // Epoch 9: a different dataset, untouched by the mutation.
        cache.insert(k_at(5, true, 10), entry(1));
        cache.insert(k_at(5, false, 20), entry(1));
        cache.insert(k_at(9, true, 77), entry(1));
        // Mutation moved only the full generation (20 → 21): the skyline
        // entry and the other dataset survive.
        assert_eq!(cache.invalidate_stale(5, 10, 21), 1);
        assert!(cache.get(&k_at(5, true, 10)).is_some());
        assert!(cache.get(&k_at(5, false, 20)).is_none());
        assert!(cache.get(&k_at(9, true, 77)).is_some());
        // Each entry answers to its own form's generation: a skyline
        // entry whose generation equals the live *full* one still drops.
        cache.insert(k_at(5, true, 21), entry(1));
        assert_eq!(cache.invalidate_stale(5, 10, 21), 1);
        assert!(cache.get(&k_at(5, true, 10)).is_some());
        // Everything-current sweep is a no-op.
        assert_eq!(cache.invalidate_stale(5, 10, 21), 0);
        assert_eq!(cache.len(), 2);
    }
}
