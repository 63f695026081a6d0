//! The warm-start tier: an LRU cache of *intermediate* solver state,
//! separate from the full-answer [`SolutionCache`](crate::SolutionCache).
//!
//! The solution cache only helps when a query repeats **exactly**. A
//! near-miss query — same dataset and `k`, different `alpha`, bounds
//! policy, or skyline flag — misses it and used to redo all per-query
//! setup from scratch: sampling the BiGreedy δ-net (`m = 10·k·d` utility
//! vectors) and the matroid's `O(n)` group-label validation scan. Both
//! artifacts are *deterministic in a preimage that near-miss queries
//! share*, so this tier caches them keyed by
//! `(dataset epoch, form digest, k, algorithm family)`:
//!
//! * the [`SampledNet`] δ-net basis — deterministic in `(dim, m, seed)`,
//!   so reuse is bit-identical to regeneration (verified via
//!   [`SampledNet::matches`] before every reuse);
//! * the [`PreparedBounds`] label scan of the candidate form — reduces
//!   per-query matroid construction from `O(n)` to `O(C)`;
//! * the [`CachedDbMax`] vector of the candidate form — the `m × n`
//!   per-utility database-maximum pass of BiGreedy setup, deterministic
//!   in `(dim, m, seed, n)` and verified against that preimage before
//!   every reuse (see [`fairhms_core::CachedDbMax::matches`]).
//!
//! The key's digest names the form (full matrix or skyline restriction),
//! so one entry holds the state of exactly one form.
//!
//! **Invalidation contract:** the key folds in the dataset's registration
//! epoch (like the solution cache), so replacing a dataset under the same
//! name makes every stale entry unreachable; unreachable entries age out
//! through the LRU. Entries hold `Arc` handles into the
//! prepared dataset, never copies, so a resident entry costs `O(C)` plus
//! the shared net.
//!
//! Correctness does not depend on this tier at all: the engine treats
//! every lookup as advisory, verifies preimages before reuse, and the
//! equivalence suite (`tests/warmstart_equivalence.rs`) pins every
//! registry algorithm bit-identical between a warm engine and a fresh
//! one whose tier is still empty.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fairhms_obs::sync::lock_or_recover;

use fairhms_core::{CachedDbMax, SampledNet};
use fairhms_matroid::PreparedBounds;

use crate::cache::Lru;

/// Configuration of the warm-start tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmConfig {
    /// Maximum resident `(epoch, k, family)` entries.
    pub capacity: usize,
}

impl Default for WarmConfig {
    fn default() -> Self {
        Self { capacity: 512 }
    }
}

/// Key of one warm-start entry.
///
/// `family` is the *canonical* algorithm name (see
/// [`fairhms_core::registry::canonical_name`]) — spellings of one
/// algorithm share an entry. The epoch makes entries for replaced
/// datasets unreachable (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WarmKey {
    /// Dataset registration epoch.
    pub epoch: u64,
    /// Group-generation digest of the candidate form the query solves on
    /// (`PreparedDataset::digest_for(skyline)`). Folding the per-form
    /// digest — rather than one whole-dataset value — is what makes
    /// mutation invalidation a *delta*: a mutation that leaves a form's
    /// digest alone (e.g. a dominated append never moves `sky_digest`)
    /// leaves that form's warm state reachable and verifiably current.
    pub digest: u64,
    /// Solution size.
    pub k: usize,
    /// Canonical algorithm name.
    pub family: String,
}

/// The cached intermediate state of one `(epoch, digest, k, family)`,
/// for the candidate form the key's digest names.
///
/// All fields are optional: a family that never consults the δ-net or
/// `db_max` deposits only the bounds.
#[derive(Debug, Default, Clone)]
pub struct WarmEntry {
    /// BiGreedy δ-net, tagged with its generation preimage.
    pub net: Option<Arc<SampledNet>>,
    /// Prepared label scan of the candidate form.
    pub bounds: Option<Arc<PreparedBounds>>,
    /// Per-utility database maxima over the candidate form, tagged with
    /// the `(dim, m, seed, n)` preimage of the net and matrix that
    /// produced them. The `m × n` extreme-value pass is the costliest
    /// piece of BiGreedy setup, so near-miss queries reuse it like the
    /// net itself.
    pub db_max: Option<Arc<CachedDbMax>>,
}

/// Effectiveness counters of the warm-start tier (reported by the wire
/// `STATS` verb as `warm_hits=… warm_misses=… warm_entries=…`).
///
/// Counting is per *component* consulted on a cold solve — one hit or
/// miss each for the δ-net and the `db_max` vector (BiGreedy-family
/// queries only) and one for the prepared bounds — so the ratio
/// reflects setup work actually saved, not just entry presence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Components reused from the tier.
    pub hits: u64,
    /// Components computed fresh (and deposited).
    pub misses: u64,
    /// Resident `(epoch, k, family)` entries.
    pub entries: usize,
}

/// The warm-start cache: a bounded LRU of [`WarmEntry`] snapshots.
///
/// One mutex suffices: it is held only to clone/insert an `Arc`, never
/// while any state is computed. Entries are immutable snapshots; updates
/// replace the whole entry (last writer wins — racing writers deposit
/// interchangeable state, see module docs).
pub struct WarmStartCache {
    lru: Mutex<Lru<WarmKey, Arc<WarmEntry>>>,
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

    /// The entry under `key`, refreshing its recency. Does not touch the
    /// hit/miss counters: presence of an entry is not a hit — the engine
    /// records per-component accounting via [`WarmStartCache::note_hit`]
    /// / [`WarmStartCache::note_miss`] after verifying each component's
    /// preimage.
    pub fn get(&self, key: &WarmKey) -> Option<Arc<WarmEntry>> {
        lock_or_recover(&self.lru).get(key).cloned()
    }

    /// Inserts (or replaces) the entry under `key`, evicting the least
    /// recently used entry when full.
    pub fn insert(&self, key: WarmKey, entry: WarmEntry) {
        lock_or_recover(&self.lru).insert(key, Arc::new(entry));
    }

    /// Delta invalidation after a mutation of the dataset registered at
    /// `epoch`: drops exactly the entries keyed to that epoch whose form
    /// digest the mutation moved — i.e. those matching neither the live
    /// `sky_digest` nor the live `full_digest`. Entries for other
    /// datasets (other epochs) and entries whose form survived the
    /// mutation untouched are kept. Returns the number dropped.
    ///
    /// (Re-*registration* under the same name bumps the epoch instead;
    /// those entries become unreachable and age out through the LRU, as
    /// before — this sweep is the mutation path only.)
    pub fn invalidate_stale(&self, epoch: u64, sky_digest: u64, full_digest: u64) -> u64 {
        lock_or_recover(&self.lru)
            .retain(|k, _| k.epoch != epoch || k.digest == sky_digest || k.digest == full_digest)
    }

    /// Records one component reused from the tier.
    pub fn note_hit(&self) {
        // ordering: independent stat counter, no cross-variable sync.
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one component computed fresh.
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
            digest: 0,
            k,
            family: "bigreedy".into(),
        }
    }

    fn entry_with_net(seed: u64) -> WarmEntry {
        WarmEntry {
            net: Some(Arc::new(SampledNet::generate(2, 4, seed))),
            ..WarmEntry::default()
        }
    }

    #[test]
    fn get_after_insert_and_replacement() {
        let cache = WarmStartCache::new(8);
        assert!(cache.get(&key(1, 3)).is_none());
        cache.insert(key(1, 3), entry_with_net(42));
        let got = cache.get(&key(1, 3)).expect("entry");
        assert_eq!(got.net.as_ref().unwrap().seed, 42);
        // Same key, richer entry: replaced in place, no growth.
        cache.insert(key(1, 3), entry_with_net(7));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1, 3)).unwrap().net.as_ref().unwrap().seed, 7);
        // A bumped epoch is a distinct key: stale state is unreachable.
        assert!(cache.get(&key(2, 3)).is_none());
    }

    #[test]
    fn lru_eviction_and_recency_refresh() {
        let cache = WarmStartCache::new(2);
        cache.insert(key(1, 1), WarmEntry::default());
        cache.insert(key(1, 2), WarmEntry::default());
        // Touch the older entry, then insert a third: the untouched one
        // is the eviction victim.
        assert!(cache.get(&key(1, 1)).is_some());
        cache.insert(key(1, 3), WarmEntry::default());
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
        cache.insert(key(1, 1), WarmEntry::default());
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
        let k_at = |epoch: u64, digest: u64| WarmKey {
            epoch,
            digest,
            k: 3,
            family: "bigreedy".into(),
        };
        // Epoch 5: skyline-form state at digest 10, full-form at 20.
        // Epoch 9: a different dataset, untouched by the mutation.
        cache.insert(k_at(5, 10), WarmEntry::default());
        cache.insert(k_at(5, 20), WarmEntry::default());
        cache.insert(k_at(9, 77), WarmEntry::default());
        // Mutation moved only the full digest (20 → 21): the skyline
        // entry and the other dataset survive.
        assert_eq!(cache.invalidate_stale(5, 10, 21), 1);
        assert!(cache.get(&k_at(5, 10)).is_some());
        assert!(cache.get(&k_at(5, 20)).is_none());
        assert!(cache.get(&k_at(9, 77)).is_some());
        // Everything-current sweep is a no-op.
        assert_eq!(cache.invalidate_stale(5, 10, 21), 0);
        assert_eq!(cache.len(), 2);
    }
}
