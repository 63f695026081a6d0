//! The warm-start tier: an LRU cache of `BiGreedy`'s `db_max` vectors,
//! separate from the full-answer [`SolutionCache`](crate::SolutionCache).
//!
//! The solution cache only helps when a query repeats **exactly**. A
//! near-miss query — same dataset, form, `k` and seed, different `alpha`
//! or bounds policy — misses it and solves again. Most of a `BiGreedy`
//! solve's setup is the `m × n` pass that computes
//! `db_max[u] = max_p ⟨u, p⟩` for every net vector `u`, and that vector
//! does not depend on the bounds. So this tier caches it, as a
//! [`CachedDbMax`], keyed by `(dataset epoch, form digest, k, seed)`.
//! That key fixes the vector's whole `(dim, m, seed, n)` preimage: `dim`
//! is the dataset's, `m = 10·k·d`, and the epoch and digest fix the
//! candidate form and so `n`. The solver still checks that preimage
//! ([`fairhms_core::CachedDbMax::matches`]) before it reuses a vector.
//! Everything else — the δ-net, the matroid's label scan — is rebuilt per
//! solve; both cost well under a millisecond against a solve of 100 ms
//! or more.
//!
//! Only `BiGreedy` solves look the tier up. Each lookup counts one hit
//! (a cached vector was reused) or one miss (the vector was computed and
//! deposited). Other algorithms never touch the tier.
//!
//! **Invalidation contract:** the key folds in the dataset's registration
//! epoch (like the solution cache), so replacing a dataset under the same
//! name makes every stale entry unreachable; unreachable entries age out
//! through the LRU. A mutation drops exactly the entries whose form
//! digest it moved ([`WarmStartCache::invalidate_stale`]). A resident
//! entry costs `m` floats: 400 at `k = 10`, `d = 4`.
//!
//! Correctness does not depend on this tier at all: the solver verifies
//! the preimage before reuse, and the equivalence suite
//! (`tests/warmstart_equivalence.rs`) pins every registry algorithm
//! bit-identical between a warm engine and a fresh one whose tier is
//! still empty.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fairhms_obs::sync::lock_or_recover;

use fairhms_core::CachedDbMax;

use crate::cache::Lru;

/// Configuration of the warm-start tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmConfig {
    /// Maximum resident `db_max` vectors.
    pub capacity: usize,
}

impl Default for WarmConfig {
    fn default() -> Self {
        Self { capacity: 512 }
    }
}

/// Key of one warm-start entry: everything the cached `db_max` vector
/// depends on. Only `BiGreedy` builds one, so the key names no algorithm.
/// The epoch makes entries for replaced datasets unreachable (see the
/// module docs).
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

/// The warm-start cache: a bounded LRU of shared `db_max` vectors.
///
/// One mutex suffices: it is held only to clone/insert an `Arc`, never
/// while a vector is computed. Racing solves of one key deposit
/// identical vectors; the last writer wins.
pub struct WarmStartCache {
    lru: Mutex<Lru<WarmKey, Arc<CachedDbMax>>>,
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

    /// The vector under `key`, refreshing its recency. Does not touch
    /// the hit/miss counters: the engine counts a hit only once the
    /// solver has actually reused the vector (see
    /// [`WarmStartCache::note_hit`] / [`WarmStartCache::note_miss`]).
    pub fn get(&self, key: &WarmKey) -> Option<Arc<CachedDbMax>> {
        lock_or_recover(&self.lru).get(key).cloned()
    }

    /// Inserts (or replaces) the vector under `key`, evicting the least
    /// recently used entry when full.
    pub fn insert(&self, key: WarmKey, db_max: Arc<CachedDbMax>) {
        lock_or_recover(&self.lru).insert(key, db_max);
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
            digest: 0,
            k,
            seed: 42,
        }
    }

    fn db_max(seed: u64) -> Arc<CachedDbMax> {
        Arc::new(CachedDbMax {
            dim: 2,
            m: 1,
            seed,
            n: 1,
            values: vec![1.0],
        })
    }

    #[test]
    fn get_after_insert_and_replacement() {
        let cache = WarmStartCache::new(8);
        assert!(cache.get(&key(1, 3)).is_none());
        cache.insert(key(1, 3), db_max(42));
        assert_eq!(cache.get(&key(1, 3)).expect("entry").seed, 42);
        // Same key: replaced in place, no growth.
        cache.insert(key(1, 3), db_max(7));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1, 3)).unwrap().seed, 7);
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
        cache.insert(key(1, 1), db_max(1));
        cache.insert(key(1, 2), db_max(1));
        // Touch the older entry, then insert a third: the untouched one
        // is the eviction victim.
        assert!(cache.get(&key(1, 1)).is_some());
        cache.insert(key(1, 3), db_max(1));
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
        cache.insert(key(1, 1), db_max(1));
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
            seed: 42,
        };
        // Epoch 5: skyline-form state at digest 10, full-form at 20.
        // Epoch 9: a different dataset, untouched by the mutation.
        cache.insert(k_at(5, 10), db_max(1));
        cache.insert(k_at(5, 20), db_max(1));
        cache.insert(k_at(9, 77), db_max(1));
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
