//! The LRU answer cache, and the `Lru` map both cache tiers share.
//!
//! Keys are [`Query::fingerprint_keyed`](crate::Query::fingerprint_keyed)
//! values; values are shared [`Answer`]s. One mutex guards one `Lru`
//! holding at most the configured number of answers, evicting the least
//! recently used one in `O(log n)` through an ordered tick index.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fairhms_obs::sync::lock_or_recover;

use crate::engine::Answer;
use crate::query::Query;

/// A map of at most `capacity` entries that evicts its least recently
/// used one: the recency structure behind the answer cache and the
/// warm-start tier.
pub(crate) struct Lru<K, V> {
    /// key → (value, recency tick).
    map: HashMap<K, (V, u64)>,
    /// recency tick → key, oldest first.
    order: BTreeMap<u64, K>,
    tick: u64,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map holding at most `capacity` entries (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// The value under `key`, made the most recently used entry.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let (value, tick) = self.map.get_mut(key)?;
        self.order.remove(tick);
        *tick = self.tick;
        self.order.insert(self.tick, key.clone());
        Some(value)
    }

    /// Inserts (or replaces) `key` as the most recently used entry,
    /// evicting the least recently used one when full. Returns whether
    /// it evicted.
    pub(crate) fn insert(&mut self, key: K, value: V) -> bool {
        self.tick += 1;
        if let Some((old, tick)) = self.map.get_mut(&key) {
            *old = value;
            self.order.remove(tick);
            *tick = self.tick;
            self.order.insert(self.tick, key);
            return false;
        }
        let evicted = self.map.len() >= self.capacity;
        if evicted {
            if let Some((_, oldest)) = self.order.pop_first() {
                self.map.remove(&oldest);
            }
        }
        self.order.insert(self.tick, key.clone());
        self.map.insert(key, (value, self.tick));
        evicted
    }

    /// Keeps only the entries `keep` accepts and returns the values it
    /// dropped, so that a caller holding the map behind a lock can free
    /// them after releasing it.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> Vec<V> {
        let order = &mut self.order;
        self.map
            .extract_if(|key, (value, _)| !keep(key, value))
            .map(|(_, (value, tick))| {
                order.remove(&tick);
                value
            })
            .collect()
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// Snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a cold solve.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached answer with its full key preimage, so hits verify true
/// equality: the 64-bit FNV fingerprint routes, it does not prove
/// identity.
struct Entry {
    /// Dataset registration epoch the answer was computed against.
    epoch: u64,
    /// Mutation generation of the dataset form the answer was solved on
    /// (`sky_generation`/`full_generation` per `query.skyline`) at solve
    /// time.
    generation: u64,
    /// The canonical query (fingerprint preimage, with `epoch` +
    /// `generation`).
    query: Query,
    value: Arc<Answer>,
}

/// A fingerprint-keyed LRU of solved answers.
pub struct SolutionCache {
    lru: Mutex<Lru<u64, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SolutionCache {
    /// A cache holding at most `capacity` answers (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency, without touching the
    /// hit/miss counters: the engine looks up more than once per query
    /// around the single-flight claim but records exactly one
    /// [`SolutionCache::note_hit`] or [`SolutionCache::note_miss`].
    /// `(epoch, generation, query)` must be the canonical key preimage; an
    /// entry whose stored preimage differs (a fingerprint collision) is a
    /// miss rather than a wrong answer.
    pub fn peek(
        &self,
        key: u64,
        epoch: u64,
        generation: u64,
        query: &Query,
    ) -> Option<Arc<Answer>> {
        lock_or_recover(&self.lru)
            .get(&key)
            .filter(|e| e.epoch == epoch && e.generation == generation && e.query == *query)
            .map(|e| Arc::clone(&e.value))
    }

    /// Records one served-from-cache query (see [`SolutionCache::peek`]).
    pub fn note_hit(&self) {
        // ordering: independent stat counter, no cross-variable sync.
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cold-solved query (see [`SolutionCache::peek`]).
    pub fn note_miss(&self) {
        // ordering: independent stat counter, no cross-variable sync.
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// answer when full. A colliding entry under the same key (different
    /// stored preimage) is overwritten — last writer wins.
    pub fn insert(&self, key: u64, epoch: u64, generation: u64, query: Query, value: Arc<Answer>) {
        let entry = Entry {
            epoch,
            generation,
            query,
            value,
        };
        if lock_or_recover(&self.lru).insert(key, entry) {
            // ordering: independent stat counter, no cross-variable sync.
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Delta invalidation after a mutation of `dataset`: drops exactly the
    /// entries for that dataset whose stored preimage no longer matches
    /// the live catalog — a different epoch (re-registration) or a form
    /// generation the mutation moved (`sky_generation` for
    /// skyline-restricted answers, `full_generation` for full-dataset
    /// answers). Entries for other datasets, and entries whose form
    /// generation the mutation left alone
    /// (e.g. every skyline answer after a dominated append), survive as
    /// future hits. Returns the number of entries dropped.
    pub fn invalidate_stale(
        &self,
        dataset: &str,
        epoch: u64,
        sky_generation: u64,
        full_generation: u64,
    ) -> u64 {
        let dropped = lock_or_recover(&self.lru).retain(|_, e| {
            let live = if e.query.skyline {
                sky_generation
            } else {
                full_generation
            };
            e.query.dataset != dataset || (e.epoch == epoch && e.generation == live)
        });
        // The guard is gone: the loop's hits no longer wait while the
        // dropped answers are freed.
        dropped.len() as u64
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.lru).len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // ordering: stat reads; a snapshot tolerates torn counters.
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: stat reads; a snapshot tolerates torn counters.
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            // ordering: stat reads; a snapshot tolerates torn counters.
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(tag: usize) -> Arc<Answer> {
        Arc::new(Answer {
            indices: vec![tag],
            mhr: Some(0.5),
            violations: 0,
            alg: "test".into(),
            solve_micros: 1,
        })
    }

    fn query(tag: u64) -> Query {
        let mut q = Query::new("t", 2);
        q.seed = tag;
        q
    }

    /// `peek` with the engine's per-query accounting.
    fn get(cache: &SolutionCache, key: u64, q: &Query) -> Option<Arc<Answer>> {
        let found = cache.peek(key, 0, 0, q);
        if found.is_some() {
            cache.note_hit();
        } else {
            cache.note_miss();
        }
        found
    }

    #[test]
    fn get_after_insert_and_stats() {
        let cache = SolutionCache::new(32);
        let q = query(7);
        assert!(get(&cache, 7, &q).is_none());
        cache.insert(7, 0, 0, q.clone(), answer(1));
        let got = get(&cache, 7, &q).expect("hit");
        assert_eq!(got.indices, vec![1]);
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_collision_is_a_miss_not_a_wrong_answer() {
        // Two distinct queries forced onto the same key: the stored-query
        // equality check must refuse to serve the other query's answer.
        let cache = SolutionCache::new(32);
        let (qa, qb) = (query(1), query(2));
        cache.insert(99, 1, 5, qa.clone(), answer(1));
        assert!(
            cache.peek(99, 1, 5, &qb).is_none(),
            "collision served wrong answer"
        );
        // same query, different dataset epoch: also a miss
        assert!(
            cache.peek(99, 2, 5, &qa).is_none(),
            "stale-epoch answer served"
        );
        // same query and epoch, moved form generation: also a miss
        assert!(
            cache.peek(99, 1, 6, &qa).is_none(),
            "stale-generation answer served"
        );
        assert_eq!(cache.peek(99, 1, 5, &qa).unwrap().indices, vec![1]);
        // last-writer-wins on overwrite
        cache.insert(99, 1, 5, qb.clone(), answer(2));
        assert!(cache.peek(99, 1, 5, &qa).is_none());
        assert_eq!(cache.peek(99, 1, 5, &qb).unwrap().indices, vec![2]);
    }

    #[test]
    fn capacity_is_exact_and_lru_order_is_global() {
        // Keys 16 and 32 share their low four bits, the routing of the
        // old 16-way sharded cache, which held one answer per shard at
        // capacity 2 and so evicted key 16 on inserting key 32.
        let cache = SolutionCache::new(2);
        cache.insert(16, 0, 0, query(1), answer(1));
        cache.insert(32, 0, 0, query(2), answer(2));
        assert!(
            get(&cache, 16, &query(1)).is_some(),
            "evicted below capacity"
        );
        assert!(get(&cache, 32, &query(2)).is_some());
        assert_eq!(cache.stats().evictions, 0);
        // Key 16 was touched after key 32, so a third key evicts key 32,
        // the least recently used answer anywhere in the cache.
        assert!(get(&cache, 16, &query(1)).is_some());
        cache.insert(1, 0, 0, query(3), answer(3));
        assert_eq!(cache.len(), 2, "held more than its capacity");
        assert!(get(&cache, 32, &query(2)).is_none(), "LRU entry survived");
        assert!(get(&cache, 16, &query(1)).is_some());
        assert!(get(&cache, 1, &query(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn refresh_on_get_protects_entry() {
        let cache = SolutionCache::new(2);
        cache.insert(1, 0, 0, query(1), answer(1));
        cache.insert(2, 0, 0, query(2), answer(2));
        // Full; touching the older key makes the newer one the eviction
        // victim.
        assert!(get(&cache, 1, &query(1)).is_some());
        cache.insert(3, 0, 0, query(3), answer(3));
        assert!(
            get(&cache, 1, &query(1)).is_some(),
            "recently used entry evicted"
        );
        assert!(get(&cache, 2, &query(2)).is_none(), "LRU entry survived");
    }

    #[test]
    fn lru_retain_keeps_the_recency_index_in_step() {
        let mut lru = Lru::new(2);
        assert!(!lru.insert(1, "a"));
        assert!(!lru.insert(2, "b"));
        // Dropping the oldest entry frees its slot: the next insert must
        // not evict, and the one after evicts key 2, not a dropped key.
        assert_eq!(lru.retain(|&k, _| k != 1), vec!["a"]);
        assert!(!lru.insert(3, "c"));
        assert!(lru.insert(4, "d"));
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&2).is_none());
        assert_eq!(lru.get(&3), Some(&"c"));
        // Replacing a resident key never evicts.
        assert!(!lru.insert(4, "e"));
        assert_eq!(lru.get(&4), Some(&"e"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Satellite pin: the `Ordering::Relaxed` hit/miss/eviction
        /// counters stay mutually consistent under concurrent
        /// lookup/insert/refresh from many threads — every lookup is
        /// counted exactly once, entries never exceed capacity, and the
        /// eviction count accounts exactly for the entries that went
        /// missing.
        #[test]
        fn concurrent_stats_stay_consistent(
            threads in 2usize..6,
            ops in 20usize..120,
            key_space in 1u64..40,
            capacity in 1usize..48,
        ) {
            let cache = SolutionCache::new(capacity);
            let per_thread: Vec<(u64, u64)> = std::thread::scope(|s| {
                let cache = &cache;
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        s.spawn(move || {
                            let (mut hits, mut misses) = (0u64, 0u64);
                            // Deterministic per-thread mix of lookups and
                            // inserts over a shared key space: plenty of
                            // contention on both the lock and counters.
                            for i in 0..ops {
                                let key = ((t * 31 + i * 7) as u64) % key_space;
                                let q = query(key);
                                if i % 3 == 0 {
                                    cache.insert(key, 0, 0, q, answer(key as usize));
                                } else if get(cache, key, &q).is_some() {
                                    hits += 1;
                                } else {
                                    misses += 1;
                                }
                            }
                            (hits, misses)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            let st = cache.stats();
            let (local_hits, local_misses) = per_thread
                .iter()
                .fold((0u64, 0u64), |(h, m), &(th, tm)| (h + th, m + tm));
            // Counted-exactly-once: the global counters equal the sum of
            // what each thread observed — no lost or double increments.
            proptest::prop_assert_eq!(st.hits, local_hits);
            proptest::prop_assert_eq!(st.misses, local_misses);
            // Structural consistency after all threads quiesce.
            proptest::prop_assert_eq!(st.entries, cache.len());
            proptest::prop_assert!(st.entries <= capacity);
            // Every resident or evicted entry came from some insert; an
            // insert that overwrote in place produced neither.
            let inserts = threads * ops.div_ceil(3);
            proptest::prop_assert!(st.entries + st.evictions as usize <= inserts);
            let rate = st.hit_rate();
            proptest::prop_assert!((0.0..=1.0).contains(&rate));
        }
    }

    #[test]
    fn invalidate_stale_drops_only_disturbed_forms() {
        let cache = SolutionCache::new(64);
        // Dataset "t": a skyline answer at sky generation 10 and a full-form
        // answer at full generation 20. Dataset "other": untouched bystander.
        let mut q_sky = query(1);
        q_sky.skyline = true;
        let mut q_full = query(2);
        q_full.skyline = false;
        let mut q_other = query(3);
        q_other.dataset = "other".into();
        cache.insert(1, 4, 10, q_sky.clone(), answer(1));
        cache.insert(2, 4, 20, q_full.clone(), answer(2));
        cache.insert(3, 9, 77, q_other.clone(), answer(3));

        // A mutation that moved only the full generation (20 → 21): the
        // skyline answer and the other dataset's entry both survive.
        assert_eq!(cache.invalidate_stale("t", 4, 10, 21), 1);
        assert!(cache.peek(1, 4, 10, &q_sky).is_some());
        assert!(cache.peek(2, 4, 20, &q_full).is_none());
        assert!(cache.peek(3, 9, 77, &q_other).is_some());

        // A mutation that also moved the sky generation drops the rest of
        // "t" but still never touches "other".
        assert_eq!(cache.invalidate_stale("t", 4, 11, 21), 1);
        assert!(cache.peek(1, 4, 10, &q_sky).is_none());
        assert!(cache.peek(3, 9, 77, &q_other).is_some());
        // Sweeping with everything current is a no-op.
        assert_eq!(cache.invalidate_stale("other", 9, 77, 77), 0);
        assert!(cache.peek(3, 9, 77, &q_other).is_some());
    }
}
