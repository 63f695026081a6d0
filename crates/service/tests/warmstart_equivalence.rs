//! Warm-start equivalence suite: the warm-start tier must be **provably
//! inert** — every registry algorithm returns bit-identical answers
//! (`mhr` compared by bits) from a warm engine and from a fresh one,
//! across near-miss query sequences, dataset replacement (epoch bumps),
//! and cache eviction. If any of these fail, warm-starting is changing
//! answers and must not ship.
//!
//! The cold reference is a fresh [`QueryEngine`] per query over the same
//! catalog: its tier starts empty, so every `db_max` vector it uses is
//! computed from scratch — checked by its `warm_stats().hits == 0`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::registry::ALGORITHMS;
use fairhms_data::{gen, Dataset};
use fairhms_service::{
    Catalog, Query, QueryEngine, QueryResponse, ServiceError, TelemetryConfig, WarmConfig,
};

fn generated(name: &str, n: usize, d: usize, c: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = gen::anti_correlated(n, d, &mut rng);
    let groups = gen::groups_by_sum(&points, d, c);
    Dataset::new(
        name,
        d,
        points,
        groups,
        (0..c).map(|g| format!("g{g}")).collect(),
    )
    .unwrap()
}

fn catalog(data: Dataset) -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new());
    cat.insert_dataset(data).unwrap();
    cat
}

/// Solves `q` on a fresh engine over `cat` — the cold reference.
fn cold(cat: &Arc<Catalog>, q: &Query) -> Result<QueryResponse, ServiceError> {
    let eng = QueryEngine::new(Arc::clone(cat), 1024);
    let out = eng.execute(q);
    assert_eq!(
        eng.warm_stats().hits,
        0,
        "reference engine reused warm state"
    );
    out
}

fn assert_same_outcome(
    a: &Result<QueryResponse, ServiceError>,
    b: &Result<QueryResponse, ServiceError>,
    ctx: &str,
) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.answer.indices, b.answer.indices,
                "{ctx}: indices diverged"
            );
            assert_eq!(
                a.answer.mhr.map(f64::to_bits),
                b.answer.mhr.map(f64::to_bits),
                "{ctx}: mhr bits diverged"
            );
            assert_eq!(
                a.answer.violations, b.answer.violations,
                "{ctx}: violations diverged"
            );
            assert_eq!(a.answer.alg, b.answer.alg, "{ctx}: alg name diverged");
        }
        // An algorithm that rejects the instance (e.g. a k < d gate)
        // must reject it with the identical typed error.
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{ctx}: errors diverged"),
        (a, b) => panic!("{ctx}: one path failed, the other did not: {a:?} vs {b:?}"),
    }
}

/// The headline contract: every registry algorithm, both bounds
/// policies, skyline on/off, over a *near-miss* α sweep (same `(dataset,
/// k, seed)` warm key, distinct fingerprints — each solve is cold for
/// the solution cache, so the warm tier actually gets exercised), is
/// bit-identical between a warm-start engine and fresh ones.
#[test]
fn served_answers_are_warmstart_invariant() {
    let cat = catalog(generated("eq", 240, 2, 3, 21));
    let warm = QueryEngine::new(Arc::clone(&cat), 1024);

    for alg in ALGORITHMS.iter().map(|a| a.key) {
        for (k, balanced, skyline) in [(3usize, false, true), (5, true, true), (4, false, false)] {
            // Near-miss sweep: for BiGreedy, the first α populates the
            // warm entry and the rest reuse its db_max vector.
            for alpha in [0.05f64, 0.1, 0.2, 0.3] {
                let mut q = Query::new("eq", k);
                q.alg = alg.to_string();
                q.balanced = balanced;
                q.skyline = skyline;
                q.alpha = alpha;
                let a = warm.execute(&q);
                let b = cold(&cat, &q);
                assert_same_outcome(
                    &a,
                    &b,
                    &format!("alg={alg} k={k} balanced={balanced} skyline={skyline} α={alpha}"),
                );
            }
        }
    }

    // The tier was actually used: db_max vectors were reused (each
    // fresh reference engine checked that it reused none).
    let ws = warm.warm_stats();
    assert!(
        ws.hits > 0,
        "warm tier never reused anything across the near-miss sweep: {ws:?}"
    );
    assert!(ws.misses > 0 && ws.entries > 0);
}

/// Repeating one exact query must still hit the *solution* cache — the
/// warm tier sits below it, not instead of it — and near-miss queries
/// must miss the solution cache while reusing warm state.
#[test]
fn warm_tier_composes_with_the_solution_cache() {
    let eng = QueryEngine::new(catalog(generated("eq", 200, 3, 3, 5)), 1024);
    let q = Query::new("eq", 6);
    assert!(!eng.execute(&q).unwrap().cached);
    assert!(eng.execute(&q).unwrap().cached, "exact repeat not cached");
    let before = eng.warm_stats();

    let mut near = q.clone();
    near.alpha = 0.17;
    let resp = eng.execute(&near).unwrap();
    assert!(!resp.cached, "near-miss wrongly served from answer cache");
    let after = eng.warm_stats();
    // A BiGreedy near-miss reuses its cached db_max vector: one hit, no
    // miss.
    assert_eq!(
        (after.hits, after.misses),
        (before.hits + 1, before.misses),
        "near-miss did not reuse the cached db_max vector: {before:?} -> {after:?}"
    );
}

/// Entries are keyed by seed, so a query with another seed does not
/// displace the first seed's `db_max` vector: the first seed's
/// near-miss still reuses it.
#[test]
fn interleaved_seeds_keep_their_own_db_max() {
    let cat = catalog(generated("seeds", 300, 3, 3, 17));
    let eng = QueryEngine::new(Arc::clone(&cat), 1024);
    let query = |seed: u64, alpha: f64| {
        let mut q = Query::new("seeds", 10);
        q.alg = "bigreedy".into();
        q.seed = seed;
        q.alpha = alpha;
        q
    };
    eng.execute(&query(1, 0.1)).unwrap();
    eng.execute(&query(2, 0.1)).unwrap();
    let before = eng.warm_stats();
    assert_eq!((before.hits, before.misses), (0, 2), "{before:?}");

    let q = query(1, 0.2);
    let a = eng.execute(&q);
    let after = eng.warm_stats();
    assert_eq!(
        (after.hits, after.misses),
        (before.hits + 1, before.misses),
        "seed 1's near-miss did not reuse its db_max after seed 2 ran: {before:?} -> {after:?}"
    );
    assert!(!a.as_ref().unwrap().cached);
    assert_same_outcome(&a, &cold(&cat, &q), "seed 1 near-miss");
}

/// Dataset replacement bumps the epoch: warm state computed against the
/// old data must be unreachable, and post-replacement answers must equal
/// a fresh engine's over the new data.
#[test]
fn epoch_bump_invalidates_warm_state() {
    let old = || generated("swap", 180, 2, 3, 11);
    let new = || generated("swap", 180, 2, 3, 99);
    let cat = catalog(old());
    let eng = QueryEngine::new(Arc::clone(&cat), 1024);

    let mut q = Query::new("swap", 4);
    q.alg = "bigreedy".into();
    eng.execute(&q).unwrap();
    let mut near = q.clone();
    near.alpha = 0.2;
    eng.execute(&near).unwrap();
    assert!(eng.warm_stats().hits > 0);

    // Replace the dataset under the same name.
    eng.catalog().insert_dataset(new()).unwrap();
    for alpha in [0.1f64, 0.2] {
        let mut qr = q.clone();
        qr.alpha = alpha;
        let a = eng.execute(&qr);
        let b = cold(&cat, &qr);
        assert_same_outcome(&a, &b, &format!("post-replacement α={alpha}"));
    }
}

/// A tiny warm cache (capacity 1) thrashes constantly — answers must
/// still be identical to a fresh engine's (eviction can only cost speed,
/// never correctness).
#[test]
fn eviction_thrash_never_changes_answers() {
    let cat = catalog(generated("thrash", 160, 2, 3, 3));
    let tiny = QueryEngine::with_config(
        Arc::clone(&cat),
        1024,
        WarmConfig { capacity: 1 },
        TelemetryConfig::default(),
    );
    // BiGreedy alternates between two `k` (two warm keys), so each of its
    // solves evicts the other's entry; BiGreedy+ and F-Greedy in between
    // never touch the tier.
    for round in 0..3 {
        for (k, alg) in [
            (3usize, "bigreedy"),
            (4, "bigreedy+"),
            (3, "f-greedy"),
            (5, "bigreedy"),
        ] {
            let mut q = Query::new("thrash", k);
            q.alg = alg.to_string();
            q.alpha = 0.05 + 0.05 * round as f64;
            assert_same_outcome(
                &tiny.execute(&q),
                &cold(&cat, &q),
                &format!("round={round} alg={alg} k={k}"),
            );
        }
    }
}

/// The satellite edge case end-to-end: a dataset with a vacant (zero-
/// member) group must derive feasible bounds (lower bound 0 for the
/// empty group) and answer identically warm vs. cold.
#[test]
fn vacant_group_bounds_stay_feasible_warm_and_cold() {
    let mk = || {
        Dataset::new(
            "vacant",
            2,
            vec![1.0, 0.1, 0.2, 0.9, 0.7, 0.7, 0.9, 0.3, 0.5, 0.6, 0.3, 0.8],
            vec![0, 1, 0, 1, 0, 1],
            // Group 2 exists in the schema but owns no rows.
            vec!["a".into(), "b".into(), "ghost".into()],
        )
        .unwrap()
    };
    let cat = catalog(mk());
    let warm = QueryEngine::new(Arc::clone(&cat), 1024);
    for balanced in [false, true] {
        for alg in ["intcov", "bigreedy", "f-greedy"] {
            let mut q = Query::new("vacant", 3);
            q.alg = alg.into();
            q.balanced = balanced;
            let a = warm.execute(&q);
            let b = cold(&cat, &q);
            assert_same_outcome(&a, &b, &format!("vacant group alg={alg} bal={balanced}"));
            let resp = a.unwrap();
            assert_eq!(
                resp.answer.violations, 0,
                "vacant group made feasible bounds unattainable (alg={alg} bal={balanced})"
            );
        }
    }
}
