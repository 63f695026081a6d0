//! Zero-copy regression tests for the serving stack.
//!
//! The catalog shares prepared datasets through `Arc<Dataset>`, and the
//! engine hands that same allocation to every solve. These tests pin the
//! contract: N concurrent queries against one dataset perform **zero**
//! dataset deep copies (observed via the [`fairhms_data::deep_clone_count`]
//! probe), return bit-identical answers for identical queries, and leave
//! the catalog as the sole owner of the prepared allocations afterwards.
//!
//! Kept in its own integration-test binary so no unrelated test can move
//! the process-wide clone counter while these assertions run.

use std::sync::Arc;

use fairhms_data::{deep_clone_count, Dataset};
use fairhms_service::{Catalog, PreparedDataset, Query, QueryEngine};

fn toy_data() -> Dataset {
    let points = vec![
        1.0, 0.1, 0.8, 0.6, 0.2, 0.9, 0.9, 0.3, 0.4, 0.8, 0.7, 0.7, 0.6, 0.75, 0.95, 0.2,
    ];
    Dataset::new("toy", 2, points, vec![0, 1, 0, 1, 0, 1, 0, 1], vec![]).unwrap()
}

fn toy_engine() -> (Arc<QueryEngine>, Arc<PreparedDataset>) {
    let catalog = Arc::new(Catalog::new());
    let prep = catalog.insert_dataset(toy_data()).unwrap();
    (Arc::new(QueryEngine::new(catalog, 256)), prep)
}

#[test]
fn concurrent_cold_solves_share_one_allocation() {
    let (eng, prep) = toy_engine();
    let clones_before = deep_clone_count();

    let threads = 8;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let eng = Arc::clone(&eng);
            std::thread::spawn(move || {
                // A per-thread cold solve (distinct seed) on the skyline
                // path, one on the full-matrix path, and one query shared
                // by every thread.
                let mut mine = Query::new("toy", 3);
                mine.seed = 1_000 + t as u64;
                eng.execute(&mine).unwrap();
                let mut full = mine.clone();
                full.skyline = false;
                eng.execute(&full).unwrap();

                let shared = Query::new("toy", 4);
                let s = eng.execute(&shared).unwrap();
                (s.answer.indices.clone(), s.answer.mhr.map(f64::to_bits))
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // The shared query answers bit-identically on every thread.
    for pair in results.windows(2) {
        assert_eq!(pair[0].0, pair[1].0, "indices differ across threads");
        assert_eq!(pair[0].1, pair[1].1, "mhr bits differ across threads");
    }
    // No solve — skyline or full-matrix, cold or coalesced — deep-copied
    // the dataset. Before the Arc refactor every cold solve did.
    assert_eq!(
        deep_clone_count(),
        clones_before,
        "a solve deep-copied the dataset"
    );
    // Every instance has been dropped: the prepared entry is the sole
    // owner again, so the engine held Arc clones, not private copies.
    assert_eq!(Arc::strong_count(&prep.skyline_data), 1);
    assert_eq!(Arc::strong_count(&prep.dataset), 1);
}

#[test]
fn cache_hits_bypass_the_solver_and_share_the_answer() {
    let (eng, _prep) = toy_engine();
    let q = Query::new("toy", 3);
    let cold = eng.execute(&q).unwrap();
    assert!(!cold.cached);

    let clones_after_cold = deep_clone_count();
    for _ in 0..16 {
        let warm = eng.execute(&q).unwrap();
        assert!(warm.cached);
        // The hit returns the very Answer the cold solve produced — no
        // re-solve, no rebuilt payload.
        assert!(
            Arc::ptr_eq(&warm.answer, &cold.answer),
            "cache hit rebuilt the answer"
        );
    }
    let st = eng.cache_stats();
    assert_eq!(st.misses, 1, "cache hits re-entered the solver");
    assert_eq!(st.hits, 16);
    assert_eq!(deep_clone_count(), clones_after_cold);
}
