//! Property tests for the log-bucketed histogram: concurrent recording
//! never loses a sample, and quantiles stay within the documented relative
//! error bound.

use fairhms_obs::{Histogram, SUB_BITS};
use proptest::prelude::*;

/// Worst-case relative error of a quantile estimate (midpoint rule)
/// against the true observation: half a bucket width over the bucket's
/// lower bound, i.e. `1 / 2^(SUB_BITS + 1)`.
const QUANTILE_REL_ERROR: f64 = 1.0 / (1 << (SUB_BITS + 1)) as f64;

/// Exact reference quantile over a sorted sample set, using the same
/// rank convention the histogram documents: the smallest value with
/// cumulative rank ≥ ⌈q·count⌉.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The histogram's quantile must land within `QUANTILE_REL_ERROR` of the
/// exact sample quantile (bucket midpoints can sit on either side of the
/// true value, so the bound is two-sided).
fn assert_within_bound(got: u64, exact: u64, q: f64) {
    let tol = (exact as f64 * QUANTILE_REL_ERROR).max(1.0);
    assert!(
        (got as f64 - exact as f64).abs() <= tol,
        "quantile {q}: got {got}, exact {exact}, tolerance {tol}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantiles_within_documented_relative_error(
        mut values in prop::collection::vec(0u64..1_000_000_000, 1..400)
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.max(), *values.last().unwrap());
        for q in [0.5, 0.9, 0.99] {
            assert_within_bound(snap.quantile(q), exact_quantile(&values, q), q);
        }
    }
}

/// Concurrent recorders never lose or double-count a sample: the total
/// count equals the sum of per-thread record counts, the sum equals the
/// sum of recorded values, and quantiles still respect the error bound.
#[test]
fn concurrent_recording_loses_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 5_000;

    let h = Histogram::new();
    let mut all: Vec<u64> = Vec::with_capacity(THREADS * PER_THREAD);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let h = &h;
            handles.push(scope.spawn(move || {
                // Deterministic per-thread values spanning several octaves.
                let mut local_sum = 0u64;
                for i in 0..PER_THREAD {
                    let v = ((t * PER_THREAD + i) as u64).wrapping_mul(2_654_435_761) % 10_000_000;
                    h.record(v);
                    local_sum += v;
                }
                local_sum
            }));
        }
        let thread_sum: u64 = handles.into_iter().map(|j| j.join().unwrap()).sum();
        // Recompute the same values serially for the reference set.
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                all.push(((t * PER_THREAD + i) as u64).wrapping_mul(2_654_435_761) % 10_000_000);
            }
        }
        assert_eq!(h.sum(), thread_sum);
    });

    assert_eq!(h.count(), (THREADS * PER_THREAD) as u64);
    assert_eq!(h.sum(), all.iter().sum::<u64>());
    all.sort_unstable();
    let snap = h.snapshot();
    assert_eq!(snap.max(), *all.last().unwrap());
    for q in [0.5, 0.9, 0.99] {
        assert_within_bound(snap.quantile(q), exact_quantile(&all, q), q);
    }
}
