//! Property tests pinning the blocked SoA kernels bitwise-equal to the
//! scalar `vecmath` oracles.
//!
//! The whole kernel layer rests on one contract (see `fairhms_geometry::
//! soa`): for every row, the blocked layout performs the *same* sequence
//! of floating-point operations as the scalar fold — multiply by `u[j]`
//! in ascending dimension order, accumulate from `0.0` — so `dot_batch`
//! and `max_dot` are `to_bits`-identical to `vecmath::dot` /
//! `vecmath::max_utility`, not merely close. These properties exercise
//! the contract across arbitrary matrix shapes (tail tiles of every
//! size, n below/at/above `BLOCK` multiples) and value ranges, including
//! negative utilities where tail-padding leaks would surface.

use proptest::prelude::*;

use fairhms_geometry::soa::{SoaMatrix, BLOCK};
use fairhms_geometry::vecmath::{dot, max_utility};

/// A row-major matrix (n·dim values) plus a matching utility vector.
/// Sizes straddle the BLOCK boundary so tail tiles of every occupancy
/// (1..=BLOCK rows) are generated, and dims reach every kernel branch:
/// the const-`dim` specializations (1–8) and the generic fallback (> 8).
fn matrix_and_utility() -> impl Strategy<Value = (Vec<f64>, usize, Vec<f64>)> {
    (1usize..=10, 0usize..=(2 * BLOCK + 5)).prop_flat_map(|(dim, n)| {
        (
            prop::collection::vec(-1.0f64..=1.0, n * dim),
            Just(dim),
            prop::collection::vec(-1.0f64..=1.0, dim),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dot_batch_is_bitwise_equal_to_scalar_dot((points, dim, u) in matrix_and_utility()) {
        let soa = SoaMatrix::from_rows(&points, dim);
        let n = points.len() / dim;
        let mut out = vec![f64::NAN; n];
        soa.dot_batch(&u, &mut out);
        for (i, &got) in out.iter().enumerate() {
            let want = dot(&points[i * dim..(i + 1) * dim], &u);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "row {} of n={} dim={}: blocked {} vs scalar {}", i, n, dim, got, want
            );
        }
    }

    #[test]
    fn max_dot_is_bitwise_equal_to_scalar_fold((points, dim, u) in matrix_and_utility()) {
        let soa = SoaMatrix::from_rows(&points, dim);
        let got = soa.max_dot(&u);
        let want = max_utility(&points, dim, &u);
        prop_assert_eq!(
            got.to_bits(), want.to_bits(),
            "n={} dim={}: blocked {} vs scalar {}", points.len() / dim, dim, got, want
        );
    }

    #[test]
    fn max_dot_many_is_bitwise_equal_per_utility(
        // The batched (tile-outer) sweep interleaves utilities across the
        // tile loop; per utility the fold sequence must stay the scalar
        // one regardless.
        (points, dim, u) in matrix_and_utility(),
        shifts in prop::collection::vec(-0.5f64..=0.5, 1..8),
    ) {
        let us: Vec<Vec<f64>> = shifts
            .iter()
            .map(|s| u.iter().map(|x| x + s).collect())
            .collect();
        let soa = SoaMatrix::from_rows(&points, dim);
        let mut out = vec![f64::NAN; us.len()];
        soa.max_dot_many(&us, &mut out);
        for (t, &got) in out.iter().enumerate() {
            let want = max_utility(&points, dim, &us[t]);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "utility {} of n={} dim={}: batched {} vs scalar {}",
                t, points.len() / dim, dim, got, want
            );
        }
    }

    #[test]
    fn soa_roundtrips_every_row_stride(
        // Re-reading single rows through dot with a one-hot utility
        // recovers the original row-major values exactly: the layout
        // transform loses nothing.
        (points, dim, _) in matrix_and_utility(),
        j in 0usize..10,
    ) {
        let dim_j = j % dim.max(1);
        let soa = SoaMatrix::from_rows(&points, dim);
        let n = points.len() / dim;
        let mut onehot = vec![0.0; dim];
        onehot[dim_j] = 1.0;
        let mut out = vec![0.0; n];
        soa.dot_batch(&onehot, &mut out);
        for i in 0..n {
            let want = points[i * dim + dim_j];
            // x·1.0 plus zero-terms is numerically exact for these finite
            // inputs (== rather than to_bits: a -0.0 row value may come
            // back as +0.0 through the zero accumulation).
            prop_assert_eq!(out[i], want);
        }
    }
}
