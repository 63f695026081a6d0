//! Cache-blocked structure-of-arrays (SoA) evaluation kernels.
//!
//! The BiGreedy hot path evaluates `m` utility vectors against all `n`
//! points — an `m × n` sweep of inner products that dominates cold solve
//! setup (the `db_max` pass) and the truncated-objective score cache. The
//! row-major layout in [`crate::vecmath`] forces that sweep through one
//! scalar dot product per point: `dim` is tiny (2–8) so each row is a
//! handful of multiply-adds with a loop-carried dependency, and the
//! compiler cannot vectorize across rows.
//!
//! [`SoaMatrix`] stores the same matrix block-tiled column-major: rows are
//! grouped into tiles of [`BLOCK`] rows, and within a tile coordinate `j`
//! of all `BLOCK` rows is contiguous. The kernels then iterate dims-outer /
//! rows-inner, keeping one independent accumulator per row in the tile —
//! a shape LLVM auto-vectorizes into wide FMA lanes.
//!
//! **Bit-identity contract:** for every row `i`, the kernel performs the
//! *same* floating-point operations in the *same* order as
//! [`crate::vecmath::dot`] (`acc = 0.0; for j { acc += p[j] * u[j] }`), and
//! [`SoaMatrix::max_dot`] folds the per-row results with `f64::max` in
//! ascending row order from `0.0`, exactly like
//! [`crate::vecmath::max_utility`]. Reordering happens only *across* rows,
//! never within one, so results are bitwise-equal to the scalar oracle.
//!
//! The blocked kernels are the only production path. The row-major scalar
//! loops ([`crate::vecmath::max_utility`] and the unit tests'
//! `dot_batch_rows`) are kept solely as the reference oracles the tests
//! and the kernel bench compare against — pinned per kernel branch by
//! `tests/kernel_properties.rs` and this module's unit tests.

/// Rows per SoA tile.
///
/// 64 rows × 8 bytes = one 512-byte column per dimension — a handful of
/// cache lines that stay resident while the kernel walks the (tiny) `dim`
/// axis, and a multiple of every SIMD width the autovectorizer targets
/// (2/4/8 f64 lanes). Larger tiles spill the per-row accumulator array out
/// of registers; smaller ones waste the loop overhead amortization.
pub const BLOCK: usize = 64;

/// Block-tiled column-major view of an `n × dim` row-major matrix.
///
/// Layout: rows are split into `⌈n / BLOCK⌉` tiles of [`BLOCK`] rows; the
/// tail tile is zero-padded. Within tile `b`, coordinate `j` of local row
/// `r` (global row `b·BLOCK + r`) lives at
///
/// ```text
/// data[b·BLOCK·dim + j·BLOCK + r]
/// ```
///
/// so each `(tile, dim)` column is a contiguous `BLOCK`-long slice and the
/// kernels stream it with unit stride.
#[derive(Debug, Clone)]
pub struct SoaMatrix {
    n: usize,
    dim: usize,
    data: Vec<f64>,
}

impl SoaMatrix {
    /// Builds the tiled view from a row-major matrix (`points[i*dim + j]`).
    ///
    /// # Panics
    /// Panics if `dim == 0` or `points.len()` is not a multiple of `dim`.
    pub fn from_rows(points: &[f64], dim: usize) -> Self {
        assert!(dim > 0, "SoaMatrix: dim must be positive");
        assert_eq!(
            points.len() % dim,
            0,
            "SoaMatrix: points length {} is not a multiple of dim {dim}",
            points.len()
        );
        let n = points.len() / dim;
        let tiles = n.div_ceil(BLOCK);
        let mut data = vec![0.0; tiles * BLOCK * dim];
        for (i, row) in points.chunks_exact(dim).enumerate() {
            let (b, r) = (i / BLOCK, i % BLOCK);
            let tile = b * BLOCK * dim;
            for (j, &v) in row.iter().enumerate() {
                data[tile + j * BLOCK + r] = v;
            }
        }
        Self { n, dim, data }
    }

    /// Number of rows in the underlying matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Computes one tile's dot products into `acc[0..BLOCK]`.
    ///
    /// Dispatches to a const-`dim` specialization for the workspace's
    /// small dimensionalities (2–8): with the dim loop fully unrolled,
    /// each row's accumulator lives in a register across all dims and the
    /// row axis vectorizes into wide FMA lanes over the unit-stride
    /// columns. The generic fallback (dims-outer, accumulator array in
    /// memory) covers larger dims; both perform each row's multiply-adds
    /// in ascending dim order from `0.0`, matching the scalar `dot`
    /// exactly.
    #[inline]
    fn tile_dots(tile: &[f64], u: &[f64], acc: &mut [f64; BLOCK]) {
        match u.len() {
            1 => Self::tile_dots_fixed::<1>(tile, u, acc),
            2 => Self::tile_dots_fixed::<2>(tile, u, acc),
            3 => Self::tile_dots_fixed::<3>(tile, u, acc),
            4 => Self::tile_dots_fixed::<4>(tile, u, acc),
            5 => Self::tile_dots_fixed::<5>(tile, u, acc),
            6 => Self::tile_dots_fixed::<6>(tile, u, acc),
            7 => Self::tile_dots_fixed::<7>(tile, u, acc),
            8 => Self::tile_dots_fixed::<8>(tile, u, acc),
            _ => Self::tile_dots_generic(tile, u, acc),
        }
    }

    /// Const-`dim` tile kernel: per row, an unrolled `D`-term fold kept in
    /// a register; across rows, independent lanes over unit-stride columns.
    #[inline]
    fn tile_dots_fixed<const D: usize>(tile: &[f64], u: &[f64], acc: &mut [f64; BLOCK]) {
        // Exact-length reslices let LLVM discharge the bounds checks once.
        let tile = &tile[..D * BLOCK];
        let u = &u[..D];
        for (r, a) in acc.iter_mut().enumerate() {
            let mut s = 0.0;
            for j in 0..D {
                s += tile[j * BLOCK + r] * u[j];
            }
            *a = s;
        }
    }

    /// Generic-`dim` fallback: dims-outer with the accumulator array in
    /// memory (still unit-stride, just not register-resident).
    #[inline]
    fn tile_dots_generic(tile: &[f64], u: &[f64], acc: &mut [f64; BLOCK]) {
        acc.fill(0.0);
        for (j, &uj) in u.iter().enumerate() {
            let col = &tile[j * BLOCK..(j + 1) * BLOCK];
            for (a, &v) in acc.iter_mut().zip(col) {
                *a += v * uj;
            }
        }
    }

    /// `max_{i} ⟨row_i, u⟩`, folded from `0.0` in ascending row order —
    /// bitwise-equal to [`crate::vecmath::max_utility`] on the same data.
    ///
    /// # Panics
    /// Panics in debug builds if `u.len() != self.dim()`.
    pub fn max_dot(&self, u: &[f64]) -> f64 {
        debug_assert_eq!(u.len(), self.dim, "max_dot: dimension mismatch");
        let mut best = 0.0_f64;
        let mut acc = [0.0_f64; BLOCK];
        for (b, tile) in self.data.chunks_exact(BLOCK * self.dim).enumerate() {
            Self::tile_dots(tile, u, &mut acc);
            let rows = (self.n - b * BLOCK).min(BLOCK);
            for &v in &acc[..rows] {
                best = best.max(v);
            }
        }
        best
    }

    /// Computes `max_{i} ⟨row_i, u⟩` for *many* utilities in one pass:
    /// `out[t] = max_dot(us[t])`, each bitwise-equal to the single-utility
    /// kernel (and hence to [`crate::vecmath::max_utility`]).
    ///
    /// This is the cache-blocked form of the `m × n` extreme-value sweep:
    /// the tile loop is outermost, so every utility scores a tile while
    /// its few KB are cache-resident and the point matrix streams through
    /// memory **once** instead of once per utility. The per-utility form
    /// is bandwidth-bound at realistic `n` (the matrix exceeds L2); this
    /// form is compute-bound, which is where the SoA layout's wide FMA
    /// lanes actually pay off.
    ///
    /// Bit-identity: per utility, tiles are visited in ascending row
    /// order and each tile's partial results fold into the running max in
    /// ascending row order from `0.0` — the exact fold sequence of the
    /// scalar oracle, merely interleaved across utilities.
    ///
    /// # Panics
    /// Panics if `out.len() != us.len()`; in debug builds also if any
    /// utility's length differs from `self.dim()`.
    pub fn max_dot_many(&self, us: &[Vec<f64>], out: &mut [f64]) {
        assert_eq!(out.len(), us.len(), "max_dot_many: output length mismatch");
        #[cfg(debug_assertions)]
        for u in us {
            debug_assert_eq!(u.len(), self.dim, "max_dot_many: dimension mismatch");
        }
        out.fill(0.0);
        for (b, tile) in self.data.chunks_exact(BLOCK * self.dim).enumerate() {
            let rows = (self.n - b * BLOCK).min(BLOCK);
            // Utilities in groups of 4: each group's four running maxima
            // are independent dependency chains, so the serial `f64::max`
            // latency of one chain hides behind the other three, and each
            // tile value is loaded once for all four utilities.
            let mut ug = us.chunks_exact(4);
            let mut mg = out.chunks_exact_mut(4);
            for (uq, mq) in (&mut ug).zip(&mut mg) {
                let uq = [
                    uq[0].as_slice(),
                    uq[1].as_slice(),
                    uq[2].as_slice(),
                    uq[3].as_slice(),
                ];
                let mq: &mut [f64; 4] = mq.try_into().expect("chunk of 4");
                Self::tile_max4(tile, self.dim, rows, uq, mq);
            }
            let mut acc = [0.0_f64; BLOCK];
            for (u, best) in ug.remainder().iter().zip(mg.into_remainder().iter_mut()) {
                Self::tile_dots(tile, u, &mut acc);
                let mut m = *best;
                for &v in &acc[..rows] {
                    m = m.max(v);
                }
                *best = m;
            }
        }
    }

    /// One tile × four utilities, dispatched to a const-`dim`
    /// specialization (falls back to the accumulator-array path for
    /// `dim > 8`).
    #[inline]
    fn tile_max4(tile: &[f64], dim: usize, rows: usize, us: [&[f64]; 4], m: &mut [f64; 4]) {
        match dim {
            1 => Self::tile_max4_fixed::<1>(tile, rows, us, m),
            2 => Self::tile_max4_fixed::<2>(tile, rows, us, m),
            3 => Self::tile_max4_fixed::<3>(tile, rows, us, m),
            4 => Self::tile_max4_fixed::<4>(tile, rows, us, m),
            5 => Self::tile_max4_fixed::<5>(tile, rows, us, m),
            6 => Self::tile_max4_fixed::<6>(tile, rows, us, m),
            7 => Self::tile_max4_fixed::<7>(tile, rows, us, m),
            8 => Self::tile_max4_fixed::<8>(tile, rows, us, m),
            _ => {
                let mut acc = [0.0_f64; BLOCK];
                for (u, best) in us.iter().zip(m.iter_mut()) {
                    Self::tile_dots_generic(tile, u, &mut acc);
                    let mut mx = *best;
                    for &v in &acc[..rows] {
                        mx = mx.max(v);
                    }
                    *best = mx;
                }
            }
        }
    }

    /// Const-`dim` four-utility tile kernel: per row, four unrolled
    /// `D`-term folds (scalar op order per utility) feeding four
    /// independent register-resident max chains.
    #[inline]
    fn tile_max4_fixed<const D: usize>(
        tile: &[f64],
        rows: usize,
        us: [&[f64]; 4],
        m: &mut [f64; 4],
    ) {
        let tile = &tile[..D * BLOCK];
        let (u0, u1, u2, u3) = (&us[0][..D], &us[1][..D], &us[2][..D], &us[3][..D]);
        let (mut m0, mut m1, mut m2, mut m3) = (m[0], m[1], m[2], m[3]);
        for r in 0..rows.min(BLOCK) {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for j in 0..D {
                let v = tile[j * BLOCK + r];
                s0 += v * u0[j];
                s1 += v * u1[j];
                s2 += v * u2[j];
                s3 += v * u3[j];
            }
            m0 = m0.max(s0);
            m1 = m1.max(s1);
            m2 = m2.max(s2);
            m3 = m3.max(s3);
        }
        *m = [m0, m1, m2, m3];
    }

    /// Computes tile `b`'s dot products against `u` into `acc`, returning
    /// the number of live rows in the tile (global rows `b·BLOCK ..
    /// b·BLOCK + rows`). Each live element of `acc` is bitwise-equal to
    /// [`crate::vecmath::dot`] on its row.
    ///
    /// This is the building block for callers that interleave their own
    /// per-tile work with the dots. The objective's score cache tiles the
    /// *net* and passes each data row as `u`: one call yields that row's
    /// raw scores against 64 utilities, which it normalizes and stores
    /// contiguously (multiplication commutes, so each is still
    /// bitwise-equal to `dot(row, utility)`).
    ///
    /// # Panics
    /// Panics if `b` is not below the tile count `⌈len / BLOCK⌉`.
    pub fn dot_tile(&self, b: usize, u: &[f64], acc: &mut [f64; BLOCK]) -> usize {
        debug_assert_eq!(u.len(), self.dim, "dot_tile: dimension mismatch");
        let tile = &self.data[b * BLOCK * self.dim..(b + 1) * BLOCK * self.dim];
        Self::tile_dots(tile, u, acc);
        (self.n - b * BLOCK).min(BLOCK)
    }

    /// Writes `⟨row_i, u⟩` for every row into `out` — each element
    /// bitwise-equal to [`crate::vecmath::dot`] on the same row.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`; in debug builds also if
    /// `u.len() != self.dim()`.
    pub fn dot_batch(&self, u: &[f64], out: &mut [f64]) {
        debug_assert_eq!(u.len(), self.dim, "dot_batch: dimension mismatch");
        assert_eq!(out.len(), self.n, "dot_batch: output length mismatch");
        let mut acc = [0.0_f64; BLOCK];
        for (b, tile) in self.data.chunks_exact(BLOCK * self.dim).enumerate() {
            Self::tile_dots(tile, u, &mut acc);
            let start = b * BLOCK;
            let rows = (self.n - start).min(BLOCK);
            out[start..start + rows].copy_from_slice(&acc[..rows]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecmath::{self, dot};

    /// Scalar reference for a batched dot pass: `out[i] = ⟨row_i, u⟩` via
    /// [`dot`] per row. The oracle [`SoaMatrix::dot_batch`] is
    /// pinned against.
    ///
    /// # Panics
    /// Panics if `out.len()` is not the number of rows.
    pub fn dot_batch_rows(points: &[f64], dim: usize, u: &[f64], out: &mut [f64]) {
        debug_assert_eq!(u.len(), dim, "dot_batch_rows: dimension mismatch");
        assert_eq!(
            out.len(),
            points.len() / dim.max(1),
            "dot_batch_rows: output length mismatch"
        );
        for (o, p) in out.iter_mut().zip(points.chunks_exact(dim)) {
            *o = dot(p, u);
        }
    }

    fn matrix(n: usize, dim: usize) -> Vec<f64> {
        // Deterministic, irregular positive values (the workspace admits
        // only finite non-negative coordinates).
        (0..n * dim)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 997.0)
            .collect()
    }

    #[test]
    fn blocked_kernels_match_scalar_oracle_bitwise() {
        for &n in &[0usize, 1, 2, 63, 64, 65, 127, 128, 129, 300] {
            for &dim in &[1usize, 2, 3, 5, 7, 8, 9] {
                let pts = matrix(n, dim);
                let u: Vec<f64> = (0..dim).map(|j| 0.1 + j as f64 * 0.37).collect();
                let soa = SoaMatrix::from_rows(&pts, dim);
                assert_eq!(soa.len(), n);
                assert_eq!(soa.dim(), dim);
                assert_eq!(
                    soa.max_dot(&u).to_bits(),
                    vecmath::max_utility(&pts, dim, &u).to_bits(),
                    "max_dot mismatch at n={n} dim={dim}"
                );
                let us: Vec<Vec<f64>> = (0..5)
                    .map(|t| {
                        (0..dim)
                            .map(|j| 0.05 * t as f64 + j as f64 * 0.21)
                            .collect()
                    })
                    .collect();
                let mut many = vec![f64::NAN; us.len()];
                soa.max_dot_many(&us, &mut many);
                for (t, got) in many.iter().enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        vecmath::max_utility(&pts, dim, &us[t]).to_bits(),
                        "max_dot_many mismatch at n={n} dim={dim} utility {t}"
                    );
                }
                let mut blocked = vec![0.0; n];
                soa.dot_batch(&u, &mut blocked);
                let mut scalar = vec![0.0; n];
                dot_batch_rows(&pts, dim, &u, &mut scalar);
                for i in 0..n {
                    assert_eq!(
                        blocked[i].to_bits(),
                        scalar[i].to_bits(),
                        "dot_batch mismatch at n={n} dim={dim} row {i}"
                    );
                    assert_eq!(
                        blocked[i].to_bits(),
                        dot(&pts[i * dim..(i + 1) * dim], &u).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn tail_padding_does_not_leak_into_max() {
        // All rows score negative; the zero-padded tail rows must not win
        // the max fold (they are skipped, not compared).
        let pts = vec![0.5; 3 * 2]; // 3 rows, dim 2
        let soa = SoaMatrix::from_rows(&pts, 2);
        let u = [-1.0, -1.0];
        // fold starts at 0.0, exactly like the scalar oracle
        assert_eq!(
            soa.max_dot(&u).to_bits(),
            vecmath::max_utility(&pts, 2, &u).to_bits()
        );
    }
}
