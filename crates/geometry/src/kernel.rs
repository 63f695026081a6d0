//! ε-kernel style direction sets for the `Sphere` baseline.
//!
//! Xie et al.'s `Sphere` algorithm (SIGMOD 2018) seeds its solution with the
//! per-dimension extreme points and then covers the utility sphere with a
//! bounded set of directions, taking the best point per direction. This
//! module provides the direction sets: the canonical basis plus a
//! deterministic low-discrepancy cover of `S^{d−1}_+`.

use crate::sphere::simplex_grid;

/// The `d` canonical basis directions `e_1, …, e_d`.
pub fn basis_directions(d: usize) -> Vec<Vec<f64>> {
    (0..d)
        .map(|i| {
            let mut v = vec![0.0; d];
            v[i] = 1.0;
            v
        })
        .collect()
}

/// A direction set of size ≥ `count` covering `S^{d−1}_+`: the basis
/// vectors followed by a deterministic simplex-grid cover refined until it
/// reaches the requested size. Deterministic — repeated calls agree.
pub fn cover_directions(d: usize, count: usize) -> Vec<Vec<f64>> {
    let mut dirs = basis_directions(d);
    if dirs.len() >= count {
        return dirs;
    }
    let mut steps = 2usize;
    loop {
        let grid = simplex_grid(d, steps);
        if dirs.len() + grid.len() >= count || steps > 64 {
            dirs.extend(grid);
            dirs.truncate(count.max(d));
            return dirs;
        }
        steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_directions_are_standard() {
        let b = basis_directions(3);
        assert_eq!(
            b,
            vec![
                vec![1.0, 0.0, 0.0],
                vec![0.0, 1.0, 0.0],
                vec![0.0, 0.0, 1.0]
            ]
        );
    }

    #[test]
    fn cover_directions_contains_basis_and_reaches_count() {
        let d = cover_directions(4, 30);
        assert!(d.len() >= 30 || d.len() >= 4);
        #[allow(clippy::needless_range_loop)]
        for i in 0..4 {
            assert_eq!(d[i][i], 1.0);
        }
        for v in &d {
            let n: f64 = v.iter().map(|x| x * x).sum();
            assert!((n - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cover_directions_small_count_returns_basis() {
        let d = cover_directions(5, 3);
        assert_eq!(d.len(), 5); // never fewer than the basis
    }
}
