//! Dense vector kernels on `&[f64]` slices.
//!
//! Every crate in the workspace represents points and utility vectors as
//! plain `f64` slices; these free functions are the single source of truth
//! for inner products and norms so that numeric behaviour is identical
//! everywhere.

/// Inner product `⟨a, b⟩`.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (`l2`) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Rescales `a` in place to unit `l2` norm. Zero vectors are left unchanged.
pub fn normalize2(a: &mut [f64]) {
    let n = norm2(a);
    if n > 0.0 {
        for x in a.iter_mut() {
            *x /= n;
        }
    }
}

/// The maximum utility `max_{p ∈ points} ⟨u, p⟩` over a point set stored
/// row-major in `points` (each row has `dim` entries).
///
/// Returns 0.0 for an empty point set (the natural identity for happiness
/// numerators over empty subsets).
///
/// This is the scalar reference oracle: production evaluates through the
/// blocked [`crate::soa::SoaMatrix`] kernels, which tests pin bitwise-equal
/// to this fold.
pub fn max_utility(points: &[f64], dim: usize, u: &[f64]) -> f64 {
    debug_assert_eq!(u.len(), dim);
    points
        .chunks_exact(dim)
        .map(|p| dot(p, u))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [1.0, 2.0, 2.0];
        let b = [2.0, 0.0, 1.0];
        assert_eq!(dot(&a, &b), 4.0);
        assert_eq!(norm2(&a), 3.0);
    }

    #[test]
    fn normalize_to_unit_norms() {
        let mut a = [3.0, 4.0];
        normalize2(&mut a);
        assert!((norm2(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut a = [0.0, 0.0];
        normalize2(&mut a);
        assert_eq!(a, [0.0, 0.0]);
    }

    #[test]
    fn max_utility_over_rows() {
        // two 2D points: (1, 0) and (0.5, 0.5)
        let pts = [1.0, 0.0, 0.5, 0.5];
        assert_eq!(max_utility(&pts, 2, &[1.0, 0.0]), 1.0);
        assert_eq!(max_utility(&pts, 2, &[0.0, 1.0]), 0.5);
        assert_eq!(max_utility(&[], 2, &[0.0, 1.0]), 0.0);
    }
}
