//! Upper envelopes of lines over `λ ∈ [0, 1]`.
//!
//! The upper envelope of the score lines of all database points is exactly
//! the function `λ ↦ max_{p∈D} ⟨(λ, 1−λ), p⟩`, i.e. the best achievable
//! score for every 2D utility. `IntCov` (paper Section 3.1) scales this
//! envelope by a threshold `τ` (the *τ-envelope*) and intersects each
//! point's line with it to obtain the sub-interval of utilities for which
//! that point achieves happiness ratio at least `τ`.
//!
//! The envelope is built with the classic convex-hull-trick stack in
//! `O(n log n)`; because it is a pointwise maximum of linear functions it is
//! convex, which makes every `τ`-interval a single (possibly empty)
//! interval — the fact the interval-cover reduction relies on.

use crate::line::Line;
use crate::EPS;

/// One linear piece of an envelope, active on `[from, to]`.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// The line attaining the maximum on this piece.
    pub line: Line,
    /// Left end of the piece (inclusive).
    pub from: f64,
    /// Right end of the piece (inclusive).
    pub to: f64,
}

/// The upper envelope of a set of lines, restricted to `λ ∈ [0, 1]`.
#[derive(Debug, Clone)]
pub struct Envelope {
    segments: Vec<Segment>,
}

impl Envelope {
    /// Builds the upper envelope of `lines` over `[0, 1]`.
    ///
    /// ```
    /// use fairhms_geometry::envelope::Envelope;
    /// use fairhms_geometry::line::Line;
    ///
    /// // the two extreme points (1,0) and (0,1): env(λ) = max(λ, 1−λ)
    /// let lines = [Line::from_point(&[1.0, 0.0]), Line::from_point(&[0.0, 1.0])];
    /// let env = Envelope::upper(&lines);
    /// assert_eq!(env.eval(0.0), 1.0);
    /// assert_eq!(env.eval(0.5), 0.5);
    /// assert_eq!(env.segments()[0].line, lines[1]); // (0,1) wins on the left
    /// ```
    ///
    /// # Panics
    /// Panics if `lines` is empty.
    pub fn upper(lines: &[Line]) -> Self {
        assert!(!lines.is_empty(), "Envelope::upper: no lines");
        // Sort by slope ascending; for equal slopes only the largest
        // intercept can ever be on the envelope.
        let mut order: Vec<usize> = (0..lines.len()).collect();
        order.sort_by(|&a, &b| {
            lines[a]
                .slope
                .total_cmp(&lines[b].slope)
                .then(lines[a].intercept.total_cmp(&lines[b].intercept))
        });
        let mut dedup: Vec<usize> = Vec::with_capacity(order.len());
        for id in order {
            if let Some(&last) = dedup.last() {
                if (lines[last].slope - lines[id].slope).abs() <= EPS {
                    // same slope: keep the higher intercept (current `id`,
                    // since ties sort intercept-ascending)
                    if lines[id].intercept >= lines[last].intercept {
                        dedup.pop();
                    } else {
                        continue;
                    }
                }
            }
            dedup.push(id);
        }

        // Convex-hull-trick stack: a line is dropped when the interval in
        // which it would be maximal is empty.
        let mut stack: Vec<usize> = Vec::with_capacity(dedup.len());
        for id in dedup {
            while stack.len() >= 2 {
                let l1 = &lines[stack[stack.len() - 2]];
                let l2 = &lines[stack[stack.len() - 1]];
                let l3 = &lines[id];
                // l2 is maximal on [x(l1,l2), x(l2,l3)]; empty ⇒ pop.
                let x12 = l1.intersect(l2).expect("distinct slopes");
                let x23 = l2.intersect(l3).expect("distinct slopes");
                if x12 >= x23 - EPS {
                    stack.pop();
                } else {
                    break;
                }
            }
            if stack.len() == 1 {
                let l1 = &lines[stack[0]];
                let l2 = &lines[id];
                // If the new (steeper) line is everywhere ≥ the single
                // stack line on [0,1], that line is never maximal.
                if l2.eval(0.0) >= l1.eval(0.0) - EPS {
                    stack.pop();
                }
            }
            stack.push(id);
        }

        // Materialize segments, clipped to [0, 1].
        let mut segments = Vec::with_capacity(stack.len());
        let mut from = 0.0_f64;
        for (i, &id) in stack.iter().enumerate() {
            let to = if i + 1 < stack.len() {
                lines[id]
                    .intersect(&lines[stack[i + 1]])
                    .expect("distinct slopes")
                    .clamp(0.0, 1.0)
            } else {
                1.0
            };
            if to > from + EPS || (i + 1 == stack.len() && segments.is_empty()) {
                segments.push(Segment {
                    line: lines[id],
                    from,
                    to,
                });
                from = to;
            } else if to >= 1.0 {
                break;
            }
        }
        // Guarantee full coverage of [0,1] even under degenerate clipping.
        if let Some(last) = segments.last_mut() {
            last.to = 1.0;
        }
        if let Some(first) = segments.first_mut() {
            first.from = 0.0;
        }
        Self { segments }
    }

    /// The linear pieces, ordered left to right, jointly covering `[0, 1]`.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Evaluates the envelope at `lambda ∈ [0, 1]`.
    pub fn eval(&self, lambda: f64) -> f64 {
        let seg = self.segment_at(lambda);
        seg.line.eval(lambda)
    }

    /// The segment active at `lambda` (right-continuous at breakpoints).
    pub fn segment_at(&self, lambda: f64) -> &Segment {
        debug_assert!((-EPS..=1.0 + EPS).contains(&lambda));
        let idx = self
            .segments
            .partition_point(|s| s.to < lambda)
            .min(self.segments.len() - 1);
        &self.segments[idx]
    }

    /// The interval of `λ` where `line` lies on or above `τ ×` envelope,
    /// or `None` if no such `λ` exists.
    ///
    /// `g(λ) = line(λ) − τ·env(λ)` is concave (linear minus convex), so its
    /// nonnegativity region is one interval; we locate the boundary roots by
    /// walking the pieces.
    pub fn tau_interval(&self, line: &Line, tau: f64) -> Option<(f64, f64)> {
        let g = |seg: &Segment, x: f64| line.eval(x) - tau * seg.line.eval(x);

        let mut left: Option<f64> = None;
        let mut right: Option<f64> = None;
        for seg in &self.segments {
            let g0 = g(seg, seg.from);
            let g1 = g(seg, seg.to);
            if left.is_none() {
                if g0 >= -EPS {
                    left = Some(seg.from);
                } else if g1 >= -EPS {
                    // root in (from, to]: g0 < 0 ≤ g1
                    let t = g0 / (g0 - g1);
                    left = Some(seg.from + t * (seg.to - seg.from));
                }
            }
            if left.is_some() {
                if g1 >= -EPS {
                    right = Some(seg.to);
                } else {
                    if g0 >= -EPS {
                        // root in [from, to): g0 ≥ 0 > g1
                        let t = g0 / (g0 - g1);
                        right = Some(seg.from + t * (seg.to - seg.from));
                    }
                    break; // concavity: g stays negative afterwards
                }
            }
        }
        match (left, right) {
            (Some(l), Some(r)) if r >= l - EPS => Some((l.clamp(0.0, 1.0), r.clamp(0.0, 1.0))),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of(points: &[[f64; 2]]) -> Envelope {
        let lines: Vec<Line> = points.iter().map(|p| Line::from_point(p)).collect();
        Envelope::upper(&lines)
    }

    #[test]
    fn single_line_envelope_covers_unit_interval() {
        let env = env_of(&[[0.4, 0.7]]);
        assert_eq!(env.segments().len(), 1);
        assert_eq!(env.segments()[0].from, 0.0);
        assert_eq!(env.segments()[0].to, 1.0);
        assert!((env.eval(0.5) - 0.55).abs() < 1e-12);
    }

    #[test]
    fn two_crossing_lines() {
        let env = env_of(&[[1.0, 0.0], [0.0, 1.0]]);
        assert_eq!(env.segments().len(), 2);
        // At λ=0 the second point (line 1) wins; at λ=1 the first.
        assert_eq!(env.segments()[0].line, Line::from_point(&[0.0, 1.0]));
        assert_eq!(env.segments()[1].line, Line::from_point(&[1.0, 0.0]));
        assert!((env.eval(0.0) - 1.0).abs() < 1e-12);
        assert!((env.eval(0.5) - 0.5).abs() < 1e-12);
        assert!((env.eval(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dominated_line_not_on_envelope() {
        let env = env_of(&[[1.0, 0.0], [0.0, 1.0], [0.3, 0.3]]);
        let dominated = Line::from_point(&[0.3, 0.3]);
        assert!(env.segments().iter().all(|s| s.line != dominated));
    }

    #[test]
    fn envelope_upper_bounds_all_lines() {
        // deterministic pseudo-random points
        let mut pts = Vec::new();
        let mut x = 0.123_f64;
        for _ in 0..50 {
            x = (x * 997.0).fract();
            let y = ((x * 313.0).fract() * 0.9) + 0.05;
            pts.push([x, y]);
        }
        let lines: Vec<Line> = pts.iter().map(|p| Line::from_point(p)).collect();
        let env = Envelope::upper(&lines);
        for i in 0..=100 {
            let lambda = i as f64 / 100.0;
            let e = env.eval(lambda);
            let best = lines
                .iter()
                .map(|l| l.eval(lambda))
                .fold(f64::MIN, f64::max);
            assert!(
                (e - best).abs() < 1e-9,
                "envelope mismatch at λ={lambda}: env={e} brute={best}"
            );
        }
    }

    #[test]
    fn equal_slope_keeps_higher_intercept() {
        let env = env_of(&[[0.5, 0.2], [0.9, 0.6]]); // both slope 0.3
        assert_eq!(env.segments().len(), 1);
        assert_eq!(env.segments()[0].line, Line::from_point(&[0.9, 0.6]));
    }

    #[test]
    fn tau_interval_full_for_envelope_member() {
        let pts = [[1.0, 0.0], [0.0, 1.0]];
        let env = env_of(&pts);
        // With τ = 0.5, the line of (1,0) is above 0.5·env wherever
        // λ ≥ ... compute: L(λ)=λ, env = max(1−λ, λ). Need λ ≥ 0.5·max(..).
        let l = Line::from_point(&pts[0]);
        let (a, b) = env.tau_interval(&l, 0.5).unwrap();
        // λ ≥ 0.5(1−λ) ⇔ λ ≥ 1/3, and λ ≥ 0.5λ always on right half.
        assert!((a - 1.0 / 3.0).abs() < 1e-9, "a = {a}");
        assert!((b - 1.0).abs() < 1e-9, "b = {b}");
    }

    #[test]
    fn tau_interval_empty_for_weak_point() {
        let pts = [[1.0, 0.0], [0.0, 1.0], [0.1, 0.1]];
        let env = env_of(&pts);
        let l = Line::from_point(&pts[2]);
        // point (0.1,0.1) scores 0.1 everywhere; envelope min is 0.5.
        assert!(env.tau_interval(&l, 0.5).is_none());
        // ...but for tiny τ it covers everything.
        let (a, b) = env.tau_interval(&l, 0.1).unwrap();
        assert!(a <= 1e-9 && (b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tau_interval_matches_brute_force() {
        let pts: Vec<[f64; 2]> = vec![
            [0.95, 0.05],
            [0.8, 0.5],
            [0.55, 0.75],
            [0.3, 0.9],
            [0.05, 0.98],
        ];
        let env = env_of(&pts);
        for p in &pts {
            let l = Line::from_point(p);
            for tau in [0.5, 0.8, 0.9, 0.95, 0.99] {
                let iv = env.tau_interval(&l, tau);
                // brute force over a fine grid
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for i in 0..=10_000 {
                    let x = i as f64 / 10_000.0;
                    if l.eval(x) >= tau * env.eval(x) - 1e-12 {
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                }
                match iv {
                    None => assert!(lo.is_infinite(), "missed interval for τ={tau}"),
                    Some((a, b)) => {
                        assert!((a - lo).abs() < 2e-4, "left: {a} vs {lo} (τ={tau})");
                        assert!((b - hi).abs() < 2e-4, "right: {b} vs {hi} (τ={tau})");
                    }
                }
            }
        }
    }

    #[test]
    fn segment_at_is_right_continuous() {
        let env = env_of(&[[1.0, 0.0], [0.0, 1.0]]);
        let s = env.segment_at(0.5);
        assert!(s.from <= 0.5 && 0.5 <= s.to);
        assert_eq!(env.segment_at(0.0).line, Line::from_point(&[0.0, 1.0]));
        assert_eq!(env.segment_at(1.0).line, Line::from_point(&[1.0, 0.0]));
    }
}
