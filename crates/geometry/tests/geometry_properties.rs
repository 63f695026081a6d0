//! Property tests for envelopes and sphere sampling.

use proptest::prelude::*;

use fairhms_geometry::envelope::Envelope;
use fairhms_geometry::line::Line;
use fairhms_geometry::sphere::{sample_unit_nonneg, simplex_grid};

fn points_2d() -> impl Strategy<Value = Vec<[f64; 2]>> {
    prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 2..30)
        .prop_map(|v| v.into_iter().map(|(x, y)| [x, y]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn envelope_is_pointwise_max(points in points_2d()) {
        let lines: Vec<Line> = points.iter().map(|p| Line::from_point(p)).collect();
        let env = Envelope::upper(&lines);
        for i in 0..=40 {
            let x = i as f64 / 40.0;
            let brute = lines.iter().map(|l| l.eval(x)).fold(f64::MIN, f64::max);
            prop_assert!((env.eval(x) - brute).abs() < 1e-9, "x = {}", x);
        }
        // segments tile [0, 1] in order
        let segs = env.segments();
        prop_assert_eq!(segs[0].from, 0.0);
        prop_assert_eq!(segs[segs.len() - 1].to, 1.0);
        for w in segs.windows(2) {
            prop_assert!((w[0].to - w[1].from).abs() < 1e-12);
        }
    }

    #[test]
    fn tau_interval_is_sound(points in points_2d(), tau in 0.1f64..=1.0) {
        let lines: Vec<Line> = points.iter().map(|p| Line::from_point(p)).collect();
        let env = Envelope::upper(&lines);
        for l in &lines {
            if let Some((a, b)) = env.tau_interval(l, tau) {
                prop_assert!(a <= b + 1e-12);
                // interior of the interval really is above τ·env
                for i in 1..10 {
                    let x = a + (b - a) * i as f64 / 10.0;
                    prop_assert!(
                        l.eval(x) >= tau * env.eval(x) - 1e-6,
                        "violated at x = {}", x
                    );
                }
            } else {
                // no point is above τ·env anywhere
                for i in 0..=20 {
                    let x = i as f64 / 20.0;
                    prop_assert!(l.eval(x) < tau * env.eval(x) + 1e-6);
                }
            }
        }
    }

    #[test]
    fn sphere_samples_unit_nonneg(seed in 0u64..1000, d in 1usize..8) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v = sample_unit_nonneg(d, &mut rng);
        prop_assert_eq!(v.len(), d);
        prop_assert!(v.iter().all(|&x| x >= 0.0));
        let n: f64 = v.iter().map(|x| x * x).sum();
        prop_assert!((n - 1.0).abs() < 1e-9);
    }

    #[test]
    fn simplex_grid_size_formula(d in 2usize..=4, steps in 1usize..=6) {
        // C(steps + d − 1, d − 1)
        let expect = {
            let mut num = 1usize;
            let mut den = 1usize;
            for i in 0..(d - 1) {
                num *= steps + d - 1 - i;
                den *= i + 1;
            }
            num / den
        };
        prop_assert_eq!(simplex_grid(d, steps).len(), expect);
    }
}
