//! Simulated stand-ins for the paper's real datasets.
//!
//! The original evaluation uses four real datasets (Lawschs, Adult, Compas,
//! Credit) that cannot be fetched in this offline environment. Each
//! simulator below reproduces the characteristics the FairHMS experiments
//! actually depend on — documented per dataset on each simulator below:
//!
//! * the published row count `n` and numeric dimensionality `d` (Table 2);
//! * the group structure: which categorical attributes exist, how many
//!   values each has, their (skewed) proportions, and systematic score
//!   advantages for some groups — the skew is what makes *unfair* baselines
//!   over-represent advantaged groups in Figure 3;
//! * the approximate per-group skyline scale (Table 2's "#skylines"),
//!   controlled through inter-attribute correlation.
//!
//! The simulators draw from a shared latent-factor model: each row samples
//! its categorical values, receives a latent quality `a ~ N(μ_cats, 1)`,
//! and each numeric attribute is `sigmoid(√ρ·a + √(1−ρ)·ε)`. Higher `ρ`
//! means more correlated attributes and smaller skylines.
//!
//! [`lsac_example`] is the literal 8-applicant LSAC sample of Table 1,
//! against which the paper's Example 2.2 constants are pinned in tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fairhms_geometry::sphere::standard_normal;

use crate::dataset::Table;

/// One categorical attribute in a simulator spec.
struct CatSpec {
    name: &'static str,
    /// `(value label, proportion, latent advantage)` — proportions need not
    /// be normalized.
    values: &'static [(&'static str, f64, f64)],
}

/// Latent-factor simulator shared by all real-dataset stand-ins.
fn simulate(name: &str, n: usize, d: usize, rho: f64, cats: &[CatSpec], seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = rho.sqrt();
    let b = (1.0 - rho).sqrt();
    let mut points = Vec::with_capacity(n * d);
    let mut cat_vals: Vec<Vec<usize>> = vec![Vec::with_capacity(n); cats.len()];
    for spec in cats {
        debug_assert!(!spec.values.is_empty());
    }
    let totals: Vec<f64> = cats
        .iter()
        .map(|c| c.values.iter().map(|v| v.1).sum())
        .collect();
    for _ in 0..n {
        let mut advantage = 0.0;
        for (ci, spec) in cats.iter().enumerate() {
            let mut r = rng.gen::<f64>() * totals[ci];
            let mut chosen = spec.values.len() - 1;
            for (vi, &(_, prop, _)) in spec.values.iter().enumerate() {
                if r < prop {
                    chosen = vi;
                    break;
                }
                r -= prop;
            }
            advantage += spec.values[chosen].2;
            cat_vals[ci].push(chosen);
        }
        let latent = standard_normal(&mut rng) + advantage;
        for _ in 0..d {
            let z = a * latent + b * standard_normal(&mut rng);
            points.push(1.0 / (1.0 + (-z).exp()));
        }
    }
    Table {
        name: name.to_string(),
        dim: d,
        points,
        cats: cats
            .iter()
            .zip(cat_vals)
            .map(|(spec, vals)| {
                (
                    spec.name.to_string(),
                    vals,
                    spec.values.iter().map(|v| v.0.to_string()).collect(),
                )
            })
            .collect(),
    }
}

/// Lawschs stand-in: 65,494 law students, 2 numeric attributes (LSAT, GPA),
/// grouped by `gender` (2) or `race` (5). Correlated attributes give the
/// tiny per-group skylines of Table 2 (#sky 19 / 42).
pub fn lawschs(seed: u64) -> Table {
    simulate(
        "Lawschs",
        65_494,
        2,
        0.35,
        &[
            CatSpec {
                name: "gender",
                values: &[("male", 0.56, 0.25), ("female", 0.44, 0.0)],
            },
            CatSpec {
                name: "race",
                values: &[
                    ("white", 0.84, 0.3),
                    ("black", 0.06, 0.0),
                    ("hispanic", 0.05, 0.05),
                    ("asian", 0.03, 0.25),
                    ("other", 0.02, 0.1),
                ],
            },
        ],
        seed,
    )
}

/// Adult stand-in: 32,561 individuals, 5 numeric attributes, grouped by
/// `gender` (2), `race` (5), or both (10).
pub fn adult(seed: u64) -> Table {
    simulate(
        "Adult",
        32_561,
        5,
        0.58,
        &[
            CatSpec {
                name: "gender",
                values: &[("male", 0.67, 0.3), ("female", 0.33, 0.0)],
            },
            CatSpec {
                name: "race",
                values: &[
                    ("white", 0.855, 0.25),
                    ("black", 0.096, 0.0),
                    ("asian", 0.031, 0.3),
                    ("amind", 0.01, 0.05),
                    ("other", 0.008, 0.1),
                ],
            },
        ],
        seed,
    )
}

/// Compas stand-in: 4,743 applicants, 9 numeric attributes, grouped by
/// `gender` (2), `isRecid` (2), or both (4). `d = 9 > 7` reproduces the
/// regime where DMM exhausts memory and is omitted (paper Section 5.2).
pub fn compas(seed: u64) -> Table {
    simulate(
        "Compas",
        4_743,
        9,
        0.42,
        &[
            CatSpec {
                name: "gender",
                values: &[("male", 0.78, 0.2), ("female", 0.22, 0.0)],
            },
            CatSpec {
                name: "isRecid",
                values: &[("no", 0.66, 0.15), ("yes", 0.34, 0.0)],
            },
        ],
        seed,
    )
}

/// Credit stand-in: 1,000 German-credit rows, 7 numeric attributes, grouped
/// by `housing` (3), `job` (4), or `working_years` (5).
pub fn credit(seed: u64) -> Table {
    simulate(
        "Credit",
        1_000,
        7,
        0.38,
        &[
            CatSpec {
                name: "housing",
                values: &[("own", 0.71, 0.2), ("rent", 0.18, 0.0), ("free", 0.11, 0.1)],
            },
            CatSpec {
                name: "job",
                values: &[
                    ("skilled", 0.63, 0.15),
                    ("unskilled", 0.20, 0.0),
                    ("management", 0.15, 0.3),
                    ("unemployed", 0.02, -0.1),
                ],
            },
            CatSpec {
                name: "working_years",
                values: &[
                    ("lt1", 0.17, -0.1),
                    ("1to4", 0.34, 0.0),
                    ("4to7", 0.17, 0.1),
                    ("gt7", 0.25, 0.2),
                    ("none", 0.07, -0.2),
                ],
            },
        ],
        seed,
    )
}

/// The literal LSAC sample of Table 1: eight applicants with raw LSAT
/// (140–180) and GPA (0–4) scores plus gender and race.
///
/// With scale-only normalization this reproduces the paper's Example 2.2
/// exactly: the optimal HMS of size 2 is `{a4, a5}` with `mhr = 0.9846`,
/// while the gender-fair optimum (one male, one female) is `{a5, a8}` with
/// `mhr = 0.9834`; the size-3 HMS `{a4, a5, a7}` reaches `0.9984`.
pub fn lsac_example() -> Table {
    // rows a1..a8: (gender, race, LSAT, GPA)
    let rows: [(usize, usize, f64, f64); 8] = [
        (1, 0, 164.0, 3.31), // a1 female black
        (0, 0, 163.0, 3.55), // a2 male black
        (1, 1, 165.0, 3.09), // a3 female white
        (0, 1, 160.0, 3.83), // a4 male white
        (0, 2, 170.0, 2.79), // a5 male hispanic
        (1, 2, 161.0, 3.69), // a6 female hispanic
        (0, 3, 153.0, 3.89), // a7 male asian
        (1, 3, 156.0, 3.87), // a8 female asian
    ];
    let mut points = Vec::with_capacity(16);
    let mut gender = Vec::with_capacity(8);
    let mut race = Vec::with_capacity(8);
    for &(g, r, lsat, gpa) in &rows {
        points.push(lsat);
        points.push(gpa);
        gender.push(g);
        race.push(r);
    }
    Table {
        name: "LSAC-Table1".to_string(),
        dim: 2,
        points,
        cats: vec![
            (
                "gender".to_string(),
                gender,
                vec!["male".to_string(), "female".to_string()],
            ),
            (
                "race".to_string(),
                race,
                vec![
                    "black".to_string(),
                    "white".to_string(),
                    "hispanic".to_string(),
                    "asian".to_string(),
                ],
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline::group_skyline_indices;

    #[test]
    fn lsac_example_matches_table1() {
        let t = lsac_example();
        assert_eq!(t.len(), 8);
        assert_eq!(t.dim, 2);
        let ds = t.dataset(&["gender"]).unwrap();
        assert_eq!(ds.num_groups(), 2);
        // a5 is male (group of row 4 == group of row 1 == male)
        assert_eq!(ds.group_of(4), ds.group_of(1));
        assert_ne!(ds.group_of(4), ds.group_of(7));
        let by_both = t.dataset(&["gender", "race"]).unwrap();
        assert_eq!(by_both.num_groups(), 8);
    }

    #[test]
    fn simulators_match_published_shapes() {
        let lw = lawschs(1);
        assert_eq!(lw.len(), 65_494);
        assert_eq!(lw.dim, 2);
        let ad = adult(1);
        assert_eq!(ad.len(), 32_561);
        assert_eq!(ad.dim, 5);
        let cp = compas(1);
        assert_eq!(cp.len(), 4_743);
        assert_eq!(cp.dim, 9);
        let cr = credit(1);
        assert_eq!(cr.len(), 1_000);
        assert_eq!(cr.dim, 7);
    }

    #[test]
    fn group_counts_match_table2() {
        assert_eq!(lawschs(1).dataset(&["gender"]).unwrap().num_groups(), 2);
        assert_eq!(lawschs(1).dataset(&["race"]).unwrap().num_groups(), 5);
        assert_eq!(
            adult(1).dataset(&["gender", "race"]).unwrap().num_groups(),
            10
        );
        assert_eq!(
            compas(1)
                .dataset(&["gender", "isRecid"])
                .unwrap()
                .num_groups(),
            4
        );
        assert_eq!(
            credit(1).dataset(&["working_years"]).unwrap().num_groups(),
            5
        );
    }

    #[test]
    fn lawschs_skyline_scale_close_to_table2() {
        let mut ds = lawschs(1).dataset(&["gender"]).unwrap();
        ds.normalize();
        let sky = group_skyline_indices(&ds);
        // Table 2 reports 19; accept the right order of magnitude.
        assert!(
            (8..=80).contains(&sky.len()),
            "lawschs gender #skylines = {}",
            sky.len()
        );
    }

    #[test]
    fn credit_skyline_scale_close_to_table2() {
        let mut ds = credit(1).dataset(&["job"]).unwrap();
        ds.normalize();
        let sky = group_skyline_indices(&ds);
        // Table 2 reports 126.
        assert!(
            (50..=320).contains(&sky.len()),
            "credit job #skylines = {}",
            sky.len()
        );
    }

    #[test]
    fn advantaged_groups_dominate_skylines() {
        // The male group should hold a disproportionate share of the global
        // skyline — the effect Figure 3 relies on.
        let mut ds = adult(1).dataset(&["gender"]).unwrap();
        ds.normalize();
        let sky = crate::skyline::skyline_of(ds.points_flat(), ds.dim());
        let male = ds.group_names().iter().position(|s| s == "male").unwrap();
        let male_share =
            sky.iter().filter(|&&i| ds.group_of(i) == male).count() as f64 / sky.len() as f64;
        assert!(
            male_share > 0.7,
            "advantaged group share of skyline = {male_share}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(credit(7).points, credit(7).points);
        assert_ne!(credit(7).points, credit(8).points);
    }
}
