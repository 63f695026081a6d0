//! Dataset variants used across the paper's figures.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms_core::types::FairHmsInstance;
use fairhms_data::gen::anti_correlated_dataset;
use fairhms_data::realsim;
use fairhms_data::Dataset;
use fairhms_service::{PreparedDataset, Query};

/// Default seed shared by every harness binary for reproducibility.
pub const SEED: u64 = 1;

/// A named dataset in the serving engine's prepared form: normalized,
/// with its group-skyline union, ready for instances.
pub struct Workload {
    /// The prepared dataset; its name is the label used in the paper's
    /// figure captions.
    pub prep: Arc<PreparedDataset>,
}

impl Workload {
    fn new(name: &str, data: Dataset) -> Workload {
        Workload {
            prep: Arc::new(PreparedDataset::prepare(name, data).expect("workloads are nonempty")),
        }
    }

    /// Label as used in the paper's figure captions.
    pub fn name(&self) -> &str {
        &self.prep.name
    }

    /// Skyline-union input (what the algorithms actually consume), shared
    /// so every instance built over a workload reuses one allocation.
    pub fn input(&self) -> &Arc<Dataset> {
        &self.prep.skyline_data
    }
}

/// Lawschs grouped by one attribute (`"gender"` or `"race"`).
pub fn lawschs(attr: &str) -> Workload {
    let t = realsim::lawschs(SEED);
    Workload::new(
        &format!("Lawschs ({attr})"),
        t.dataset(&[attr]).expect("known attribute"),
    )
}

/// Adult grouped by the given attributes (e.g. `["gender", "race"]`).
pub fn adult(attrs: &[&str]) -> Workload {
    let t = realsim::adult(SEED);
    Workload::new(
        &format!("Adult ({})", attrs.join("+")),
        t.dataset(attrs).expect("known attributes"),
    )
}

/// Compas grouped by the given attributes.
pub fn compas(attrs: &[&str]) -> Workload {
    let t = realsim::compas(SEED);
    Workload::new(
        &format!("Compas ({})", attrs.join("+")),
        t.dataset(attrs).expect("known attributes"),
    )
}

/// Credit grouped by one attribute.
pub fn credit(attr: &str) -> Workload {
    let t = realsim::credit(SEED);
    Workload::new(
        &format!("Credit ({attr})"),
        t.dataset(&[attr]).expect("known attribute"),
    )
}

/// Anti-correlated synthetic data (Börzsönyi generator + sum-quantile
/// groups), the paper's scalability workload.
pub fn anticor(n: usize, d: usize, c: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(SEED);
    let data = anti_correlated_dataset(n, d, c, &mut rng);
    Workload::new(&format!("AntiCor_{d}D (n={n}, C={c})"), data)
}

/// The paper's proportional-representation instance (α = 0.1, Section 5.1)
/// on a workload.
pub fn proportional_instance(w: &Workload, k: usize, alpha: f64) -> FairHmsInstance {
    let mut q = Query::new(w.name(), k);
    q.alpha = alpha;
    w.prep
        .instance(&q)
        .expect("proportional bounds are repaired to feasibility")
        .1
}

/// The ten multi-dimensional dataset variants of Figures 5, 6, 8–11.
pub fn md_suite(anticor_n: usize) -> Vec<Workload> {
    vec![
        adult(&["gender"]),
        adult(&["race"]),
        adult(&["gender", "race"]),
        anticor(anticor_n, 6, 3),
        compas(&["gender"]),
        compas(&["isRecid"]),
        compas(&["gender", "isRecid"]),
        credit("job"),
        credit("housing"),
        credit("working_years"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_normalized_and_restricted() {
        let w = credit("job");
        assert!(
            w.input().len() < w.prep.dataset.len(),
            "skyline restriction applied"
        );
        for j in 0..w.input().dim() {
            let maxj = (0..w.input().len())
                .map(|i| w.input().point(i)[j])
                .fold(0.0_f64, f64::max);
            assert!(maxj <= 1.0 + 1e-12, "attribute {j} exceeds 1");
        }
    }

    #[test]
    fn proportional_instances_are_valid() {
        for w in [credit("housing"), compas(&["gender"]), anticor(500, 4, 3)] {
            let inst = proportional_instance(&w, 10, 0.1);
            assert_eq!(inst.k(), 10);
            // a feasible completion must exist from scratch
            let sel = inst.complete_to_feasible(&[]).unwrap();
            assert!(inst.matroid().is_feasible(&sel));
        }
    }

    #[test]
    fn md_suite_covers_all_ten_panels() {
        let suite = md_suite(500);
        assert_eq!(suite.len(), 10);
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        assert!(names.iter().any(|n| n.contains("Adult (gender+race)")));
        assert!(names.iter().any(|n| n.contains("AntiCor_6D")));
        assert!(names.iter().any(|n| n.contains("Compas (gender+isRecid)")));
        assert!(names.iter().any(|n| n.contains("Credit (working_years)")));
    }

    #[test]
    fn workloads_deterministic() {
        let a = lawschs("gender");
        let b = lawschs("gender");
        assert_eq!(a.input().len(), b.input().len());
        assert_eq!(a.input().points_flat(), b.input().points_flat());
    }
}
