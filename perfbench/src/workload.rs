//! The workloads: generated inputs and request streams, all derived
//! from the workload seed so that one seed always yields one set of inputs.

use std::path::Path;

use fairhms_data::{csv, gen, Dataset};
use fairhms_service::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attribute count of every generated dataset.
pub const DIM: usize = 4;
/// Group count of every generated dataset.
pub const GROUPS: usize = 3;
/// Catalog name the workload dataset is loaded under.
pub const DATASET: &str = "main";
/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 2;
/// Closed-loop load connections (and client threads) per workload.
pub const CONNS: usize = 2;
/// Cold's query phase of the first phase of the timed window (set-ups
/// use the phases below it).
pub const WINDOW_PHASE: u64 = 16;
/// Churn writer pacing: one mutation every this many milliseconds.
pub const WRITE_PERIOD_MS: u64 = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Churn,
}

pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
}

impl Workload {
    pub fn parse(name: &str, seed: u64) -> Option<Workload> {
        let kind = match name {
            "cold" => Kind::Cold,
            "churn" => Kind::Churn,
            _ => return None,
        };
        Some(Workload { kind, seed })
    }

    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::Cold => "cold",
            Kind::Churn => "churn",
        }
    }

    /// Rows of the workload dataset.
    pub fn n(&self) -> usize {
        match self.kind {
            Kind::Cold => 20_000,
            Kind::Churn => 200_000,
        }
    }

    /// A deterministic sub-seed for one purpose (`tag`) of this run.
    pub fn sub_seed(&self, tag: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(tag.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) >> 12 // small enough to read well in logs
    }

    /// Writes the workload dataset and a 64-row boot dataset (the server
    /// needs one `--data` file to start) as CSV.
    pub fn write_inputs(&self, main: &Path, boot: &Path) -> std::io::Result<()> {
        let mut rng = StdRng::seed_from_u64(self.sub_seed(1));
        csv::write_dataset(
            main,
            &gen::anti_correlated_dataset(self.n(), DIM, GROUPS, &mut rng),
        )?;
        csv::write_dataset(
            boot,
            &gen::anti_correlated_dataset(64, DIM, GROUPS, &mut rng),
        )
    }

    fn query(&self, k: usize, alg: &str, alpha: f64, balanced: bool, seed: u64) -> Query {
        Query {
            dataset: DATASET.into(),
            k,
            alg: alg.into(),
            alpha,
            balanced,
            seed,
            skyline: true,
        }
    }

    /// The pre-warmed query pool: every timed read on churn is an exact
    /// repeat of one of these. Empty on cold.
    pub fn pool(&self) -> Vec<Query> {
        let seed = self.sub_seed(2);
        match self.kind {
            Kind::Churn => (5..=8)
                .rev()
                .map(|k| self.query(k, "f-greedy", 0.1, false, seed))
                .collect(),
            Kind::Cold => Vec::new(),
        }
    }

    /// Cold's request `i` on connection `conn` within phase `phase`
    /// (`1 + r` is the warm-up of set-up `r`, [`WINDOW_PHASE`]` + p` phase
    /// `p` of the timed window): even `i` is a
    /// fresh seed that misses both cache tiers, odd `i` the near-miss that
    /// keeps that seed and sets α = 0.2.
    pub fn cold_query(&self, conn: usize, phase: u64, i: u64) -> Query {
        let seed = self.sub_seed(0xC0_0000 ^ ((phase << 32) | ((conn as u64) << 24) | (i / 2)));
        let alpha = if i.is_multiple_of(2) { 0.1 } else { 0.2 };
        self.query(10, "bigreedy", alpha, false, seed)
    }

    /// The BiGreedy problem the traced run times phase by phase: k = 10 on
    /// the workload dataset, with a seed no other request uses.
    pub fn probe_query(&self, skyline: bool) -> Query {
        Query {
            skyline,
            ..self.query(10, "bigreedy", 0.1, false, self.sub_seed(3))
        }
    }

    /// Request picker for one closed-loop reader: uniform over the pool.
    pub fn picker(&self, conn: usize) -> Picker {
        Picker {
            n: self.pool().len(),
            rng: StdRng::seed_from_u64(self.sub_seed(5 + conn as u64)),
        }
    }

    /// The `i`-th mutation pair's row: half of a seeded existing row, so
    /// it is dominated inside that row's group and leaves every skyline
    /// (and so every skyline-form answer) unchanged. `data` is the dataset
    /// as the server parsed it, so group ids match the server's.
    pub fn dominated_row(&self, data: &Dataset, i: u64) -> (Vec<f64>, usize) {
        let mut rng = StdRng::seed_from_u64(self.sub_seed(0xD0_0000 ^ i));
        let r = rng.gen_range(0..data.len());
        (
            data.point(r).iter().map(|v| v * 0.5).collect(),
            data.group_of(r),
        )
    }

    /// The wire lines of mutation pair `i`: an `APPEND` of
    /// [`Workload::dominated_row`] and the `DELETE` of that new last row.
    pub fn mutation_lines(&self, data: &Dataset, i: u64) -> [String; 2] {
        let (row, group) = self.dominated_row(data, i);
        let csv: Vec<String> = row.iter().map(f64::to_string).collect();
        [
            format!("APPEND name={DATASET} row={} group={group}", csv.join(",")),
            format!("DELETE name={DATASET} row={}", data.len()),
        ]
    }
}

/// Seeded sampler of pool indices.
pub struct Picker {
    n: usize,
    rng: StdRng,
}

impl Picker {
    pub fn next_index(&mut self) -> usize {
        self.rng.gen_range(0..self.n)
    }
}
