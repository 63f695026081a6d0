//! The canonical [`Query`] type and its cache fingerprint.

/// One FairHMS request against a cataloged dataset.
///
/// Two queries that differ only in field spelling (algorithm case) solve
/// the same instance; [`Query::canonicalized`] normalizes those before
/// fingerprinting so they share a cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Catalog key of the target dataset.
    pub dataset: String,
    /// Solution size.
    pub k: usize,
    /// Algorithm name, resolved via [`fairhms_core::registry::by_name`].
    pub alg: String,
    /// Slack parameter for the derived per-group bounds.
    pub alpha: f64,
    /// `true` → balanced bounds, `false` → proportional bounds (the
    /// paper's two policies, see `fairhms_matroid`).
    pub balanced: bool,
    /// RNG seed for sampling-based algorithms; fixed seed + fixed query →
    /// bit-identical answer, which is what makes caching sound.
    pub seed: u64,
    /// Solve on the union of per-group skylines (lossless; on by default).
    pub skyline: bool,
}

impl Query {
    /// A query with the evaluation defaults: `BiGreedy`, `α = 0.1`,
    /// proportional bounds, seed 42, skyline restriction on.
    pub fn new(dataset: impl Into<String>, k: usize) -> Self {
        Self {
            dataset: dataset.into(),
            k,
            alg: "bigreedy".to_string(),
            alpha: 0.1,
            balanced: false,
            seed: 42,
            skyline: true,
        }
    }

    /// The same query with all free-form fields normalized: the algorithm
    /// is resolved to its registry key (so `"BiGreedy+"`
    /// and `"bigreedyplus"` fingerprint identically); unknown names are
    /// lowercased and left for [`fairhms_core::registry::by_name`] to
    /// reject with a typed error at solve time.
    pub fn canonicalized(&self) -> Query {
        let mut q = self.clone();
        q.alg = match fairhms_core::registry::by_name(&q.alg) {
            Ok(alg) => alg.key.to_string(),
            Err(_) => q.alg.to_ascii_lowercase(),
        };
        q
    }

    /// A 64-bit FNV-1a fingerprint of the canonical query, folded with
    /// the dataset's registration epoch and the mutation generation of
    /// the form this query solves on (`sky_generation` when `skyline`,
    /// `full_generation` otherwise — see `PreparedDataset::generation`):
    /// the solution-cache key. Field values are length-prefixed so
    /// adjacent fields cannot alias (`("ab", "c")` vs `("a", "bc")`).
    ///
    /// Replacing a catalog entry under the same name bumps the epoch, so
    /// every answer cached against the old data re-keys. A mutation bumps
    /// the full form's generation, and the skyline form's only when the
    /// group-skyline union changed (membership or row ids), so cached
    /// answers whose form the mutation did not disturb keep
    /// fingerprinting (and verifying) identically and survive as hits;
    /// disturbed forms re-key and the stale entries age out or are swept
    /// by the engine's delta invalidation.
    ///
    /// The fingerprint is a fast router, not an identity proof: the cache
    /// stores the canonical query alongside each answer and verifies
    /// equality on every hit, so an (engineered) FNV collision degrades
    /// to a cache miss, never to serving the wrong answer.
    ///
    /// Hashes `self` as-is — the caller must already hold the canonical
    /// form (see [`Query::canonicalized`]); the engine's hot path calls
    /// this once per request and must not re-clone the query.
    pub fn fingerprint_keyed(&self, epoch: u64, generation: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(epoch);
        h.write_u64(generation);
        h.write_str(&self.dataset);
        h.write_u64(self.k as u64);
        h.write_str(&self.alg);
        h.write_u64(self.alpha.to_bits());
        h.write_u64(self.balanced as u64);
        h.write_u64(self.seed);
        h.write_u64(self.skyline as u64);
        h.finish()
    }
}

/// Accepts a fairness slack `α` the paper's bounds are defined for: a
/// finite number `≥ 0` (`α = 0` is exact proportionality). `QUERY` and the
/// CLI `solve` both check through here, so they reject the same values.
pub fn check_alpha(alpha: f64) -> Result<f64, String> {
    if alpha.is_finite() && alpha >= 0.0 {
        Ok(alpha)
    } else {
        Err(format!("alpha: expected a finite number >= 0, got {alpha}"))
    }
}

/// Minimal FNV-1a, kept in-tree so fingerprints are stable across runs and
/// platforms (std's `DefaultHasher` stream is not a documented guarantee).
struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    fn new() -> Self {
        Self {
            state: 0xcbf29ce484222325,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x100000001b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache key of `q` at epoch 0 and generation 0.
    fn fp(q: &Query) -> u64 {
        q.canonicalized().fingerprint_keyed(0, 0)
    }

    #[test]
    fn fingerprint_ignores_algorithm_case() {
        let mut a = Query::new("adult", 8);
        let mut b = a.clone();
        a.alg = "BiGreedy".into();
        b.alg = "bigreedy".into();
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn fingerprint_unifies_algorithm_aliases() {
        for (x, y) in [
            ("bigreedy+", "BiGreedyPlus"),
            ("f-greedy", "FGreedy"),
            ("greedy", "RDP-Greedy"),
            ("g-dmm", "GDMM"),
        ] {
            let mut a = Query::new("adult", 8);
            let mut b = a.clone();
            a.alg = x.into();
            b.alg = y.into();
            assert_eq!(fp(&a), fp(&b), "{x} vs {y}");
        }
        // distinct algorithms still fingerprint apart
        let mut a = Query::new("adult", 8);
        let mut b = a.clone();
        a.alg = "bigreedy".into();
        b.alg = "bigreedy+".into();
        assert_ne!(fp(&a), fp(&b));
    }

    #[test]
    fn fingerprint_separates_every_field() {
        let base = Query::new("adult", 8);
        let variants = [
            Query {
                dataset: "compas".into(),
                ..base.clone()
            },
            Query {
                k: 9,
                ..base.clone()
            },
            Query {
                alg: "f-greedy".into(),
                ..base.clone()
            },
            Query {
                alpha: 0.2,
                ..base.clone()
            },
            Query {
                balanced: true,
                ..base.clone()
            },
            Query {
                seed: 43,
                ..base.clone()
            },
            Query {
                skyline: false,
                ..base.clone()
            },
        ];
        let f0 = fp(&base);
        let mut seen = vec![f0];
        for v in variants {
            let f = fp(&v);
            assert!(!seen.contains(&f), "collision for {v:?}");
            seen.push(f);
        }
    }

    #[test]
    fn fingerprint_resists_field_aliasing() {
        // Length-prefixing keeps (dataset="ab", alg-prefix) from aliasing
        // (dataset="a", ...): adjacent strings cannot shift into each other.
        let mut a = Query::new("ab", 1);
        a.alg = "x".into();
        let mut b = Query::new("a", 1);
        b.alg = "bx".into();
        assert_ne!(fp(&a), fp(&b));
    }
}
