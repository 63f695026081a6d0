//! Property tests: the fairness matroid satisfies the matroid axioms for
//! arbitrary valid bounds, and its helpers are mutually consistent.

use proptest::prelude::*;

use fairhms_matroid::{verify_axioms, FairnessMatroid, Matroid};

/// Random ground set of ≤ 8 elements over ≤ 3 groups with valid bounds.
fn instance_strategy() -> impl Strategy<Value = (Vec<usize>, Vec<usize>, Vec<usize>, usize)> {
    (2usize..=8, 1usize..=3).prop_flat_map(|(n, c)| {
        (
            prop::collection::vec(0..c, n),
            prop::collection::vec(0usize..=2, c),
            Just(c),
            1usize..=5,
        )
            .prop_map(move |(groups, raw_lower, c, k)| {
                // make bounds valid for these groups
                let mut sizes = vec![0usize; c];
                for &g in &groups {
                    sizes[g] += 1;
                }
                let lower: Vec<usize> = raw_lower
                    .iter()
                    .zip(&sizes)
                    .map(|(&l, &s)| l.min(s))
                    .collect();
                let mut k = k.max(lower.iter().sum());
                let upper: Vec<usize> = lower
                    .iter()
                    .zip(&sizes)
                    .map(|(&l, &s)| (l + 2).min(s).max(l))
                    .collect();
                let attainable: usize = upper.iter().zip(&sizes).map(|(&h, &s)| h.min(s)).sum();
                k = k.min(attainable.max(1));
                (groups, lower, upper, k)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fairness_matroid_axioms((groups, lower, upper, k) in instance_strategy()) {
        if let Ok(m) = FairnessMatroid::new(groups, lower, upper, k) {
            prop_assert!(verify_axioms(&m).is_ok(), "{:?}", verify_axioms(&m));
        }
    }

    #[test]
    fn feasible_sets_are_independent((groups, lower, upper, k) in instance_strategy()) {
        let Ok(m) = FairnessMatroid::new(groups.clone(), lower, upper, k) else { return Ok(()); };
        let n = groups.len();
        // every subset: feasible ⟹ independent (paper Section 2)
        for mask in 0u32..(1 << n) {
            let items: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            if m.is_feasible(&items) {
                prop_assert!(m.is_independent(&items));
                prop_assert_eq!(m.violations(&items), 0);
            }
        }
    }

    #[test]
    fn independent_sets_extend_to_feasible((groups, lower, upper, k) in instance_strategy()) {
        // Halabi et al.: every independent set has a feasible superset.
        let Ok(m) = FairnessMatroid::new(groups.clone(), lower, upper, k) else { return Ok(()); };
        let n = groups.len();
        for mask in 0u32..(1 << n) {
            let items: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            if !m.is_independent(&items) {
                continue;
            }
            // greedily grow to size k if possible
            let mut grown = items.clone();
            loop {
                if m.is_feasible(&grown) {
                    break;
                }
                let next = (0..n).find(|&i| !grown.contains(&i) && m.can_extend(&grown, i));
                match next {
                    Some(i) => grown.push(i),
                    None => break,
                }
            }
            prop_assert!(
                m.is_feasible(&grown),
                "independent set {:?} could not grow to feasible (got {:?})",
                items,
                grown
            );
        }
    }

    #[test]
    fn group_can_extend_matches_can_extend((groups, lower, upper, k) in instance_strategy()) {
        // BiGreedy's probe replay compares two matroids through their
        // bounds alone; that is exact only if the bounds and a set's
        // per-group counts decide `can_extend` for every set and element.
        let Ok(m) = FairnessMatroid::new(groups.clone(), lower, upper, k) else { return Ok(()); };
        let bounds = m.bounds();
        let n = groups.len();
        for mask in 0u32..(1 << n) {
            let items: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            let counts = m.counts(&items);
            for x in 0..n {
                prop_assert_eq!(
                    m.can_extend(&items, x),
                    bounds.group_can_extend(&counts, m.group_of(x)),
                    "set {:?} element {}", items, x
                );
            }
        }
    }

    #[test]
    fn uniform_and_partition_axioms(n in 2usize..=7, k in 0usize..=4, caps in prop::collection::vec(0usize..=2, 1..=3)) {
        // One group with l = 0, h = k is the uniform matroid U_{k,n}.
        let k = k.min(n);
        let uniform = FairnessMatroid::new(vec![0; n], vec![0], vec![k], k).unwrap();
        verify_axioms(&uniform).unwrap();
        // l = 0 with k = Σ_c min(h_c, |D_c|) is the partition matroid with
        // capacities h.
        let c = caps.len();
        let groups: Vec<usize> = (0..n).map(|i| i % c).collect();
        let mut sizes = vec![0usize; c];
        for &g in &groups {
            sizes[g] += 1;
        }
        let budget = caps.iter().zip(&sizes).map(|(&h, &s)| h.min(s)).sum();
        let partition = FairnessMatroid::new(groups.clone(), vec![0; c], caps.clone(), budget).unwrap();
        verify_axioms(&partition).unwrap();
        for mask in 0u32..(1 << n) {
            let items: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            prop_assert_eq!(uniform.is_independent(&items), items.len() <= k);
            let counts = partition.counts(&items);
            let within_caps = counts.iter().zip(&caps).all(|(&cnt, &h)| cnt <= h);
            prop_assert_eq!(partition.is_independent(&items), within_caps);
        }
    }
}
