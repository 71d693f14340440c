//! Property-based tests for hyperedge grabbing.

use hypergraph::generators::random_hypergraph;
use hypergraph::{
    heg_augmenting, heg_sequential, heg_token_walk, sinkless_orientation, verify_heg, Hypergraph,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random instances with expansion > 1 every solver succeeds and
    /// verifies.
    #[test]
    fn solvers_succeed_with_expansion(
        n in 20usize..300, d in 3usize..9, r_gap in 1usize..3, seed in 0u64..100
    ) {
        let r = d - r_gap;
        prop_assume!(r >= 1);
        let h = random_hypergraph(n, d, r, seed).unwrap();
        let s = heg_sequential(&h).unwrap();
        prop_assert!(verify_heg(&h, &s));
        let a = heg_augmenting(&h).unwrap();
        prop_assert!(verify_heg(&h, &a.value));
        let t = heg_token_walk(&h, seed).unwrap();
        prop_assert!(verify_heg(&h, &t.value));
    }

    /// The augmenting solver agrees on feasibility with the sequential oracle on
    /// arbitrary tiny hypergraphs (feasible or not).
    #[test]
    fn feasibility_agreement(
        n in 2usize..8,
        edges in proptest::collection::vec(
            proptest::collection::btree_set(0u32..8, 1..4), 1..12
        )
    ) {
        let edges: Vec<Vec<u32>> = edges
            .into_iter()
            .map(|e| e.into_iter().filter(|&v| (v as usize) < n).collect::<Vec<_>>())
            .filter(|e: &Vec<u32>| !e.is_empty())
            .collect();
        prop_assume!(!edges.is_empty());
        // Every vertex must be covered for the HEG question to make sense.
        let mut covered = vec![false; n];
        for e in &edges {
            for &v in e {
                covered[v as usize] = true;
            }
        }
        prop_assume!(covered.iter().all(|&c| c));
        let h = Hypergraph::new(n, edges).unwrap();
        let oracle_feasible = heg_sequential(&h).is_ok();
        let aug = heg_augmenting(&h);
        prop_assert_eq!(aug.is_ok(), oracle_feasible);
        if let Ok(t) = aug {
            prop_assert!(verify_heg(&h, &t.value));
        }
    }

    /// Sinkless orientation on graphs with min degree ≥ 3 never leaves a
    /// sink, with either solver.
    #[test]
    fn sinkless_no_sinks(n_half in 10usize..60, d in 3usize..6, seed in 0u64..50) {
        let g = graphgen::generators::random_regular(2 * n_half, d, seed);
        for s in [None, Some(seed)] {
            let out = sinkless_orientation(&g, s).unwrap();
            prop_assert!(out.value.out_degrees(g.n()).iter().all(|&x| x >= 1));
        }
    }

    /// A grabbed solution perturbed to grab the same edge twice is rejected.
    #[test]
    fn verifier_catches_double_grab(n in 20usize..100, seed in 0u64..50) {
        let h = random_hypergraph(n, 6, 4, seed).unwrap();
        let mut grab = heg_sequential(&h).unwrap();
        prop_assert!(verify_heg(&h, &grab));
        // Corrupt: point vertex 1 at vertex 0's edge (if incident).
        grab[1] = grab[0];
        prop_assert!(!verify_heg(&h, &grab));
    }
}
