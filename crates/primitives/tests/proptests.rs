//! Property-based tests for the distributed primitives: every subroutine's
//! output invariant, over randomized graph families and seeds.

use graphgen::generators::{
    EasyCliqueParams, HardCliqueParams, LoopholeKind, MixedParams, SparseDenseParams,
};
use graphgen::{generators, Color, Graph};
use primitives::{linial, list_coloring, matching, mis, ruling, split};
use proptest::prelude::*;

/// A pool of graph families parameterized by (family, size, seed).
fn graph_from(family: u8, size: usize, seed: u64) -> Graph {
    match family % 6 {
        0 => generators::cycle(size.max(3)),
        1 => generators::random_regular(size.max(8) / 2 * 2, 4, seed),
        2 => generators::gnp(size.max(4), 0.15, seed),
        3 => generators::random_tree(size.max(2), seed),
        4 => generators::hypercube(3 + (size % 3)),
        _ => generators::complete(4 + size % 6),
    }
}

/// Every graphgen family, parameterized by (family, size, seed).
fn any_family(family: u8, size: usize, seed: u64) -> Graph {
    let hard = HardCliqueParams {
        cliques: 26 + 2 * (size % 6),
        delta: 12,
        external_per_vertex: 1,
        seed,
    };
    match family % 15 {
        0 => generators::path(size.max(2)),
        1 => generators::cycle(size.max(3)),
        2 => generators::complete(2 + size % 12),
        3 => generators::complete_bipartite(1 + size % 7, 1 + size % 11),
        4 => generators::star(1 + size % 20),
        5 => generators::hypercube(1 + size % 6),
        6 => generators::clique_ring(3 + size % 5, 4 + 2 * (size % 4)),
        7 => generators::isolated_cliques(1 + size % 5, 1 + size % 9),
        8 => generators::random_tree(size.max(2), seed),
        9 => generators::gnp(size.max(4), 0.15, seed),
        10 => generators::random_regular(size.max(8) / 2 * 2, 4, seed),
        11 => generators::hard_cliques(&hard).unwrap().graph,
        12 => {
            generators::easy_cliques(&EasyCliqueParams {
                base: hard,
                easy: 3,
                kind: if seed.is_multiple_of(2) {
                    LoopholeKind::LowDegree
                } else {
                    LoopholeKind::FourCycle
                },
            })
            .unwrap()
            .graph
        }
        13 => {
            generators::mixed_dense(&MixedParams {
                base: hard,
                easy_low_degree: 2,
                easy_four_cycle: 2,
            })
            .unwrap()
            .graph
        }
        _ => {
            generators::sparse_dense_mix(&SparseDenseParams {
                cliques: 26,
                delta: 12,
                sparse: 40 + 2 * size,
                cross: 6,
                seed,
            })
            .unwrap()
            .graph
        }
    }
}

/// Sparse, large, distinct `u64` ids: `v ↦ (v ⊕ k) · φ` is a bijection
/// of `u64` for odd `φ`.
fn sparse_uids(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|v| (v ^ seed.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// The helper's fixed schedule, derived independently: Linial's rounds,
/// then `min(space, 2q) − Δ − 1` rounds for Linial's color space and the
/// smallest prime `q ≥ 2Δ + 1` with `q² ≥ space`.
fn helper_schedule(g: &Graph, uids: Option<Vec<u64>>) -> u64 {
    let linial = linial::linial_coloring(g, uids).unwrap();
    let (space, delta) = (linial.value.1, g.max_degree() as u64);
    if space <= delta + 1 {
        return linial.rounds;
    }
    let is_prime = |x: u64| {
        (2..)
            .take_while(|d| d * d <= x)
            .all(|d| !x.is_multiple_of(d))
    };
    let q = (2 * delta + 1..)
        .find(|&q| is_prime(q) && u128::from(q) * u128::from(q) >= u128::from(space))
        .unwrap();
    linial.rounds + space.min(2 * q) - delta - 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On every family, with default and with sparse large ids, the
    /// helper's coloring is proper with at most Δ+1 colors, and its rounds
    /// are the fixed schedule length.
    #[test]
    fn delta_plus_one_on_every_family(size in 8usize..60, seed in 0u64..100) {
        for family in 0..15 {
            let g = any_family(family, size, seed);
            for uids in [None, Some(sparse_uids(g.n(), seed))] {
                let out = linial::delta_plus_one_coloring(&g, uids.clone()).unwrap();
                out.value.check_complete(&g, g.max_degree() as u32 + 1).unwrap();
                prop_assert_eq!(out.rounds, helper_schedule(&g, uids));
            }
        }
    }

    /// (deg+1)-list coloring respects arbitrary (feasible) palettes.
    #[test]
    fn list_coloring_respects_palettes(
        family in 0u8..6, size in 8usize..40, seed in 0u64..100, shift in 0u32..50
    ) {
        let g = graph_from(family, size, seed);
        let palettes: Vec<Vec<Color>> = g
            .vertices()
            .map(|v| (0..=g.degree(v) as u32).map(|c| Color(c + shift)).collect())
            .collect();
        let out = list_coloring::deg_plus_one_list_color(&g, &palettes, None).unwrap();
        for v in g.vertices() {
            let c = out.value.get(v).unwrap();
            prop_assert!(palettes[v.index()].contains(&c));
            for &w in g.neighbors(v) {
                prop_assert_ne!(Some(c), out.value.get(w));
            }
        }
    }

    /// Both MIS algorithms produce maximal independent sets.
    #[test]
    fn mis_always_valid(family in 0u8..6, size in 8usize..60, seed in 0u64..100) {
        let g = graph_from(family, size, seed);
        let det = mis::mis_deterministic(&g, None).unwrap();
        prop_assert!(mis::is_mis(&g, &det.value));
        let rnd = mis::mis_luby(&g, seed).unwrap();
        prop_assert!(mis::is_mis(&g, &rnd.value));
    }

    /// Both matchings are maximal matchings.
    #[test]
    fn matchings_always_maximal(family in 0u8..6, size in 8usize..60, seed in 0u64..100) {
        let g = graph_from(family, size, seed);
        let det = matching::maximal_matching_det_direct(&g).unwrap();
        prop_assert!(det.value.is_maximal(&g));
        let rnd = matching::maximal_matching_rand(&g, seed).unwrap();
        prop_assert!(rnd.value.is_maximal(&g));
    }

    /// Ruling sets satisfy independence and domination for r in 1..=3.
    #[test]
    fn ruling_sets_valid(family in 0u8..6, size in 8usize..50, seed in 0u64..100, r in 1usize..4) {
        let g = graph_from(family, size, seed);
        prop_assume!(g.n() > 0);
        let out = ruling::ruling_set(&g, r, ruling::RulingStyle::Deterministic).unwrap();
        prop_assert!(ruling::is_ruling_set(&g, &out.value, r));
    }

    /// Degree splitting: every part is a subset partition of the edges and
    /// the per-vertex discrepancy stays below the even-segment guarantee.
    #[test]
    fn split_discrepancy_bounded(family in 0u8..6, size in 8usize..60, seed in 0u64..100) {
        let g = graph_from(family, size, seed);
        let out = split::degree_split(&g, 8).unwrap();
        prop_assert_eq!(out.value.part.len(), g.m());
        let disc = out.value.discrepancies(&g);
        for v in g.vertices() {
            // 1 for a possible walk endpoint + 2 per odd-cycle defect;
            // defects at one vertex are at most deg/2 walk passes.
            let bound = 1 + g.degree(v) as i64;
            prop_assert!(disc[v.index()] <= bound,
                "vertex {} discrepancy {} above {}", v, disc[v.index()], bound);
        }
    }

    /// 4-way splitting partitions the edge set exactly.
    #[test]
    fn four_way_split_partitions(family in 0u8..4, size in 8usize..40, seed in 0u64..50) {
        let g = graph_from(family, size, seed);
        let out = split::split_into_parts(&g, 2, 8).unwrap();
        prop_assert_eq!(out.value.len(), g.m());
        prop_assert!(out.value.iter().all(|&p| p < 4));
    }

    /// Linial's stage alone yields a proper coloring with a small palette.
    #[test]
    fn linial_stage_proper(family in 0u8..6, size in 8usize..60, seed in 0u64..100) {
        let g = graph_from(family, size, seed);
        prop_assume!(g.max_degree() >= 1);
        let out = linial::linial_coloring(&g, None).unwrap();
        let (colors, space) = out.value;
        for (u, v) in g.edges() {
            prop_assert_ne!(colors[u.index()], colors[v.index()]);
        }
        prop_assert!(colors.iter().all(|&c| c < space));
        // O(Δ²)-ish palette.
        let d = g.max_degree() as u64;
        prop_assert!(space <= (4 * d + 12).pow(2), "space {} for Δ {}", space, d);
    }
}
