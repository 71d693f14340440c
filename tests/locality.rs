//! Locality checks for charged steps.
//!
//! A step charged `r` rounds may let each vertex's output depend only on
//! the ids and edges within distance `r` of it. The harness checks that
//! claim directly: pick a vertex `v`, apply degree-preserving double-edge
//! swaps (`u1w1, u2w2 → u1w2, u2w1`) to edges whose endpoints all lie
//! farther than `r + 1` from `v` — which keeps `n`, `Δ`, every degree and
//! every id — and assert that the step's output at `v` is unchanged. The
//! same holds at every vertex farther than `r + 1` from all swapped
//! endpoints, so those are checked too. The graph families have a
//! diameter well above `r`, so the swaps reach most of the graph.

use std::collections::{HashSet, VecDeque};

use delta_coloring::graphs::generators;
use delta_coloring::graphs::{Graph, NodeId};
use delta_coloring::subroutines::linial::{delta_plus_one_coloring, delta_plus_one_rounds};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `g` with its vertices relabelled by a seeded random permutation, so
/// the ids near a vertex carry no pattern for the helper to exploit.
fn shuffled(g: &Graph, seed: u64) -> Graph {
    let mut label: Vec<u32> = (0..g.n() as u32).collect();
    let mut state = seed;
    for i in (1..label.len()).rev() {
        label.swap(i, splitmix(&mut state) as usize % (i + 1));
    }
    let edges = g.edges().map(|(a, b)| (label[a.index()], label[b.index()]));
    Graph::from_edges(g.n(), edges).expect("a relabelling keeps the graph simple")
}

/// Distance from each vertex to the nearest of `sources`.
fn distances(g: &Graph, sources: &[NodeId]) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    for &s in sources {
        dist[s.index()] = 0;
    }
    let mut queue: VecDeque<NodeId> = sources.iter().copied().collect();
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dist[u.index()] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// `g` after up to `swaps` random double-edge swaps among edges with both
/// endpoints farther than `r + 1` from `v`; returns the graph and the
/// endpoints of the swapped edges. The swaps stay within distance
/// `3(r + 1)` of `v`, so vertices on both sides of them are checked.
fn swap_far_edges(g: &Graph, v: NodeId, r: usize, swaps: usize, seed: u64) -> (Graph, Vec<NodeId>) {
    let dist = distances(g, &[v]);
    let far = |u: u32| (r + 2..=3 * (r + 1)).contains(&dist[u as usize]);
    let mut edges: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
    let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let key = |a: u32, b: u32| (a.min(b), a.max(b));
    let candidates: Vec<usize> = (0..edges.len())
        .filter(|&i| far(edges[i].0) && far(edges[i].1))
        .collect();
    assert!(candidates.len() >= 2, "no room to swap beyond radius {r}");
    let mut state = seed;
    let mut touched = Vec::new();
    for _ in 0..swaps * 20 {
        if touched.len() == 4 * swaps {
            break;
        }
        let i = candidates[splitmix(&mut state) as usize % candidates.len()];
        let j = candidates[splitmix(&mut state) as usize % candidates.len()];
        let ((a, b), (c, d)) = (edges[i], edges[j]);
        // a–b, c–d  →  a–d, c–b: the four endpoints must be distinct and
        // the new edges absent, so the graph stays simple.
        if a == c || a == d || b == c || b == d {
            continue;
        }
        if present.contains(&key(a, d)) || present.contains(&key(c, b)) {
            continue;
        }
        present.remove(&key(a, b));
        present.remove(&key(c, d));
        present.insert(key(a, d));
        present.insert(key(c, b));
        edges[i] = key(a, d);
        edges[j] = key(c, b);
        touched.extend([a, b, c, d].map(NodeId));
    }
    let swapped = Graph::from_edges(g.n(), edges).expect("swaps keep the graph simple");
    (swapped, touched)
}

/// The first locality violation of `step` (one output per vertex) on
/// `g` for the charged radius `r`: a probed vertex, or any vertex farther
/// than `r + 1` from the swaps, whose output moved under swaps beyond
/// `r + 1` from the probe. `None` if the step passes.
fn locality_violation<T: PartialEq + std::fmt::Debug>(
    g: &Graph,
    r: usize,
    probes: &[u32],
    step: impl Fn(&Graph) -> Vec<T>,
) -> Option<String> {
    let reference = step(g);
    for (k, &v) in probes.iter().enumerate() {
        let v = NodeId(v);
        let (swapped, touched) = swap_far_edges(g, v, r, 16, 0xC0FF_EE00 + k as u64);
        assert!(!touched.is_empty(), "vertex {v}: no swap applied");
        assert_ne!(
            swapped.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>(),
            "the swaps must change the graph"
        );
        for u in g.vertices() {
            assert_eq!(swapped.degree(u), g.degree(u), "swaps keep every degree");
        }
        let out = step(&swapped);
        let to_swaps = distances(g, &touched);
        let clear: Vec<NodeId> = g
            .vertices()
            .filter(|u| to_swaps[u.index()] > r + 1)
            .collect();
        assert!(
            clear.contains(&v) && clear.len() > 2 * r,
            "too few vertices clear of the swaps"
        );
        if let Some(u) = clear
            .into_iter()
            .find(|u| out[u.index()] != reference[u.index()])
        {
            return Some(format!(
                "probe {v}: output at {u} moved {:?} -> {:?} under swaps beyond radius {r}",
                reference[u.index()],
                out[u.index()]
            ));
        }
    }
    None
}

/// Asserts that the shared `(Δ+1)`-coloring helper is local for the
/// rounds it is charged, which swaps keep since they keep `n` and `Δ`.
fn assert_helper_is_local(g: &Graph, probes: &[u32]) {
    let r = delta_plus_one_rounds(g);
    let helper = |h: &Graph| {
        let out = delta_plus_one_coloring(h, None).unwrap();
        assert_eq!(out.rounds, r, "swaps keep the helper's schedule");
        out.value
            .check_complete(h, g.max_degree() as u32 + 1)
            .unwrap();
        h.vertices().map(|v| out.value.get(v)).collect::<Vec<_>>()
    };
    if let Some(violation) = locality_violation(g, r as usize, probes, helper) {
        panic!("the shared helper is not {r}-local: {violation}");
    }
}

#[test]
fn shared_helper_color_depends_only_on_the_charged_ball_on_a_cycle() {
    let g = shuffled(&generators::cycle(600), 1);
    let r = delta_plus_one_rounds(&g) as usize;
    assert!(
        g.n() / 2 > 3 * (r + 1),
        "diameter {} must exceed 3(r + 1)",
        g.n() / 2
    );
    assert_helper_is_local(&g, &[0, 137, 299, 451]);
}

#[test]
fn shared_helper_color_depends_only_on_the_charged_ball_on_a_ring_of_cliques() {
    let g = shuffled(&generators::clique_ring(200, 6), 2);
    let r = delta_plus_one_rounds(&g) as usize;
    let dist = distances(&g, &[NodeId(0)]);
    let diameter = *dist.iter().max().unwrap();
    assert!(
        diameter > 3 * (r + 1),
        "diameter {diameter} must exceed 3(r + 1), r = {r}"
    );
    assert_helper_is_local(&g, &[0, 181, 362, 600]);
}

#[test]
fn the_harness_catches_a_step_that_reads_past_its_radius() {
    // Distance to vertex 0 mod 3, claimed 9-local: the swaps cut or
    // reroute the cycle beyond radius 10, which moves it.
    let g = shuffled(&generators::cycle(600), 1);
    let global = |h: &Graph| {
        distances(h, &[NodeId(0)])
            .into_iter()
            .map(|d| d % 3)
            .collect::<Vec<_>>()
    };
    assert!(locality_violation(&g, 9, &[137, 299, 451], global).is_some());
}
