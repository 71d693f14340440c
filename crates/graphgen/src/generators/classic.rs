//! Classic graph families used as controls for baselines and subroutine
//! benchmarks: paths, cycles, cliques, hypercubes, random regular graphs,
//! random trees, and Erdős–Rényi graphs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{Graph, GraphBuilder, NodeId};

/// A path on `n` vertices.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(
        n,
        (0..n.saturating_sub(1)).map(|i| (i as u32, i as u32 + 1)),
    )
    .expect("path is valid")
}

/// A cycle on `n >= 3` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    Graph::from_edges(n, (0..n).map(|i| (i as u32, ((i + 1) % n) as u32))).expect("cycle is valid")
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    b.add_clique(&(0..n).map(NodeId::from).collect::<Vec<_>>());
    b.build().expect("complete graph is valid")
}

/// The complete bipartite graph `K_{a,b}` (left: `0..a`, right: `a..a+b`).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut builder = GraphBuilder::new(a + b);
    for i in 0..a {
        for j in 0..b {
            builder.add_edge(i, a + j);
        }
    }
    builder.build().expect("complete bipartite graph is valid")
}

/// A star with one center (vertex 0) and `leaves` leaves.
pub fn star(leaves: usize) -> Graph {
    Graph::from_edges(leaves + 1, (1..=leaves).map(|i| (0, i as u32))).expect("star is valid")
}

/// The `d`-dimensional hypercube on `2^d` vertices.
pub fn hypercube(d: usize) -> Graph {
    let n = 1usize << d;
    let mut edges = Vec::new();
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if v < w {
                edges.push((v as u32, w as u32));
            }
        }
    }
    Graph::from_edges(n, edges).expect("hypercube is valid")
}

/// A ring of `m` Δ-cliques: clique `k` is joined to clique `k+1 (mod m)`
/// by a perfect matching on half of their vertices, making the graph
/// Δ-regular with diameter `Θ(m)`.
///
/// The doubled inter-clique connections create non-clique 4-cycles, so
/// every clique is an *easy* almost-clique — a dense, loophole-rich,
/// high-diameter family on which single-slack-source algorithms pay their
/// `Θ(diameter)` price.
///
/// # Panics
///
/// Panics unless `delta` is even, `delta >= 4`, and `m >= 3`.
pub fn clique_ring(m: usize, delta: usize) -> Graph {
    assert!(
        delta.is_multiple_of(2) && delta >= 4,
        "delta must be even and at least 4"
    );
    assert!(m >= 3, "need at least 3 cliques in the ring");
    let mut b = GraphBuilder::new(m * delta);
    let vertex = |k: usize, j: usize| NodeId::from((k % m) * delta + j);
    for k in 0..m {
        let members: Vec<NodeId> = (0..delta).map(|j| vertex(k, j)).collect();
        b.add_clique(&members);
        // First half of clique k matches the second half of clique k+1.
        for j in 0..delta / 2 {
            b.add_edge(vertex(k, j), vertex(k + 1, delta / 2 + j));
        }
    }
    b.build().expect("clique ring is valid")
}

/// A disjoint union of `m` cliques of `size` vertices each.
///
/// For `Δ = size - 1 < 63` these are exactly the graphs the paper classifies
/// as dense (Definition 4 discussion): isolated cliques.
pub fn isolated_cliques(m: usize, size: usize) -> Graph {
    let mut b = GraphBuilder::new(m * size);
    for c in 0..m {
        let nodes: Vec<NodeId> = (c * size..(c + 1) * size).map(NodeId::from).collect();
        b.add_clique(&nodes);
    }
    b.build().expect("isolated cliques are valid")
}

/// A uniformly random labelled tree on `n` vertices (random attachment).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        edges.push((parent as u32, v as u32));
    }
    Graph::from_edges(n, edges).expect("tree is valid")
}

/// An Erdős–Rényi `G(n, p)` graph.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p) {
                edges.push((u as u32, v as u32));
            }
        }
    }
    Graph::from_edges(n, edges).expect("gnp is valid")
}

/// A random simple `d`-regular graph via the configuration model with
/// duplicate/self-loop repair by edge swaps.
///
/// # Panics
///
/// Panics if `n·d` is odd or `d >= n`.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!(
        (n * d).is_multiple_of(2),
        "n*d must be even for a d-regular graph"
    );
    assert!(d < n, "degree must be below n");
    let mut rng = StdRng::seed_from_u64(seed);
    'attempt: for _ in 0..200 {
        let mut stubs: Vec<u32> = (0..n as u32)
            .flat_map(|v| std::iter::repeat_n(v, d))
            .collect();
        stubs.shuffle(&mut rng);
        let mut edges: Vec<(u32, u32)> = stubs
            .chunks(2)
            .map(|c| (c[0].min(c[1]), c[0].max(c[1])))
            .collect();
        // Repair self loops and duplicates with random two-edge swaps.
        for _ in 0..(50 * n * d + 1000) {
            let mut seen = std::collections::HashSet::with_capacity(edges.len());
            let mut bad = None;
            for (i, &(a, b)) in edges.iter().enumerate() {
                if a == b || !seen.insert((a, b)) {
                    bad = Some(i);
                    break;
                }
            }
            let Some(i) = bad else {
                return Graph::from_edges(n, edges).expect("repaired regular graph is valid");
            };
            let j = rng.gen_range(0..edges.len());
            if i == j {
                continue;
            }
            let (a, b) = edges[i];
            let (c, dd) = edges[j];
            edges[i] = (a.min(dd), a.max(dd));
            edges[j] = (c.min(b), c.max(b));
        }
        continue 'attempt;
    }
    panic!("failed to generate a simple {d}-regular graph on {n} vertices");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn path_cycle_shapes() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert!(analysis::is_regular(&cycle(7), 2));
    }

    #[test]
    fn complete_and_bipartite() {
        assert_eq!(complete(5).m(), 10);
        let kb = complete_bipartite(3, 4);
        assert_eq!(kb.m(), 12);
        assert_eq!(analysis::girth(&kb), Some(4));
    }

    #[test]
    fn hypercube_regular() {
        let h = hypercube(4);
        assert_eq!(h.n(), 16);
        assert!(analysis::is_regular(&h, 4));
        assert_eq!(analysis::girth(&h), Some(4));
    }

    #[test]
    fn clique_ring_regular_high_diameter() {
        let g = clique_ring(10, 6);
        assert_eq!(g.n(), 60);
        assert!(analysis::is_regular(&g, 6));
        assert!(g.is_connected());
        assert!(
            g.diameter_from(NodeId(0)) >= 5,
            "ring diameter grows with m"
        );
    }

    #[test]
    fn isolated_cliques_shape() {
        let g = isolated_cliques(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 18);
        assert!(analysis::is_regular(&g, 3));
        assert_eq!(g.components().len(), 3);
    }

    #[test]
    fn random_tree_is_tree() {
        let t = random_tree(50, 3);
        assert_eq!(t.m(), 49);
        assert!(t.is_connected());
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        for seed in 0..5 {
            let g = random_regular(40, 7, seed);
            assert!(analysis::is_regular(&g, 7), "seed {seed}");
        }
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).m(), 0);
        assert_eq!(gnp(10, 1.0, 1).m(), 45);
    }
}
