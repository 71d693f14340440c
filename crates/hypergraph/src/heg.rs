//! Solvers for the hyperedge grabbing problem.

use std::collections::VecDeque;
use std::fmt;

use graphgen::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Hypergraph, Timed};

/// Why a HEG solve failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HegError {
    /// No saturating assignment exists (Hall's condition violated).
    Infeasible,
    /// The solver exceeded its round budget.
    RoundLimitExceeded { limit: u64 },
}

impl fmt::Display for HegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HegError::Infeasible => write!(f, "no saturating hyperedge assignment exists"),
            HegError::RoundLimitExceeded { limit } => {
                write!(f, "HEG solver exceeded its {limit}-round budget")
            }
        }
    }
}

impl std::error::Error for HegError {}

/// Verifies a HEG solution: every vertex grabs an incident hyperedge and no
/// hyperedge is grabbed twice.
pub fn verify_heg(h: &Hypergraph, grab: &[u32]) -> bool {
    if grab.len() != h.n() {
        return false;
    }
    let mut owner = vec![false; h.edge_count()];
    for (v, &e) in grab.iter().enumerate() {
        if e as usize >= h.edge_count() || !h.incident(v as u32).contains(&e) {
            return false;
        }
        if owner[e as usize] {
            return false;
        }
        owner[e as usize] = true;
    }
    true
}

/// Exact centralized solver: Kuhn's augmenting-path bipartite matching,
/// saturating every vertex. The ground-truth oracle of the tests.
///
/// # Errors
///
/// Returns [`HegError::Infeasible`] if no saturating assignment exists.
pub fn heg_sequential(h: &Hypergraph) -> Result<Vec<u32>, HegError> {
    let mut owner: Vec<Option<u32>> = vec![None; h.edge_count()];
    let mut grab: Vec<Option<u32>> = vec![None; h.n()];
    for v in 0..h.n() as u32 {
        let mut visited = vec![false; h.edge_count()];
        if !augment(h, v, &mut owner, &mut grab, &mut visited) {
            return Err(HegError::Infeasible);
        }
    }
    Ok(grab
        .into_iter()
        .map(|g| g.expect("all saturated"))
        .collect())
}

fn augment(
    h: &Hypergraph,
    v: u32,
    owner: &mut [Option<u32>],
    grab: &mut [Option<u32>],
    visited: &mut [bool],
) -> bool {
    for &e in h.incident(v) {
        if visited[e as usize] {
            continue;
        }
        visited[e as usize] = true;
        let prev = owner[e as usize];
        let free = match prev {
            None => true,
            Some(u) => augment(h, u, owner, grab, visited),
        };
        if free {
            owner[e as usize] = Some(v);
            grab[v as usize] = Some(e);
            return true;
        }
    }
    false
}

/// Deterministic solver: phases of parallel, conflict-free shortest
/// augmenting paths.
///
/// # Examples
///
/// ```
/// use hypergraph::{heg_augmenting, verify_heg};
/// let h = hypergraph::generators::random_hypergraph(100, 6, 4, 1)?;
/// let out = heg_augmenting(&h)?;
/// assert!(verify_heg(&h, &out.value));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// In each phase every unsaturated vertex runs a BFS through the incidence
/// structure (vertex → incident hyperedge → current owner → …) to the
/// nearest free hyperedge. A conflict-free subset of the found paths (no
/// shared hyperedge or vertex) is selected greedily by root id — the
/// distributed analogue floods each candidate path and keeps locally
/// minimal roots — and all selected paths augment simultaneously.
///
/// Because every vertex set expands by `δ/r > 1`, a free hyperedge exists
/// within `O(log_{δ/r} n)` BFS layers, so phases are shallow; the measured
/// rounds charge `3·depth + 2` per phase (BFS out, confirm back, apply).
///
/// # Errors
///
/// [`HegError::Infeasible`] when some vertex has no augmenting path.
pub fn heg_augmenting(h: &Hypergraph) -> Result<Timed<Vec<u32>>, HegError> {
    let mut owner: Vec<Option<u32>> = vec![None; h.edge_count()];
    let mut grab: Vec<Option<u32>> = vec![None; h.n()];
    let mut rounds = 0u64;
    let mut unsaturated: Vec<u32> = (0..h.n() as u32).collect();
    while !unsaturated.is_empty() {
        // BFS from every unsaturated vertex to the nearest free hyperedge.
        let mut paths: Vec<(u32, Vec<(u32, u32)>)> = Vec::new(); // (root, [(vertex, edge)...])
        let mut deepest = 0usize;
        for &root in &unsaturated {
            let Some(path) = shortest_augmenting_path(h, root, &owner) else {
                return Err(HegError::Infeasible);
            };
            deepest = deepest.max(path.len());
            paths.push((root, path));
        }
        // Greedy conflict-free selection by root id.
        paths.sort_unstable_by_key(|&(root, _)| root);
        let mut edge_used = vec![false; h.edge_count()];
        let mut vertex_used = vec![false; h.n()];
        let mut applied_any = false;
        for (_, path) in &paths {
            let conflict = path
                .iter()
                .any(|&(v, e)| vertex_used[v as usize] || edge_used[e as usize]);
            if conflict {
                continue;
            }
            for &(v, e) in path {
                vertex_used[v as usize] = true;
                edge_used[e as usize] = true;
                owner[e as usize] = Some(v);
                grab[v as usize] = Some(e);
            }
            applied_any = true;
        }
        assert!(
            applied_any,
            "the minimum-id root's path is always conflict-free"
        );
        rounds += 3 * deepest as u64 + 2;
        unsaturated.retain(|&v| grab[v as usize].is_none());
    }
    Ok(Timed::new(
        grab.into_iter().map(|g| g.expect("saturated")).collect(),
        rounds,
    ))
}

/// Shortest augmenting path from `root` as a list of (vertex, edge)
/// reassignments ending at a free hyperedge. `None` if unreachable.
fn shortest_augmenting_path(
    h: &Hypergraph,
    root: u32,
    owner: &[Option<u32>],
) -> Option<Vec<(u32, u32)>> {
    // BFS over vertices; parent edge per vertex.
    let mut parent: Vec<Option<(u32, u32)>> = vec![None; h.n()]; // (prev vertex, via edge)
    let mut seen_edge = vec![false; h.edge_count()];
    let mut seen_vertex = vec![false; h.n()];
    seen_vertex[root as usize] = true;
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for &e in h.incident(v) {
            if seen_edge[e as usize] {
                continue;
            }
            seen_edge[e as usize] = true;
            match owner[e as usize] {
                None => {
                    // Free edge found: reconstruct alternating path.
                    let mut path = vec![(v, e)];
                    let mut cur = v;
                    while let Some((prev, via)) = parent[cur as usize] {
                        path.push((prev, via));
                        cur = prev;
                    }
                    path.reverse();
                    return Some(path);
                }
                Some(u) => {
                    if !seen_vertex[u as usize] {
                        seen_vertex[u as usize] = true;
                        parent[u as usize] = Some((v, e));
                        queue.push_back(u);
                    }
                }
            }
        }
    }
    None
}

/// Randomized solver: deficiency-token walk.
///
/// Every unsaturated vertex proposes to a uniformly random incident
/// hyperedge each iteration. The smallest-id proposer on each hyperedge
/// wins; if the hyperedge was owned, the previous owner is displaced and
/// becomes unsaturated (the deficiency token moves). With expansion
/// `δ/r > 1` a constant fraction of hyperedges is free at all times, so
/// each token hits a free hyperedge after `O(log n)` steps w.h.p.
/// Two rounds are charged per iteration (propose, resolve).
///
/// # Errors
///
/// [`HegError::RoundLimitExceeded`] if the walk does not converge within
/// the budget (`200·(log₂ n + 4)` rounds), which w.h.p. does not happen on
/// instances with `δ > r`.
pub fn heg_token_walk(h: &Hypergraph, seed: u64) -> Result<Timed<Vec<u32>>, HegError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut owner: Vec<Option<u32>> = vec![None; h.edge_count()];
    let mut grab: Vec<Option<u32>> = vec![None; h.n()];
    let mut unsaturated: Vec<u32> = (0..h.n() as u32).collect();
    let budget = 200 * ((usize::BITS - h.n().leading_zeros()) as u64 + 4);
    let mut rounds = 0u64;
    while !unsaturated.is_empty() {
        if rounds >= budget {
            return Err(HegError::RoundLimitExceeded { limit: budget });
        }
        rounds += 2;
        // Propose.
        let mut proposals: Vec<(u32, u32)> = unsaturated
            .iter()
            .map(|&v| {
                let inc = h.incident(v);
                (h.incident(v)[rng.gen_range(0..inc.len())], v)
            })
            .collect();
        // Resolve: smallest proposer id per edge wins.
        proposals.sort_unstable();
        let mut displaced = Vec::new();
        let mut next_unsaturated = Vec::new();
        let mut last_edge = u32::MAX;
        for &(e, v) in &proposals {
            if e == last_edge {
                next_unsaturated.push(v); // lost the race this round
                continue;
            }
            last_edge = e;
            if let Some(prev) = owner[e as usize] {
                displaced.push(prev);
                grab[prev as usize] = None;
            }
            owner[e as usize] = Some(v);
            grab[v as usize] = Some(e);
        }
        next_unsaturated.extend(displaced);
        unsaturated = next_unsaturated;
    }
    Ok(Timed::new(
        grab.into_iter().map(|g| g.expect("saturated")).collect(),
        rounds,
    ))
}

/// An edge orientation: for each edge of the source graph (in `edges()`
/// order), `true` means oriented from the smaller to the larger endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orientation {
    /// The graph's edges (with `u < v`).
    pub edges: Vec<(NodeId, NodeId)>,
    /// Direction per edge: `true` = `u → v`, `false` = `v → u`.
    pub forward: Vec<bool>,
}

impl Orientation {
    /// Out-degree of every vertex.
    pub fn out_degrees(&self, n: usize) -> Vec<usize> {
        let mut out = vec![0usize; n];
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            if self.forward[i] {
                out[u.index()] += 1;
            } else {
                out[v.index()] += 1;
            }
        }
        out
    }
}

/// Sinkless orientation of a graph with minimum degree ≥ 3, via HEG on the
/// rank-2 hypergraph whose hyperedges are the graph's edges (the paper's
/// §1.1 reduction). Every vertex ends with at least one outgoing edge.
///
/// # Errors
///
/// Propagates HEG errors; `Infeasible` cannot occur when `min degree ≥ 3`.
///
/// # Panics
///
/// Panics if some vertex has degree < 3.
pub fn sinkless_orientation(g: &Graph, seed: Option<u64>) -> Result<Timed<Orientation>, HegError> {
    assert!(
        g.vertices().all(|v| g.degree(v) >= 3),
        "sinkless orientation requires minimum degree 3"
    );
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let hyper = Hypergraph::new(g.n(), edges.iter().map(|&(u, v)| vec![u.0, v.0]).collect())
        .expect("graph edges form a valid hypergraph");
    let solved = match seed {
        Some(s) => heg_token_walk(&hyper, s)?,
        None => heg_augmenting(&hyper)?,
    };
    let grab = solved.value;
    let mut forward = vec![false; edges.len()];
    for (i, &(u, _v)) in edges.iter().enumerate() {
        // The grabbing vertex points the edge outward from itself; edges
        // nobody grabbed orient from the smaller endpoint by convention.
        let grabbed_by_u = grab[u.index()] == i as u32;
        forward[i] = grabbed_by_u || grab[edges[i].1.index()] != i as u32;
    }
    Ok(Timed::new(Orientation { edges, forward }, solved.rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_hypergraph;

    fn small() -> Hypergraph {
        // 3 vertices, 4 edges, rank 2, min degree 2.
        Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![0, 1]]).unwrap()
    }

    #[test]
    fn sequential_solves_small() {
        let h = small();
        let grab = heg_sequential(&h).unwrap();
        assert!(verify_heg(&h, &grab));
    }

    #[test]
    fn sequential_detects_infeasible() {
        // Two vertices, one shared edge: only one can grab it.
        let h = Hypergraph::new(2, vec![vec![0, 1]]).unwrap();
        assert_eq!(heg_sequential(&h), Err(HegError::Infeasible));
    }

    #[test]
    fn augmenting_solves_small() {
        let h = small();
        let out = heg_augmenting(&h).unwrap();
        assert!(verify_heg(&h, &out.value));
    }

    #[test]
    fn token_walk_solves_small() {
        let h = small();
        let out = heg_token_walk(&h, 7).unwrap();
        assert!(verify_heg(&h, &out.value));
    }

    #[test]
    fn solvers_agree_on_random_instances() {
        for seed in 0..5 {
            let h = random_hypergraph(200, 6, 4, seed).unwrap();
            assert!(h.min_degree() >= 6, "generator respects min degree");
            assert!(h.rank() <= 4);
            let a = heg_augmenting(&h).unwrap();
            assert!(verify_heg(&h, &a.value), "augmenting seed {seed}");
            let t = heg_token_walk(&h, seed).unwrap();
            assert!(verify_heg(&h, &t.value), "token walk seed {seed}");
            let s = heg_sequential(&h).unwrap();
            assert!(verify_heg(&h, &s), "sequential seed {seed}");
        }
    }

    #[test]
    fn verify_rejects_bad_solutions() {
        let h = small();
        assert!(!verify_heg(&h, &[0, 0, 1])); // edge 0 grabbed twice
        assert!(!verify_heg(&h, &[1, 0, 2])); // vertex 0 not on edge 1
        assert!(!verify_heg(&h, &[0, 1])); // wrong length
        assert!(verify_heg(&h, &[0, 3, 1])); // distinct incident edges
    }

    #[test]
    fn augmenting_rounds_scale_with_log_margin() {
        // Higher expansion margin => shallower phases.
        let tight = random_hypergraph(800, 5, 4, 1).unwrap(); // δ/r = 1.25
        let roomy = random_hypergraph(800, 12, 3, 1).unwrap(); // δ/r = 4
        let rt = heg_augmenting(&tight).unwrap().rounds;
        let rr = heg_augmenting(&roomy).unwrap().rounds;
        assert!(rr <= rt, "roomy {rr} should not exceed tight {rt}");
    }

    #[test]
    fn sinkless_orientation_on_regular_graph() {
        let g = graphgen::generators::random_regular(60, 4, 3);
        for seed in [None, Some(5)] {
            let out = sinkless_orientation(&g, seed).unwrap();
            let outdeg = out.value.out_degrees(g.n());
            assert!(
                outdeg.iter().all(|&d| d >= 1),
                "someone is a sink: {outdeg:?}"
            );
        }
    }

    #[test]
    fn sinkless_orientation_on_clique() {
        let g = graphgen::generators::complete(8);
        let out = sinkless_orientation(&g, None).unwrap();
        assert!(out.value.out_degrees(8).iter().all(|&d| d >= 1));
    }
}
