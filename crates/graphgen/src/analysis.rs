//! Structural analysis helpers: common neighborhoods, sparsity counts, and
//! the `K_{Δ+1}` exclusion check required by Brooks' theorem.

use crate::{Graph, NodeId};

/// Common neighbors of `u` and `v`, by sorted-list intersection.
pub fn common_neighbors(g: &Graph, u: NodeId, v: NodeId) -> Vec<NodeId> {
    let (a, b) = (g.neighbors(u), g.neighbors(v));
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Number of common neighbors of `u` and `v`.
pub fn common_neighbor_count(g: &Graph, u: NodeId, v: NodeId) -> usize {
    let (a, b) = (g.neighbors(u), g.neighbors(v));
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Number of edges inside the neighborhood `N(v)` (not counting edges to `v`).
///
/// Claim 1 of the paper: an η-sparse vertex has at most
/// `(1 - η²)·binom(Δ, 2)` such edges.
pub fn edges_in_neighborhood(g: &Graph, v: NodeId) -> usize {
    let nbrs = g.neighbors(v);
    let mut count = 0;
    for (i, &a) in nbrs.iter().enumerate() {
        for &b in &nbrs[i + 1..] {
            if g.has_edge(a, b) {
                count += 1;
            }
        }
    }
    count
}

/// Whether `nodes` induces a clique in `g`.
pub fn is_clique(g: &Graph, nodes: &[NodeId]) -> bool {
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            if !g.has_edge(a, b) {
                return false;
            }
        }
    }
    true
}

/// Whether the graph contains a clique on `k` vertices.
///
/// Branch-and-bound over candidate sets, pruning vertices of degree `< k-1`.
/// Exponential in the worst case but fast on the structured instances this
/// workspace generates (used to certify that generated dense graphs contain
/// no `K_{Δ+1}`, the precondition of Theorem 1 / Brooks' theorem).
pub fn has_k_clique(g: &Graph, k: usize) -> bool {
    if k == 0 {
        return true;
    }
    if k == 1 {
        return g.n() > 0;
    }
    let candidates: Vec<NodeId> = g.vertices().filter(|&v| g.degree(v) >= k - 1).collect();
    let mut clique = Vec::with_capacity(k);
    for &v in &candidates {
        clique.push(v);
        let rest: Vec<NodeId> = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| w > v && g.degree(w) >= k - 1)
            .collect();
        if extend_clique(g, &mut clique, &rest, k) {
            return true;
        }
        clique.pop();
    }
    false
}

fn extend_clique(g: &Graph, clique: &mut Vec<NodeId>, candidates: &[NodeId], k: usize) -> bool {
    if clique.len() == k {
        return true;
    }
    if clique.len() + candidates.len() < k {
        return false;
    }
    for (i, &v) in candidates.iter().enumerate() {
        clique.push(v);
        let next: Vec<NodeId> = candidates[i + 1..]
            .iter()
            .copied()
            .filter(|&w| g.has_edge(v, w))
            .collect();
        if extend_clique(g, clique, &next, k) {
            return true;
        }
        clique.pop();
    }
    false
}

/// Whether `g` is `d`-regular.
pub fn is_regular(g: &Graph, d: usize) -> bool {
    g.vertices().all(|v| g.degree(v) == d)
}

/// Girth of the graph (length of a shortest cycle), or `None` if acyclic.
///
/// BFS from every vertex; O(n·m). Test/analysis use only.
pub fn girth(g: &Graph) -> Option<usize> {
    let mut best: Option<usize> = None;
    for s in g.vertices() {
        let mut dist = vec![usize::MAX; g.n()];
        let mut parent = vec![NodeId(u32::MAX); g.n()];
        dist[s.index()] = 0;
        let mut q = std::collections::VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            for &w in g.neighbors(v) {
                if dist[w.index()] == usize::MAX {
                    dist[w.index()] = dist[v.index()] + 1;
                    parent[w.index()] = v;
                    q.push_back(w);
                } else if parent[v.index()] != w {
                    let cyc = dist[v.index()] + dist[w.index()] + 1;
                    if best.is_none_or(|b| cyc < b) {
                        best = Some(cyc);
                    }
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn common_neighbors_of_diamond() {
        // 0-1, 0-2, 1-2, 1-3, 2-3: common neighbors of 0 and 3 are {1,2}.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(
            common_neighbors(&g, NodeId(0), NodeId(3)),
            vec![NodeId(1), NodeId(2)]
        );
        assert_eq!(common_neighbor_count(&g, NodeId(0), NodeId(3)), 2);
        assert_eq!(edges_in_neighborhood(&g, NodeId(3)), 1);
    }

    #[test]
    fn clique_detection() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert!(is_clique(&g, &[NodeId(0), NodeId(1), NodeId(2)]));
        assert!(!is_clique(&g, &[NodeId(1), NodeId(2), NodeId(3)]));
        assert!(has_k_clique(&g, 3));
        assert!(!has_k_clique(&g, 4));
    }

    #[test]
    fn k4_found_in_complete_graph() {
        let g = crate::generators::complete(6);
        assert!(has_k_clique(&g, 6));
        assert!(!has_k_clique(&g, 7));
    }

    #[test]
    fn girth_of_cycles_and_trees() {
        let c5 = crate::generators::cycle(5);
        assert_eq!(girth(&c5), Some(5));
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(girth(&path), None);
        let k4 = crate::generators::complete(4);
        assert_eq!(girth(&k4), Some(3));
    }

    #[test]
    fn regularity() {
        assert!(is_regular(&crate::generators::cycle(6), 2));
        assert!(!is_regular(&Graph::from_edges(3, [(0, 1)]).unwrap(), 1));
    }
}
