//! Network decomposition and decomposition-based solvers.
//!
//! The paper's `Õ(log^{5/3} n)` branch runs its maximal matching, MIS, and
//! `(deg+1)`-list coloring subroutines through the near-optimal network
//! decomposition of \[GG24\]. That machinery is a paper-sized project by
//! itself; this module provides the *classic* stand-in (see DESIGN.md,
//! substitutions): the Linial–Saks randomized `(O(log n), O(log n))`
//! decomposition, plus a generic "solve cluster-by-cluster" driver that
//! turns any decomposition into a `(deg+1)`-list coloring or MIS algorithm
//! with `O(C · D)` LOCAL rounds.
//!
//! A `(C, D)` **network decomposition** partitions the vertices into `C`
//! classes such that every connected component (*cluster*) of each class
//! has diameter at most `D`. Clusters of one class are non-adjacent…
//! actually may be adjacent but are then distinct clusters; the driver
//! exploits that a cluster can gather its whole topology in `D` rounds and
//! solve its subproblem centrally.

use graphgen::{Color, Coloring, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Timed;

/// A network decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Class per vertex, in `0..classes`.
    pub class_of: Vec<u32>,
    /// Cluster id per vertex (globally unique across classes).
    pub cluster_of: Vec<u32>,
    /// Number of classes.
    pub classes: u32,
    /// Largest measured cluster (weak) diameter.
    pub max_cluster_diameter: usize,
}

impl Decomposition {
    /// Clusters grouped by class: `clusters[class] = [cluster vertex sets]`.
    pub fn clusters_by_class(&self) -> Vec<Vec<Vec<NodeId>>> {
        let mut per_cluster: std::collections::HashMap<u32, Vec<NodeId>> =
            std::collections::HashMap::new();
        for (i, &c) in self.cluster_of.iter().enumerate() {
            per_cluster.entry(c).or_default().push(NodeId::from(i));
        }
        let mut out: Vec<Vec<Vec<NodeId>>> = vec![Vec::new(); self.classes as usize];
        let mut ids: Vec<u32> = per_cluster.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let members = per_cluster.remove(&id).expect("key exists");
            let class = self.class_of[members[0].index()] as usize;
            out[class].push(members);
        }
        out
    }
}

/// Validates a decomposition: classes partition the vertices, clusters are
/// class-consistent and connected, and their diameters respect `bound`.
pub fn is_valid_decomposition(g: &Graph, nd: &Decomposition, bound: usize) -> bool {
    if nd.class_of.len() != g.n() || nd.cluster_of.len() != g.n() {
        return false;
    }
    for cls in nd.clusters_by_class() {
        for members in cls {
            // Class consistency.
            let class = nd.class_of[members[0].index()];
            let cluster = nd.cluster_of[members[0].index()];
            if members
                .iter()
                .any(|v| nd.class_of[v.index()] != class || nd.cluster_of[v.index()] != cluster)
            {
                return false;
            }
            // Connectivity and diameter inside the cluster.
            let (sub, _) = g.induced(&members);
            if !sub.is_connected() {
                return false;
            }
            if sub.diameter_from(NodeId(0)) > bound {
                return false;
            }
        }
    }
    true
}

/// The Linial–Saks randomized network decomposition: `O(log n)` classes of
/// clusters with `O(log n)` diameter, w.h.p., in `O(log² n)` LOCAL rounds.
///
/// # Examples
///
/// ```
/// use primitives::netdecomp::{is_valid_decomposition, linial_saks};
/// let g = graphgen::generators::random_regular(128, 4, 1);
/// let out = linial_saks(&g, 7);
/// assert!(is_valid_decomposition(&g, &out.value, 40));
/// ```
///
/// Per phase every undecided vertex draws a radius from a geometric
/// distribution (capped at `O(log n)`) and broadcasts `(radius, uid)`;
/// each vertex adopts the lexicographically largest `(radius − dist, uid)`
/// bid reaching it. Vertices strictly inside their winning ball join the
/// phase's class; vertices exactly on the boundary stay for later phases.
///
/// # Panics
///
/// Panics if the phase budget (`8·log₂ n + 32`) is exhausted — w.h.p.
/// impossible.
pub fn linial_saks(g: &Graph, seed: u64) -> Timed<Decomposition> {
    let n = g.n();
    if n == 0 {
        return Timed::new(
            Decomposition {
                class_of: Vec::new(),
                cluster_of: Vec::new(),
                classes: 0,
                max_cluster_diameter: 0,
            },
            0,
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let log_n = (usize::BITS - n.leading_zeros()) as usize;
    let cap = 2 * log_n + 2;
    let mut class_of = vec![u32::MAX; n];
    let mut cluster_of = vec![u32::MAX; n];
    let mut next_cluster = 0u32;
    let mut rounds = 0u64;
    let mut classes = 0u32;
    let budget = 8 * log_n as u32 + 32;
    while class_of.contains(&u32::MAX) {
        assert!(classes < budget, "Linial-Saks phase budget exhausted");
        // Draw radii for undecided vertices.
        let mut radius = vec![0usize; n];
        for v in 0..n {
            if class_of[v] == u32::MAX {
                let mut r = 0;
                while r < cap && rng.gen_bool(0.5) {
                    r += 1;
                }
                radius[v] = r;
            }
        }
        // Each undecided vertex finds the best bid (radius - dist, uid)
        // over centers within their radius: multi-source layered BFS,
        // which costs the maximum radius in LOCAL rounds.
        let max_r = radius.iter().copied().max().unwrap_or(0);
        rounds += max_r as u64 + 2;
        // best[v] = (slack, center) with slack = r_center - dist(center, v).
        let mut best: Vec<Option<(i64, u32)>> = vec![None; n];
        for c in 0..n {
            if class_of[c] != u32::MAX {
                continue;
            }
            // BFS from c through undecided vertices up to radius[c].
            let mut dist = std::collections::HashMap::new();
            dist.insert(c as u32, 0usize);
            let mut frontier = vec![c as u32];
            let mut d = 0usize;
            while d <= radius[c] {
                for &v in &frontier {
                    let slack = (radius[c] - d) as i64;
                    let bid = (slack, c as u32);
                    if best[v as usize].is_none_or(|b| bid > b) {
                        best[v as usize] = Some(bid);
                    }
                }
                d += 1;
                if d > radius[c] {
                    break;
                }
                let mut next = Vec::new();
                for &v in &frontier {
                    for &w in g.neighbors(NodeId(v)) {
                        if class_of[w.index()] == u32::MAX && !dist.contains_key(&w.0) {
                            dist.insert(w.0, d);
                            next.push(w.0);
                        }
                    }
                }
                frontier = next;
            }
        }
        // Vertices with strictly positive slack join this class, clustered
        // by center; zero-slack (boundary) vertices wait.
        let mut center_cluster: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        let mut joined = false;
        for v in 0..n {
            if class_of[v] != u32::MAX {
                continue;
            }
            if let Some((slack, center)) = best[v] {
                if slack > 0 {
                    let id = *center_cluster.entry(center).or_insert_with(|| {
                        let id = next_cluster;
                        next_cluster += 1;
                        id
                    });
                    class_of[v] = classes;
                    cluster_of[v] = id;
                    joined = true;
                }
            }
        }
        if joined {
            classes += 1;
        }
    }
    // Split any cluster that became disconnected by boundary removal
    // (rare): recluster per connected component.
    let mut nd = Decomposition {
        class_of,
        cluster_of,
        classes,
        max_cluster_diameter: 0,
    };
    recluster_components(g, &mut nd, &mut next_cluster);
    nd.max_cluster_diameter = measure_diameters(g, &nd);
    Timed::new(nd, rounds)
}

fn recluster_components(g: &Graph, nd: &mut Decomposition, next_cluster: &mut u32) {
    let mut seen = vec![false; g.n()];
    for s in g.vertices() {
        if seen[s.index()] {
            continue;
        }
        seen[s.index()] = true;
        let id = *next_cluster;
        *next_cluster += 1;
        let (class, cluster) = (nd.class_of[s.index()], nd.cluster_of[s.index()]);
        let mut stack = vec![s];
        nd.cluster_of[s.index()] = id;
        while let Some(v) = stack.pop() {
            for &w in g.neighbors(v) {
                if !seen[w.index()]
                    && nd.class_of[w.index()] == class
                    && nd.cluster_of[w.index()] == cluster
                {
                    seen[w.index()] = true;
                    nd.cluster_of[w.index()] = id;
                    stack.push(w);
                }
            }
        }
    }
}

fn measure_diameters(g: &Graph, nd: &Decomposition) -> usize {
    let mut max_d = 0;
    for cls in nd.clusters_by_class() {
        for members in cls {
            let (sub, _) = g.induced(&members);
            max_d = max_d.max(sub.diameter_from(NodeId(0)));
        }
    }
    max_d
}

/// `(deg+1)`-list coloring through a network decomposition: classes are
/// processed in order; all clusters of a class solve their subproblem
/// *simultaneously and centrally* (each gathers its ≤ D-diameter topology
/// plus the colors on its boundary, then extends greedily — a `(deg+1)`
/// list always admits a greedy extension). LOCAL cost:
/// `Σ_class (D_class + 2)` rounds.
///
/// # Panics
///
/// Panics if some palette is smaller than `deg + 1`.
pub fn nd_deg_plus_one_list_color(
    g: &Graph,
    palettes: &[Vec<Color>],
    nd: &Decomposition,
) -> Timed<Coloring> {
    for v in g.vertices() {
        assert!(
            palettes[v.index()].len() > g.degree(v),
            "vertex {v} palette too small for (deg+1)-list coloring"
        );
    }
    let mut coloring = Coloring::empty(g.n());
    let mut rounds = 0u64;
    for cls in nd.clusters_by_class() {
        let mut class_diam = 0usize;
        for members in &cls {
            let (sub, _) = g.induced(members);
            class_diam = class_diam.max(sub.diameter_from(NodeId(0)));
            // Central greedy inside the cluster, aware of outside colors.
            for &v in members {
                let c = palettes[v.index()]
                    .iter()
                    .copied()
                    .find(|&c| g.neighbors(v).iter().all(|&w| coloring.get(w) != Some(c)))
                    .expect("deg+1 list always has a free color");
                coloring.set(v, c);
            }
        }
        rounds += class_diam as u64 + 2;
    }
    Timed::new(coloring, rounds)
}

/// MIS through a network decomposition: same driver, greedy inside each
/// cluster respecting earlier classes' decisions.
pub fn nd_mis(g: &Graph, nd: &Decomposition) -> Timed<Vec<bool>> {
    let mut in_set = vec![false; g.n()];
    let mut decided = vec![false; g.n()];
    let mut rounds = 0u64;
    for cls in nd.clusters_by_class() {
        let mut class_diam = 0usize;
        for members in &cls {
            let (sub, _) = g.induced(members);
            class_diam = class_diam.max(sub.diameter_from(NodeId(0)));
            for &v in members {
                decided[v.index()] = true;
                if !g.neighbors(v).iter().any(|&w| in_set[w.index()]) {
                    in_set[v.index()] = true;
                }
            }
        }
        rounds += class_diam as u64 + 2;
    }
    debug_assert!(decided.iter().all(|&d| d));
    Timed::new(in_set, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::is_mis;
    use graphgen::generators;

    #[test]
    fn decomposition_valid_on_families() {
        for (i, g) in [
            generators::cycle(100),
            generators::random_regular(200, 5, 3),
            generators::random_tree(150, 7),
            generators::hypercube(6),
        ]
        .iter()
        .enumerate()
        {
            let out = linial_saks(g, i as u64);
            let log_n = (usize::BITS - g.n().leading_zeros()) as usize;
            assert!(
                is_valid_decomposition(g, &out.value, 4 * log_n + 4),
                "invalid decomposition on family {i}"
            );
            assert!(
                out.value.classes as usize <= 8 * log_n + 32,
                "too many classes: {}",
                out.value.classes
            );
        }
    }

    #[test]
    fn nd_list_coloring_proper() {
        let g = generators::random_regular(150, 6, 9);
        let nd = linial_saks(&g, 3).value;
        let palettes: Vec<Vec<Color>> = (0..g.n()).map(|_| (0..7).map(Color).collect()).collect();
        let out = nd_deg_plus_one_list_color(&g, &palettes, &nd);
        out.value.check_complete(&g, 7).unwrap();
    }

    #[test]
    fn nd_mis_valid() {
        let g = generators::gnp(120, 0.08, 4);
        let nd = linial_saks(&g, 5).value;
        let out = nd_mis(&g, &nd);
        assert!(is_mis(&g, &out.value));
    }

    #[test]
    fn empty_graph() {
        let g = graphgen::Graph::from_edges(0, []).unwrap();
        let out = linial_saks(&g, 1);
        assert_eq!(out.value.classes, 0);
    }

    #[test]
    fn single_cluster_for_clique() {
        let g = generators::complete(8);
        let nd = linial_saks(&g, 2).value;
        assert!(is_valid_decomposition(&g, &nd, 8));
    }

    #[test]
    fn rounds_scale_polylog() {
        let small = linial_saks(&generators::random_regular(128, 4, 1), 7).rounds;
        let large = linial_saks(&generators::random_regular(4096, 4, 1), 7).rounds;
        assert!(
            large <= small * 6 + 80,
            "decomposition rounds should grow polylogarithmically: {small} -> {large}"
        );
    }
}
