//! Loopholes (Definition 6): constant-size structures that make Δ-coloring
//! locally easy — a vertex of degree `< Δ`, or a non-clique even cycle on
//! at most 6 vertices.
//!
//! Detection is a constant-radius computation (each pattern lives inside a
//! radius-3 ball), so it charges `O(1)` LOCAL rounds. Coloring a loophole
//! once all outside neighbors are colored is a *deg-list coloring* of a
//! 2-connected non-complete subgraph, which always exists (Lemma 7 /
//! [ERT79]); [`brute_force_color_loophole`] finds it by backtracking over
//! degree-truncated palettes.

use acd::ClusterSplit;
use graphgen::{Color, Coloring, Graph, NodeId};
use serde::{Deserialize, Serialize};

/// LOCAL rounds charged for loophole detection (radius-3 ball collection).
pub const LOOPHOLE_ROUNDS: u64 = 3;

/// A loophole per Definition 6.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Loophole {
    /// A vertex with degree `< Δ`.
    LowDegree(NodeId),
    /// A non-clique even cycle on 4 or 6 vertices, in cyclic order.
    EvenCycle(Vec<NodeId>),
}

impl Loophole {
    /// The vertices of the loophole.
    pub fn vertices(&self) -> Vec<NodeId> {
        match self {
            Loophole::LowDegree(v) => vec![*v],
            Loophole::EvenCycle(vs) => vs.clone(),
        }
    }
}

/// Output of [`detect_loopholes`].
#[derive(Debug, Clone, Default)]
pub struct LoopholeReport {
    /// One representative loophole per *loophole vertex* (a vertex's "vote"
    /// in Algorithm 3); indexed per vertex, `None` = in no detected
    /// loophole.
    pub vote: Vec<Option<Loophole>>,
    /// LOCAL rounds charged.
    pub rounds: u64,
}

impl LoopholeReport {
    /// Whether vertex `v` lies in a detected loophole.
    pub fn is_loophole_vertex(&self, v: NodeId) -> bool {
        self.vote[v.index()].is_some()
    }

    /// Number of loophole vertices.
    pub fn count(&self) -> usize {
        self.vote.iter().filter(|v| v.is_some()).count()
    }
}

/// Detects, for every vertex, one loophole containing it (if any).
///
/// `clusters` (the ACD's `acd.clique_of`) organizes the search. Its
/// [`ClusterSplit`] is the one owner of which edges are external and of
/// the rule that a `None` cluster is its own singleton.
/// The search covers: low-degree vertices; all non-clique 4-cycles
/// (inside clusters via non-adjacent co-members, across clusters via
/// external edges); and non-clique 6-cycles visible through a vertex with
/// two external edges (the pattern Lemma 10's proof relies on).
pub fn detect_loopholes(g: &Graph, clusters: &ClusterSplit) -> LoopholeReport {
    detect_with(g, clusters, external_four_cycles)
}

/// Case 3's search: votes for the non-clique 4-cycles through an
/// external edge.
type Case3 = fn(&Graph, &ClusterSplit, &mut [Option<Loophole>]);

/// [`detect_loopholes`] with its case 3 supplied, so tests can compare
/// the search against a reference.
fn detect_with(g: &Graph, split: &ClusterSplit, case3: Case3) -> LoopholeReport {
    let n = g.n();
    let delta = g.max_degree();
    let mut vote: Vec<Option<Loophole>> = vec![None; n];

    // Case 1: low degree.
    for v in g.vertices() {
        if g.degree(v) < delta {
            assign(&mut vote, Loophole::LowDegree(v));
        }
    }

    // Cluster member lists.
    let num_clusters = split
        .iter()
        .flatten()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num_clusters];
    for v in g.vertices() {
        if let Some(c) = split[v.index()] {
            members[c as usize].push(v);
        }
    }
    // Case 2: intra-cluster non-clique 4-cycles — non-adjacent co-members
    // with two common neighbors.
    for ms in &members {
        for (i, &u) in ms.iter().enumerate() {
            for &w in &ms[i + 1..] {
                if g.has_edge(u, w) {
                    continue;
                }
                let common = graphgen::analysis::common_neighbors(g, u, w);
                if common.len() >= 2 {
                    let cyc = vec![u, common[0], w, common[1]];
                    assign(&mut vote, Loophole::EvenCycle(cyc));
                }
            }
        }
    }

    case3(g, split, &mut vote);

    // Case 4: 6-cycles via a wedge of two external edges x–v–y plus a path
    // of length 4 from x to y with no two consecutive intra-cluster edges.
    for v in g.vertices() {
        let ext = split.external(v);
        for (i, &x) in ext.iter().enumerate() {
            for &y in &ext[i + 1..] {
                if let Some(mut path) = six_cycle_path(g, split, x, y, v) {
                    let mut cyc = vec![v];
                    cyc.append(&mut path);
                    if !graphgen::analysis::is_clique(g, &cyc) {
                        assign(&mut vote, Loophole::EvenCycle(cyc));
                    }
                }
            }
        }
    }

    LoopholeReport {
        vote,
        rounds: LOOPHOLE_ROUNDS,
    }
}

/// Votes `lh` for each of its vertices that has no vote yet.
fn assign(vote: &mut [Option<Loophole>], lh: Loophole) {
    for v in lh.vertices() {
        if vote[v.index()].is_none() {
            vote[v.index()] = Some(lh.clone());
        }
    }
}

/// Case 3: 4-cycles through an external edge u–v (u < v): x ∈ N(v), and
/// the first common neighbor w ≠ v of u and x that closes a non-clique
/// cycle. `N(u)` is marked once per `u` (stamp `u`), so scanning `N(x)` in
/// ascending order for marked vertices visits the common neighbors in the
/// order a sorted merge lists them, with no allocation per triple.
fn external_four_cycles(g: &Graph, split: &ClusterSplit, vote: &mut [Option<Loophole>]) {
    let mut in_nu: Vec<u32> = vec![u32::MAX; g.n()];
    let mut marked = None;
    for (u, v) in split.external_edges() {
        if marked != Some(u) {
            for &w in g.neighbors(u) {
                in_nu[w.index()] = u.0;
            }
            marked = Some(u);
        }
        for &x in g.neighbors(v) {
            if x == u {
                continue;
            }
            // The four vertices are distinct and the cycle's edges exist,
            // so it is a clique iff both chords u–x and v–w do.
            let ux = in_nu[x.index()] == u.0;
            let w = g
                .neighbors(x)
                .iter()
                .copied()
                .find(|&w| w != v && in_nu[w.index()] == u.0 && !(ux && g.has_edge(v, w)));
            if let Some(w) = w {
                assign(vote, Loophole::EvenCycle(vec![u, v, x, w]));
            }
        }
    }
}

/// Path x → … → y of length exactly 4, avoiding `apex`, with no two
/// consecutive intra-cluster edges (which would re-enter the same cluster
/// and be covered by the 4-cycle searches).
fn six_cycle_path(
    g: &Graph,
    split: &ClusterSplit,
    x: NodeId,
    y: NodeId,
    apex: NodeId,
) -> Option<Vec<NodeId>> {
    // An edge p–q of the graph is intra-cluster iff q is not external to p.
    let intra = |p: NodeId, q: NodeId| split.external(p).binary_search(&q).is_err();
    for &a in g.neighbors(x) {
        if a == apex || a == y {
            continue;
        }
        let xa_intra = intra(x, a);
        for &b in g.neighbors(a) {
            if b == apex || b == x || b == y {
                continue;
            }
            if xa_intra && intra(a, b) {
                continue;
            }
            let ab_intra = intra(a, b);
            for &c in g.neighbors(b) {
                if c == apex || c == x || c == a || c == y {
                    continue;
                }
                if ab_intra && intra(b, c) {
                    continue;
                }
                if g.has_edge(c, y) {
                    return Some(vec![x, a, b, c, y]);
                }
            }
        }
    }
    None
}

/// Colors the vertex set of a loophole given that all outside neighbors
/// are already colored: a deg-list instance solved by backtracking over
/// degree-truncated palettes.
///
/// Returns the chosen colors (parallel to `vertices`), or `None` if no
/// proper extension exists — which Lemma 7 guarantees cannot happen for
/// genuine loopholes.
pub fn brute_force_color_loophole(
    g: &Graph,
    coloring: &Coloring,
    vertices: &[NodeId],
    palette: u32,
) -> Option<Vec<Color>> {
    // Free colors per vertex, truncated to induced-degree + 1 (degree-
    // choosability makes any such truncation sufficient).
    let induced_deg = |v: NodeId| {
        g.neighbors(v)
            .iter()
            .filter(|w| vertices.contains(w))
            .count()
    };
    let mut lists: Vec<Vec<Color>> = Vec::with_capacity(vertices.len());
    for &v in vertices {
        let used: std::collections::HashSet<Color> = g
            .neighbors(v)
            .iter()
            .filter_map(|&w| coloring.get(w))
            .collect();
        let list: Vec<Color> = (0..palette)
            .map(Color)
            .filter(|c| !used.contains(c))
            .take(induced_deg(v) + 1)
            .collect();
        lists.push(list);
    }
    let mut chosen: Vec<Option<Color>> = vec![None; vertices.len()];
    if backtrack(g, vertices, &lists, &mut chosen, 0) {
        Some(
            chosen
                .into_iter()
                .map(|c| c.expect("backtracking filled all"))
                .collect(),
        )
    } else {
        None
    }
}

fn backtrack(
    g: &Graph,
    vertices: &[NodeId],
    lists: &[Vec<Color>],
    chosen: &mut Vec<Option<Color>>,
    i: usize,
) -> bool {
    if i == vertices.len() {
        return true;
    }
    'colors: for &c in &lists[i] {
        for (j, &w) in vertices.iter().enumerate() {
            if j < i && chosen[j] == Some(c) && g.has_edge(vertices[i], w) {
                continue 'colors;
            }
        }
        chosen[i] = Some(c);
        if backtrack(g, vertices, lists, chosen, i + 1) {
            return true;
        }
        chosen[i] = None;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;

    fn no_clusters(g: &Graph) -> ClusterSplit {
        ClusterSplit::new(g, vec![None; g.n()])
    }

    /// The generator's own cliques as the cluster map.
    fn planted_clusters(inst: &generators::HardCliqueInstance) -> ClusterSplit {
        let clusters: Vec<Option<u32>> = inst.clique_of.iter().map(|&c| Some(c)).collect();
        ClusterSplit::new(&inst.graph, clusters)
    }

    /// The merge-based case 3 that [`external_four_cycles`] replaced: a
    /// `common_neighbors` Vec per (u, v, x) and an `is_clique` check per
    /// candidate w. It compares the raw cluster map itself, so it does
    /// not depend on the split's external lists it is checked against.
    fn external_four_cycles_by_merge(
        g: &Graph,
        split: &ClusterSplit,
        vote: &mut [Option<Loophole>],
    ) {
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                let (cu, cv) = (split[u.index()], split[v.index()]);
                if (cu.is_some() && cu == cv) || u > v {
                    continue;
                }
                for &x in g.neighbors(v) {
                    if x == u {
                        continue;
                    }
                    for &w in &graphgen::analysis::common_neighbors(g, u, x) {
                        if w == v {
                            continue;
                        }
                        let cyc = vec![u, v, x, w];
                        if !graphgen::analysis::is_clique(g, &cyc) {
                            assign(vote, Loophole::EvenCycle(cyc));
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn marker_case_three_votes_like_the_merge_search() {
        use acd::{compute_acd, AcdParams};
        use generators::{HardCliqueParams, LoopholeKind};

        let base = |seed| HardCliqueParams {
            cliques: 34,
            delta: 16,
            external_per_vertex: 1,
            seed,
        };
        let easy = |seed, kind| {
            generators::easy_cliques(&generators::EasyCliqueParams {
                base: base(seed),
                easy: 3,
                kind,
            })
            .unwrap()
            .graph
        };
        let graphs = [
            (
                "hard_cliques",
                generators::hard_cliques(&base(11)).unwrap().graph,
            ),
            ("easy low-degree", easy(12, LoopholeKind::LowDegree)),
            ("easy four-cycle", easy(13, LoopholeKind::FourCycle)),
            ("gnp", generators::gnp(80, 0.08, 3)),
            ("random_regular", generators::random_regular(60, 5, 4)),
            ("cycle(4)", generators::cycle(4)),
            ("cycle(6)", generators::cycle(6)),
        ];
        let mut case3_votes = 0;
        for (name, g) in &graphs {
            let acd = compute_acd(g, &AcdParams::for_delta(g.max_degree()));
            for (clusters, cl) in [("acd", acd.clique_of), ("none", no_clusters(g))] {
                let fast = detect_loopholes(g, &cl);
                let reference = detect_with(g, &cl, external_four_cycles_by_merge);
                assert_eq!(fast.vote, reference.vote, "{name}, {clusters} clusters");
                // Case 3 alone, so votes the earlier cases already cast
                // cannot mask a difference.
                let mut fast3 = vec![None; g.n()];
                let mut reference3 = vec![None; g.n()];
                external_four_cycles(g, &cl, &mut fast3);
                external_four_cycles_by_merge(g, &cl, &mut reference3);
                assert_eq!(fast3, reference3, "{name}, {clusters} clusters, case 3");
                case3_votes += fast3.iter().flatten().count();
            }
        }
        assert!(case3_votes > 0, "case 3 voted somewhere");
    }

    #[test]
    fn low_degree_detected() {
        let g = generators::star(4); // leaves have degree 1 < Δ=4
        let rep = detect_loopholes(&g, &no_clusters(&g));
        assert!(rep.is_loophole_vertex(NodeId(1)));
        // The center has degree Δ and lies on no even cycle: not a loophole.
        assert!(!rep.is_loophole_vertex(NodeId(0)));
    }

    #[test]
    fn four_cycle_detected() {
        // C4 is 2-regular: no low-degree vertices; it is its own loophole.
        let g = generators::cycle(4);
        let rep = detect_loopholes(&g, &no_clusters(&g));
        for v in g.vertices() {
            assert!(rep.is_loophole_vertex(v), "{v}");
            assert!(matches!(rep.vote[v.index()], Some(Loophole::EvenCycle(_))));
        }
    }

    #[test]
    fn clique_has_no_loopholes() {
        let g = generators::complete(6);
        // K6: Δ = 5, all degrees Δ; every 4-cycle is inside the clique.
        let rep = detect_loopholes(&g, &ClusterSplit::new(&g, vec![Some(0); 6]));
        assert_eq!(rep.count(), 0);
    }

    #[test]
    fn odd_cycle_not_a_loophole() {
        let g = generators::cycle(5);
        let rep = detect_loopholes(&g, &no_clusters(&g));
        assert_eq!(rep.count(), 0, "C5 is 2-regular and has no even cycle");
    }

    #[test]
    fn hard_instance_has_no_loopholes() {
        let inst = generators::hard_cliques(&generators::HardCliqueParams {
            cliques: 34,
            delta: 16,
            external_per_vertex: 1,
            seed: 11,
        })
        .unwrap();
        let rep = detect_loopholes(&inst.graph, &planted_clusters(&inst));
        assert_eq!(
            rep.count(),
            0,
            "hard instances are loophole-free by construction"
        );
    }

    #[test]
    fn planted_low_degree_found() {
        let inst = generators::easy_cliques(&generators::EasyCliqueParams {
            base: generators::HardCliqueParams {
                cliques: 34,
                delta: 16,
                external_per_vertex: 1,
                seed: 12,
            },
            easy: 2,
            kind: generators::LoopholeKind::LowDegree,
        })
        .unwrap();
        let rep = detect_loopholes(&inst.graph, &planted_clusters(&inst));
        assert!(
            rep.count() >= 4,
            "two deleted edges give four low-degree vertices"
        );
        for k in &inst.planted_easy {
            assert!(
                inst.cliques[*k].iter().any(|&v| rep.is_loophole_vertex(v)),
                "planted clique {k} has a loophole vertex"
            );
        }
    }

    #[test]
    fn planted_four_cycle_found() {
        let inst = generators::easy_cliques(&generators::EasyCliqueParams {
            base: generators::HardCliqueParams {
                cliques: 34,
                delta: 16,
                external_per_vertex: 1,
                seed: 13,
            },
            easy: 1,
            kind: generators::LoopholeKind::FourCycle,
        })
        .unwrap();
        let rep = detect_loopholes(&inst.graph, &planted_clusters(&inst));
        assert!(
            rep.count() >= 4,
            "a planted 4-cycle has at least 4 loophole vertices"
        );
    }

    #[test]
    fn brute_force_colors_even_cycle_with_two_lists() {
        let g = generators::cycle(4);
        let coloring = Coloring::empty(4);
        let vs: Vec<NodeId> = g.vertices().collect();
        let colors = brute_force_color_loophole(&g, &coloring, &vs, 2).unwrap();
        let mut full = Coloring::empty(4);
        for (i, &v) in vs.iter().enumerate() {
            full.set(v, colors[i]);
        }
        full.check_complete(&g, 2).unwrap();
    }

    #[test]
    fn brute_force_respects_outside_colors() {
        // Path a-b where a's other neighbor forces a color.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut coloring = Coloring::empty(3);
        coloring.set(NodeId(0), Color(0));
        let colors = brute_force_color_loophole(&g, &coloring, &[NodeId(1), NodeId(2)], 2).unwrap();
        assert_ne!(colors[0], Color(0));
        assert_ne!(colors[0], colors[1]);
    }

    #[test]
    fn brute_force_reports_impossible() {
        // Triangle with palette 2 cannot be colored.
        let g = generators::complete(3);
        let coloring = Coloring::empty(3);
        let vs: Vec<NodeId> = g.vertices().collect();
        assert!(brute_force_color_loophole(&g, &coloring, &vs, 2).is_none());
    }
}
