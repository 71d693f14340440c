//! Almost-clique decomposition (ACD) — the sparse/dense decomposition all
//! recent distributed coloring algorithms build on (Lemma 2 of the paper).
//!
//! For `ε = 1/63` the ACD partitions the vertex set into `V_sparse` and
//! almost-cliques `C_1 … C_t` with:
//!
//! * (i) `(1 − ε/4)·Δ ≤ |C_i| ≤ (1 + ε)·Δ`,
//! * (ii) every `v ∈ C_i` has at least `(1 − ε)·Δ` neighbors inside `C_i`,
//! * (iii) every `u ∉ C_i` has at most `(1 − ε/2)·Δ` neighbors in `C_i`.
//!
//! A graph is **dense** (Definition 4) if the computation classifies no
//! vertex as sparse.
//!
//! The computation follows the classic recipe ([HSS18, ACK19] with the
//! [FHM23, HM24] postprocessing): *friend* edges (endpoints sharing
//! `(1−η)Δ` neighbors), *dense* vertices (with `(1−η)Δ` friend neighbors),
//! connected components of friend edges among dense vertices, then an
//! `O(1)`-iteration cleanup that evicts weakly connected vertices and
//! absorbs strongly connected outsiders. Everything is computable from
//! constant-radius neighborhoods, so the LOCAL cost is a documented
//! constant ([`ACD_ROUNDS`]).
//!
//! # Example
//!
//! ```
//! use graphgen::generators::{hard_cliques, HardCliqueParams};
//! use acd::{compute_acd, AcdParams};
//!
//! let inst = hard_cliques(&HardCliqueParams {
//!     cliques: 34, delta: 16, external_per_vertex: 1, seed: 1,
//! })?;
//! let acd = compute_acd(&inst.graph, &AcdParams::for_delta(16));
//! assert!(acd.is_dense());
//! assert_eq!(acd.cliques.len(), 34);
//! # Ok::<(), graphgen::GraphError>(())
//! ```

use graphgen::{analysis, Graph, NodeId};
use serde::{Deserialize, Serialize};

/// LOCAL rounds charged for the ACD computation (constant-radius work:
/// 2 rounds to learn the 2-ball for friend detection, the diameter-2
/// component gathering, and a constant number of cleanup sweeps).
pub const ACD_ROUNDS: u64 = 8;

/// Parameters of the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcdParams {
    /// The slack parameter ε (paper default: 1/63).
    pub eps: f64,
    /// Friendship parameter η (default ε/2).
    pub eta: f64,
}

impl AcdParams {
    /// The paper's parameters: `ε = 1/63`, `η = ε/2`.
    pub fn paper() -> Self {
        let eps = 1.0 / 63.0;
        AcdParams {
            eps,
            eta: eps / 2.0,
        }
    }

    /// Parameters scaled for a given Δ: the paper values for `Δ ≥ 63`,
    /// otherwise a relaxed `ε ≈ 4.5/Δ` that keeps the decomposition
    /// meaningful on small test instances. (With `ε = 1/63` properties
    /// (i)/(ii) force `ε·Δ ≥ 1`, i.e. `Δ ≥ 63`; admitting cliques of size
    /// `Δ − 1` and loophole-damaged cliques needs `ε·Δ ≥ ~4.5`.)
    pub fn for_delta(delta: usize) -> Self {
        if delta >= 63 {
            Self::paper()
        } else {
            let eps = (4.5 / delta.max(4) as f64).min(0.45);
            AcdParams {
                eps,
                eta: eps / 2.0,
            }
        }
    }

    /// Explicit ε (η defaults to ε/2). For experiment sweeps.
    pub fn with_eps(eps: f64) -> Self {
        AcdParams {
            eps,
            eta: eps / 2.0,
        }
    }
}

/// One almost-clique of the decomposition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlmostClique {
    /// Index in [`AcdResult::cliques`].
    pub id: u32,
    /// Sorted member vertices.
    pub vertices: Vec<NodeId>,
}

impl AlmostClique {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the clique is empty (never true in a valid ACD).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// The decomposition output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcdResult {
    /// Parameters used.
    pub params: AcdParams,
    /// Vertices classified sparse.
    pub sparse: Vec<NodeId>,
    /// The almost-cliques.
    pub cliques: Vec<AlmostClique>,
    /// Per-vertex clique id (`None` = sparse).
    pub clique_of: Vec<Option<u32>>,
    /// LOCAL rounds charged ([`ACD_ROUNDS`]).
    pub rounds: u64,
}

impl AcdResult {
    /// Whether the input graph is *dense* per Definition 4: no sparse
    /// vertices.
    pub fn is_dense(&self) -> bool {
        self.sparse.is_empty()
    }

    /// The clique containing `v`, if any.
    pub fn clique_containing(&self, v: NodeId) -> Option<&AlmostClique> {
        self.clique_of[v.index()].map(|c| &self.cliques[c as usize])
    }
}

/// The similarity thresholds derived from the parameters.
///
/// Two members of a valid almost-clique share at least (1 − 3ε)Δ
/// neighbors (each has (1−ε)Δ inside a set of ≤ (1+ε)Δ vertices), and
/// in a true Δ-clique exactly Δ − 2 — so friendship must tolerate
/// η_eff ≥ max(3.5ε, 2.5/Δ), clamped away from degeneracy.
fn similarity_thresholds(g: &Graph, params: &AcdParams) -> (usize, usize) {
    let delta = g.max_degree() as f64;
    let eta_eff = params
        .eta
        .max(3.5 * params.eps)
        .max(2.5 / delta.max(1.0))
        .min(0.5);
    let friend_threshold = ((1.0 - eta_eff) * delta).ceil() as usize;
    let dense_threshold = ((1.0 - eta_eff) * delta).ceil() as usize;
    (friend_threshold, dense_threshold)
}

/// The friend graph: per-vertex friend degree and friend adjacency, where
/// `{u, v} ∈ E` is a friend edge iff `|N(u) ∩ N(v)| ≥ friend_threshold`.
///
/// Block-compressed bitmap kernel: every sorted neighborhood is packed
/// once into `(block, mask)` runs — 64 vertices per `u64` word — and each
/// edge's common-neighbor count is a two-pointer sweep over the two run
/// lists with one `popcount` per shared block. On dense instances the
/// members of an almost-clique cluster into a handful of blocks, so a
/// Δ-clique edge costs ~`2 + Δ/64` word operations instead of the
/// `deg u + deg v` data-dependent compare steps of the per-edge
/// sorted-merge kernel; in the worst case (every neighbor in its own
/// block) the sweep degenerates to exactly the merge kernel's op count.
/// Friend edges are emitted in `g.edges()` order, so downstream component
/// structure is identical to the reference kernel.
fn friend_graph_blocked(g: &Graph, friend_threshold: usize) -> (Vec<usize>, Vec<Vec<NodeId>>) {
    let n = g.n();
    let mut friend_count = vec![0usize; n];
    let mut friend_adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    // Flat CSR of per-vertex bitmap runs: vertex v owns
    // `blocks[off[v]..off[v + 1]]` (strictly increasing block ids, since
    // neighborhoods are sorted) and the parallel `masks` words.
    let mut off = Vec::with_capacity(n + 1);
    let mut blocks: Vec<u32> = Vec::new();
    let mut masks: Vec<u64> = Vec::new();
    off.push(0usize);
    for v in g.vertices() {
        let start = blocks.len();
        for &w in g.neighbors(v) {
            let b = w.0 >> 6;
            let bit = 1u64 << (w.0 & 63);
            if blocks.len() > start && blocks[blocks.len() - 1] == b {
                *masks.last_mut().expect("runs in sync") |= bit;
            } else {
                blocks.push(b);
                masks.push(bit);
            }
        }
        off.push(blocks.len());
    }
    for (u, v) in g.edges() {
        let (mut i, iend) = (off[u.index()], off[u.index() + 1]);
        let (mut j, jend) = (off[v.index()], off[v.index() + 1]);
        let mut common = 0usize;
        while i < iend && j < jend {
            let (bi, bj) = (blocks[i], blocks[j]);
            if bi == bj {
                common += (masks[i] & masks[j]).count_ones() as usize;
                i += 1;
                j += 1;
            } else if bi < bj {
                i += 1;
            } else {
                j += 1;
            }
        }
        if common >= friend_threshold {
            friend_count[u.index()] += 1;
            friend_count[v.index()] += 1;
            friend_adj[u.index()].push(v);
            friend_adj[v.index()].push(u);
        }
    }
    (friend_count, friend_adj)
}

/// The friend graph via per-edge sorted-merge intersections — the
/// original kernel, kept as the oracle [`compute_acd_reference`] that the
/// tests assert the blocked bitmap kernel against.
fn friend_graph_merge(g: &Graph, friend_threshold: usize) -> (Vec<usize>, Vec<Vec<NodeId>>) {
    let n = g.n();
    let mut friend_count = vec![0usize; n];
    let mut friend_adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (u, v) in g.edges() {
        if analysis::common_neighbor_count(g, u, v) >= friend_threshold {
            friend_count[u.index()] += 1;
            friend_count[v.index()] += 1;
            friend_adj[u.index()].push(v);
            friend_adj[v.index()].push(u);
        }
    }
    (friend_count, friend_adj)
}

/// Computes the almost-clique decomposition.
///
/// Always returns a structurally consistent partition; use [`verify_acd`]
/// to check the quantitative guarantees (they hold whenever the input
/// admits them — on adversarial graphs vertices failing the bounds are
/// classified sparse instead).
pub fn compute_acd(g: &Graph, params: &AcdParams) -> AcdResult {
    let (friend_threshold, dense_threshold) = similarity_thresholds(g, params);
    let (friend_count, friend_adj) = friend_graph_blocked(g, friend_threshold);
    finish_acd(g, params, dense_threshold, &friend_count, &friend_adj)
}

/// [`compute_acd`] with the original per-edge sorted-merge similarity
/// kernel. Bit-identical output to `compute_acd` by construction (same
/// friend-edge set and order); exists so tests can assert exactly that.
pub fn compute_acd_reference(g: &Graph, params: &AcdParams) -> AcdResult {
    let (friend_threshold, dense_threshold) = similarity_thresholds(g, params);
    let (friend_count, friend_adj) = friend_graph_merge(g, friend_threshold);
    finish_acd(g, params, dense_threshold, &friend_count, &friend_adj)
}

/// Everything after the friend graph: dense classification, friend
/// components, cleanup sweeps, size filter.
fn finish_acd(
    g: &Graph,
    params: &AcdParams,
    dense_threshold: usize,
    friend_count: &[usize],
    friend_adj: &[Vec<NodeId>],
) -> AcdResult {
    let n = g.n();
    let delta = g.max_degree() as f64;
    let dense: Vec<bool> = (0..n).map(|v| friend_count[v] >= dense_threshold).collect();

    // Components of friend edges among dense vertices. The DFS stack is
    // hoisted out of the per-component loop (it is empty again whenever a
    // component finishes, so reuse is free).
    let mut comp = vec![u32::MAX; n];
    let mut ncomp = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    for s in g.vertices() {
        if !dense[s.index()] || comp[s.index()] != u32::MAX {
            continue;
        }
        let id = ncomp;
        ncomp += 1;
        comp[s.index()] = id;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &w in &friend_adj[v.index()] {
                if dense[w.index()] && comp[w.index()] == u32::MAX {
                    comp[w.index()] = id;
                    stack.push(w);
                }
            }
        }
    }

    // Cleanup sweeps (constant number): evict weakly connected members,
    // absorb strongly connected outsiders, drop undersized/oversized ACs.
    let evict_threshold = ((1.0 - params.eps) * delta).ceil() as usize;
    let absorb_threshold = ((1.0 - params.eps / 2.0) * delta).floor() as usize;
    let min_size = ((1.0 - params.eps / 4.0) * delta).ceil() as usize;
    let max_size = ((1.0 + params.eps) * delta).floor() as usize;

    let mut in_clique: Vec<Option<u32>> = comp
        .iter()
        .map(|&c| if c == u32::MAX { None } else { Some(c) })
        .collect();
    // Scratch for the absorb step, hoisted out of the scan loops: clique
    // ids are dense (`0..ncomp`), so a counting buffer plus a touched
    // list replaces a per-vertex hash map.
    let mut absorb_counts = vec![0u32; ncomp as usize];
    let mut absorb_touched: Vec<u32> = Vec::new();
    for _sweep in 0..6 {
        let mut changed = false;
        // Count neighbors inside each clique for all vertices.
        let count_in = |v: NodeId, c: u32, in_clique: &[Option<u32>]| {
            g.neighbors(v)
                .iter()
                .filter(|w| in_clique[w.index()] == Some(c))
                .count()
        };
        // Evict.
        for v in g.vertices() {
            if let Some(c) = in_clique[v.index()] {
                if count_in(v, c, &in_clique) < evict_threshold {
                    in_clique[v.index()] = None;
                    changed = true;
                }
            }
        }
        // Absorb. At most one clique can clear `absorb_threshold`
        // (> (1−ε/2)Δ neighbors each in two cliques would exceed Δ), so
        // scanning the touched list in any order picks the same winner.
        for v in g.vertices() {
            if in_clique[v.index()].is_none() {
                for &w in g.neighbors(v) {
                    if let Some(c) = in_clique[w.index()] {
                        if absorb_counts[c as usize] == 0 {
                            absorb_touched.push(c);
                        }
                        absorb_counts[c as usize] += 1;
                    }
                }
                let mut best: Option<(usize, u32)> = None;
                for &c in &absorb_touched {
                    let cnt = absorb_counts[c as usize] as usize;
                    if cnt > absorb_threshold && best.is_none_or(|(b, _)| cnt > b) {
                        best = Some((cnt, c));
                    }
                    absorb_counts[c as usize] = 0;
                }
                absorb_touched.clear();
                if let Some((_, c)) = best {
                    in_clique[v.index()] = Some(c);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Size filter and re-indexing (clique ids are dense, so flat arrays
    // replace the former hash maps).
    let mut sizes = vec![0usize; ncomp as usize];
    for v in g.vertices() {
        if let Some(c) = in_clique[v.index()] {
            sizes[c as usize] += 1;
        }
    }
    let mut remap = vec![u32::MAX; ncomp as usize];
    let mut cliques: Vec<AlmostClique> = Vec::new();
    let mut clique_of: Vec<Option<u32>> = vec![None; n];
    let mut sparse = Vec::new();
    for v in g.vertices() {
        match in_clique[v.index()] {
            Some(c) if sizes[c as usize] >= min_size && sizes[c as usize] <= max_size => {
                if remap[c as usize] == u32::MAX {
                    remap[c as usize] = cliques.len() as u32;
                    cliques.push(AlmostClique {
                        id: cliques.len() as u32,
                        vertices: Vec::new(),
                    });
                }
                let id = remap[c as usize];
                cliques[id as usize].vertices.push(v);
                clique_of[v.index()] = Some(id);
            }
            _ => sparse.push(v),
        }
    }
    AcdResult {
        params: *params,
        sparse,
        cliques,
        clique_of,
        rounds: ACD_ROUNDS,
    }
}

/// Errors reported by [`verify_acd`].
#[derive(Debug, Clone, PartialEq)]
pub enum AcdViolation {
    /// Property (i): clique size outside `[(1−ε/4)Δ, (1+ε)Δ]`.
    Size { clique: u32, size: usize },
    /// Property (ii): a member with too few internal neighbors.
    WeakMember {
        clique: u32,
        node: NodeId,
        inside: usize,
    },
    /// Property (iii): an outsider with too many neighbors inside.
    StrongOutsider {
        clique: u32,
        node: NodeId,
        inside: usize,
    },
    /// The partition is inconsistent (memberships disagree).
    Inconsistent,
}

impl std::fmt::Display for AcdViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcdViolation::Size { clique, size } => {
                write!(f, "clique {clique} has out-of-range size {size}")
            }
            AcdViolation::WeakMember {
                clique,
                node,
                inside,
            } => {
                write!(
                    f,
                    "vertex {node} has only {inside} neighbors inside its clique {clique}"
                )
            }
            AcdViolation::StrongOutsider {
                clique,
                node,
                inside,
            } => {
                write!(
                    f,
                    "outsider {node} has {inside} neighbors inside clique {clique}"
                )
            }
            AcdViolation::Inconsistent => write!(f, "partition bookkeeping is inconsistent"),
        }
    }
}

/// Verifies Lemma 2's properties (i)–(iii) for a decomposition.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_acd(g: &Graph, acd: &AcdResult) -> Result<(), AcdViolation> {
    let delta = g.max_degree() as f64;
    let eps = acd.params.eps;
    let min_size = ((1.0 - eps / 4.0) * delta).ceil() as usize;
    let max_size = ((1.0 + eps) * delta).floor() as usize;
    let member_min = ((1.0 - eps) * delta).ceil() as usize;
    let outsider_max = ((1.0 - eps / 2.0) * delta).floor() as usize;

    // Consistency.
    for (ci, c) in acd.cliques.iter().enumerate() {
        for &v in &c.vertices {
            if acd.clique_of[v.index()] != Some(ci as u32) {
                return Err(AcdViolation::Inconsistent);
            }
        }
    }
    for &v in &acd.sparse {
        if acd.clique_of[v.index()].is_some() {
            return Err(AcdViolation::Inconsistent);
        }
    }
    let assigned: usize = acd.cliques.iter().map(AlmostClique::len).sum();
    if assigned + acd.sparse.len() != g.n() {
        return Err(AcdViolation::Inconsistent);
    }

    for c in &acd.cliques {
        if c.len() < min_size || c.len() > max_size {
            return Err(AcdViolation::Size {
                clique: c.id,
                size: c.len(),
            });
        }
        for &v in &c.vertices {
            let inside = g
                .neighbors(v)
                .iter()
                .filter(|w| acd.clique_of[w.index()] == Some(c.id))
                .count();
            if inside < member_min {
                return Err(AcdViolation::WeakMember {
                    clique: c.id,
                    node: v,
                    inside,
                });
            }
        }
    }
    // Outsiders.
    for v in g.vertices() {
        let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for &w in g.neighbors(v) {
            if let Some(c) = acd.clique_of[w.index()] {
                if acd.clique_of[v.index()] != Some(c) {
                    *counts.entry(c).or_default() += 1;
                }
            }
        }
        for (c, cnt) in counts {
            if cnt > outsider_max {
                return Err(AcdViolation::StrongOutsider {
                    clique: c,
                    node: v,
                    inside: cnt,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;

    #[test]
    fn hard_instance_decomposes_exactly() {
        let inst = generators::hard_cliques(&generators::HardCliqueParams {
            cliques: 34,
            delta: 16,
            external_per_vertex: 1,
            seed: 5,
        })
        .unwrap();
        let acd = compute_acd(&inst.graph, &AcdParams::for_delta(16));
        assert!(acd.is_dense());
        assert_eq!(acd.cliques.len(), 34);
        verify_acd(&inst.graph, &acd).unwrap();
        // The recovered cliques match the generator's cliques.
        for c in &acd.cliques {
            let gen_id = inst.clique_of[c.vertices[0].index()];
            for &v in &c.vertices {
                assert_eq!(inst.clique_of[v.index()], gen_id);
            }
            assert_eq!(c.len(), inst.cliques[gen_id as usize].len());
        }
    }

    #[test]
    fn hard_instance_ext2_decomposes() {
        let inst = generators::hard_cliques(&generators::HardCliqueParams {
            cliques: 320,
            delta: 16,
            external_per_vertex: 2,
            seed: 6,
        })
        .unwrap();
        let acd = compute_acd(&inst.graph, &AcdParams::for_delta(16));
        assert!(acd.is_dense());
        assert_eq!(acd.cliques.len(), 320);
        verify_acd(&inst.graph, &acd).unwrap();
    }

    #[test]
    fn isolated_cliques_are_dense() {
        let g = generators::isolated_cliques(5, 8);
        let acd = compute_acd(&g, &AcdParams::for_delta(7));
        assert!(acd.is_dense());
        assert_eq!(acd.cliques.len(), 5);
        verify_acd(&g, &acd).unwrap();
    }

    #[test]
    fn tree_is_all_sparse() {
        let g = generators::random_tree(100, 3);
        let acd = compute_acd(&g, &AcdParams::paper());
        assert!(!acd.is_dense());
        assert_eq!(acd.sparse.len(), 100);
        assert!(acd.cliques.is_empty());
    }

    #[test]
    fn easy_instance_still_dense() {
        let inst = generators::easy_cliques(&generators::EasyCliqueParams {
            base: generators::HardCliqueParams {
                cliques: 34,
                delta: 16,
                external_per_vertex: 1,
                seed: 2,
            },
            easy: 3,
            kind: generators::LoopholeKind::LowDegree,
        })
        .unwrap();
        let acd = compute_acd(&inst.graph, &AcdParams::for_delta(16));
        assert!(
            acd.is_dense(),
            "deleting one intra edge keeps everyone dense"
        );
        verify_acd(&inst.graph, &acd).unwrap();
    }

    #[test]
    fn random_graph_mostly_sparse() {
        let g = generators::gnp(200, 0.05, 9);
        let acd = compute_acd(&g, &AcdParams::paper());
        // Sparse random graphs have no almost-cliques at this density.
        assert!(acd.cliques.is_empty());
    }

    #[test]
    fn claim_1_sparse_vertices_have_sparse_neighborhoods() {
        // Claim 1 [ACK19]: an η-sparse vertex has at most (1-η²)·C(Δ,2)
        // edges in its neighborhood. Check the contrapositive direction on
        // our classification: vertices we classify as sparse in a random
        // regular graph indeed have far fewer neighborhood edges than a
        // clique member would.
        let g = graphgen::generators::random_regular(200, 12, 3);
        let acd = compute_acd(&g, &AcdParams::for_delta(12));
        assert!(!acd.sparse.is_empty());
        let delta = 12.0_f64;
        let max_clique_edges = delta * (delta - 1.0) / 2.0;
        for &v in acd.sparse.iter().take(50) {
            let e = graphgen::analysis::edges_in_neighborhood(&g, v) as f64;
            assert!(
                e < 0.5 * max_clique_edges,
                "sparse vertex {v} has {e} neighborhood edges"
            );
        }
    }

    #[test]
    fn blocked_kernel_matches_merge_kernel() {
        // The blocked bitmap similarity kernel must reproduce the
        // per-edge merge kernel exactly — same friend edges in the same
        // order, hence the same AcdResult — across dense, sparse, and
        // degenerate inputs.
        let hard = generators::hard_cliques(&generators::HardCliqueParams {
            cliques: 34,
            delta: 16,
            external_per_vertex: 1,
            seed: 5,
        })
        .unwrap()
        .graph;
        let circulant = |cliques, delta| {
            generators::hard_cliques_with_blueprint(
                &generators::HardCliqueParams {
                    cliques,
                    delta,
                    external_per_vertex: 1,
                    seed: 7,
                },
                generators::BlueprintKind::Circulant,
            )
            .unwrap()
            .graph
        };
        for (g, delta) in [
            (hard, 16),
            (circulant(40, 16), 16),
            (circulant(136, 63), 63),
            (generators::gnp(200, 0.05, 9), 12),
            (generators::gnp(150, 0.2, 3), 32),
            (generators::random_tree(50, 4), 4),
            (generators::isolated_cliques(5, 8), 7),
            (Graph::from_edges(0, []).unwrap(), 1),
        ] {
            let params = AcdParams::for_delta(delta);
            assert_eq!(
                compute_acd(&g, &params),
                compute_acd_reference(&g, &params),
                "kernel mismatch on n={} m={}",
                g.n(),
                g.m()
            );
        }
    }

    #[test]
    fn paper_params() {
        let p = AcdParams::paper();
        assert!((p.eps - 1.0 / 63.0).abs() < 1e-12);
        assert_eq!(AcdParams::for_delta(100), p);
        assert!(AcdParams::for_delta(16).eps > p.eps);
    }
}
