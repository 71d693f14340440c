//! Phase 1 — Balanced Matching (§3.3, Lemmas 10–12).
//!
//! 1. Compute a maximal matching `F1` on the inter-clique edges between
//!    hard vertices.
//! 2. Partition every `C_HEG` clique into `K` sub-cliques; every vertex
//!    requests to grab the `F1` edge `φ(v)` at its matched proxy `f(v)`.
//! 3. Solve the resulting hyperedge-grabbing instance (Lemma 5).
//! 4. Rearrange each grabbed `F1` edge onto its grabber and orient it away,
//!    yielding the oriented matching `F2` with `K` outgoing edges per
//!    `C_HEG` clique (Lemma 12).

use std::collections::HashMap;

use acd::AcdResult;
use graphgen::{Graph, NodeId};
use hypergraph::Hypergraph;
use localsim::RoundLedger;
use serde::{Deserialize, Serialize};

use crate::classify::Classification;
use crate::deterministic::{HegAlgo, MatchingAlgo};
use crate::error::DeltaColoringError;

/// Dilation for simulating one hypergraph round on the real network: a
/// sub-clique spans a diameter-1 clique and its requested edges are at most
/// 2 hops away.
const HEG_DILATION: u64 = 3;

/// Structural statistics of the phase (experiment E5).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Phase1Stats {
    /// Size of the maximal matching `F1`.
    pub f1_size: usize,
    /// Number of sub-cliques (hypergraph vertices).
    pub hyper_vertices: usize,
    /// Number of hyperedges (requested `F1` edges).
    pub hyper_edges: usize,
    /// Minimum hypergraph degree `δ_H`.
    pub delta_h: usize,
    /// Maximum hypergraph rank `r_H`.
    pub r_h: usize,
    /// Number of `F2` edges.
    pub f2_size: usize,
    /// Minimum outgoing `F2` edges over `C_HEG` cliques.
    pub min_outgoing: usize,
    /// Rounds of the matching subroutine.
    pub matching_rounds: u64,
    /// Rounds of the HEG subroutine (after dilation).
    pub heg_rounds: u64,
}

/// The oriented matching `F2`.
#[derive(Debug, Clone)]
pub struct BalancedMatching {
    /// Oriented edges `(tail, head)`: outgoing for the tail's clique.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Statistics for E5.
    pub stats: Phase1Stats,
}

/// Requests grouped per grabbed F1 edge: (sub-clique, requester, proxy).
type RequestGroup = Vec<(u32, NodeId, NodeId)>;

/// Runs Phase 1. `subcliques` is the paper's constant 28 (configurable for
/// small instances); every `C_HEG` clique must have at least that many
/// members.
///
/// # Errors
///
/// Propagates subroutine failures and invariant violations (Lemmas 10/12).
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn balanced_matching(
    g: &Graph,
    acd: &AcdResult,
    cls: &Classification,
    subcliques: usize,
    matching: MatchingAlgo,
    heg: HegAlgo,
    allow_useless: bool,
    ledger: &mut RoundLedger,
) -> Result<BalancedMatching, DeltaColoringError> {
    // --- Step 1: maximal matching F1 on (V_hard, E_hard). ---
    let hard_vertices: Vec<NodeId> = g
        .vertices()
        .filter(|&v| cls.is_hard_vertex[v.index()])
        .collect();
    let mut to_sub = vec![u32::MAX; g.n()];
    for (i, &v) in hard_vertices.iter().enumerate() {
        to_sub[v.index()] = i as u32;
    }
    let mut match_edges = Vec::new();
    for (v, w) in acd.clique_of.external_edges() {
        if cls.is_hard_vertex[v.index()] && cls.is_hard_vertex[w.index()] {
            match_edges.push((to_sub[v.index()], to_sub[w.index()]));
        }
    }
    let hgraph =
        Graph::from_edges(hard_vertices.len(), match_edges).expect("hard-edge subgraph is valid");
    let probe = ledger.probe().clone();
    let timed = match matching {
        MatchingAlgo::DetDirect => {
            primitives::matching::maximal_matching_det_direct_probed(&hgraph, &probe)?
        }
        MatchingAlgo::Rand(seed) => {
            primitives::matching::maximal_matching_rand_probed(&hgraph, seed, &probe)?
        }
    };
    ledger.charge("phase1/maximal matching F1", timed.rounds);
    let matching_rounds = timed.rounds;
    // F1 in original ids; per-vertex incident F1 edge index.
    let f1: Vec<(NodeId, NodeId)> = timed
        .value
        .edges
        .iter()
        .map(|&(a, b)| (hard_vertices[a.index()], hard_vertices[b.index()]))
        .collect();
    let mut f1_of: Vec<Option<u32>> = vec![None; g.n()];
    for (i, &(a, b)) in f1.iter().enumerate() {
        f1_of[a.index()] = Some(i as u32);
        f1_of[b.index()] = Some(i as u32);
    }

    // --- Step 2: sub-cliques and grab requests. ---
    let heg_set: std::collections::HashSet<u32> = cls.heg_ids.iter().copied().collect();
    // Sub-clique ids are dense: (position of clique in heg_ids) * K + part.
    let mut sub_of: HashMap<NodeId, u32> = HashMap::new();
    let mut n_subs = 0u32;
    // Members are filtered through the classification's hard-vertex mask:
    // the randomized component solve drops already-colored pair vertices
    // from their cliques here (they are the §4 "useless" boundary).
    let active_members = |cid: u32| -> Vec<NodeId> {
        acd.cliques[cid as usize]
            .vertices
            .iter()
            .copied()
            .filter(|v| cls.is_hard_vertex[v.index()])
            .collect()
    };
    for &cid in &cls.heg_ids {
        let members = active_members(cid);
        if members.len() < subcliques {
            return Err(DeltaColoringError::InvariantViolated(format!(
                "clique {cid} has {} active members, fewer than the {subcliques} sub-cliques requested",
                members.len()
            )));
        }
        for (j, &v) in members.iter().enumerate() {
            let part = j * subcliques / members.len();
            sub_of.insert(v, n_subs + part as u32);
        }
        n_subs += subcliques as u32;
    }

    // f(v) and φ(v) for every vertex of a C_HEG clique.
    // (f1 edge, subclique, requester, proxy f(v))
    let mut requests: Vec<(u32, u32, NodeId, NodeId)> = Vec::new();
    for &cid in &cls.heg_ids {
        for v in active_members(cid) {
            let proxy = if f1_of[v.index()].is_some() {
                v
            } else {
                // Minimum-uid (first) external hard neighbor; maximality
                // of F1 guarantees it is matched.
                match acd.clique_of.first_external_in(v, &cls.is_hard_vertex) {
                    Some(u) => u,
                    None if allow_useless => continue, // a "useless" vertex (§4)
                    None => {
                        return Err(DeltaColoringError::InvariantViolated(format!(
                            "C_HEG member {v} has no external hard neighbor"
                        )))
                    }
                }
            };
            let Some(e) = f1_of[proxy.index()] else {
                return Err(DeltaColoringError::InvariantViolated(format!(
                    "proxy {proxy} of {v} is unmatched despite F1 maximality"
                )));
            };
            requests.push((e, sub_of[&v], v, proxy));
        }
    }
    // With useless vertices allowed, every sub-clique must still field at
    // least one request (the caller's scoped C_HEG rule guarantees this).
    if allow_useless {
        let mut has_request = vec![false; n_subs as usize];
        for &(_, q, _, _) in &requests {
            has_request[q as usize] = true;
        }
        if let Some(q) = has_request.iter().position(|&b| !b) {
            return Err(DeltaColoringError::InvariantViolated(format!(
                "sub-clique {q} has no proposing member (too many useless vertices)"
            )));
        }
    }

    // Lemma 10: within one sub-clique all requested edges are distinct.
    let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for &(e, q, v, _) in &requests {
        if !seen.insert((q, e)) {
            return Err(DeltaColoringError::InvariantViolated(format!(
                "Lemma 10 violated: sub-clique {q} requests edge {e} twice (vertex {v})"
            )));
        }
    }

    // --- Step 3: hypergraph and HEG. ---
    let mut by_edge: HashMap<u32, RequestGroup> = HashMap::new();
    for &(e, q, v, p) in &requests {
        by_edge.entry(e).or_default().push((q, v, p));
    }
    let mut hyper_edges: Vec<Vec<u32>> = Vec::with_capacity(by_edge.len());
    let mut edge_meta: Vec<(u32, RequestGroup)> = Vec::with_capacity(by_edge.len());
    let mut keys: Vec<u32> = by_edge.keys().copied().collect();
    keys.sort_unstable();
    for e in keys {
        let reqs = by_edge.remove(&e).expect("key exists");
        hyper_edges.push(reqs.iter().map(|&(q, _, _)| q).collect());
        edge_meta.push((e, reqs));
    }
    let hyper = Hypergraph::new(n_subs as usize, hyper_edges)
        .expect("request hypergraph is valid (Lemma 10 de-duplicates)");
    let stats_dh = hyper.min_degree();
    let stats_rh = hyper.rank();
    let (grab, heg_raw_rounds) = if n_subs == 0 {
        (Vec::new(), 0)
    } else {
        match heg {
            HegAlgo::Augmenting => {
                let t = hypergraph::heg_augmenting(&hyper)?;
                (t.value, t.rounds)
            }
            HegAlgo::TokenWalk(seed) => {
                let t = hypergraph::heg_token_walk(&hyper, seed)?;
                (t.value, t.rounds)
            }
        }
    };
    let heg_rounds = heg_raw_rounds * HEG_DILATION;
    ledger.charge("phase1/hyperedge grabbing", heg_rounds);

    // --- Step 4: build F2. ---
    let mut f2: Vec<(NodeId, NodeId)> = Vec::new();
    for (q, &he) in grab.iter().enumerate() {
        let (f1_idx, reqs) = &edge_meta[he as usize];
        let &(_, v_e, proxy) = reqs
            .iter()
            .find(|&&(qq, _, _)| qq == q as u32)
            .expect("grabbed hyperedge contains the grabbing sub-clique");
        let tail = v_e;
        let head = if proxy == v_e {
            // v_e carries the F1 edge itself: keep it, oriented outward.
            let (a, b) = f1[*f1_idx as usize];
            if a == v_e {
                b
            } else {
                a
            }
        } else {
            // Rearranged edge {v_e, f(v_e)}: the proxy becomes the head.
            proxy
        };
        debug_assert!(g.has_edge(tail, head));
        f2.push((tail, head));
    }
    // Lemma 12: F2 is a matching.
    let mut touched = vec![false; g.n()];
    for &(t, h) in &f2 {
        if touched[t.index()] || touched[h.index()] {
            return Err(DeltaColoringError::InvariantViolated(format!(
                "Lemma 12 violated: F2 is not a matching at ({t}, {h})"
            )));
        }
        touched[t.index()] = true;
        touched[h.index()] = true;
    }
    // Lemma 12: every C_HEG clique has exactly `subcliques` outgoing edges.
    let mut outgoing = vec![0usize; acd.cliques.len()];
    for &(t, _) in &f2 {
        outgoing[acd.clique_of[t.index()].expect("tails are hard") as usize] += 1;
    }
    let min_outgoing = cls
        .heg_ids
        .iter()
        .map(|&c| outgoing[c as usize])
        .min()
        .unwrap_or(0);
    if min_outgoing < subcliques && !cls.heg_ids.is_empty() {
        return Err(DeltaColoringError::InvariantViolated(format!(
            "Lemma 12 violated: a C_HEG clique has only {min_outgoing} outgoing F2 edges"
        )));
    }
    let _ = heg_set;
    ledger.charge_constant("phase1/F2 rearrangement", 2);

    Ok(BalancedMatching {
        edges: f2,
        stats: Phase1Stats {
            f1_size: f1.len(),
            hyper_vertices: n_subs as usize,
            hyper_edges: edge_meta.len(),
            delta_h: stats_dh,
            r_h: stats_rh,
            f2_size: grab.len(),
            min_outgoing,
            matching_rounds,
            heg_rounds,
        },
    })
}
