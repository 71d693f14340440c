//! Hard/easy almost-clique classification (Definition 8) and the Lemma 9
//! structure checks.

use acd::AcdResult;
use graphgen::{Graph, NodeId};

use crate::error::DeltaColoringError;
use crate::loophole::LoopholeReport;

/// Kind of an almost-clique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliqueKind {
    /// Contains no vertex of any ≤6-vertex loophole; satisfies Lemma 9.
    Hard,
    /// Touches a loophole; colored by Algorithm 3.
    Easy,
}

/// The classification of an ACD into hard and easy cliques.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Kind per almost-clique (indexed like `acd.cliques`).
    pub kinds: Vec<CliqueKind>,
    /// Ids of hard cliques.
    pub hard_ids: Vec<u32>,
    /// Ids of hard cliques in `C_HEG`: every member has at least one
    /// external neighbor inside a hard clique.
    pub heg_ids: Vec<u32>,
    /// Per-vertex flag: lies in a hard clique.
    pub is_hard_vertex: Vec<bool>,
    /// LOCAL rounds charged (constant-radius checks).
    pub rounds: u64,
}

impl Classification {
    /// Number of hard cliques.
    pub fn hard_count(&self) -> usize {
        self.hard_ids.len()
    }
}

/// Classifies every almost-clique as hard or easy and verifies Lemma 9 on
/// the hard ones.
///
/// # Errors
///
/// Returns [`DeltaColoringError::UnsupportedStructure`] if a clique
/// contains no detected loophole yet fails Lemma 9's structure (the paper
/// proves this cannot happen for true ≤6-loophole-free cliques, so it
/// indicates an input outside the algorithm's assumptions, or a detector
/// gap), and [`DeltaColoringError::ContainsMaxClique`] if a clique on
/// `Δ + 1` vertices is found.
pub fn classify_cliques(
    g: &Graph,
    acd: &AcdResult,
    loopholes: &LoopholeReport,
) -> Result<Classification, DeltaColoringError> {
    let delta = g.max_degree();
    let mut kinds = Vec::with_capacity(acd.cliques.len());
    let mut hard_ids = Vec::new();
    let mut is_hard_vertex = vec![false; g.n()];

    for c in &acd.cliques {
        let easy = c.vertices.iter().any(|&v| loopholes.is_loophole_vertex(v));
        if easy {
            kinds.push(CliqueKind::Easy);
            continue;
        }
        verify_lemma9(g, acd, c.id, &c.vertices, delta)?;
        kinds.push(CliqueKind::Hard);
        hard_ids.push(c.id);
        for &v in &c.vertices {
            is_hard_vertex[v.index()] = true;
        }
    }

    // C_HEG: hard cliques where every member has an external hard neighbor.
    let mut heg_ids = Vec::new();
    for &cid in &hard_ids {
        let all_have = acd.cliques[cid as usize].vertices.iter().all(|&v| {
            acd.clique_of
                .first_external_in(v, &is_hard_vertex)
                .is_some()
        });
        if all_have {
            heg_ids.push(cid);
        }
    }

    Ok(Classification {
        kinds,
        hard_ids,
        heg_ids,
        is_hard_vertex,
        rounds: 2,
    })
}

/// Lemma 9 for a loophole-free clique: (1) it is a true clique, (2) every
/// member has exactly `Δ − |C| + 1` external neighbors, (3) no outside
/// vertex has two neighbors inside.
fn verify_lemma9(
    g: &Graph,
    acd: &AcdResult,
    cid: u32,
    vertices: &[NodeId],
    delta: usize,
) -> Result<(), DeltaColoringError> {
    if vertices.len() > delta {
        // A loophole-free clique of size Δ+1 would be K_{Δ+1}.
        if graphgen::analysis::is_clique(g, vertices) {
            return Err(DeltaColoringError::ContainsMaxClique);
        }
    }
    let e_c = delta + 1 - vertices.len();
    for (i, &u) in vertices.iter().enumerate() {
        for &w in &vertices[i + 1..] {
            if !g.has_edge(u, w) {
                return Err(DeltaColoringError::UnsupportedStructure(format!(
                    "clique {cid} misses edge {u}-{w} but has no detected loophole"
                )));
            }
        }
        let outside = acd.clique_of.external(u).len();
        if outside != e_c {
            return Err(DeltaColoringError::UnsupportedStructure(format!(
                "vertex {u} of hard clique {cid} has {outside} external neighbors, expected {e_c}"
            )));
        }
    }
    // (3): outsiders with two neighbors inside.
    let mut seen: std::collections::HashMap<NodeId, NodeId> = std::collections::HashMap::new();
    for &u in vertices {
        for &w in acd.clique_of.external(u) {
            if let Some(prev) = seen.insert(w, u) {
                return Err(DeltaColoringError::UnsupportedStructure(format!(
                    "outside vertex {w} neighbors both {prev} and {u} in hard clique {cid}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loophole::detect_loopholes;
    use acd::{compute_acd, AcdParams};
    use graphgen::generators;

    fn classify(inst: &generators::HardCliqueInstance) -> (AcdResult, Classification) {
        let acd = compute_acd(&inst.graph, &AcdParams::for_delta(inst.delta));
        let rep = detect_loopholes(&inst.graph, &acd.clique_of);
        let cls = classify_cliques(&inst.graph, &acd, &rep).unwrap();
        (acd, cls)
    }

    #[test]
    fn pure_hard_instance_all_hard_all_heg() {
        let inst = generators::hard_cliques(&generators::HardCliqueParams {
            cliques: 34,
            delta: 16,
            external_per_vertex: 1,
            seed: 21,
        })
        .unwrap();
        let (_, cls) = classify(&inst);
        assert_eq!(cls.hard_count(), 34);
        assert_eq!(cls.heg_ids.len(), 34, "pure hard instances are all C_HEG");
        assert!(cls.is_hard_vertex.iter().all(|&b| b));
    }

    #[test]
    fn planted_easy_cliques_classified_easy() {
        let inst = generators::easy_cliques(&generators::EasyCliqueParams {
            base: generators::HardCliqueParams {
                cliques: 34,
                delta: 16,
                external_per_vertex: 1,
                seed: 22,
            },
            easy: 3,
            kind: generators::LoopholeKind::LowDegree,
        })
        .unwrap();
        let acd = compute_acd(&inst.graph, &AcdParams::for_delta(16));
        let rep = detect_loopholes(&inst.graph, &acd.clique_of);
        let cls = classify_cliques(&inst.graph, &acd, &rep).unwrap();
        assert_eq!(cls.hard_count(), 31);
        // The ACD's clique ids may be permuted w.r.t. the generator's; match
        // via vertices.
        for &k in &inst.planted_easy {
            let v = inst.cliques[k][2]; // not an endpoint of the deleted edge
            let acd_id = acd.clique_of[v.index()].unwrap();
            assert_eq!(cls.kinds[acd_id as usize], CliqueKind::Easy);
        }
    }

    #[test]
    fn type_ii_cliques_leave_heg() {
        // With ext=1, hard cliques adjacent only to easy cliques via some
        // vertex drop out of C_HEG.
        let inst = generators::easy_cliques(&generators::EasyCliqueParams {
            base: generators::HardCliqueParams {
                cliques: 34,
                delta: 16,
                external_per_vertex: 1,
                seed: 23,
            },
            easy: 4,
            kind: generators::LoopholeKind::LowDegree,
        })
        .unwrap();
        let (_, cls) = classify(&inst);
        assert!(
            cls.heg_ids.len() < cls.hard_count(),
            "some hard clique must be Type II"
        );
    }

    #[test]
    fn max_clique_detected() {
        // K_9 with Δ = 8: a Δ+1 clique.
        let g = generators::complete(9);
        let acd = compute_acd(&g, &AcdParams::for_delta(8));
        let rep = detect_loopholes(&g, &acd.clique_of);
        let err = classify_cliques(&g, &acd, &rep).unwrap_err();
        assert_eq!(err, DeltaColoringError::ContainsMaxClique);
    }
}
