//! Phase 4 — Coloring (§3.6–3.7, Lemmas 16–17).
//!
//! **4A** builds the virtual conflict graph `G_V` over slack pairs (one
//! node per pair, an edge when any of the four underlying vertices are
//! adjacent), verifies Lemma 16's degree bound, and same-colors every pair
//! via one `(deg+1)`-list instance.
//!
//! **4B** colors the remaining hard vertices with two `(deg+1)`-list
//! instances: first everything except the slack vertices and one *stall*
//! vertex per Type-II clique (each such vertex has an uncolored same-clique
//! neighbor, hence slack), then the slack and stall vertices themselves
//! (slack vertices see two same-colored neighbors; stall vertices see an
//! uncolored easy neighbor).

use acd::AcdResult;
use graphgen::{Color, Coloring, Graph, NodeId};
use localsim::RoundLedger;
use serde::{Deserialize, Serialize};

use crate::classify::Classification;
use crate::error::DeltaColoringError;
use crate::phase3::TriadSet;

/// Dilation for simulating one `G_V` round on the real network: a pair
/// spans two vertices at distance ≤ 2 (both neighbors of the slack vertex).
const PAIR_DILATION: u64 = 3;

/// Statistics of the coloring phase (experiment E5).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Phase4Stats {
    /// Number of slack pairs.
    pub pairs: usize,
    /// Maximum degree observed in `G_V`.
    pub gv_max_degree: usize,
    /// Lemma 16's bound `Δ − 2`.
    pub gv_degree_bound: usize,
    /// Sizes of the two finishing instances.
    pub instance_sizes: [usize; 2],
}

/// Runs Phase 4 over `coloring` (mutated in place). `pair_palette` is the
/// color space used for the slack pairs — `0..Δ` deterministically,
/// `1..Δ` in the randomized pipeline (color 0 is reserved for T-node
/// pairs there).
///
/// `extra_slack[v]` marks vertices with a slack source outside this
/// computation (used by the randomized pipeline for vertices adjacent to
/// uncolored boundary vertices); they may be scheduled in instance 2 even
/// without an own triad/stall.
///
/// # Errors
///
/// Propagates list-coloring failures and invariant violations.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn color_hard_cliques_phase4(
    g: &Graph,
    acd: &AcdResult,
    cls: &Classification,
    triads: &TriadSet,
    pair_palette: &[Color],
    coloring: &mut Coloring,
    enforce_paper_bound: bool,
    ledger: &mut RoundLedger,
) -> Result<Phase4Stats, DeltaColoringError> {
    let delta = g.max_degree() as u32;
    let mut stats = Phase4Stats {
        pairs: triads.triads.len(),
        gv_degree_bound: delta.saturating_sub(2) as usize,
        ..Phase4Stats::default()
    };

    // ---- 4A: pair coloring on G_V. ----
    if !triads.triads.is_empty() {
        // pair id per vertex.
        let mut pair_of: Vec<Option<u32>> = vec![None; g.n()];
        for (i, t) in triads.triads.iter().enumerate() {
            pair_of[t.pair_in.index()] = Some(i as u32);
            pair_of[t.pair_out.index()] = Some(i as u32);
        }
        let mut gv_edges: Vec<(u32, u32)> = Vec::new();
        for (i, t) in triads.triads.iter().enumerate() {
            for x in [t.pair_in, t.pair_out] {
                for &w in g.neighbors(x) {
                    if let Some(j) = pair_of[w.index()] {
                        if j != i as u32 {
                            gv_edges.push(((i as u32).min(j), (i as u32).max(j)));
                        }
                    }
                }
            }
        }
        gv_edges.sort_unstable();
        gv_edges.dedup();
        let gv = Graph::from_edges(triads.triads.len(), gv_edges).expect("G_V is valid");
        stats.gv_max_degree = gv.max_degree();
        if enforce_paper_bound && gv.max_degree() > stats.gv_degree_bound {
            return Err(DeltaColoringError::InvariantViolated(format!(
                "Lemma 16 violated: G_V has degree {} > Δ-2 = {}",
                gv.max_degree(),
                stats.gv_degree_bound
            )));
        }
        if gv.max_degree() + 1 > pair_palette.len() {
            return Err(DeltaColoringError::InvariantViolated(format!(
                "pair palette of {} colors cannot cover G_V degree {}",
                pair_palette.len(),
                gv.max_degree()
            )));
        }
        let palettes: Vec<Vec<Color>> = (0..gv.n()).map(|_| pair_palette.to_vec()).collect();
        let probe = ledger.probe().clone();
        let timed = primitives::list_coloring::deg_plus_one_list_color_probed(
            &gv, &palettes, None, &probe,
        )?;
        ledger.charge_virtual("phase4a/slack pair coloring", timed.rounds, PAIR_DILATION);
        for (i, t) in triads.triads.iter().enumerate() {
            let c = timed
                .value
                .get(NodeId::from(i))
                .expect("complete pair coloring");
            coloring.set(t.pair_in, c);
            coloring.set(t.pair_out, c);
        }
    }

    // ---- 4B: two finishing instances. ----
    // Stall vertices: one per hard clique without a triad (Type II), chosen
    // among members with no external hard neighbor.
    let with_triad: std::collections::HashSet<u32> =
        triads.triads.iter().map(|t| t.clique).collect();
    let mut is_deferred = vec![false; g.n()]; // slack + stall vertices
    for t in &triads.triads {
        is_deferred[t.slack.index()] = true;
    }
    for &cid in &cls.hard_ids {
        if with_triad.contains(&cid) {
            continue;
        }
        let stall = acd.cliques[cid as usize]
            .vertices
            .iter()
            .copied()
            .find(|&v| triads.triad_of[v.index()].is_none() && can_stall(g, acd, cls, coloring, v));
        let Some(stall) = stall else {
            return Err(DeltaColoringError::InvariantViolated(format!(
                "Type II clique {cid} has no stall candidate with an uncolored \
                 slack source"
            )));
        };
        is_deferred[stall.index()] = true;
    }

    // Instance 1: hard vertices minus colored pairs minus deferred ones.
    let inst1: Vec<NodeId> = g
        .vertices()
        .filter(|&v| {
            cls.is_hard_vertex[v.index()] && !coloring.is_colored(v) && !is_deferred[v.index()]
        })
        .collect();
    stats.instance_sizes[0] = inst1.len();
    run_list_instance(g, &inst1, delta, coloring, "phase4b/instance 1", ledger)?;

    // Instance 2: the deferred (slack + stall) vertices.
    let inst2: Vec<NodeId> = g
        .vertices()
        .filter(|&v| is_deferred[v.index()] && !coloring.is_colored(v))
        .collect();
    stats.instance_sizes[1] = inst2.len();
    run_list_instance(g, &inst2, delta, coloring, "phase4b/instance 2", ledger)?;

    Ok(stats)
}

/// Whether hard vertex `v` can be a stall candidate: it has no external
/// hard neighbor to propose with AND an uncolored non-hard neighbor that
/// is colored after it (easy-clique vertices in Algorithm 1; easy-like or
/// deferred vertices in the randomized component solve), which is its
/// slack source in instance 2.
pub(crate) fn can_stall(
    g: &Graph,
    acd: &AcdResult,
    cls: &Classification,
    coloring: &Coloring,
    v: NodeId,
) -> bool {
    acd.clique_of
        .first_external_in(v, &cls.is_hard_vertex)
        .is_none()
        && g.neighbors(v)
            .iter()
            .any(|&w| !cls.is_hard_vertex[w.index()] && !coloring.is_colored(w))
}

/// Runs one `(deg+1)`-list instance over `active` with palettes = free
/// colors in `0..delta`, merging results into `coloring`.
pub(crate) fn run_list_instance(
    g: &Graph,
    active: &[NodeId],
    delta: u32,
    coloring: &mut Coloring,
    phase: impl Into<String>,
    ledger: &mut RoundLedger,
) -> Result<(), DeltaColoringError> {
    if active.is_empty() {
        return Ok(());
    }
    // One marker over `0..delta`, cleared after each vertex.
    let mut used = vec![false; delta as usize];
    let palettes: Vec<Vec<Color>> = active
        .iter()
        .map(|&v| {
            for c in g.neighbors(v).iter().filter_map(|&w| coloring.get(w)) {
                if let Some(mark) = used.get_mut(c.0 as usize) {
                    *mark = true;
                }
            }
            let palette = (0..delta)
                .map(Color)
                .filter(|c| !used[c.0 as usize])
                .collect();
            used.fill(false);
            palette
        })
        .collect();
    let probe = ledger.probe().clone();
    let timed = primitives::list_coloring::deg_plus_one_list_color_subset_probed(
        g, active, &palettes, None, &probe,
    )?;
    ledger.charge(phase, timed.rounds);
    for (v, c) in timed.value {
        coloring.set(v, c);
    }
    Ok(())
}
