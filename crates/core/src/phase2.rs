//! Phase 2 — Sparsifying the core matching (§3.4, Lemma 13).
//!
//! The virtual graph `G_Q` puts two nodes per hard clique — `Q⁺` (vertices
//! with outgoing `F2` edges) and `Q⁻` (the rest) — and one edge per `F2`
//! edge. A two-level degree splitting (Corollary 22 with `i = 2`) keeps a
//! quarter of the edges, after which each clique retains roughly
//! `K/4` outgoing and at most `Δ/4 + O(εΔ)` incoming edges. We then keep
//! **exactly two** outgoing edges per clique (the paper's Step 6), choosing
//! heads with the lowest incoming load; a cap-aware fixup re-adds edges
//! from `F2` for any clique the split left under-supplied. Lemma 13's
//! conclusion — two outgoing, strictly fewer than `½(Δ − 2εΔ − 1)`
//! incoming — is guaranteed only in the paper's `ε = 1/63, K = 28`
//! regime. Under relaxed parameters the greedy (cliques in index order)
//! can leave a clique short; an augmenting-path repair over `F2` then
//! finds a selection within the cap if one exists, and phase 2 fails with
//! a Lemma 13 `InvariantViolated` error only when none does (see
//! DESIGN.md).

use acd::AcdResult;
use graphgen::{Graph, NodeId};
use localsim::RoundLedger;

use crate::classify::Classification;
use crate::error::DeltaColoringError;
use crate::phase1::BalancedMatching;

/// The sparsified, oriented matching `F3`.
#[derive(Debug, Clone)]
pub struct SparsifiedMatching {
    /// Oriented edges `(tail, head)`; exactly two per Type-I⁺ clique.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Clique ids that ended Type I⁺ (they will receive slack triads).
    pub type_i_plus: Vec<u32>,
    /// Incoming `F3` edges per clique.
    pub incoming: Vec<usize>,
    /// The Lemma 13 incoming bound `½(Δ − 2εΔ − 1)` that was enforced.
    pub incoming_bound: f64,
}

/// Runs Phase 2.
///
/// # Errors
///
/// Propagates simulator errors; reports an invariant violation if no
/// selection gives every `C_HEG` clique two outgoing edges within the
/// incoming bound (cannot happen under the paper's parameters).
pub fn sparsify_matching(
    g: &Graph,
    acd: &AcdResult,
    cls: &Classification,
    f2: &BalancedMatching,
    eps: f64,
    segment: usize,
    ledger: &mut RoundLedger,
) -> Result<SparsifiedMatching, DeltaColoringError> {
    let delta = g.max_degree() as f64;
    let bound = 0.5 * (delta - 2.0 * eps * delta - 1.0);
    // The cap actually needed by Lemma 16: a pair's G_V degree is at most
    // in_C + in_C' + e_C + e_C', so capping incoming at
    // ⌊(Δ − 2 − 2·e_max)/2⌋ keeps it within Δ − 2. Under the paper's
    // parameters (e_max ≤ εΔ) this is at least as strict as the ½(Δ−2εΔ−1)
    // bound of Lemma 13.
    let e_max = cls
        .hard_ids
        .iter()
        .map(|&c| g.max_degree() + 1 - acd.cliques[c as usize].vertices.len())
        .max()
        .unwrap_or(1);
    let n_cliques = acd.cliques.len();
    let clique_of = |v: NodeId| acd.clique_of[v.index()].expect("F2 touches hard cliques only");

    if f2.edges.is_empty() {
        ledger.charge_constant("phase2/degree splitting", 0);
        return Ok(SparsifiedMatching {
            edges: Vec::new(),
            type_i_plus: Vec::new(),
            incoming: vec![0; n_cliques],
            incoming_bound: bound,
        });
    }

    // G_Q: node 2c = Q⁺ of clique c, node 2c+1 = Q⁻ of clique c.
    let gq_edges: Vec<(u32, u32)> = f2
        .edges
        .iter()
        .map(|&(t, h)| (2 * clique_of(t), 2 * clique_of(h) + 1))
        .collect();
    let gq = Graph::from_edges(2 * n_cliques, gq_edges).expect("G_Q is a simple graph");
    let probe = ledger.probe().clone();
    let split = primitives::split::split_into_parts_probed(&gq, 2, segment, &probe)?;
    ledger.charge("phase2/degree splitting (2 levels)", split.rounds);

    // Keep F2 edges whose G_Q edge landed in part 0. `Graph::edges()`
    // iterates in sorted order, so translate via an index map.
    let gq_sorted: Vec<(NodeId, NodeId)> = gq.edges().collect();
    let mut part_of: std::collections::HashMap<(u32, u32), u8> = std::collections::HashMap::new();
    for (i, &(a, b)) in gq_sorted.iter().enumerate() {
        part_of.insert((a.0, b.0), split.value[i]);
    }
    let kept: Vec<bool> = f2
        .edges
        .iter()
        .map(|&(t, h)| {
            let a = 2 * clique_of(t);
            let b = 2 * clique_of(h) + 1;
            part_of[&(a.min(b), a.max(b))] == 0
        })
        .collect();

    // Cap-aware selection of exactly two outgoing edges per C_HEG clique,
    // preferring edges the split kept, then falling back to all of F2.
    let cap = (g.max_degree() as i64 - 2 - 2 * e_max as i64).max(0) as usize / 2;
    let (tails, heads): (Vec<usize>, Vec<usize>) = f2
        .edges
        .iter()
        .map(|&(t, h)| (clique_of(t) as usize, clique_of(h) as usize))
        .unzip();
    let mut sel = Selection::new(tails, heads, n_cliques, cap);
    let mut heg_sorted = cls.heg_ids.clone();
    heg_sorted.sort_unstable();
    let mut repair_hops = 0;
    for &cid in &heg_sorted {
        let cid = cid as usize;
        // Two passes: split-kept edges first, then the rest of F2.
        for pass in 0..2 {
            if sel.picks[cid].len() == 2 {
                break;
            }
            // Candidates sorted by current head load (stable by index).
            let mut cands: Vec<usize> = sel.out_edges[cid]
                .iter()
                .copied()
                .filter(|&i| (pass == 0) == kept[i])
                .collect();
            cands.sort_by_key(|&i| sel.incoming[sel.heads[i]]);
            for i in cands {
                if sel.picks[cid].len() == 2 {
                    break;
                }
                if sel.incoming[sel.heads[i]] < cap {
                    sel.take(i);
                }
            }
        }
        while sel.picks[cid].len() < 2 {
            let Some(hops) = sel.augment(cid) else {
                return Err(DeltaColoringError::InvariantViolated(format!(
                    "Lemma 13: clique {cid} could not keep two outgoing edges within \
                     the incoming cap {cap}"
                )));
            };
            repair_hops += hops;
        }
    }
    ledger.charge_constant("phase2/outgoing selection", 4);
    if repair_hops > 0 {
        // Each hop of an augmenting path crosses an F2 edge and a clique
        // (diameter ≤ 2): 3 rounds to find the path and 3 to flip it.
        ledger.charge("phase2/selection repair", 6 * repair_hops as u64);
    }
    let incoming = sel.incoming;
    let selected: Vec<usize> = heg_sorted
        .iter()
        .flat_map(|&c| sel.picks[c as usize].iter().copied())
        .collect();

    let edges: Vec<(NodeId, NodeId)> = selected.iter().map(|&i| f2.edges[i]).collect();
    // The cap enforces the Lemma 16 requirement by construction; Lemma 13's
    // ε-form bound additionally holds under the paper's parameters.
    for (c, &inc) in incoming.iter().enumerate() {
        if inc > cap {
            return Err(DeltaColoringError::InvariantViolated(format!(
                "Lemma 13: clique {c} has {inc} incoming F3 edges, cap {cap}"
            )));
        }
    }
    Ok(SparsifiedMatching {
        edges,
        type_i_plus: heg_sorted,
        incoming,
        incoming_bound: bound,
    })
}

/// The outgoing-edge selection over `F2`, as a flow: every `C_HEG` tail
/// clique needs two edges, and every head clique takes at most `cap`.
struct Selection {
    /// Tail and head clique per `F2` edge.
    tails: Vec<usize>,
    heads: Vec<usize>,
    /// `F2` edge indices per tail clique and per head clique.
    out_edges: Vec<Vec<usize>>,
    in_edges: Vec<Vec<usize>>,
    /// Selected edges per tail clique, in selection order.
    picks: Vec<Vec<usize>>,
    chosen: Vec<bool>,
    incoming: Vec<usize>,
    cap: usize,
}

impl Selection {
    fn new(tails: Vec<usize>, heads: Vec<usize>, n_cliques: usize, cap: usize) -> Self {
        let mut out_edges = vec![Vec::new(); n_cliques];
        let mut in_edges = vec![Vec::new(); n_cliques];
        for (e, (&t, &h)) in tails.iter().zip(&heads).enumerate() {
            out_edges[t].push(e);
            in_edges[h].push(e);
        }
        Selection {
            chosen: vec![false; tails.len()],
            tails,
            heads,
            out_edges,
            in_edges,
            picks: vec![Vec::new(); n_cliques],
            incoming: vec![0; n_cliques],
            cap,
        }
    }

    fn take(&mut self, e: usize) {
        self.chosen[e] = true;
        self.incoming[self.heads[e]] += 1;
        self.picks[self.tails[e]].push(e);
    }

    /// Gives `cid` one more edge along an augmenting path and returns the
    /// path's length in tail cliques, or `None` if there is none. A path
    /// takes an unselected edge into a full head, whose selected edge's
    /// tail then trades it for another unselected edge, and so on until a
    /// head below the cap is reached. Only the cliques already served
    /// hold selected edges, so when no path exists, no selection serves
    /// them and `cid` together.
    fn augment(&mut self, cid: usize) -> Option<usize> {
        let n = self.picks.len();
        // `via[t]`: the parent's edge into a full head and `t`'s selected
        // edge into the same head, which `t` gives up.
        let mut via: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut head_seen = vec![false; n];
        let mut tail_seen = vec![false; n];
        tail_seen[cid] = true;
        let mut queue = std::collections::VecDeque::from([cid]);
        let mut gain = 'search: loop {
            let t = queue.pop_front()?;
            for &e in &self.out_edges[t] {
                let h = self.heads[e];
                if self.chosen[e] || head_seen[h] {
                    continue;
                }
                if self.incoming[h] < self.cap {
                    break 'search e;
                }
                head_seen[h] = true;
                for &back in &self.in_edges[h] {
                    let u = self.tails[back];
                    if self.chosen[back] && !tail_seen[u] {
                        tail_seen[u] = true;
                        via[u] = Some((e, back));
                        queue.push_back(u);
                    }
                }
            }
        };
        self.incoming[self.heads[gain]] += 1;
        let mut tail = self.tails[gain];
        let mut hops = 1;
        while let Some((parent_edge, lost)) = via[tail] {
            self.chosen[lost] = false;
            self.chosen[gain] = true;
            let slot = self.picks[tail].iter().position(|&p| p == lost);
            self.picks[tail][slot.expect("a traded edge is selected")] = gain;
            gain = parent_edge;
            tail = self.tails[gain];
            hops += 1;
        }
        self.chosen[gain] = true;
        self.picks[cid].push(gain);
        Some(hops)
    }
}
