//! Maximal matching: deterministic (proposals scheduled by the classes of
//! a `(Δ+1)`-vertex coloring) and randomized (Israeli–Itai style proposal
//! rounds).

use graphgen::{Graph, NodeId};
use localsim::{Executor, LocalAlgorithm, NodeCtx, Probe, SimError, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::linial::delta_plus_one_coloring_probed;
use crate::Timed;

/// A matching as a set of edges (each with `u < v`), plus per-node partner
/// lookup.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Matching {
    /// Matched edges with `u < v`.
    pub edges: Vec<(NodeId, NodeId)>,
    /// `partner[v]` is `v`'s match, if any.
    pub partner: Vec<Option<NodeId>>,
}

impl Matching {
    /// Builds a matching from explicit vertex pairs.
    ///
    /// # Panics
    ///
    /// Panics if the pairs share endpoints.
    pub fn from_pairs(n: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        Self::from_edges(n, pairs.to_vec())
    }

    fn from_edges(n: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        let mut partner = vec![None; n];
        for &(u, v) in &edges {
            assert!(partner[u.index()].is_none() && partner[v.index()].is_none());
            partner[u.index()] = Some(v);
            partner[v.index()] = Some(u);
        }
        Matching { edges, partner }
    }

    /// Whether this is a maximal matching of `g`: no two matched edges share
    /// an endpoint, and every edge of `g` touches a matched vertex.
    pub fn is_maximal(&self, g: &Graph) -> bool {
        for &(u, v) in &self.edges {
            if !g.has_edge(u, v) {
                return false;
            }
        }
        g.edges()
            .all(|(u, v)| self.partner[u.index()].is_some() || self.partner[v.index()].is_some())
    }
}

/// Deterministic class-scheduled proposal matching.
///
/// Sweeps the classes of a `(Δ+1)`-vertex coloring; in its class slot every
/// unmatched vertex proposes to its smallest-uid unmatched neighbor, and
/// targets accept their smallest-uid proposer. A vertex can be rejected at
/// most `Δ` times in total (each rejection matches one of its neighbors),
/// so at most `Δ + 2` sweeps run: `O(Δ²)` rounds worst case, a handful of
/// sweeps in practice, and only `O(n + m)` memory (no line graph is
/// built).
struct ClassProposalMatching {
    schedule: Vec<u32>,
    classes: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeInfo {
    uid: u64,
    proposal: Option<NodeId>,
    accepted: Option<NodeId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DetState {
    Free(FreeInfo),
    Matched(NodeId),
}

impl LocalAlgorithm for ClassProposalMatching {
    type State = DetState;
    type Output = Option<NodeId>;

    fn init(&self, ctx: &NodeCtx) -> DetState {
        DetState::Free(FreeInfo {
            uid: ctx.uid,
            proposal: None,
            accepted: None,
        })
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &DetState,
        nbrs: &[DetState],
    ) -> Transition<DetState, Option<NodeId>> {
        let DetState::Free(info) = state else {
            let DetState::Matched(p) = state else {
                unreachable!()
            };
            return Transition::Halt(Some(*p));
        };
        let phase = (ctx.round - 1) % 3;
        let slot = ((ctx.round - 1) / 3) % u64::from(self.classes);
        match phase {
            0 => {
                // Propose (only my class's slot).
                let free_nbrs: Vec<(u64, NodeId)> = ctx
                    .neighbors
                    .iter()
                    .zip(nbrs)
                    .filter_map(|(&w, s)| match s {
                        DetState::Free(fi) => Some((fi.uid, w)),
                        DetState::Matched(_) => None,
                    })
                    .collect();
                if free_nbrs.is_empty() {
                    return Transition::Halt(None);
                }
                let proposal = if u64::from(self.schedule[ctx.node.index()]) == slot {
                    Some(free_nbrs.iter().min().expect("nonempty").1)
                } else {
                    None
                };
                Transition::Continue(DetState::Free(FreeInfo {
                    proposal,
                    accepted: None,
                    ..*info
                }))
            }
            1 => {
                // Accept smallest-uid proposer (proposers skip accepting).
                if info.proposal.is_some() {
                    return Transition::Continue(*state);
                }
                let best = ctx
                    .neighbors
                    .iter()
                    .zip(nbrs)
                    .filter_map(|(&w, s)| match s {
                        DetState::Free(fi) if fi.proposal == Some(ctx.node) => Some((fi.uid, w)),
                        _ => None,
                    })
                    .min()
                    .map(|(_, w)| w);
                Transition::Continue(DetState::Free(FreeInfo {
                    accepted: best,
                    ..*info
                }))
            }
            _ => {
                // Confirm.
                if let Some(t) = info.proposal {
                    let ts = ctx
                        .neighbors
                        .iter()
                        .position(|&w| w == t)
                        .map(|i| nbrs[i])
                        .expect("target is a neighbor");
                    if matches!(ts, DetState::Free(fi) if fi.accepted == Some(ctx.node)) {
                        return Transition::Continue(DetState::Matched(t));
                    }
                }
                if let Some(a) = info.accepted {
                    return Transition::Continue(DetState::Matched(a));
                }
                Transition::Continue(DetState::Free(FreeInfo {
                    proposal: None,
                    accepted: None,
                    ..*info
                }))
            }
        }
    }
}

/// Deterministic maximal matching by class-scheduled proposals;
/// `O(Δ² + log* n)` rounds worst case, `O(n + m)` memory. Phase 1's
/// matching in the deterministic Δ-coloring pipeline.
///
/// # Examples
///
/// ```
/// let g = graphgen::generators::random_regular(64, 6, 1);
/// let out = primitives::matching::maximal_matching_det_direct(&g)?;
/// assert!(out.value.is_maximal(&g));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Propagates simulator errors.
pub fn maximal_matching_det_direct(g: &Graph) -> Result<Timed<Matching>, SimError> {
    maximal_matching_det_direct_probed(g, &Probe::disabled())
}

/// [`maximal_matching_det_direct`] with per-round telemetry mirrored to
/// `probe`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn maximal_matching_det_direct_probed(
    g: &Graph,
    probe: &Probe,
) -> Result<Timed<Matching>, SimError> {
    if g.n() == 0 || g.m() == 0 {
        return Ok(Timed::new(Matching::from_edges(g.n(), Vec::new()), 0));
    }
    let helper = delta_plus_one_coloring_probed(g, None, probe)?;
    let classes = g.max_degree() as u32 + 1;
    let schedule: Vec<u32> = g
        .vertices()
        .map(|v| helper.value.get(v).expect("complete coloring").0)
        .collect();
    let budget = 3 * u64::from(classes) * (g.max_degree() as u64 + 3) + 10;
    let run = Executor::new(g)
        .with_probe(probe.clone())
        .run(&ClassProposalMatching { schedule, classes }, budget)?;
    let mut edges = Vec::new();
    for v in g.vertices() {
        if let Some(p) = run.outputs[v.index()] {
            assert_eq!(
                run.outputs[p.index()],
                Some(v),
                "matching must be symmetric"
            );
            if v < p {
                edges.push((v, p));
            }
        }
    }
    Ok(Timed::new(
        Matching::from_edges(g.n(), edges),
        helper.rounds + run.rounds,
    ))
}

/// Israeli–Itai style randomized matching.
struct ProposalMatching {
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Free; fields meaningful per sub-round. `proposal` is the neighbor
    /// proposed to in this iteration (if a proposer).
    Free {
        proposal: Option<NodeId>,
        accepted: Option<NodeId>,
    },
    Matched(NodeId),
}

fn coin(seed: u64, uid: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ uid.wrapping_mul(0xA076_1D64_78BD_642F) ^ round.wrapping_mul(0xE703_7ED1_A0B4_28DB),
    )
}

impl LocalAlgorithm for ProposalMatching {
    type State = NodeState;
    type Output = Option<NodeId>;

    fn init(&self, _ctx: &NodeCtx) -> NodeState {
        NodeState::Free {
            proposal: None,
            accepted: None,
        }
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &NodeState,
        nbrs: &[NodeState],
    ) -> Transition<NodeState, Option<NodeId>> {
        if let NodeState::Matched(p) = state {
            return Transition::Halt(Some(*p));
        }
        let free_neighbors: Vec<NodeId> = ctx
            .neighbors
            .iter()
            .zip(nbrs)
            .filter(|(_, s)| matches!(s, NodeState::Free { .. }))
            .map(|(&w, _)| w)
            .collect();
        // Sub-round within the 3-round iteration.
        match (ctx.round - 1) % 3 {
            0 => {
                // Propose: with a fair coin, pick a random free neighbor.
                if free_neighbors.is_empty() {
                    return Transition::Halt(None); // maximality reached locally
                }
                let mut rng = coin(self.seed, ctx.uid, ctx.round);
                let proposal = if rng.gen_bool(0.5) {
                    Some(free_neighbors[rng.gen_range(0..free_neighbors.len())])
                } else {
                    None
                };
                Transition::Continue(NodeState::Free {
                    proposal,
                    accepted: None,
                })
            }
            1 => {
                // Accept: non-proposers take the smallest-id proposer.
                let me = ctx.node;
                let i_proposed = matches!(
                    state,
                    NodeState::Free {
                        proposal: Some(_),
                        ..
                    }
                );
                if i_proposed {
                    return Transition::Continue(*state);
                }
                let best = ctx
                    .neighbors
                    .iter()
                    .zip(nbrs)
                    .filter(
                        |(_, s)| matches!(s, NodeState::Free { proposal: Some(t), .. } if *t == me),
                    )
                    .map(|(&w, _)| w)
                    .min();
                Transition::Continue(NodeState::Free {
                    proposal: None,
                    accepted: best,
                })
            }
            _ => {
                // Confirm: proposer matches iff its target accepted it;
                // acceptor matches its accepted proposer.
                if let NodeState::Free {
                    proposal: Some(t), ..
                } = state
                {
                    let target_state = ctx
                        .neighbors
                        .iter()
                        .position(|&w| w == *t)
                        .map(|i| nbrs[i])
                        .expect("proposal target is a neighbor");
                    if matches!(target_state, NodeState::Free { accepted: Some(a), .. } if a == ctx.node)
                    {
                        return Transition::Continue(NodeState::Matched(*t));
                    }
                    return Transition::Continue(NodeState::Free {
                        proposal: None,
                        accepted: None,
                    });
                }
                if let NodeState::Free {
                    accepted: Some(a), ..
                } = state
                {
                    return Transition::Continue(NodeState::Matched(*a));
                }
                Transition::Continue(NodeState::Free {
                    proposal: None,
                    accepted: None,
                })
            }
        }
    }
}

/// Randomized maximal matching in `O(log n)` rounds w.h.p.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn maximal_matching_rand(g: &Graph, seed: u64) -> Result<Timed<Matching>, SimError> {
    maximal_matching_rand_probed(g, seed, &Probe::disabled())
}

/// [`maximal_matching_rand`] with per-round telemetry mirrored to `probe`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn maximal_matching_rand_probed(
    g: &Graph,
    seed: u64,
    probe: &Probe,
) -> Result<Timed<Matching>, SimError> {
    if g.n() == 0 {
        return Ok(Timed::new(Matching::default(), 0));
    }
    let budget = 200 + 60 * (usize::BITS - g.n().leading_zeros()) as u64;
    let run = Executor::new(g)
        .with_probe(probe.clone())
        .run(&ProposalMatching { seed }, budget)?;
    let mut edges = Vec::new();
    for v in g.vertices() {
        if let Some(p) = run.outputs[v.index()] {
            assert_eq!(
                run.outputs[p.index()],
                Some(v),
                "matching must be symmetric"
            );
            if v < p {
                edges.push((v, p));
            }
        }
    }
    Ok(Timed::new(Matching::from_edges(g.n(), edges), run.rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;

    #[test]
    fn det_matching_maximal_on_families() {
        for g in [
            generators::cycle(21),
            generators::complete(7),
            generators::hypercube(4),
            generators::random_regular(80, 5, 6),
            generators::star(9),
        ] {
            let out = maximal_matching_det_direct(&g).unwrap();
            assert!(out.value.is_maximal(&g));
        }
    }

    #[test]
    fn rand_matching_maximal_on_families() {
        for (i, g) in [
            generators::cycle(50),
            generators::random_regular(120, 4, 8),
            generators::gnp(60, 0.15, 2),
        ]
        .iter()
        .enumerate()
        {
            let out = maximal_matching_rand(g, 100 + i as u64).unwrap();
            assert!(out.value.is_maximal(g), "seed {i}");
        }
    }

    #[test]
    fn single_edge_matches() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let out = maximal_matching_det_direct(&g).unwrap();
        assert_eq!(out.value.edges, vec![(NodeId(0), NodeId(1))]);
        let out = maximal_matching_rand(&g, 3).unwrap();
        assert_eq!(out.value.edges, vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn empty_graph_empty_matching() {
        let g = Graph::from_edges(4, []).unwrap();
        assert!(maximal_matching_det_direct(&g)
            .unwrap()
            .value
            .edges
            .is_empty());
    }

    #[test]
    fn maximality_checker_rejects() {
        let g = generators::path(4);
        let m = Matching::from_edges(4, vec![(NodeId(0), NodeId(1))]);
        assert!(!m.is_maximal(&g)); // edge (2,3) uncovered
        let m = Matching::from_edges(4, vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
        assert!(m.is_maximal(&g));
    }
}
