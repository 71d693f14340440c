//! The round kernel: one synchronous round over a slice of live nodes.
//!
//! Every state-exchange round in the crate runs through [`step_range`]
//! once per round: [`crate::Executor`] calls it over the whole live
//! list, the shard worker over its owned range. Each call gathers a
//! node's neighbor states from the previous round, steps it, and writes
//! its next state — or its output and frozen state — into a window of
//! the caller's buffers. Callers differ only in which nodes they own,
//! which [`NeighborView`] they pass, and what they do in the
//! `on_continue` hook.

use graphgen::NodeId;

use crate::exec::{LocalAlgorithm, NodeCtx, Transition};
use crate::faults::FaultPlan;

/// Counter deltas of one [`step_range`] call, reported in the round's
/// event.
#[derive(Default)]
pub(crate) struct StepCounts {
    /// Neighbor states read: one per incident edge of every stepped
    /// node, dropped reads included (see `Event::Round`'s docs).
    pub msgs: i64,
    /// Reads the fault plan dropped.
    pub dropped: i64,
    /// Live nodes that stalled instead of stepping.
    pub stalled: i64,
}

/// How a stepped node hears its neighbors' previous-round states.
/// Implementations are picked once per call, so the per-node loop is
/// monomorphized with no branch on the view.
pub(crate) trait NeighborView<S> {
    /// Appends the states `v` hears from `nbrs` in `round` to `buf` and
    /// returns how many of those reads were dropped.
    fn gather(
        &mut self,
        v: NodeId,
        nbrs: &[NodeId],
        round: u64,
        cur: &[S],
        buf: &mut Vec<S>,
    ) -> i64;
}

/// Reliable delivery: every read sees the neighbor's previous-round
/// state.
pub(crate) struct Gather;

impl<S: Clone> NeighborView<S> for Gather {
    #[inline]
    fn gather(&mut self, _: NodeId, nbrs: &[NodeId], _: u64, cur: &[S], buf: &mut Vec<S>) -> i64 {
        buf.extend(nbrs.iter().map(|w| cur[w.index()].clone()));
        0
    }
}

/// Lossy delivery through the per-directed-port "last heard" cache: a
/// read that the plan drops leaves the reader with the state it last
/// heard on that port.
pub(crate) struct DropCache<'a, S> {
    pub plan: &'a FaultPlan,
    /// The cache window the caller owns; `seen[0]` is global port
    /// `seen_lo`.
    pub seen: &'a mut [S],
    pub seen_lo: usize,
    /// Global port offset of node `v`'s first port, at `ports[v - node_lo]`.
    pub ports: &'a [usize],
    pub node_lo: usize,
}

impl<S: Clone> NeighborView<S> for DropCache<'_, S> {
    #[inline]
    fn gather(
        &mut self,
        v: NodeId,
        nbrs: &[NodeId],
        round: u64,
        cur: &[S],
        buf: &mut Vec<S>,
    ) -> i64 {
        let base = self.ports[v.index() - self.node_lo];
        let local = base - self.seen_lo;
        let mut dropped = 0;
        for (p, w) in nbrs.iter().enumerate() {
            // The drop stream is keyed by the *global* port slot, so every
            // shard count draws identical decisions.
            if self.plan.drops_message(round, base + p) {
                dropped += 1;
            } else {
                self.seen[local + p] = cur[w.index()].clone();
            }
        }
        buf.extend_from_slice(&self.seen[local..local + nbrs.len()]);
        dropped
    }
}

/// The per-round inputs shared by every [`step_range`] call of a round.
pub(crate) struct Round<'a, A, F> {
    pub algo: &'a A,
    /// The 1-based round number.
    pub number: u64,
    /// Builds a node's [`NodeCtx`] for a round; its `neighbors` are the
    /// ports the view gathers over.
    pub node_ctx: &'a F,
    /// The fault plan, when bounded-asynchrony stalls are on.
    pub stalls: Option<&'a FaultPlan>,
    /// Whether a continuing node may sleep until its
    /// [`LocalAlgorithm::wake`] round instead of staying live.
    pub sleep: bool,
}

/// The write side of one [`step_range`] call: node `v` writes
/// `nxt[v - lo]` and `outputs[v - lo]`.
pub(crate) struct Window<'a, S, O> {
    pub lo: usize,
    pub nxt: &'a mut [S],
    pub outputs: &'a mut [Option<O>],
}

/// Scratch a caller reuses across calls: the neighbor-state buffer, the
/// survivor list and the `(wake round, node)` sleeper list, which
/// [`step_range`] appends to in `live` order.
pub(crate) struct Scratch<S> {
    pub nbr_buf: Vec<S>,
    pub survivors: Vec<NodeId>,
    pub sleepers: Vec<(u64, NodeId)>,
}

impl<S> Scratch<S> {
    pub(crate) fn new(max_degree: usize) -> Self {
        Scratch {
            nbr_buf: Vec::with_capacity(max_degree),
            survivors: Vec::new(),
            sleepers: Vec::new(),
        }
    }
}

/// Steps every node of `live` (ascending) against the previous round's
/// states `cur`, gathering through `view` and writing into `win`.
///
/// A stalled node keeps its state and stays live; a continuing node
/// writes its new state, calls `on_continue(v, old, new)` and stays
/// live — or, under `rnd.sleep` with a wake round past the next one,
/// goes to the sleeper list instead; a halting node writes its output
/// and freezes its old state in the write buffer, so both buffers agree
/// on it from then on.
pub(crate) fn step_range<'g, A, F, V, H>(
    rnd: &Round<'_, A, F>,
    live: &[NodeId],
    cur: &[A::State],
    view: &mut V,
    win: Window<'_, A::State, A::Output>,
    scratch: &mut Scratch<A::State>,
    mut on_continue: H,
) -> StepCounts
where
    A: LocalAlgorithm,
    F: Fn(NodeId, u64) -> NodeCtx<'g>,
    V: NeighborView<A::State>,
    H: FnMut(NodeId, &A::State, &A::State),
{
    let Window { lo, nxt, outputs } = win;
    let Scratch {
        nbr_buf,
        survivors,
        sleepers,
    } = scratch;
    let number = rnd.number;
    let mut counts = StepCounts::default();
    let mut visit = |v: NodeId, stalled: bool| {
        let vi = v.index();
        if stalled {
            nxt[vi - lo] = cur[vi].clone();
            counts.stalled += 1;
            survivors.push(v);
            return;
        }
        let ctx = (rnd.node_ctx)(v, number);
        nbr_buf.clear();
        counts.dropped += view.gather(v, ctx.neighbors, number, cur, nbr_buf);
        counts.msgs += ctx.neighbors.len() as i64;
        match rnd.algo.step(&ctx, &cur[vi], nbr_buf) {
            Transition::Continue(s) => {
                on_continue(v, &cur[vi], &s);
                let wake = if rnd.sleep {
                    rnd.algo.wake(&ctx, &s)
                } else {
                    0
                };
                nxt[vi - lo] = s;
                if wake > number + 1 {
                    sleepers.push((wake, v));
                } else {
                    survivors.push(v);
                }
            }
            Transition::Halt(o) => {
                outputs[vi - lo] = Some(o);
                nxt[vi - lo] = cur[vi].clone();
            }
        }
    };
    // One loop per stall mode, so a run without jitter has no stall
    // branch at all.
    match rnd.stalls {
        None => live.iter().for_each(|&v| visit(v, false)),
        Some(plan) => live.iter().for_each(|&v| visit(v, plan.stalls(v, number))),
    }
    counts
}
