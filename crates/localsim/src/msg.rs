//! The per-port message-passing executor: the LOCAL model's native
//! interface, one message per incident edge per round.
//!
//! [`crate::Executor`] runs algorithms in *state-exchange* form (each node
//! broadcasts its whole state), which is universal for the LOCAL model but
//! obscures what is actually communicated. [`MessageExecutor`] runs
//! [`MessageProgram`]s that keep private per-node state and address
//! individual ports — the right level for algorithms whose analysis counts
//! *messages* (and the basis for a CONGEST mode, where per-port messages
//! would be size-capped).

use std::sync::Mutex;

use graphgen::{Graph, NodeId};
use telemetry::Probe;

use crate::exec::{NodeCtx, RunResult, SimError};
use crate::faults::FaultPlan;
use crate::par;
use crate::pool;
use crate::tally::RoundTally;

/// Scope string under which [`MessageExecutor`] emits per-round events.
pub const MSG_SCOPE: &str = "localsim/msg";

/// Slot-indexed work cells for one parallel phase-1 epoch: each cell is
/// `(segment, segment base index, that segment's state slice)`, taken
/// by pool slot `i` through a shared reference.
type MsgWorkCells<'a, S> = Vec<Mutex<Option<(&'a [NodeId], usize, &'a mut [S])>>>;

/// What a node does after processing one round of messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgTransition<M, O> {
    /// Keep running, sending the given messages next round.
    Continue(Vec<Outgoing<M>>),
    /// Send the given messages, then halt with an output.
    HaltAfter(Vec<Outgoing<M>>, O),
}

/// An outgoing message: which port (index into the node's adjacency list)
/// and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// Index into the sender's sorted adjacency list.
    pub port: usize,
    /// The payload.
    pub msg: M,
}

impl<M> Outgoing<M> {
    /// Convenience constructor.
    pub fn new(port: usize, msg: M) -> Self {
        Outgoing { port, msg }
    }
}

/// Broadcast helper: the same message on every port.
pub fn broadcast<M: Clone>(degree: usize, msg: &M) -> Vec<Outgoing<M>> {
    (0..degree).map(|p| Outgoing::new(p, msg.clone())).collect()
}

/// A distributed algorithm in stateful per-port message form.
pub trait MessageProgram {
    /// Private per-node state.
    type State;
    /// Message payload.
    type Msg: Clone;
    /// Per-node output on halting.
    type Output;

    /// Initial state and the messages sent before the first round.
    fn init(&self, ctx: &NodeCtx) -> (Self::State, Vec<Outgoing<Self::Msg>>);

    /// Processes one round's inbox (`inbox[p]` = message received on port
    /// `p`, if any) and decides what to send next.
    fn step(
        &self,
        ctx: &NodeCtx,
        state: &mut Self::State,
        inbox: &[Option<Self::Msg>],
    ) -> MsgTransition<Self::Msg, Self::Output>;
}

/// Runs [`MessageProgram`]s over a graph with synchronous delivery.
#[derive(Debug)]
pub struct MessageExecutor<'g> {
    graph: &'g Graph,
    probe: Probe,
    threads: usize,
    faults: Option<FaultPlan>,
}

/// Writes `outs` from `v` into the flat inbox arena for the next round,
/// recording every touched slot so the arena can be cleared in place.
/// Returns the number of messages sent (dropped ones included — they
/// were transmitted, then lost).
///
/// The arena is port-indexed through the graph's CSR offsets: slot
/// `offsets[w] + q` is port `q` of node `w`. The receiving port is an
/// O(1) lookup in the precomputed reverse-port table (indexed by the
/// *sender's* slot), replacing a per-message binary search.
///
/// With an active fault plan, each message is dropped iff the plan's
/// seed-keyed decision for `(round, destination slot)` fires — a pure
/// function of the slot, so delivery order never matters.
#[allow(clippy::too_many_arguments)]
fn deliver<M>(
    graph: &Graph,
    offsets: &[usize],
    rev: &[u32],
    arena: &mut [Option<M>],
    dirty: &mut Vec<usize>,
    v: NodeId,
    outs: Vec<Outgoing<M>>,
    faults: Option<(&FaultPlan, u64)>,
    dropped: &mut i64,
) -> i64 {
    let sent = outs.len() as i64;
    let nbrs = graph.neighbors(v);
    let base = offsets[v.index()];
    for out in outs {
        let w = nbrs[out.port];
        let slot = offsets[w.index()] + rev[base + out.port] as usize;
        if let Some((plan, round)) = faults {
            if plan.drops_message(round, slot) {
                *dropped += 1;
                continue;
            }
        }
        arena[slot] = Some(out.msg);
        dirty.push(slot);
    }
    sent
}

/// Carries a stalled node's undelivered inbox over to the next round's
/// arena (bounded-asynchrony semantics: a stalled node's messages wait on
/// the link). A slot already written by this round's delivery keeps the
/// newer message — the link buffers one message per port.
fn retain_inbox<M: Clone>(
    offsets: &[usize],
    cur: &[Option<M>],
    nxt: &mut [Option<M>],
    dirty: &mut Vec<usize>,
    v: NodeId,
) {
    for slot in offsets[v.index()]..offsets[v.index() + 1] {
        if cur[slot].is_some() && nxt[slot].is_none() {
            nxt[slot] = cur[slot].clone();
            dirty.push(slot);
        }
    }
}

impl<'g> MessageExecutor<'g> {
    /// An executor over `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        MessageExecutor {
            graph,
            probe: Probe::disabled(),
            threads: 1,
            faults: None,
        }
    }

    /// Injects the given seed-deterministic [`FaultPlan`] into every run:
    /// per-message drops (decided per destination slot and round), node
    /// crashes (frozen like halted nodes, reported via
    /// [`telemetry::Event::Fault`] and [`SimError::Crashed`]), and
    /// bounded-asynchrony stalls (a stalled node's pending inbox waits on
    /// the link). Faulty runs stay bit-identical between the sequential
    /// and parallel stepping paths (see `docs/FAULTS.md`). An inactive
    /// plan is a no-op.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan.is_active().then_some(plan);
        self
    }

    /// Attaches a telemetry probe; every run then emits one
    /// [`telemetry::Event::Round`] per round under the [`MSG_SCOPE`] scope
    /// (live nodes, halts, messages sent, inbox bytes).
    #[must_use]
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Opts into deterministic parallel stepping with `k` worker threads
    /// (`k <= 1` keeps the sequential path).
    ///
    /// Rounds split into two phases: node steps run in parallel over
    /// contiguous worklist segments (reading only the previous round's
    /// inboxes), then all deliveries are applied in ascending node order
    /// on the calling thread. The sequential path runs the same step and
    /// apply code node by node, so outputs and telemetry are
    /// bit-identical to it regardless of `k`.
    #[must_use]
    pub fn with_threads(mut self, k: usize) -> Self {
        self.threads = k.max(1);
        self
    }

    /// Runs `prog` until every node halts; counts communication rounds.
    ///
    /// Inboxes live in two flat port-indexed arenas (one slice of length
    /// 2m for the whole graph) that are swapped every round and cleared
    /// in place via a dirty list — no per-round allocation — and halted
    /// nodes are skipped via a compacting live worklist.
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] past `max_rounds`;
    /// [`SimError::Crashed`] if an injected fault plan crashed nodes
    /// before they could output; [`SimError::BadFaultPlan`] if the plan
    /// does not fit the graph.
    pub fn run<P>(&self, prog: &P, max_rounds: u64) -> Result<RunResult<P::Output>, SimError>
    where
        P: MessageProgram + Sync,
        P::State: Send,
        P::Msg: Send + Sync,
        P::Output: Send,
    {
        let n = self.graph.n();
        if let Some(plan) = &self.faults {
            plan.check(n)?;
        }
        if n == 0 {
            return Ok(RunResult {
                outputs: Vec::new(),
                rounds: 0,
            });
        }
        // Per-run invariants, hoisted out of the per-node hot loop.
        let graph = self.graph;
        let max_degree = graph.max_degree();
        let offsets = graph.csr_offsets();
        let rev = graph.reverse_ports();
        let total_ports = offsets[n];
        let make_ctx = move |v: NodeId, round: u64| NodeCtx {
            node: v,
            uid: u64::from(v.0),
            neighbors: graph.neighbors(v),
            round,
            n,
            max_degree,
        };
        let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
        let mut cur: Vec<Option<P::Msg>> = (0..total_ports).map(|_| None).collect();
        let mut nxt: Vec<Option<P::Msg>> = (0..total_ports).map(|_| None).collect();
        let mut dirty_cur: Vec<usize> = Vec::new();
        let mut dirty_nxt: Vec<usize> = Vec::new();
        // Metric handles (None when no hub is attached — the hot loop then
        // takes no timestamps). `msg.arena_peak` / `msg.dirty_slots` track
        // inbox-arena occupancy and compaction work via the dirty list.
        let hub = self.probe.metrics();
        let m_rounds = hub.map(|h| h.counter("msg.rounds"));
        let m_arena_peak = hub.map(|h| h.watermark("msg.arena_peak"));
        let m_dirty = hub.map(|h| h.counter("msg.dirty_slots"));
        let m_round_ns = hub.map(|h| h.histogram("msg.round_ns"));
        // Fault machinery — inert unless a plan is active, so fault-free
        // runs keep byte-identical telemetry.
        let inert = FaultPlan::default();
        let plan = self.faults.as_ref().unwrap_or(&inert);
        let drop_on = plan.drops();
        let jitter_on = plan.jitters();
        let crash_sched = plan.crash_schedule();
        let mut tally = RoundTally::new(&self.probe, MSG_SCOPE, n, plan, true);
        let drop_ctx = |round: u64| drop_on.then_some((plan, round));
        let mut crashed = 0usize;
        // Init-time sends and drops fold into the first round's event.
        let mut init_msgs = 0i64;
        let mut init_dropped = 0i64;
        let mut states: Vec<P::State> = Vec::with_capacity(n);
        {
            let mut first_outs = Vec::with_capacity(n);
            for v in graph.vertices() {
                let (st, outs) = prog.init(&make_ctx(v, 0));
                states.push(st);
                first_outs.push(outs);
            }
            for (v, outs) in graph.vertices().zip(first_outs) {
                init_msgs += deliver(
                    graph,
                    offsets,
                    rev,
                    &mut cur,
                    &mut dirty_cur,
                    v,
                    outs,
                    drop_ctx(0),
                    &mut init_dropped,
                );
            }
        }
        let mut live_list: Vec<NodeId> = graph.vertices().collect();
        let mut rounds = 0u64;
        // Parallel phase-1 machinery: the worker pool is leased once per
        // run (first parallel round) and parked between rounds; the
        // per-slot transition buffers persist across rounds.
        let mut pool_lease: Option<pool::PoolLease> = None;
        let par_slots = if self.threads > 1 { self.threads } else { 0 };
        // Slot i holds segment i's transitions in node order, `None` for
        // a stalled node.
        #[allow(clippy::type_complexity)]
        let mut transition_bufs: Vec<Mutex<Vec<Option<MsgTransition<P::Msg, P::Output>>>>> =
            (0..par_slots).map(|_| Mutex::new(Vec::new())).collect();
        while !live_list.is_empty() {
            if rounds >= max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: max_rounds,
                    still_running: live_list.len(),
                });
            }
            rounds += 1;
            let pending = if self.probe.enabled() {
                cur.iter().filter(|m| m.is_some()).count()
            } else {
                0
            };
            tally.round_start(
                rounds,
                live_list.len(),
                pending * std::mem::size_of::<P::Msg>(),
            );
            // Crashes fire at the start of their round, before any node
            // steps; the node's pending inbox dies with it.
            if let Some(nodes) = crash_sched.get(&rounds) {
                for &v in nodes {
                    if let Ok(pos) = live_list.binary_search(&v) {
                        live_list.remove(pos);
                        crashed += 1;
                        tally.crash(v);
                    }
                }
            }
            if let Some(c) = &m_rounds {
                c.incr();
            }
            let round_start = m_round_ns.as_ref().map(|_| std::time::Instant::now());
            // Sends and drops are accounted to the round event of the
            // round in which the executor processed the send.
            let mut msgs = std::mem::take(&mut init_msgs);
            let mut dropped = std::mem::take(&mut init_dropped);
            let mut stalled = 0i64;
            // Step one node against the read-only current arena: `None`
            // for a stalled node.
            let step = |v: NodeId, st: &mut P::State| {
                if jitter_on && plan.stalls(v, rounds) {
                    return None;
                }
                let inbox = &cur[offsets[v.index()]..offsets[v.index() + 1]];
                Some(prog.step(&make_ctx(v, rounds), st, inbox))
            };
            let seg_count = if self.threads > 1 && live_list.len() > 1 {
                // Phase 1 (parallel): pool slot i steps segment i into
                // its transition buffer; the degree-weighted split keeps
                // hub-heavy segments from serializing the round.
                let segs = par::segments_weighted(&live_list, self.threads, offsets);
                let ranges = par::segment_ranges(&segs);
                let state_slices = par::split_ranges(&mut states, &ranges);
                let work: MsgWorkCells<'_, P::State> = segs
                    .iter()
                    .zip(ranges.iter())
                    .zip(state_slices)
                    .map(|((seg, &(lo, _)), st_s)| Mutex::new(Some((*seg, lo, st_s))))
                    .collect();
                let pool = pool_lease.get_or_insert_with(|| pool::lease(self.threads));
                pool.run_epoch(&|slot| {
                    let Some((seg, lo, st_s)) = work
                        .get(slot)
                        .and_then(|m| m.lock().expect("work slot poisoned").take())
                    else {
                        return;
                    };
                    let mut out = transition_bufs[slot].lock().expect("buffer poisoned");
                    out.extend(seg.iter().map(|&v| step(v, &mut st_s[v.index() - lo])));
                });
                segs.len()
            } else {
                0
            };
            // Phase 2, in ascending node order on this thread: deliver and
            // account. A parallel round drains the slot buffers in segment
            // order; a sequential round has none and steps each node right
            // here, so its outgoing messages are delivered (and their
            // buffers freed) before the next node steps.
            let mut buffered = transition_bufs
                .iter_mut()
                .take(seg_count)
                .flat_map(|m| m.get_mut().expect("buffer poisoned").drain(..));
            let mut kept = 0usize;
            for i in 0..live_list.len() {
                let v = live_list[i];
                let t = match buffered.next() {
                    Some(t) => t,
                    None => step(v, &mut states[v.index()]),
                };
                let (outs, output) = match t {
                    None => {
                        // Stalled: pending messages wait on the link for
                        // the next round.
                        retain_inbox(offsets, &cur, &mut nxt, &mut dirty_nxt, v);
                        stalled += 1;
                        live_list[kept] = v;
                        kept += 1;
                        continue;
                    }
                    Some(MsgTransition::Continue(outs)) => (outs, None),
                    Some(MsgTransition::HaltAfter(outs, o)) => (outs, Some(o)),
                };
                msgs += deliver(
                    graph,
                    offsets,
                    rev,
                    &mut nxt,
                    &mut dirty_nxt,
                    v,
                    outs,
                    drop_ctx(rounds),
                    &mut dropped,
                );
                match output {
                    None => {
                        live_list[kept] = v;
                        kept += 1;
                    }
                    Some(o) => outputs[v.index()] = Some(o),
                }
            }
            let halted = live_list.len() - kept;
            live_list.truncate(kept);
            tally.round_end(msgs, halted, dropped, stalled);
            // Recycle the consumed arena: clear only the touched slots,
            // then swap it in as next round's write buffer.
            if let Some(w) = &m_arena_peak {
                w.record(dirty_cur.len() as u64);
            }
            if let Some(c) = &m_dirty {
                c.add(dirty_cur.len() as u64);
            }
            for slot in dirty_cur.drain(..) {
                cur[slot] = None;
            }
            std::mem::swap(&mut cur, &mut nxt);
            std::mem::swap(&mut dirty_cur, &mut dirty_nxt);
            if let (Some(h), Some(start)) = (&m_round_ns, round_start) {
                h.observe(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        if crashed > 0 {
            return Err(SimError::Crashed { crashed, rounds });
        }
        Ok(RunResult {
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("all halted"))
                .collect(),
            rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::Graph;

    /// Relaying BFS from node 0: each node forwards the wave once and
    /// halts with its BFS distance.
    struct RelayBfs;

    impl MessageProgram for RelayBfs {
        type State = ();
        type Msg = u64;
        type Output = u64;

        fn init(&self, ctx: &NodeCtx) -> ((), Vec<Outgoing<u64>>) {
            if ctx.node == NodeId(0) {
                ((), broadcast(ctx.degree(), &1))
            } else {
                ((), Vec::new())
            }
        }

        fn step(
            &self,
            ctx: &NodeCtx,
            _state: &mut (),
            inbox: &[Option<u64>],
        ) -> MsgTransition<u64, u64> {
            if ctx.node == NodeId(0) {
                return MsgTransition::HaltAfter(Vec::new(), 0);
            }
            if let Some(&d) = inbox.iter().flatten().min() {
                MsgTransition::HaltAfter(broadcast(ctx.degree(), &(d + 1)), d)
            } else {
                MsgTransition::Continue(Vec::new())
            }
        }
    }

    #[test]
    fn relay_bfs_computes_distances() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)]).unwrap();
        let run = MessageExecutor::new(&g).run(&RelayBfs, 10).unwrap();
        assert_eq!(run.outputs, vec![0, 1, 2, 3, 2]);
        assert_eq!(run.rounds, 3, "last node hears the wave in round 3");
    }

    /// Token accumulation with private state: each node counts distinct
    /// rounds in which it received anything, for three rounds.
    struct CountRounds;

    impl MessageProgram for CountRounds {
        type State = u32;
        type Msg = ();
        type Output = u32;

        fn init(&self, ctx: &NodeCtx) -> (u32, Vec<Outgoing<()>>) {
            (0, broadcast(ctx.degree(), &()))
        }

        fn step(
            &self,
            ctx: &NodeCtx,
            state: &mut u32,
            inbox: &[Option<()>],
        ) -> MsgTransition<(), u32> {
            if inbox.iter().any(Option::is_some) {
                *state += 1;
            }
            if ctx.round >= 3 {
                MsgTransition::HaltAfter(Vec::new(), *state)
            } else {
                MsgTransition::Continue(broadcast(ctx.degree(), &()))
            }
        }
    }

    #[test]
    fn private_state_persists() {
        let g = graphgen::generators::cycle(6);
        let run = MessageExecutor::new(&g).run(&CountRounds, 10).unwrap();
        assert!(run.outputs.iter().all(|&c| c == 3));
    }

    /// Ports deliver to the right neighbor: sum of leaf uids at the center.
    struct PingPong;

    impl MessageProgram for PingPong {
        type State = ();
        type Msg = u64;
        type Output = u64;

        fn init(&self, ctx: &NodeCtx) -> ((), Vec<Outgoing<u64>>) {
            ((), broadcast(ctx.degree(), &ctx.uid))
        }

        fn step(
            &self,
            _ctx: &NodeCtx,
            _state: &mut (),
            inbox: &[Option<u64>],
        ) -> MsgTransition<u64, u64> {
            MsgTransition::HaltAfter(Vec::new(), inbox.iter().flatten().sum())
        }
    }

    #[test]
    fn ports_deliver_to_the_right_neighbor() {
        let g = graphgen::generators::star(3);
        let run = MessageExecutor::new(&g).run(&PingPong, 5).unwrap();
        assert_eq!(run.outputs[0], 1 + 2 + 3);
        assert_eq!(run.outputs[1], 0);
    }

    #[test]
    fn round_budget_enforced() {
        struct Forever;
        impl MessageProgram for Forever {
            type State = ();
            type Msg = ();
            type Output = ();
            fn init(&self, _ctx: &NodeCtx) -> ((), Vec<Outgoing<()>>) {
                ((), Vec::new())
            }
            fn step(
                &self,
                _ctx: &NodeCtx,
                _s: &mut (),
                _i: &[Option<()>],
            ) -> MsgTransition<(), ()> {
                MsgTransition::Continue(Vec::new())
            }
        }
        let g = graphgen::generators::cycle(4);
        assert!(matches!(
            MessageExecutor::new(&g).run(&Forever, 3),
            Err(SimError::RoundLimitExceeded { limit: 3, .. })
        ));
    }

    #[test]
    fn empty_graph_ok() {
        let g = Graph::from_edges(0, []).unwrap();
        let run = MessageExecutor::new(&g).run(&PingPong, 1).unwrap();
        assert!(run.outputs.is_empty());
    }

    #[test]
    fn probe_counts_messages_and_inbox_bytes() {
        use telemetry::{Event, Probe, RecordingSink};

        let sink = std::sync::Arc::new(RecordingSink::new());
        let g = graphgen::generators::star(3); // center + 3 leaves, 3 edges
        let run = MessageExecutor::new(&g)
            .with_probe(Probe::new(sink.clone()))
            .run(&PingPong, 5)
            .unwrap();
        assert_eq!(run.rounds, 1);
        assert_eq!(sink.rounds_seen(MSG_SCOPE), 1);
        let events = sink.events();
        let Event::Round { counters, .. } = &events[0] else {
            panic!("expected a round event, got {:?}", events[0]);
        };
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // init: center broadcasts 3, each leaf sends 1 -> 6 messages; every
        // one of them sits in an inbox at the start of round 0.
        assert_eq!(get("messages_sent"), 6);
        assert_eq!(get("inbox_bytes"), 6 * std::mem::size_of::<u64>() as i64);
        assert_eq!(get("live_nodes"), 4);
        assert_eq!(get("halted"), 4);
    }
}
