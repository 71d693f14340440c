//! The synchronous state-exchange executor.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use graphgen::{Graph, NodeId};
use telemetry::Probe;

use crate::faults::FaultPlan;
use crate::kernel::{step_range, DropCache, Gather, Round, Scratch, Window};
use crate::tally::RoundTally;

/// Scope string under which [`Executor`] emits per-round events.
pub const EXEC_SCOPE: &str = "localsim";

/// Per-node context visible to a [`LocalAlgorithm`] in every round.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    /// The node being stepped.
    pub node: NodeId,
    /// A globally unique identifier for symmetry breaking. Defaults to the
    /// node index; [`Executor::with_uids`] installs arbitrary ids (e.g. for
    /// running a subroutine on a virtual graph whose nodes inherit ids).
    pub uid: u64,
    /// The sorted adjacency list of `node`.
    pub neighbors: &'a [NodeId],
    /// The current round number, starting at 1 for the first step.
    pub round: u64,
    /// Number of vertices in the network (global knowledge of `n` is the
    /// standard assumption in the LOCAL model).
    pub n: usize,
    /// Maximum degree Δ of the network (also standard global knowledge).
    pub max_degree: usize,
}

impl NodeCtx<'_> {
    /// Degree of the node.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// The result of one node step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transition<S, O> {
    /// Keep running with a new state (sent to neighbors next round).
    Continue(S),
    /// Halt with an output. The node's last state stays visible to
    /// neighbors, matching a terminated node whose output is known locally.
    Halt(O),
}

/// A distributed algorithm in synchronous state-exchange form.
///
/// Each round, every live node observes the previous-round states of all
/// neighbors (halted neighbors keep their final state visible) and either
/// continues with a new state or halts with an output. This formulation is
/// universal for the LOCAL model because messages are unbounded.
pub trait LocalAlgorithm {
    /// Per-node state, broadcast to neighbors each round.
    type State: Clone;
    /// Per-node output on halting.
    type Output;

    /// The state a node holds before the first communication round.
    fn init(&self, ctx: &NodeCtx) -> Self::State;

    /// One synchronous round at one node.
    fn step(
        &self,
        ctx: &NodeCtx,
        state: &Self::State,
        neighbor_states: &[Self::State],
    ) -> Transition<Self::State, Self::Output>;

    /// The next round in which a node must be stepped, called right after
    /// `step` returned `Continue(next)` in round `ctx.round`.
    ///
    /// The promise: for every round `r` with `ctx.round < r < wake`,
    /// `step` at round `r` on `next` returns `Continue(next.clone())`,
    /// whatever the neighbors hold. [`Executor::run`] then keeps the node
    /// asleep until `wake` instead of stepping it (outside fault plans;
    /// see `docs/PERFORMANCE.md`). A hint that breaks the promise is a
    /// silent wrong answer. The default, `ctx.round + 1`, never sleeps.
    fn wake(&self, ctx: &NodeCtx, next: &Self::State) -> u64 {
        let _ = next;
        ctx.round + 1
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Not all nodes halted within the round budget.
    RoundLimitExceeded { limit: u64, still_running: usize },
    /// `with_uids` received a vector of the wrong length or with duplicates.
    BadUids(String),
    /// An injected fault plan crashed nodes that never produced an output;
    /// the rest of the network ran to completion in `rounds` rounds.
    Crashed { crashed: usize, rounds: u64 },
    /// The fault plan does not fit the graph (a crash names a node
    /// outside it); refused before round 1.
    BadFaultPlan(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimitExceeded {
                limit,
                still_running,
            } => write!(
                f,
                "{still_running} nodes still running after the {limit}-round budget"
            ),
            SimError::BadUids(msg) => write!(f, "bad uid vector: {msg}"),
            SimError::Crashed { crashed, rounds } => write!(
                f,
                "{crashed} nodes crashed by fault injection never output \
                 (survivors finished after {rounds} rounds)"
            ),
            SimError::BadFaultPlan(msg) => write!(f, "bad fault plan: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of a completed simulation.
#[derive(Debug, Clone)]
pub struct RunResult<O> {
    /// Output of every node, indexed by node id.
    pub outputs: Vec<O>,
    /// Number of communication rounds executed until the last node halted.
    /// A node that halts during round `r` has communicated `r` times.
    pub rounds: u64,
}

/// A subroutine's result together with the LOCAL rounds it consumed: what
/// the primitives and the HEG solvers return so callers can charge a
/// [`RoundLedger`](crate::RoundLedger).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timed<T> {
    /// The computed result.
    pub value: T,
    /// Rounds consumed (see each subroutine's docs for its accounting).
    pub rounds: u64,
}

impl<T> Timed<T> {
    /// Wraps a result with its round count.
    pub fn new(value: T, rounds: u64) -> Self {
        Timed { value, rounds }
    }

    /// Maps the value, keeping the round count.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed {
            value: f(self.value),
            rounds: self.rounds,
        }
    }
}

/// Runs [`LocalAlgorithm`]s over a graph.
#[derive(Debug)]
pub struct Executor<'g> {
    graph: &'g Graph,
    uids: Option<Vec<u64>>,
    probe: Probe,
    faults: Option<FaultPlan>,
}

impl<'g> Executor<'g> {
    /// An executor over `graph` with default uids (the node indices).
    pub fn new(graph: &'g Graph) -> Self {
        Executor {
            graph,
            uids: None,
            probe: Probe::disabled(),
            faults: None,
        }
    }

    /// Attaches a telemetry probe; every run then emits one
    /// [`telemetry::Event::Round`] per simulated round under the
    /// [`EXEC_SCOPE`] scope (live-node count, halts, halted fraction).
    #[must_use]
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Injects the given seed-deterministic [`FaultPlan`] into every run:
    /// dropped neighbor-state reads (the reader keeps seeing the last
    /// state it heard), scheduled node crashes (frozen like halted nodes,
    /// reported via [`telemetry::Event::Fault`] and
    /// [`SimError::Crashed`]), and bounded-asynchrony stalls. The same
    /// plan reproduces the same run (see `docs/FAULTS.md`). An inactive
    /// plan is a no-op.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan.is_active().then_some(plan);
        self
    }

    /// Installs explicit unique identifiers (one per node).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadUids`] if the vector length differs from `n`
    /// or contains duplicates.
    pub fn with_uids(graph: &'g Graph, uids: Vec<u64>) -> Result<Self, SimError> {
        if uids.len() != graph.n() {
            return Err(SimError::BadUids(format!(
                "{} uids for {} nodes",
                uids.len(),
                graph.n()
            )));
        }
        let mut sorted = uids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(SimError::BadUids("duplicate uid".to_string()));
        }
        Ok(Executor {
            graph,
            uids: Some(uids),
            probe: Probe::disabled(),
            faults: None,
        })
    }

    /// Runs `algo` until every node halts, or fails after `max_rounds`.
    ///
    /// The loop is allocation-free on the steady state: node states live
    /// in two buffers swapped every round (no per-round clone of all `n`
    /// states — a node's state is cloned exactly once, when it halts, to
    /// freeze it in both buffers), halted nodes are skipped via a
    /// compacting live worklist rather than a full vertex scan, and the
    /// neighbor-state scratch buffer is reused across rounds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] if nodes are still running
    /// after `max_rounds` communication rounds, [`SimError::Crashed`]
    /// if an injected fault plan crashed nodes before they could output,
    /// or [`SimError::BadFaultPlan`] if the plan does not fit the graph.
    pub fn run<A: LocalAlgorithm>(
        &self,
        algo: &A,
        max_rounds: u64,
    ) -> Result<RunResult<A::Output>, SimError> {
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
        let uids = self.uids.as_deref();
        let make_ctx = move |v: NodeId, round: u64| NodeCtx {
            node: v,
            uid: uids.map_or(u64::from(v.0), |u| u[v.index()]),
            neighbors: graph.neighbors(v),
            round,
            n,
            max_degree,
        };
        let mut cur: Vec<A::State> = Vec::with_capacity(n);
        for v in graph.vertices() {
            cur.push(algo.init(&make_ctx(v, 0)));
        }
        // The write buffer starts as a copy so that entries the first
        // round never writes (there are none while all nodes are live)
        // are still initialized; after that, swaps replace cloning.
        let mut nxt: Vec<A::State> = cur.clone();
        let mut outputs: Vec<Option<A::Output>> = (0..n).map(|_| None).collect();
        let mut live_list: Vec<NodeId> = graph.vertices().collect();
        let mut rounds = 0;
        // Whole-run metrics, recorded only with a hub on the probe. The
        // `_ns` timings are nondeterministic by convention; the round and
        // worklist accounting is a pure function of the run.
        let hub = self.probe.metrics();
        let m_rounds = hub.map(|h| h.counter("exec.rounds"));
        let m_live_peak = hub.map(|h| h.watermark("exec.live_peak"));
        let m_round_ns = hub.map(|h| h.histogram("exec.round_ns"));
        // Fault machinery. Everything below is inert (no extra counters,
        // no per-node branches taken) unless a plan is active, so
        // fault-free runs keep byte-identical telemetry.
        let inert = FaultPlan::default();
        let plan = self.faults.as_ref().unwrap_or(&inert);
        let drop_on = plan.drops();
        let jitter_on = plan.jitters();
        let crash_sched = plan.crash_schedule();
        let mut tally = RoundTally::new(&self.probe, EXEC_SCOPE, n, plan, false);
        let mut crashed = 0usize;
        let offsets = graph.csr_offsets();
        // Per-directed-port "last heard" cache for message drops: slot
        // `offsets[v] + p` holds the state of v's p-th neighbor as last
        // successfully read by v. Seeded with the init states (the setup
        // exchange is reliable); a dropped read keeps the stale entry.
        let mut seen: Vec<A::State> = Vec::new();
        if drop_on {
            seen.reserve_exact(offsets[n]);
            for v in graph.vertices() {
                seen.extend(graph.neighbors(v).iter().map(|w| cur[w.index()].clone()));
            }
        }
        let mut scratch = Scratch::new(max_degree);
        // The wake calendar: nodes asleep until their `LocalAlgorithm::wake`
        // round, popped in (round, node) order. Sleepers still count as
        // live (`live_nodes`, `exec.live_peak`, `still_running`) and are
        // charged their degree in `messages_sent` every round they sleep,
        // so the telemetry matches a run that steps them. Fault plans need
        // every live node visited, so a faulted run never sleeps.
        let sleep = self.faults.is_none();
        let mut calendar: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
        let mut asleep_degree = 0i64;
        let mut woken: Vec<NodeId> = Vec::new();
        let mut merged: Vec<NodeId> = Vec::new();
        while !live_list.is_empty() || !calendar.is_empty() {
            if rounds >= max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: max_rounds,
                    still_running: live_list.len() + calendar.len(),
                });
            }
            rounds += 1;
            while let Some(&Reverse((_, v))) = calendar.peek().filter(|e| e.0 .0 == rounds) {
                calendar.pop();
                asleep_degree -= graph.degree(v) as i64;
                woken.push(v);
            }
            if !woken.is_empty() {
                merge_ascending(&live_list, &woken, &mut merged);
                std::mem::swap(&mut live_list, &mut merged);
                woken.clear();
            }
            tally.round_start(rounds, live_list.len() + calendar.len(), 0);
            // Crashes fire at the start of their round, before any node
            // steps: the node freezes its last state (visible to neighbors
            // forever, like a halted node) but will never output.
            if let Some(nodes) = crash_sched.get(&rounds) {
                for &v in nodes {
                    if let Ok(pos) = live_list.binary_search(&v) {
                        live_list.remove(pos);
                        nxt[v.index()] = cur[v.index()].clone();
                        crashed += 1;
                        tally.crash(v);
                    }
                }
            }
            if let Some(m) = &m_rounds {
                m.incr();
            }
            if let Some(w) = &m_live_peak {
                w.record((live_list.len() + calendar.len()) as u64);
            }
            let round_start = m_round_ns.as_ref().map(|_| std::time::Instant::now());
            let rnd = Round {
                algo,
                number: rounds,
                node_ctx: &make_ctx,
                stalls: jitter_on.then_some(plan),
                sleep,
            };
            let before = live_list.len();
            let win = Window {
                lo: 0,
                nxt: &mut nxt,
                outputs: &mut outputs,
            };
            // The view is picked once per round, never per node.
            let counts = if drop_on {
                let mut view = DropCache {
                    plan,
                    seen: &mut seen,
                    seen_lo: 0,
                    ports: offsets,
                    node_lo: 0,
                };
                step_range(
                    &rnd,
                    &live_list,
                    &cur,
                    &mut view,
                    win,
                    &mut scratch,
                    |_, _, _| {},
                )
            } else {
                step_range(
                    &rnd,
                    &live_list,
                    &cur,
                    &mut Gather,
                    win,
                    &mut scratch,
                    |_, _, _| {},
                )
            };
            std::mem::swap(&mut live_list, &mut scratch.survivors);
            scratch.survivors.clear();
            // A live node observes one state per incident edge this
            // round: one message per edge endpoint (frozen states of
            // halted neighbors included — see the Event::Round docs).
            // Nodes asleep for the whole round are charged as if stepped.
            let msgs = counts.msgs + asleep_degree;
            let halted = before - live_list.len() - scratch.sleepers.len();
            // A new sleeper's state is frozen in both buffers, like a
            // halted node's, until it wakes.
            for (wake, v) in scratch.sleepers.drain(..) {
                cur[v.index()] = nxt[v.index()].clone();
                asleep_degree += graph.degree(v) as i64;
                calendar.push(Reverse((wake, v)));
            }
            tally.round_end(msgs, halted, counts.dropped, counts.stalled);
            std::mem::swap(&mut cur, &mut nxt);
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
                .map(|o| o.expect("all nodes halted"))
                .collect(),
            rounds,
        })
    }
}

/// Merges the ascending, disjoint node lists `a` and `b` into `out`.
fn merge_ascending(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::Graph;

    /// Counts down from the node index, demonstrating asynchronous halting.
    struct Countdown;

    impl LocalAlgorithm for Countdown {
        type State = u32;
        type Output = u64;

        fn init(&self, ctx: &NodeCtx) -> u32 {
            ctx.node.0
        }

        fn step(&self, ctx: &NodeCtx, state: &u32, _nbrs: &[u32]) -> Transition<u32, u64> {
            if *state == 0 {
                Transition::Halt(ctx.round)
            } else {
                Transition::Continue(state - 1)
            }
        }
    }

    #[test]
    fn countdown_rounds() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let run = Executor::new(&g).run(&Countdown, 100).unwrap();
        assert_eq!(run.rounds, 4); // node 3 halts in round 4
        assert_eq!(run.outputs, vec![1, 2, 3, 4]);
    }

    /// Flood-max: every node learns the maximum uid within its r-ball after
    /// r rounds; halting after `target` rounds.
    struct FloodMax {
        target: u64,
    }

    impl LocalAlgorithm for FloodMax {
        type State = u64;
        type Output = u64;

        fn init(&self, ctx: &NodeCtx) -> u64 {
            ctx.uid
        }

        fn step(&self, ctx: &NodeCtx, state: &u64, nbrs: &[u64]) -> Transition<u64, u64> {
            let m = nbrs.iter().copied().chain([*state]).max().unwrap();
            if ctx.round >= self.target {
                Transition::Halt(m)
            } else {
                Transition::Continue(m)
            }
        }
    }

    #[test]
    fn flood_max_spreads_one_hop_per_round() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        // After 2 rounds node 0 knows the max within distance 2 = uid 2.
        let run = Executor::new(&g).run(&FloodMax { target: 2 }, 10).unwrap();
        assert_eq!(run.outputs[0], 2);
        assert_eq!(run.outputs[2], 4);
        assert_eq!(run.rounds, 2);
    }

    #[test]
    fn custom_uids_respected() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let ex = Executor::with_uids(&g, vec![100, 50]).unwrap();
        let run = ex.run(&FloodMax { target: 1 }, 10).unwrap();
        assert_eq!(run.outputs, vec![100, 100]);
    }

    #[test]
    fn bad_uids_rejected() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        assert!(Executor::with_uids(&g, vec![1]).is_err());
        assert!(Executor::with_uids(&g, vec![1, 1]).is_err());
    }

    #[test]
    fn round_limit_enforced() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let err = Executor::new(&g).run(&Countdown, 1).unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimitExceeded {
                limit: 1,
                still_running: 1
            }
        );
    }

    #[test]
    fn empty_graph_runs_zero_rounds() {
        let g = Graph::from_edges(0, []).unwrap();
        let run = Executor::new(&g).run(&Countdown, 1).unwrap();
        assert_eq!(run.rounds, 0);
        assert!(run.outputs.is_empty());
    }

    /// Halted nodes keep their final state visible to running neighbors.
    struct WatchNeighbor;

    impl LocalAlgorithm for WatchNeighbor {
        type State = u32;
        type Output = u32;

        fn init(&self, ctx: &NodeCtx) -> u32 {
            ctx.node.0 * 10
        }

        fn step(&self, ctx: &NodeCtx, _state: &u32, nbrs: &[u32]) -> Transition<u32, u32> {
            if ctx.node.0 == 0 {
                // Node 0 halts immediately; its state 0 remains visible.
                Transition::Halt(99)
            } else if ctx.round == 3 {
                Transition::Halt(nbrs[0])
            } else {
                Transition::Continue(7)
            }
        }
    }

    #[test]
    fn halted_state_stays_visible() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let run = Executor::new(&g).run(&WatchNeighbor, 10).unwrap();
        assert_eq!(run.outputs[1], 0); // sees node 0's frozen init state
    }

    /// Pins the `messages_sent` accounting convention (documented on
    /// [`telemetry::Event::Round`]): a *live* node is charged one message
    /// per incident edge every round, including edges to halted neighbors
    /// whose frozen state it re-reads; an edge with both endpoints halted
    /// charges nothing because neither endpoint is stepped.
    #[test]
    fn frozen_neighbor_states_are_charged_to_live_readers() {
        use telemetry::{Event, RecordingSink};

        let sink = std::sync::Arc::new(RecordingSink::new());
        // Path 0-1-2: node 0 halts in round 1 (state 0), node 1 in round 2,
        // node 2 in round 3.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        Executor::new(&g)
            .with_probe(Probe::new(sink.clone()))
            .run(&Countdown, 10)
            .unwrap();
        let per_round: Vec<i64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Round { counters, .. } => counters
                    .iter()
                    .find(|(n, _)| n == "messages_sent")
                    .map(|(_, v)| *v),
                _ => None,
            })
            .collect();
        // Round 1: all three live -> degree sum 4. Round 2: nodes 1 and 2
        // live -> 2 + 1 = 3, including node 1 reading halted node 0's
        // frozen state. Round 3: only node 2 live -> 1, its single edge to
        // the halted node 1. The halted edge {0,1} charges nothing in
        // round 3.
        assert_eq!(per_round, vec![4, 3, 1]);
    }

    /// Node `v` changes its state in round 1, idles until round
    /// `v % 5 + 2`, then halts with the sum of its own and its neighbors'
    /// states. With `hint` set it sleeps through the idle rounds.
    struct Nap {
        hint: bool,
    }

    impl LocalAlgorithm for Nap {
        type State = u64;
        type Output = u64;

        fn init(&self, ctx: &NodeCtx) -> u64 {
            ctx.uid
        }

        fn step(&self, ctx: &NodeCtx, state: &u64, nbrs: &[u64]) -> Transition<u64, u64> {
            if ctx.round >= u64::from(ctx.node.0 % 5) + 2 {
                Transition::Halt(state + nbrs.iter().sum::<u64>())
            } else if ctx.round == 1 {
                Transition::Continue(2 * state + 1)
            } else {
                Transition::Continue(*state)
            }
        }

        fn wake(&self, ctx: &NodeCtx, _next: &u64) -> u64 {
            if self.hint {
                u64::from(ctx.node.0 % 5) + 2
            } else {
                ctx.round + 1
            }
        }
    }

    fn counter_series(events: &[telemetry::Event], name: &str) -> Vec<i64> {
        events
            .iter()
            .filter_map(|e| match e {
                telemetry::Event::Round { counters, .. } => {
                    counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sleeping_nodes_are_counted_as_live_and_charged_their_messages() {
        use telemetry::RecordingSink;

        let g = graphgen::generators::gnp(40, 0.2, 9);
        let run = |hint: bool| {
            let sink = std::sync::Arc::new(RecordingSink::new());
            let hub = std::sync::Arc::new(telemetry::MetricsHub::new());
            let run = Executor::new(&g)
                .with_probe(Probe::new(sink.clone()).with_metrics(hub.clone()))
                .run(&Nap { hint }, 10)
                .unwrap();
            let live_peak = hub.watermark("exec.live_peak").get();
            (run.outputs, run.rounds, sink.events(), live_peak)
        };
        let (outputs, rounds, events, live_peak) = run(false);
        assert_eq!((rounds, live_peak), (6, 40));
        let (h_outputs, h_rounds, h_events, h_live_peak) = run(true);
        assert_eq!(h_live_peak, live_peak);
        assert_eq!(h_outputs, outputs);
        assert_eq!(h_rounds, rounds);
        for name in ["live_nodes", "messages_sent", "halted"] {
            assert_eq!(
                counter_series(&h_events, name),
                counter_series(&events, name),
                "{name}"
            );
        }
        assert_eq!(h_events, events);
        // The degree sum is charged in every round a node is live, asleep
        // or not: round 1 charges every edge endpoint.
        assert_eq!(
            counter_series(&events, "messages_sent")[0],
            2 * g.m() as i64
        );
    }

    #[test]
    fn round_limit_counts_sleeping_nodes_as_still_running() {
        let g = graphgen::generators::gnp(40, 0.2, 9);
        // After 3 rounds the nodes with v % 5 >= 2 are still running —
        // asleep under the hint.
        let running = (0..40).filter(|v| v % 5 >= 2).count();
        for hint in [false, true] {
            let err = Executor::new(&g).run(&Nap { hint }, 3).unwrap_err();
            assert_eq!(
                err,
                SimError::RoundLimitExceeded {
                    limit: 3,
                    still_running: running
                },
                "hint={hint}"
            );
        }
    }

    #[test]
    fn crashing_a_would_be_sleeper_fails_like_the_unhinted_run() {
        use telemetry::RecordingSink;

        let g = graphgen::generators::gnp(40, 0.2, 9);
        // Node 4 would sleep from round 1 to round 6; it crashes in round 3.
        let plan: FaultPlan = "seed=1,crash=4@3".parse().unwrap();
        let run = |hint: bool| {
            let sink = std::sync::Arc::new(RecordingSink::new());
            let err = Executor::new(&g)
                .with_faults(plan.clone())
                .with_probe(Probe::new(sink.clone()))
                .run(&Nap { hint }, 10)
                .unwrap_err();
            (err, sink.events())
        };
        let (err, events) = run(false);
        assert_eq!(
            err,
            SimError::Crashed {
                crashed: 1,
                rounds: 6
            }
        );
        assert_eq!(run(true), (err, events));
    }

    #[test]
    fn probe_sees_one_event_per_round() {
        use telemetry::{Event, RecordingSink};

        let sink = std::sync::Arc::new(RecordingSink::new());
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let run = Executor::new(&g)
            .with_probe(Probe::new(sink.clone()))
            .run(&Countdown, 100)
            .unwrap();
        assert_eq!(sink.rounds_seen(EXEC_SCOPE), run.rounds);
        // Round 0: 4 live, node 0 halts immediately, and every node shows
        // its state across each incident edge (degree sum 6 on the path).
        assert_eq!(
            sink.events()[0],
            Event::Round {
                scope: EXEC_SCOPE.into(),
                round: 0,
                counters: vec![
                    ("live_nodes".into(), 4),
                    ("halted".into(), 1),
                    ("messages_sent".into(), 6),
                ],
                gauges: vec![("halted_fraction".into(), 0.25)],
            }
        );
    }
}
