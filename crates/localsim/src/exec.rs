//! The synchronous state-exchange executor.

use std::fmt;
use std::sync::Mutex;

use graphgen::{Graph, NodeId};
use telemetry::Probe;

use crate::faults::FaultPlan;
use crate::kernel::{step_range, DropCache, Gather, Round, Scratch, StepCounts, Window};
use crate::par;
use crate::pool;
use crate::tally::RoundTally;

/// Per-worker scratch for the parallel stepping path, allocated once
/// per run and reused across every round (epoch) — workers lock only
/// their own slot, so the locks are never contended.
struct SegScratch<S> {
    scratch: Scratch<S>,
    counts: StepCounts,
    seg_ns: Option<u64>,
}

/// One [`step_range`] call's slice of the round: the segment of the
/// live worklist plus disjoint mutable views of the shared buffers,
/// re-sliced every round as the worklist compacts. The sequential path
/// passes the whole live list and whole buffers as one segment.
struct SegWork<'a, S, O> {
    seg: &'a [NodeId],
    lo: usize,
    plo: usize,
    nxt_s: &'a mut [S],
    out_s: &'a mut [Option<O>],
    seen_s: &'a mut [S],
}

/// Slot-indexed work cells for one epoch: the `Mutex<Option<_>>` lets
/// each pool worker `take()` its packet through a shared reference.
type WorkCells<'a, S, O> = Vec<Mutex<Option<SegWork<'a, S, O>>>>;

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

/// Runs [`LocalAlgorithm`]s over a graph.
#[derive(Debug)]
pub struct Executor<'g> {
    graph: &'g Graph,
    uids: Option<Vec<u64>>,
    probe: Probe,
    threads: usize,
    faults: Option<FaultPlan>,
}

impl<'g> Executor<'g> {
    /// An executor over `graph` with default uids (the node indices).
    pub fn new(graph: &'g Graph) -> Self {
        Executor {
            graph,
            uids: None,
            probe: Probe::disabled(),
            threads: 1,
            faults: None,
        }
    }

    /// Opts into deterministic parallel stepping with `k` worker threads
    /// (`k <= 1` keeps the sequential path).
    ///
    /// Each round the live worklist is split into contiguous segments,
    /// one per thread; every node still reads only the previous round's
    /// states, so outputs, round counts, and telemetry events are
    /// bit-identical to the sequential schedule regardless of `k`.
    #[must_use]
    pub fn with_threads(mut self, k: usize) -> Self {
        self.threads = k.max(1);
        self
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
    /// [`SimError::Crashed`]), and bounded-asynchrony stalls. Faulty runs
    /// stay bit-identical between the sequential and parallel stepping
    /// paths (see `docs/FAULTS.md`). An inactive plan is a no-op.
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
            threads: 1,
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
    pub fn run<A>(&self, algo: &A, max_rounds: u64) -> Result<RunResult<A::Output>, SimError>
    where
        A: LocalAlgorithm + Sync,
        A::State: Send + Sync,
        A::Output: Send,
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
        // worklist accounting is bit-identical at every thread count.
        let hub = self.probe.metrics();
        let m_rounds = hub.map(|h| h.counter("exec.rounds"));
        let m_live_peak = hub.map(|h| h.watermark("exec.live_peak"));
        let m_round_ns = hub.map(|h| h.histogram("exec.round_ns"));
        let m_segment_ns = hub.map(|h| h.histogram("exec.segment_ns"));
        let meter_segments = m_segment_ns.is_some();
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
        // Parallel stepping machinery: the worker pool is leased once
        // per run (first parallel round) and parked between rounds; the
        // per-slot scratch persists across rounds.
        let mut pool_lease: Option<pool::PoolLease> = None;
        let par_slots = if self.threads > 1 { self.threads } else { 0 };
        let scratches: Vec<Mutex<SegScratch<A::State>>> = (0..par_slots)
            .map(|_| {
                Mutex::new(SegScratch {
                    scratch: Scratch::new(max_degree),
                    counts: StepCounts::default(),
                    seg_ns: None,
                })
            })
            .collect();
        while !live_list.is_empty() {
            if rounds >= max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: max_rounds,
                    still_running: live_list.len(),
                });
            }
            rounds += 1;
            tally.round_start(rounds, live_list.len(), 0);
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
                w.record(live_list.len() as u64);
            }
            let round_start = m_round_ns.as_ref().map(|_| std::time::Instant::now());
            let rnd = Round {
                algo,
                number: rounds,
                node_ctx: &make_ctx,
                stalls: jitter_on.then_some(plan),
            };
            // The view is picked once per segment, never per node.
            let step = |w: SegWork<'_, A::State, A::Output>, sc: &mut Scratch<A::State>| {
                let win = Window {
                    lo: w.lo,
                    nxt: w.nxt_s,
                    outputs: w.out_s,
                };
                if drop_on {
                    let mut view = DropCache {
                        plan,
                        seen: w.seen_s,
                        seen_lo: w.plo,
                        ports: offsets,
                        node_lo: 0,
                    };
                    step_range(&rnd, w.seg, &cur, &mut view, win, sc, |_, _, _| {})
                } else {
                    step_range(&rnd, w.seg, &cur, &mut Gather, win, sc, |_, _, _| {})
                }
            };
            let before = live_list.len();
            let mut counts = StepCounts::default();
            if self.threads > 1 && live_list.len() > 1 {
                let segs = par::segments_weighted(&live_list, self.threads, offsets);
                let ranges = par::segment_ranges(&segs);
                // Each worker owns the contiguous port range of its node
                // range, so the drop cache splits without overlap.
                let port_ranges: Vec<(usize, usize)> = if drop_on {
                    ranges
                        .iter()
                        .map(|&(lo, hi)| (offsets[lo], offsets[hi]))
                        .collect()
                } else {
                    ranges.iter().map(|_| (0, 0)).collect()
                };
                let nxt_slices = par::split_ranges(&mut nxt, &ranges);
                let out_slices = par::split_ranges(&mut outputs, &ranges);
                let seen_slices = par::split_ranges(&mut seen, &port_ranges);
                // Pool slot i owns segment i; slots past the segment
                // count idle this epoch. The static assignment (plus the
                // merge below walking scratches in slot order) keeps the
                // schedule — and thus every counter — bit-identical to
                // the sequential path.
                let work: WorkCells<'_, A::State, A::Output> = segs
                    .iter()
                    .zip(ranges.iter().zip(port_ranges.iter()))
                    .zip(
                        nxt_slices
                            .into_iter()
                            .zip(out_slices.into_iter().zip(seen_slices)),
                    )
                    .map(|((seg, (&(lo, _), &(plo, _))), (nxt_s, (out_s, seen_s)))| {
                        Mutex::new(Some(SegWork {
                            seg,
                            lo,
                            plo,
                            nxt_s,
                            out_s,
                            seen_s,
                        }))
                    })
                    .collect();
                let pool = pool_lease.get_or_insert_with(|| pool::lease(self.threads));
                pool.run_epoch(&|slot| {
                    let Some(w) = work
                        .get(slot)
                        .and_then(|m| m.lock().expect("work slot poisoned").take())
                    else {
                        return;
                    };
                    let mut guard = scratches[slot].lock().expect("scratch poisoned");
                    let sc = &mut *guard;
                    let seg_start = meter_segments.then(std::time::Instant::now);
                    sc.counts = step(w, &mut sc.scratch);
                    sc.seg_ns = seg_start
                        .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX));
                });
                // Merge in segment (= slot) order: counters and the
                // compacted worklist come out identical to the
                // sequential schedule.
                let seg_count = segs.len();
                drop(work);
                live_list.clear();
                for m in scratches.iter().take(seg_count) {
                    let mut guard = m.lock().expect("scratch poisoned");
                    let sc = &mut *guard;
                    counts.msgs += sc.counts.msgs;
                    counts.dropped += sc.counts.dropped;
                    counts.stalled += sc.counts.stalled;
                    live_list.append(&mut sc.scratch.survivors);
                    if let (Some(h), Some(ns)) = (&m_segment_ns, sc.seg_ns.take()) {
                        h.observe(ns);
                    }
                }
            } else {
                counts = step(
                    SegWork {
                        seg: &live_list,
                        lo: 0,
                        plo: 0,
                        nxt_s: &mut nxt,
                        out_s: &mut outputs,
                        seen_s: &mut seen,
                    },
                    &mut scratch,
                );
                std::mem::swap(&mut live_list, &mut scratch.survivors);
                scratch.survivors.clear();
            }
            // A live node observes one state per incident edge this
            // round: one message per edge endpoint (frozen states of
            // halted neighbors included — see the Event::Round docs).
            tally.round_end(
                counts.msgs,
                before - live_list.len(),
                counts.dropped,
                counts.stalled,
            );
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

    #[test]
    fn parallel_path_matches_sequential() {
        use telemetry::RecordingSink;

        let g = graphgen::generators::gnp(37, 0.15, 5);
        let seq_sink = std::sync::Arc::new(RecordingSink::new());
        let seq = Executor::new(&g)
            .with_probe(Probe::new(seq_sink.clone()))
            .run(&Countdown, 100)
            .unwrap();
        for k in [2, 3, 8, 64] {
            let par_sink = std::sync::Arc::new(RecordingSink::new());
            let par = Executor::new(&g)
                .with_threads(k)
                .with_probe(Probe::new(par_sink.clone()))
                .run(&Countdown, 100)
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "threads={k}");
            assert_eq!(par.rounds, seq.rounds, "threads={k}");
            assert_eq!(par_sink.events(), seq_sink.events(), "threads={k}");
        }
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
