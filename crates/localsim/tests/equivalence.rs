//! Equivalence of the two executor levels: the state-exchange
//! [`localsim::Executor`] and the per-port [`localsim::MessageExecutor`]
//! compute the same function when given the same algorithm in both forms —
//! plus the fault and CONGEST error paths: a faulted run reproduces
//! exactly under the same plan, crashes fail with one report per crashed
//! node, and a budget violation names the earliest round's widest
//! message.

use std::sync::Arc;

use graphgen::{Graph, GraphBuilder, NodeId};
use localsim::{
    broadcast, CongestExecutor, Event, Executor, FaultKind, FaultPlan, LocalAlgorithm,
    MessageExecutor, MessageProgram, MsgTransition, NodeCtx, Outgoing, Probe, RecordingSink,
    SimError, Transition,
};
use proptest::prelude::*;

/// Flood-max for `t` rounds, state-exchange form.
struct FloodState {
    t: u64,
}

impl LocalAlgorithm for FloodState {
    type State = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx) -> u64 {
        ctx.uid
    }

    fn step(&self, ctx: &NodeCtx, state: &u64, nbrs: &[u64]) -> Transition<u64, u64> {
        let m = nbrs.iter().copied().chain([*state]).max().unwrap_or(*state);
        if ctx.round >= self.t {
            Transition::Halt(m)
        } else {
            Transition::Continue(m)
        }
    }
}

/// Flood-max for `t` rounds, per-port message form.
struct FloodMsg {
    t: u64,
}

impl MessageProgram for FloodMsg {
    type State = u64;
    type Msg = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx) -> (u64, Vec<Outgoing<u64>>) {
        (ctx.uid, broadcast(ctx.degree(), &ctx.uid))
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &mut u64,
        inbox: &[Option<u64>],
    ) -> MsgTransition<u64, u64> {
        let m = inbox
            .iter()
            .flatten()
            .copied()
            .chain([*state])
            .max()
            .unwrap_or(*state);
        *state = m;
        if ctx.round >= self.t {
            MsgTransition::HaltAfter(Vec::new(), m)
        } else {
            MsgTransition::Continue(broadcast(ctx.degree(), &m))
        }
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..20).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..40).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (a, c) in pairs {
                if a != c {
                    b.add_edge(a, c);
                }
            }
            b.build().expect("builder dedups")
        })
    })
}

/// Staggered halting with halted-state reads: node `v` halts in round
/// `v mod 5 + 1` with the sum of everything it has seen. Sensitive to
/// worklist compaction and to the frozen-state invariant of the
/// double-buffered executor (halted neighbors must stay visible).
struct StaggerSum;

impl LocalAlgorithm for StaggerSum {
    type State = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx) -> u64 {
        ctx.uid + 1
    }

    fn step(&self, ctx: &NodeCtx, state: &u64, nbrs: &[u64]) -> Transition<u64, u64> {
        let s = state.wrapping_add(nbrs.iter().sum::<u64>());
        if ctx.round > u64::from(ctx.node.0) % 5 {
            Transition::Halt(s)
        } else {
            Transition::Continue(s)
        }
    }
}

/// Message-form analogue of [`StaggerSum`]: keeps sending its running sum
/// until it halts; inboxes go quiet as neighbors halt.
struct StaggerSumMsg;

impl MessageProgram for StaggerSumMsg {
    type State = u64;
    type Msg = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx) -> (u64, Vec<Outgoing<u64>>) {
        (ctx.uid + 1, broadcast(ctx.degree(), &(ctx.uid + 1)))
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &mut u64,
        inbox: &[Option<u64>],
    ) -> MsgTransition<u64, u64> {
        *state = state.wrapping_add(inbox.iter().flatten().sum::<u64>());
        if ctx.round > u64::from(ctx.node.0) % 5 {
            MsgTransition::HaltAfter(broadcast(ctx.degree(), state), *state)
        } else {
            MsgTransition::Continue(broadcast(ctx.degree(), state))
        }
    }
}

/// Random test graphs of assorted shapes, driven by the in-repo rand shim
/// (via `graphgen::generators`' seeded families).
fn determinism_graphs() -> Vec<Graph> {
    vec![
        graphgen::generators::gnp(57, 0.12, 1),
        graphgen::generators::gnp(80, 0.05, 2),
        graphgen::generators::random_regular(64, 6, 3),
        graphgen::generators::random_tree(45, 4),
        graphgen::generators::complete(12),
        graphgen::generators::path(2),
        Graph::from_edges(5, []).unwrap(), // all-isolated: degenerate worklists
    ]
}

/// A fault plan that exercises drops and jitter together (no crashes, so
/// runs still complete and outputs are comparable).
fn lossy_plan() -> FaultPlan {
    FaultPlan {
        seed: 5,
        message_drop_p: 0.3,
        round_jitter: 2,
        node_crash: Vec::new(),
    }
}

/// Fault injection is part of the determinism contract: under an active
/// plan (drops + jitter) every executor level, run twice with the same
/// plan, reproduces its outputs, rounds and normalized event stream —
/// `Event::Fault` records included.
#[test]
fn faulty_runs_reproduce_under_the_same_plan() {
    let width = |m: &u64| (64 - m.leading_zeros()) as usize;
    for (i, g) in determinism_graphs().iter().enumerate() {
        let state = || {
            let sink = Arc::new(RecordingSink::new());
            let run = Executor::new(g)
                .with_faults(lossy_plan())
                .with_probe(Probe::new(sink.clone()))
                .run(&StaggerSum, 200)
                .unwrap();
            (run.outputs, run.rounds, sink.normalized())
        };
        assert_eq!(state(), state(), "state executor, graph #{i}");
        let message = || {
            let sink = Arc::new(RecordingSink::new());
            let run = MessageExecutor::new(g)
                .with_faults(lossy_plan())
                .with_probe(Probe::new(sink.clone()))
                .run(&StaggerSumMsg, 200)
                .unwrap();
            (run.outputs, run.rounds, sink.normalized())
        };
        assert_eq!(message(), message(), "message executor, graph #{i}");
        let congest = || {
            let sink = Arc::new(RecordingSink::new());
            let run = CongestExecutor::new(g, 64, width)
                .with_faults(lossy_plan())
                .with_probe(Probe::new(sink.clone()))
                .run(&StaggerSumMsg, 200)
                .unwrap();
            (run.outputs, run.rounds, run.per_round, sink.normalized())
        };
        assert_eq!(congest(), congest(), "congest executor, graph #{i}");
    }
}

/// The lossy plan is not vacuous on a dense graph: drops and stalls both
/// actually fire, and the faults change the computed outputs.
#[test]
fn lossy_plan_actually_injects() {
    let g = graphgen::generators::gnp(57, 0.12, 1);
    let sink = Arc::new(RecordingSink::new());
    let faulty = Executor::new(&g)
        .with_faults(lossy_plan())
        .with_probe(Probe::new(sink.clone()))
        .run(&StaggerSum, 200)
        .unwrap();
    let kinds: Vec<FaultKind> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Fault { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert!(kinds.contains(&FaultKind::Drop), "no drops fired");
    assert!(kinds.contains(&FaultKind::Stall), "no stalls fired");
    let clean = Executor::new(&g).run(&StaggerSum, 200).unwrap();
    assert_ne!(faulty.outputs, clean.outputs, "faults had no effect");
}

/// Crashes surface as `SimError::Crashed` plus per-node `Event::Fault`
/// records, on both executor levels.
#[test]
fn crash_runs_fail_with_one_fault_record_per_crashed_node() {
    let g = graphgen::generators::random_regular(64, 6, 3);
    let plan = FaultPlan {
        seed: 11,
        // All three targets are still live at their crash round under
        // StaggerSum's halt rule (node v halts in round v % 5 + 1).
        node_crash: vec![(2, NodeId(3)), (3, NodeId(44)), (2, NodeId(17))],
        ..FaultPlan::default()
    };
    let sink = Arc::new(RecordingSink::new());
    let seq_err = Executor::new(&g)
        .with_faults(plan.clone())
        .with_probe(Probe::new(sink.clone()))
        .run(&StaggerSum, 100)
        .unwrap_err();
    assert!(matches!(seq_err, SimError::Crashed { crashed: 3, .. }));
    let crash_events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::Fault { .. }))
        .collect();
    assert_eq!(crash_events.len(), 3);
    // Within a round, crashes are reported in ascending node order.
    assert!(matches!(
        &crash_events[0],
        Event::Fault {
            round: 1,
            kind: FaultKind::Crash,
            node: Some(3),
            count: 1,
            ..
        }
    ));
    assert!(matches!(
        &crash_events[1],
        Event::Fault { node: Some(17), .. }
    ));
    let msg_err = MessageExecutor::new(&g)
        .with_faults(plan)
        .run(&StaggerSumMsg, 100)
        .unwrap_err();
    assert!(matches!(msg_err, SimError::Crashed { crashed: 3, .. }));
}

/// An over-budget run reports the earliest round with an over-budget
/// message and the widest message of that round — read off the same
/// run's per-round accounting under an unbounded budget.
#[test]
fn congest_violation_reports_the_earliest_round_and_its_widest_message() {
    let width = |m: &u64| (64 - m.leading_zeros()) as usize;
    let g = graphgen::generators::gnp(40, 0.2, 7);
    let budget = 3;
    let metered = CongestExecutor::new(&g, 64, width)
        .run(&StaggerSumMsg, 100)
        .unwrap();
    let first = metered
        .per_round
        .iter()
        .find(|r| r.max_bits > budget)
        .expect("some message exceeds 3 bits");
    // Later rounds carry wider messages, so "earliest" and "widest
    // overall" are different answers here.
    assert!(metered.max_message_bits > first.max_bits);
    match CongestExecutor::new(&g, budget, width).run(&StaggerSumMsg, 100) {
        Err(localsim::CongestError::BandwidthExceeded {
            bits,
            budget: b,
            round,
        }) => assert_eq!((bits, b, round), (first.max_bits, budget, first.round)),
        other => panic!("expected a bandwidth violation, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After t rounds both executors agree on every node's t-ball maximum.
    #[test]
    fn executors_agree_on_flood_max(g in arb_graph(), t in 1u64..5) {
        let a = Executor::new(&g).run(&FloodState { t }, t + 2).unwrap();
        let b = MessageExecutor::new(&g).run(&FloodMsg { t }, t + 2).unwrap();
        prop_assert_eq!(&a.outputs, &b.outputs);
        prop_assert_eq!(a.rounds, b.rounds);
        // Ground truth: the max uid within distance t.
        for v in g.vertices() {
            let dist = g.bfs_distances(&[v]);
            let expect = g
                .vertices()
                .filter(|w| dist[w.index()] != usize::MAX && dist[w.index()] as u64 <= t)
                .map(|w| u64::from(w.0))
                .max()
                .unwrap();
            prop_assert_eq!(a.outputs[v.index()], expect, "node {}", v);
        }
    }
}
