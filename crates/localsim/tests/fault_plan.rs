//! A fault plan that names a node outside the graph is refused before
//! round 1, with the same error from every executor.

use graphgen::{generators, NodeId};
use localsim::{
    Executor, FaultPlan, LocalAlgorithm, MessageExecutor, MessageProgram, MsgTransition, NodeCtx,
    Outgoing, ShardError, ShardedExecutor, SimError, Transition, WireAlgo,
};

struct HaltAtOnce;

impl LocalAlgorithm for HaltAtOnce {
    type State = ();
    type Output = ();

    fn init(&self, _: &NodeCtx) {}

    fn step(&self, _: &NodeCtx, _: &(), _: &[()]) -> Transition<(), ()> {
        Transition::Halt(())
    }
}

impl MessageProgram for HaltAtOnce {
    type State = ();
    type Msg = ();
    type Output = ();

    fn init(&self, _: &NodeCtx) -> ((), Vec<Outgoing<()>>) {
        ((), Vec::new())
    }

    fn step(&self, _: &NodeCtx, _: &mut (), _: &[Option<()>]) -> MsgTransition<(), ()> {
        MsgTransition::HaltAfter(Vec::new(), ())
    }
}

#[test]
fn crash_outside_the_graph_is_refused_by_every_executor() {
    let g = generators::cycle(40);
    let n = g.n();
    let plan: FaultPlan = format!("seed=1,crash={n}@1").parse().unwrap();
    assert_eq!(plan.node_crash, vec![(1, NodeId(n as u32))]);

    let state = Executor::new(&g)
        .with_faults(plan.clone())
        .run(&HaltAtOnce, 10)
        .unwrap_err();
    let SimError::BadFaultPlan(msg) = &state else {
        panic!("expected BadFaultPlan, got {state:?}");
    };
    assert!(msg.contains("40@1") && msg.contains("40 nodes"), "{msg}");

    let message = MessageExecutor::new(&g)
        .with_faults(plan.clone())
        .run(&HaltAtOnce, 10)
        .unwrap_err();
    assert_eq!(message, state);

    for shards in [1, 2] {
        match ShardedExecutor::new(&g)
            .with_shards(shards)
            .with_faults(plan.clone())
            .run(WireAlgo::Greedy, 10)
        {
            Err(ShardError::Sim(e)) => assert_eq!(e, state, "shards={shards}"),
            other => panic!("shards={shards}: expected BadFaultPlan, got {other:?}"),
        }
    }

    // The last node of the graph is a valid crash target.
    let inside: FaultPlan = format!("seed=1,crash={}@1", n - 1).parse().unwrap();
    let err = Executor::new(&g)
        .with_faults(inside)
        .run(&HaltAtOnce, 10)
        .unwrap_err();
    assert_eq!(
        err,
        SimError::Crashed {
            crashed: 1,
            rounds: 1
        }
    );
}
