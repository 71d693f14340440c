//! The `wake` hints of the additive-group reduction and the list
//! coloring sweep, checked against the same algorithms with the hint
//! stripped: outputs, rounds and per-round telemetry must be identical.

use std::cell::Cell;
use std::sync::Arc;

use graphgen::generators::{self, HardCliqueParams};
use graphgen::{Color, Graph};
use localsim::{Event, Executor, LocalAlgorithm, NodeCtx, Probe, RecordingSink, Transition};

use crate::linial::{linial_coloring, AdditiveReduction};
use crate::list_coloring::SweepAlgo;

/// Forwards `init` and `step` and keeps the default `wake`, so every
/// live node is stepped every round.
struct NoWake<A>(A);

impl<A: LocalAlgorithm> LocalAlgorithm for NoWake<A> {
    type State = A::State;
    type Output = A::Output;

    fn init(&self, ctx: &NodeCtx) -> A::State {
        self.0.init(ctx)
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &A::State,
        nbrs: &[A::State],
    ) -> Transition<A::State, A::Output> {
        self.0.step(ctx, state, nbrs)
    }
}

/// Forwards all three methods and counts `step` calls.
struct Counted<A> {
    inner: A,
    steps: Cell<u64>,
}

impl<A: LocalAlgorithm> LocalAlgorithm for Counted<A> {
    type State = A::State;
    type Output = A::Output;

    fn init(&self, ctx: &NodeCtx) -> A::State {
        self.inner.init(ctx)
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &A::State,
        nbrs: &[A::State],
    ) -> Transition<A::State, A::Output> {
        self.steps.set(self.steps.get() + 1);
        self.inner.step(ctx, state, nbrs)
    }

    fn wake(&self, ctx: &NodeCtx, next: &A::State) -> u64 {
        self.inner.wake(ctx, next)
    }
}

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("cycle", generators::cycle(64)),
        ("complete", generators::complete(9)),
        // 10 ids below 2q = 26: swept from the top class, no reduction.
        ("complete_bipartite", generators::complete_bipartite(4, 6)),
        ("hypercube", generators::hypercube(5)),
        ("random_regular", generators::random_regular(120, 6, 3)),
        ("gnp", generators::gnp(150, 0.06, 7)),
        (
            "hard_cliques",
            generators::hard_cliques(&HardCliqueParams {
                cliques: 34,
                delta: 16,
                external_per_vertex: 1,
                seed: 4,
            })
            .unwrap()
            .graph,
        ),
    ]
}

/// Runs `algo` to completion and returns its outputs, rounds and events.
fn run<A: LocalAlgorithm>(g: &Graph, algo: &A, budget: u64) -> (Vec<A::Output>, u64, Vec<Event>) {
    let sink = Arc::new(RecordingSink::new());
    let run = Executor::new(g)
        .with_probe(Probe::new(sink.clone()))
        .run(algo, budget)
        .unwrap();
    (run.outputs, run.rounds, sink.events())
}

/// Asserts that `make()` runs identically with and without its hint,
/// and that the hint spared some steps.
fn assert_hint_is_invisible<A, F>(name: &str, g: &Graph, budget: u64, make: F)
where
    A: LocalAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
    F: Fn() -> A,
{
    let counted = || Counted {
        inner: make(),
        steps: Cell::new(0),
    };
    let unhinted = NoWake(counted());
    let reference = run(g, &unhinted, budget);
    let algo = counted();
    let hinted = run(g, &algo, budget);
    assert_eq!(hinted.0, reference.0, "{name}: outputs");
    assert_eq!(hinted.1, reference.1, "{name}: rounds");
    assert_eq!(hinted.2, reference.2, "{name}: events");
    let (stepped, all) = (algo.steps.get(), unhinted.0.steps.get());
    assert!(
        stepped < all,
        "{name}: {stepped} of {all} steps taken with the hint"
    );
}

#[test]
fn additive_reduction_runs_the_same_with_and_without_its_wake_hint() {
    for (name, g) in graphs() {
        let delta = g.max_degree() as u64;
        // Linial's output (the pipeline's input) and the index coloring
        // (a wider color space).
        let (linial, space) = linial_coloring(&g, None).unwrap().value;
        let index: Vec<u64> = (0..g.n() as u64).collect();
        for (start, space) in [(linial, space), (index, g.n() as u64)] {
            if space <= delta + 1 {
                continue;
            }
            let budget = AdditiveReduction::new(space, delta).rounds();
            assert_hint_is_invisible(name, &g, budget, || {
                AdditiveReduction::new(space, delta).with_colors(&start)
            });
        }
    }
}

#[test]
fn list_coloring_sweep_runs_the_same_with_and_without_its_wake_hint() {
    for (name, g) in graphs() {
        let helper = crate::linial::delta_plus_one_coloring(&g, None)
            .unwrap()
            .value;
        let schedule: Vec<u32> = g.vertices().map(|v| helper.get(v).unwrap().0).collect();
        let classes = g.max_degree() as u32 + 1;
        // Uneven palettes: deg + 1 to deg + 3 colors, odd or even by node.
        let palettes: Vec<Vec<Color>> = g
            .vertices()
            .map(|v| {
                let size = g.degree(v) + 1 + v.index() % 3;
                (0..size)
                    .map(|i| Color((2 * i + v.index() % 2) as u32))
                    .collect()
            })
            .collect();
        assert_hint_is_invisible(name, &g, u64::from(classes) + 1, || {
            SweepAlgo::new(schedule.clone(), &palettes, classes)
        });
    }
}
