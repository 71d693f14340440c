//! Executor-core micro-benchmarks: topology × executor level × variant.
//!
//! Simulator throughput is the ceiling on how large an `n` the
//! round-complexity scaling experiments can reach, so this bench tracks
//! the three `localsim` executors on representative topologies (sparse
//! path, sparse cycle, dense clique) and pins the perf trajectory in a
//! machine-readable file.
//!
//! Every case has the one variant `seq`: the executors step each round
//! on the calling thread (the report keeps the `variant` field so its
//! schema and `benchdiff`'s case keys stay unchanged).
//!
//! Usage (a harness-free bench binary):
//!
//! ```text
//! cargo bench -p delta-bench --bench executors                      # full matrix, table
//! cargo bench -p delta-bench --bench executors -- --json BENCH_executors.json
//! cargo bench -p delta-bench --bench executors -- --smoke --json out.json  # CI: small sizes
//! ```
//!
//! The JSON report (`BENCH_executors.json`) carries every measured case;
//! see `docs/PERFORMANCE.md` for the schema and how to read it.

use criterion::{measure, Measurement};
use graphgen::{generators, Graph};
use localsim::{
    broadcast, CongestExecutor, Executor, LocalAlgorithm, MessageExecutor, MessageProgram,
    MsgTransition, NodeCtx, Outgoing, Transition,
};
use serde::{json, Value};

// ---------------------------------------------------------------------------
// Workloads: flood-style programs that keep every node busy for `t` rounds.

/// State-exchange: propagate the running max for `t` rounds.
struct StateFlood {
    t: u64,
}

impl LocalAlgorithm for StateFlood {
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

/// Per-port messages: broadcast the running max on every port, `t` rounds.
struct MsgFlood {
    t: u64,
}

impl MessageProgram for MsgFlood {
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

fn msg_width(m: &u64) -> usize {
    (64 - m.leading_zeros()) as usize
}

// ---------------------------------------------------------------------------
// The matrix.

struct Case {
    topology: &'static str,
    n: usize,
    executor: &'static str,
    m: Measurement,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let smoke = test_mode || args.iter().any(|a| a == "--smoke");
    // `cargo bench` runs with cwd = crates/bench; resolve relative --json
    // paths against the workspace root so `--json BENCH_executors.json`
    // lands at the repo root regardless of invocation directory.
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(|p| {
            let p = std::path::Path::new(p);
            if p.is_absolute() {
                p.to_path_buf()
            } else {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../..")
                    .join(p)
            }
        });

    let samples = if smoke { 3 } else { 5 };
    let (sparse_n, clique_n) = if smoke { (512, 192) } else { (4096, 2000) };
    let (sparse_rounds, clique_rounds) = (16u64, 3u64);

    let topologies: Vec<(&'static str, Graph, u64)> = vec![
        ("path", generators::path(sparse_n), sparse_rounds),
        ("cycle", generators::cycle(sparse_n), sparse_rounds),
        ("clique", generators::complete(clique_n), clique_rounds),
    ];

    let mut cases: Vec<Case> = Vec::new();
    for (topology, g, t) in &topologies {
        let n = g.n();
        let budget = t + 2;
        let mut push = |executor: &'static str, m: Measurement| {
            println!(
                "executors/{topology}/n={n}/{executor}/seq: mean {:.3} ms, min {:.3} ms",
                m.mean_ns / 1e6,
                m.min_ns / 1e6
            );
            cases.push(Case {
                topology,
                n,
                executor,
                m,
            });
        };

        // State-exchange executor.
        let algo = StateFlood { t: *t };
        push(
            "state",
            measure(test_mode, samples, |b| {
                b.iter(|| Executor::new(g).run(&algo, budget).unwrap())
            }),
        );

        // Per-port message executor.
        let prog = MsgFlood { t: *t };
        push(
            "message",
            measure(test_mode, samples, |b| {
                b.iter(|| MessageExecutor::new(g).run(&prog, budget).unwrap())
            }),
        );

        // CONGEST metering on top of the message executor.
        push(
            "congest",
            measure(test_mode, samples, |b| {
                b.iter(|| {
                    CongestExecutor::new(g, 64, msg_width)
                        .run(&prog, budget)
                        .unwrap()
                })
            }),
        );
    }

    if let Some(path) = json_path {
        let report = Value::Map(vec![
            (
                "schema_version".to_string(),
                Value::U64(delta_bench::BENCH_SCHEMA_VERSION),
            ),
            (
                "mode".to_string(),
                Value::Str(if smoke { "smoke" } else { "full" }.to_string()),
            ),
            ("samples".to_string(), Value::U64(samples as u64)),
            (
                "cases".to_string(),
                Value::Seq(
                    cases
                        .iter()
                        .map(|c| {
                            Value::Map(vec![
                                ("topology".to_string(), Value::Str(c.topology.to_string())),
                                ("n".to_string(), Value::U64(c.n as u64)),
                                ("executor".to_string(), Value::Str(c.executor.to_string())),
                                ("variant".to_string(), Value::Str("seq".to_string())),
                                ("mean_ns".to_string(), Value::F64(c.m.mean_ns)),
                                ("min_ns".to_string(), Value::F64(c.m.min_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        use std::io::Write as _;
        let mut file = std::fs::File::create(&path).expect("create bench json");
        file.write_all(json::to_string(&report).as_bytes())
            .expect("write bench json");
        file.write_all(b"\n").expect("write bench json");
        println!("wrote {}", path.display());
    }
}
