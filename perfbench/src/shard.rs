//! `shard-gnp`: the `rand:7` wire coloring on G(n = 3000, average degree
//! 8), stepped by two thread-backed shards over loopback TCP.
//!
//! An operation is `run_wire_coloring` plus validation; set-up checks
//! that the two-shard run equals the in-process `Executor::run` in
//! outputs and rounds. In-process compute is a small share here, so the
//! barrier and wire path sets the time.

use std::sync::Arc;
use std::time::Instant;

use delta_core::{run_wire_coloring, DistributedConfig, Supervisor};
use graphgen::generators::gnp;
use graphgen::Graph;
use localsim::{verify_wire_coloring, Executor, MetricsHub, Probe, RunResult, WireAlgo};

use crate::{ms_since, ns_to_ms, Instance, Scale, Traced};

pub struct ShardGnp {
    graph: Graph,
    config: DistributedConfig,
    reference: RunResult<u64>,
}

impl ShardGnp {
    /// Generates the graph, computes the in-process reference, and runs
    /// the shard-equivalence preflight.
    ///
    /// # Errors
    ///
    /// A failed reference run or a preflight mismatch.
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let n = match scale {
            Scale::Full => 3000,
            Scale::Tiny => 300,
        };
        let graph = gnp(n, 8.0 / n as f64, seed);
        let config = DistributedConfig {
            shards: 2,
            checkpoint_every: 0,
            ..DistributedConfig::for_algo(WireAlgo::Rand { seed: 7 })
        };
        let reference = Executor::new(&graph)
            .run(&config.algo, config.max_rounds)
            .map_err(|e| format!("shard-gnp in-process reference: {e}"))?;
        let w = ShardGnp {
            graph,
            config,
            reference,
        };
        if !w.run_op(false) {
            return Err(
                "shard-gnp preflight: the 2-shard run differs from in-process Executor::run \
                 in outputs or rounds"
                    .to_string(),
            );
        }
        Ok(w)
    }

    /// Runs the fleet once; returns whether the output is valid and equal
    /// to the reference, the run's rounds and its validation time.
    fn op(&self, probe: Probe, corrupt: bool) -> (bool, u64, f64) {
        let Ok(mut report) =
            run_wire_coloring(&self.graph, &self.config, &Supervisor::passive(), probe)
        else {
            return (false, 0, 0.0);
        };
        let start = Instant::now();
        if corrupt {
            if let Some(v) = self
                .graph
                .vertices()
                .find(|&v| !self.graph.neighbors(v).is_empty())
            {
                report.outputs[v.index()] = report.outputs[self.graph.neighbors(v)[0].index()];
            }
        }
        let ok = verify_wire_coloring(&self.graph, &report.outputs).is_ok()
            && report.outputs == self.reference.outputs
            && report.rounds == self.reference.rounds;
        (ok, report.rounds, ms_since(start))
    }
}

impl Instance for ShardGnp {
    fn vertices(&self) -> usize {
        self.graph.n()
    }

    fn rounds(&self) -> u64 {
        self.reference.rounds
    }

    fn run_op(&self, corrupt: bool) -> bool {
        self.op(Probe::disabled(), corrupt).0
    }

    fn run_traced(&self, corrupt: bool) -> Traced {
        // The in-process floor: the same algorithm on `Executor::run`.
        let start = Instant::now();
        let inproc = Executor::new(&self.graph).run(&self.config.algo, self.config.max_rounds);
        let inproc_ms = ms_since(start);

        let hub = Arc::new(MetricsHub::new());
        let start = Instant::now();
        let (ok, rounds, validate_ms) =
            self.op(Probe::disabled().with_metrics(hub.clone()), corrupt);
        let wall_ms = ms_since(start);

        let per_round = |total_ms: f64| total_ms / rounds.max(1) as f64;
        let rounds_ms = ns_to_ms(hub.histogram("shard.round_ns").sum());
        let init_bytes = hub.counter("shard.init_bytes").get();
        let sent = hub.counter("shard.bytes_sent").get();
        let readings = vec![
            ("shard.inproc_ms", inproc_ms),
            (
                "shard.overhead_us_per_round",
                per_round(wall_ms - validate_ms - inproc_ms) * 1e3,
            ),
            ("shard.round_ms", per_round(rounds_ms)),
            (
                "shard.barrier_wait_ms",
                per_round(ns_to_ms(hub.histogram("shard.barrier_wait_ns").sum())),
            ),
            ("shard.init_bytes", init_bytes as f64),
            (
                "shard.bytes_per_round",
                sent.saturating_sub(init_bytes) as f64 / rounds.max(1) as f64,
            ),
            ("shard.frames", hub.counter("shard.frames").get() as f64),
            (
                "shard.ghost_updates",
                hub.counter("shard.ghost_updates_sent").get() as f64,
            ),
            (
                "shard.ghost_suppressed",
                hub.counter("shard.ghost_suppressed").get() as f64,
            ),
            ("validate.ms", validate_ms),
            // Rounds and validation are the timed layers; the rest is
            // cluster start-up (threads, connections, Init) and shutdown.
            ("layers.unattributed_ms", wall_ms - rounds_ms - validate_ms),
        ];
        Traced {
            ok: ok && inproc.is_ok_and(|r| r.outputs == self.reference.outputs),
            wall_ms,
            readings,
        }
    }
}
