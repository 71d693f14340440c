//! `rand-ckpt`: Theorem 2's randomized shattering pipeline under the run
//! supervisor, on circulant hard cliques at Δ = 16 with two threads.
//!
//! An operation runs `drive_randomized` with a checkpoint at every phase
//! boundary, loads the post-shattering snapshot with `load_snapshot`,
//! resumes from it, and validates both results against the plain
//! (unsupervised) run computed during set-up, bit for bit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use acd::{compute_acd, AcdResult};
use delta_core::{
    detect_loopholes, drive_randomized, load_snapshot, validate_coloring, PhaseCursor, RandConfig,
    RandReport, Supervisor,
};
use graphgen::generators::{hard_cliques_with_blueprint, BlueprintKind, HardCliqueParams};
use graphgen::{Coloring, Graph};
use localsim::{MetricsHub, Probe, RecordingSink};

use crate::{corrupt_coloring, hub_readings, ms_since, ns_to_ms, Instance, Scale, Traced};

const DELTA: usize = 16;

/// Top-level pipeline spans and the per-layer names they report under.
const SPANS: &[(&str, &str, &str)] = &[
    ("pipeline/acd", "acd.ms", "acd.rounds"),
    ("pipeline/classification", "classify.ms", "classify.rounds"),
    (
        "pipeline/pre-shattering",
        "preshatter.ms",
        "preshatter.rounds",
    ),
    (
        "pipeline/post-shattering",
        "postshatter.ms",
        "postshatter.rounds",
    ),
    (
        "pipeline/post-processing",
        "postprocess.ms",
        "postprocess.rounds",
    ),
    ("pipeline/easy sweep", "easy.ms", "easy.rounds"),
];

pub struct RandCkpt {
    graph: Graph,
    config: RandConfig,
    reference: Coloring,
    rounds: u64,
    /// The decomposition, for timing loophole detection on its own: the
    /// pipeline spans loophole detection and classification together.
    acd: AcdResult,
    /// Checkpoint directory inside the working directory; removed on drop.
    dir: PathBuf,
}

impl Drop for RandCkpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The timed parts of one operation.
struct Op {
    checkpointed: RandReport,
    load_ms: f64,
    resume_ms: f64,
    validate_ms: f64,
    valid: bool,
}

impl RandCkpt {
    /// Generates the instance, computes the plain reference run, and runs
    /// the checkpoint/resume preflight.
    ///
    /// # Errors
    ///
    /// Generation failure, an invalid reference, or a preflight mismatch.
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        // n = 256 · 16 = 4096.
        let cliques = match scale {
            Scale::Full => 256,
            Scale::Tiny => 40,
        };
        let graph = hard_cliques_with_blueprint(
            &HardCliqueParams {
                cliques,
                delta: DELTA,
                external_per_vertex: 1,
                seed,
            },
            BlueprintKind::Circulant,
        )
        .map_err(|e| format!("rand-ckpt instance: {e}"))?
        .graph;
        let mut config = RandConfig::for_delta(DELTA, seed);
        config.defer_radius = 5;
        config.base.threads = crate::threads_for("rand-ckpt");

        let plain = drive_randomized(
            &graph,
            &config,
            None,
            &Probe::disabled(),
            &Supervisor::passive(),
            None,
        )
        .map_err(|e| format!("rand-ckpt reference run: {e}"))?
        .into_report()
        .ok_or("rand-ckpt reference run did not complete")?;
        let valid = validate_coloring(&graph, &plain.coloring, DELTA as u32);
        if !valid.is_ok() {
            return Err(format!("rand-ckpt reference coloring: {valid}"));
        }
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(".bench_build")
            .join(format!(
                "perfbench-ckpt-{}-{}",
                std::process::id(),
                RUNS.fetch_add(1, Ordering::Relaxed)
            ));
        let w = RandCkpt {
            acd: compute_acd(&graph, &config.base.acd),
            reference: plain.coloring,
            rounds: plain.ledger.total(),
            graph,
            config,
            dir,
        };
        // Preflight: the checkpointed and the resumed run both equal the
        // plain run.
        let op = w.op(None, None, false)?;
        if !op.valid {
            return Err(
                "rand-ckpt preflight: checkpointed or resumed run differs from the plain run"
                    .to_string(),
            );
        }
        Ok(w)
    }

    /// One checkpoint + load + resume + validate operation. `sink` records
    /// the checkpointed run's spans; `hub` collects both runs' metrics.
    fn op(
        &self,
        sink: Option<&Arc<RecordingSink>>,
        hub: Option<&Arc<MetricsHub>>,
        corrupt: bool,
    ) -> Result<Op, String> {
        let with_hub = |probe: Probe| match hub {
            Some(hub) => probe.with_metrics(hub.clone()),
            None => probe,
        };
        let probe = with_hub(match sink {
            Some(sink) => Probe::new(sink.clone()),
            None => Probe::disabled(),
        });
        let checkpointing = Supervisor {
            checkpoint_dir: Some(self.dir.clone()),
            ..Supervisor::passive()
        };

        let mut checkpointed = drive_randomized(
            &self.graph,
            &self.config,
            None,
            &probe,
            &checkpointing,
            None,
        )
        .map_err(|e| format!("checkpointed run: {e}"))?
        .into_report()
        .ok_or("checkpointed run did not complete")?;

        let cursor = PhaseCursor::PostShattering;
        let path = self.dir.join(format!(
            "checkpoint-{:02}-{}.json",
            cursor.ordinal(),
            cursor.slug()
        ));
        let start = Instant::now();
        let snapshot = load_snapshot(&path).map_err(|e| e.to_string())?;
        let load_ms = ms_since(start);

        let start = Instant::now();
        let mut resumed = drive_randomized(
            &self.graph,
            &self.config,
            None,
            &with_hub(Probe::disabled()),
            &Supervisor::passive(),
            Some(snapshot),
        )
        .map_err(|e| format!("resumed run: {e}"))?
        .into_report()
        .ok_or("resumed run did not complete")?;
        let resume_ms = ms_since(start);

        let start = Instant::now();
        let valid = self.check(&mut checkpointed, corrupt) && self.check(&mut resumed, corrupt);
        let validate_ms = ms_since(start);
        Ok(Op {
            checkpointed,
            load_ms,
            resume_ms,
            validate_ms,
            valid,
        })
    }

    fn check(&self, report: &mut RandReport, corrupt: bool) -> bool {
        if corrupt {
            corrupt_coloring(&self.graph, &mut report.coloring);
        }
        validate_coloring(&self.graph, &report.coloring, DELTA as u32).is_ok()
            && report.coloring == self.reference
            && report.ledger.total() == self.rounds
    }

    /// Bytes of the snapshots the last checkpointed run wrote.
    fn snapshot_bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Instance for RandCkpt {
    fn vertices(&self) -> usize {
        self.graph.n()
    }

    fn rounds(&self) -> u64 {
        self.rounds
    }

    fn run_op(&self, corrupt: bool) -> bool {
        self.op(None, None, corrupt).is_ok_and(|op| op.valid)
    }

    fn run_traced(&self, corrupt: bool) -> Traced {
        // Loophole detection on the pipeline's own inputs; the pipeline's
        // classification span contains this call.
        let start = Instant::now();
        let loopholes = detect_loopholes(&self.graph, &self.acd.clique_of);
        let loophole_ms = ms_since(start);

        let sink = Arc::new(RecordingSink::new());
        let hub = Arc::new(MetricsHub::new());
        let start = Instant::now();
        let Ok(op) = self.op(Some(&sink), Some(&hub), corrupt) else {
            return Traced::default();
        };
        let wall_ms = ms_since(start);

        let save_ms = ns_to_ms(hub.histogram("supervisor.checkpoint_write_ns").sum());
        let mut readings = vec![
            ("loophole.ms", loophole_ms),
            ("loophole.rounds", loopholes.rounds as f64),
            (
                "shatter.components",
                op.checkpointed.shatter.components as f64,
            ),
            (
                "shatter.max_component",
                op.checkpointed.shatter.max_component as f64,
            ),
            ("shatter.deferred", op.checkpointed.shatter.deferred as f64),
            (
                "supervisor.checkpoints",
                hub.counter("supervisor.checkpoints").get() as f64,
            ),
            ("supervisor.snapshot_bytes", self.snapshot_bytes() as f64),
            ("supervisor.save_ms", save_ms),
            ("supervisor.load_ms", op.load_ms),
            ("supervisor.resume_ms", op.resume_ms),
            ("validate.ms", op.validate_ms),
        ];
        readings.extend(hub_readings(&hub));

        // The checkpointed run's top-level spans partition its rounds;
        // with the checkpoint writes they partition its wall time too.
        let mut span_rounds = 0;
        let mut span_ms = 0.0;
        for (path, rounds, wall_ns) in sink.span_exits() {
            let Some(&(_, ms_name, rounds_name)) = SPANS.iter().find(|s| s.0 == path) else {
                continue;
            };
            let (ms, layer_rounds) = if ms_name == "classify.ms" {
                (
                    ns_to_ms(wall_ns) - loophole_ms,
                    rounds.saturating_sub(loopholes.rounds),
                )
            } else {
                (ns_to_ms(wall_ns), rounds)
            };
            span_rounds += rounds;
            span_ms += ns_to_ms(wall_ns);
            readings.push((ms_name, ms));
            readings.push((rounds_name, layer_rounds as f64));
        }
        let attributed = span_ms + save_ms + op.load_ms + op.resume_ms + op.validate_ms;
        readings.push(("layers.unattributed_ms", wall_ms - attributed));
        Traced {
            ok: op.valid && span_rounds == self.rounds,
            wall_ms,
            readings,
        }
    }
}
