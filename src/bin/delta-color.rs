//! Command-line Δ-coloring tool.
//!
//! ```text
//! delta-color gen --cliques 68 --delta 16 --seed 1 > graph.txt
//! delta-color color graph.txt                  # deterministic (Theorem 1)
//! delta-color color graph.txt --randomized 7   # randomized (Theorem 2)
//! delta-color color graph.txt --general 7      # sparse+dense extension
//! delta-color color graph.txt --profile        # per-phase profile table
//! delta-color color graph.txt --metrics-out m.json  # metrics snapshot
//! delta-color color graph.txt --trace-out t.jsonl   # structured trace
//! delta-color color graph.txt --faults seed=7,drop=0.01   # fault injection
//! delta-color color graph.txt --threads 4      # component/loophole pool width
//! delta-color color graph.txt --checkpoint-dir ckpt   # phase snapshots
//! delta-color color graph.txt --resume ckpt/checkpoint-06-pre-shattering.json
//! delta-color replay bundles/bundle-after-post-shattering.json
//! ```
//!
//! `color` reads the edge-list format (see `graphgen::io`), writes the
//! coloring (`vertex color` per line) to stdout and the round ledger to
//! stderr. `--trace-out` streams every telemetry event as one JSON object
//! per line (schema in `docs/OBSERVABILITY.md`); `--profile` prints a
//! per-phase breakdown — rounds, share of total, wall-clock, messages —
//! reconstructed from the same event stream, plus the worker-pool
//! utilization table (busy/idle/merge per worker) and latency histograms
//! from the metrics hub. `--metrics-out PATH` writes the full versioned
//! metrics snapshot (counters, watermarks, histograms, worker lanes) as
//! JSON. With `--bundle-dir`, a bounded flight recorder (default 512
//! events, `--flight-capacity N`) rides along and its tail is embedded
//! into any captured repro bundle; `replay` prints it back.
//!
//! Supervisor options (see `docs/RECOVERY.md`): `--checkpoint-dir DIR`
//! snapshots after every phase; `--resume SNAPSHOT` continues a killed run
//! bit-identically; `--stop-after PHASE` suspends at a boundary;
//! `--bundle-dir DIR` captures failures as repro bundles; `--degrade`
//! contains component panics/budget overruns by falling back to the
//! Brooks baseline; `--component-round-budget N` and
//! `--component-wall-budget-ms N` bound component solves;
//! `--chaos-panic I,J` / `--chaos-skip I,J` inject supervisor-level
//! failures for testing. `replay <bundle>` re-executes a repro bundle and
//! reports whether the recorded failure reproduced.
//!
//! Sharded mode (see `docs/DISTRIBUTED.md`): `shard-color <file>
//! --shards N` partitions the graph across `N` worker *processes* (this
//! binary re-invoked as `shard-serve`, connected over loopback TCP) and
//! runs a wire algorithm (`--algo greedy|rand:S|countdown|floodmax:T`)
//! actually distributed — bit-identical to `--shards 0`, the
//! single-process reference, even after `--chaos-kill S@R` SIGKILLs a
//! worker mid-run and it resumes from a checkpoint.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use delta_coloring::coloring::{
    color_sparse_dense_probed, drive_deterministic, drive_randomized, load_bundle, load_snapshot,
    replay_bundle, run_shard_case, run_wire_coloring, save_bundle, shard_bundle, validate_coloring,
    ChaosPlan, Config, DegradedComponent, DistributedConfig, FailureReport, PhaseCursor,
    PipelineKind, RandConfig, RunOutcome, ShardRunSpec, Supervisor,
};
use delta_coloring::graphs::coloring::verify_delta_coloring;
use delta_coloring::graphs::generators::{gnp, hard_cliques, HardCliqueParams};
use delta_coloring::graphs::io;
use delta_coloring::local::{
    set_default_threads, ChaosKill, Event, FanoutSink, FaultPlan, FlightRecorder, JsonlSink,
    MetricsHub, NetFaultPlan, Probe, RecordingSink, Sink, WireAlgo, WorkerBackend,
};

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_index_list(key: &str, spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|e| format!("invalid {key} entry `{s}`: {e}"))
        })
        .collect()
}

/// Parses a `--chaos-kill` spec: `SHARD@ROUND` entries, comma-separated
/// (`1@2,0@5` kills shard 1 after round 2 and shard 0 after round 5).
fn parse_chaos_kills(spec: &str) -> Result<Vec<ChaosKill>, String> {
    spec.split(',')
        .map(|s| {
            let entry = s.trim();
            let (shard, round) = entry
                .split_once('@')
                .ok_or_else(|| format!("invalid --chaos-kill entry `{entry}`: expected S@R"))?;
            Ok(ChaosKill {
                shard: shard
                    .parse()
                    .map_err(|e| format!("invalid --chaos-kill shard `{shard}`: {e}"))?,
                after_round: round
                    .parse()
                    .map_err(|e| format!("invalid --chaos-kill round `{round}`: {e}"))?,
            })
        })
        .collect()
}

/// Builds the [`Supervisor`] from CLI flags; `None` when no supervisor
/// flag was given (the run then takes the plain, unsupervised path).
fn supervisor_from_args(args: &[String]) -> Result<Option<Supervisor>, String> {
    let mut sup = Supervisor::passive();
    let mut any = false;
    if let Some(dir) = arg_value(args, "--checkpoint-dir") {
        sup.checkpoint_dir = Some(PathBuf::from(dir));
        any = true;
    }
    if let Some(dir) = arg_value(args, "--bundle-dir") {
        sup.bundle_dir = Some(PathBuf::from(dir));
        any = true;
    }
    if let Some(phase) = arg_value(args, "--stop-after") {
        sup.stop_after = Some(phase.parse::<PhaseCursor>()?);
        any = true;
    }
    if let Some(n) = arg_value(args, "--component-round-budget") {
        sup.component_round_budget = Some(
            n.parse()
                .map_err(|e| format!("invalid --component-round-budget value `{n}`: {e}"))?,
        );
        any = true;
    }
    if let Some(n) = arg_value(args, "--component-wall-budget-ms") {
        sup.component_wall_budget_ms = Some(
            n.parse()
                .map_err(|e| format!("invalid --component-wall-budget-ms value `{n}`: {e}"))?,
        );
        any = true;
    }
    if args.iter().any(|a| a == "--degrade") {
        sup.degrade = true;
        any = true;
    }
    let mut chaos = ChaosPlan::default();
    if let Some(spec) = arg_value(args, "--chaos-panic") {
        chaos.panic_components = parse_index_list("--chaos-panic", &spec)?;
    }
    if let Some(spec) = arg_value(args, "--chaos-skip") {
        chaos.skip_components = parse_index_list("--chaos-skip", &spec)?;
    }
    if !chaos.is_empty() {
        sup.chaos = chaos;
        any = true;
    }
    Ok(any.then_some(sup))
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            let cliques = arg_value(&args, "--cliques").map_or(Ok(68), |v| v.parse())?;
            let delta = arg_value(&args, "--delta").map_or(Ok(16), |v| v.parse())?;
            let seed = arg_value(&args, "--seed").map_or(Ok(1), |v| v.parse())?;
            let inst = hard_cliques(&HardCliqueParams {
                cliques,
                delta,
                external_per_vertex: 1,
                seed,
            })?;
            print!("{}", io::write_edge_list(&inst.graph));
            eprintln!(
                "generated {} vertices / {} edges (Δ = {delta}, {cliques} hard cliques)",
                inst.graph.n(),
                inst.graph.m()
            );
            Ok(())
        }
        Some("color") => {
            let path = args.get(1).filter(|p| !p.starts_with("--")).ok_or(
                "usage: delta-color color <file> [--randomized SEED | --general SEED] \
                 [--faults SPEC] [--threads K] [--trace-out PATH] [--profile] \
                 [--metrics-out PATH] [--flight-capacity N] \
                 [--checkpoint-dir DIR] [--resume SNAPSHOT] [--stop-after PHASE] \
                 [--bundle-dir DIR] [--degrade] [--component-round-budget N] \
                 [--component-wall-budget-ms N] [--chaos-panic I,J] [--chaos-skip I,J]",
            )?;
            if let Some(k) = arg_value(&args, "--threads") {
                let k: usize = k
                    .parse()
                    .map_err(|e| format!("invalid --threads value `{k}`: {e}"))?;
                // Overrides LOCALSIM_THREADS for the pipeline pool that runs
                // leftover components and loophole brute force; executors
                // always step sequentially. Every result is bit-identical
                // at any thread count; this only changes wall-clock.
                set_default_threads(k);
            }
            let g = io::read_edge_list(path)
                .map_err(|e| format!("cannot read graph file `{path}`: {e}"))?;
            let delta = g.max_degree();
            eprintln!("read {} vertices / {} edges, Δ = {delta}", g.n(), g.m());

            // Assemble the probe: a JSONL trace file, an in-memory
            // recording for --profile, a bounded flight recorder when
            // repro bundles are being captured — any combination. I/O
            // failures surface through the CLI error path (nonzero exit,
            // message naming the file) — never a panic.
            let profile = args.iter().any(|a| a == "--profile");
            let metrics_out = arg_value(&args, "--metrics-out");
            let hub = (profile || metrics_out.is_some()).then(|| Arc::new(MetricsHub::new()));
            let recording = profile.then(|| Arc::new(RecordingSink::new()));
            let flight_capacity: usize = arg_value(&args, "--flight-capacity")
                .map_or(Ok(512), |v| v.parse())
                .map_err(|e| format!("invalid --flight-capacity value: {e}"))?;
            let flight = arg_value(&args, "--bundle-dir")
                .is_some()
                .then(|| Arc::new(FlightRecorder::new(flight_capacity)));
            let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
            if let Some(trace_path) = arg_value(&args, "--trace-out") {
                let sink = JsonlSink::create(&trace_path)
                    .map_err(|e| format!("cannot open trace file `{trace_path}`: {e}"))?;
                sinks.push(Arc::new(sink));
                eprintln!("tracing to {trace_path}");
            }
            if let Some(rec) = &recording {
                sinks.push(rec.clone());
            }
            if let Some(f) = &flight {
                sinks.push(f.clone());
            }
            let mut probe = match sinks.as_slice() {
                [] => Probe::disabled(),
                [only] => Probe::new(only.clone()),
                _ => Probe::from_sink(FanoutSink::new(sinks)),
            };
            if let Some(hub) = &hub {
                probe = probe.with_metrics(hub.clone());
            }

            let faults: Option<FaultPlan> = arg_value(&args, "--faults")
                .map(|spec| {
                    spec.parse()
                        .map_err(|e| format!("invalid --faults spec `{spec}`: {e}"))
                })
                .transpose()?;
            let mut sup = supervisor_from_args(&args)?.unwrap_or_default();
            if let Some(f) = &flight {
                sup.flight = Some(f.clone());
            }
            let resume = arg_value(&args, "--resume")
                .map(|p| load_snapshot(std::path::Path::new(&p)))
                .transpose()?;

            let (coloring, ledger) = if let Some(snap) = resume {
                // Resume: pipeline, config, and fault plan all come from
                // the snapshot — only supervisor policy and the probe are
                // taken from this invocation.
                eprintln!("resuming after phase `{}`", snap.cursor);
                match snap.pipeline {
                    PipelineKind::Randomized => {
                        let rand = snap
                            .rand
                            .clone()
                            .ok_or("snapshot missing randomized state")?;
                        let plan = snap.faults.clone();
                        let outcome = drive_randomized(
                            &g,
                            &rand.config,
                            plan.as_ref(),
                            &probe,
                            &sup,
                            Some(snap),
                        )?;
                        let Some(report) = finish(outcome) else {
                            return Ok(());
                        };
                        let report = report?;
                        (report.coloring, report.ledger)
                    }
                    PipelineKind::Deterministic => {
                        let det = snap
                            .det
                            .clone()
                            .ok_or("snapshot missing deterministic state")?;
                        let outcome =
                            drive_deterministic(&g, &det.config, &probe, &sup, Some(snap))?;
                        let Some(report) = finish(outcome) else {
                            return Ok(());
                        };
                        let report = report?;
                        (report.coloring, report.ledger)
                    }
                    // Sharded runs checkpoint through their own files
                    // (shard-checkpoint-*.json), never phase snapshots.
                    PipelineKind::Shard => {
                        return Err("snapshot belongs to the sharded runtime; \
                                    shard runs resume from their own checkpoints"
                            .into())
                    }
                }
            } else if faults.is_some() || arg_value(&args, "--randomized").is_some() {
                // Fault injection runs the randomized pipeline (the only
                // one with a recovery loop); --randomized picks the
                // pipeline seed, defaulting to the plan seed.
                let seed = match (arg_value(&args, "--randomized"), &faults) {
                    (Some(s), _) => s.parse()?,
                    (None, Some(plan)) => plan.seed,
                    (None, None) => unreachable!("branch requires --faults or --randomized"),
                };
                let config = RandConfig::for_delta(delta, seed);
                let outcome = drive_randomized(&g, &config, faults.as_ref(), &probe, &sup, None)?;
                let Some(report) = finish(outcome) else {
                    return Ok(());
                };
                let report = report?;
                if faults.is_some() {
                    let validation = validate_coloring(&g, &report.coloring, delta as u32);
                    if !validation.is_ok() {
                        return Err(format!("post-run validation failed: {validation}").into());
                    }
                    eprintln!(
                        "faults: {} retries across {} of {} components, {} vertices struck, \
                         {} recovery rounds; validation: {}",
                        report.recovery.retries,
                        report.recovery.components_hit,
                        report.shatter.components,
                        report.recovery.struck_vertices,
                        report.recovery.recovery_rounds,
                        validation.summary()
                    );
                }
                (report.coloring, report.ledger)
            } else if let Some(seed) = arg_value(&args, "--general") {
                let config = RandConfig::for_delta(delta, seed.parse()?);
                let report = color_sparse_dense_probed(&g, &config, &probe)?;
                (report.coloring, report.ledger)
            } else {
                let outcome =
                    drive_deterministic(&g, &Config::for_delta(delta), &probe, &sup, None)?;
                let Some(report) = finish(outcome) else {
                    return Ok(());
                };
                let report = report?;
                (report.coloring, report.ledger)
            };
            drop(probe); // flush the trace file before reporting
            verify_delta_coloring(&g, &coloring)?;
            eprintln!("{ledger}");
            // Write the metrics snapshot before the utilization render,
            // which registers (empty) histograms it probes for.
            if let (Some(hub), Some(path)) = (&hub, &metrics_out) {
                let json = serde::json::to_string(&hub.snapshot_value());
                std::fs::write(path, json + "\n")
                    .map_err(|e| format!("cannot write metrics file `{path}`: {e}"))?;
                eprintln!("metrics written to {path}");
            }
            if let Some(rec) = &recording {
                eprintln!("{}", ledger.render_table());
                eprint!("{}", render_profile(&rec.events(), ledger.total()));
            }
            if let (Some(hub), true) = (&hub, profile) {
                eprint!("{}", render_utilization(hub));
            }
            print!("{}", io::write_coloring(&coloring));
            Ok(())
        }
        Some("shard-serve") => {
            // A worker shard: dial the coordinator and serve rounds until
            // a Shutdown frame (or the coordinator's death) ends the run.
            // Spawned by `shard-color`'s process backend; the coordinator
            // appends the address as the final argument.
            let addr = arg_value(&args, "--connect").ok_or(
                "usage: delta-color shard-serve --connect HOST:PORT [--read-timeout-ms N]",
            )?;
            // The read timeout bounds how long an orphaned worker (its
            // coordinator dead or wedged without closing the socket)
            // lingers before exiting with a clear error. 0 disables it.
            let timeout = match arg_value(&args, "--read-timeout-ms") {
                Some(ms) => Duration::from_millis(
                    ms.parse()
                        .map_err(|e| format!("invalid --read-timeout-ms value `{ms}`: {e}"))?,
                ),
                None => delta_coloring::local::shard::DEFAULT_READ_TIMEOUT,
            };
            delta_coloring::local::shard::serve_connect_with(&addr, timeout)?;
            Ok(())
        }
        Some("shard-color") => {
            let path = args.get(1).filter(|p| !p.starts_with("--")).ok_or(
                "usage: delta-color shard-color <file> [--shards N] \
                 [--algo greedy|rand:S|countdown|floodmax:T] [--seed S] [--faults SPEC] \
                 [--max-rounds M] [--checkpoint-every K] [--checkpoint-dir DIR] \
                 [--chaos-kill S@R,...] [--chaos-net SPEC] [--barrier-timeout-ms N] \
                 [--max-respawns N] [--trace-out PATH] \
                 [--metrics-out PATH]\n  (--shards 0 runs the single-process \
                 reference executor)",
            )?;
            let g = io::read_edge_list(path)
                .map_err(|e| format!("cannot read graph file `{path}`: {e}"))?;
            eprintln!(
                "read {} vertices / {} edges, Δ = {}",
                g.n(),
                g.m(),
                g.max_degree()
            );
            let algo: WireAlgo = match (arg_value(&args, "--algo"), arg_value(&args, "--seed")) {
                (Some(spec), _) => spec.parse()?,
                (None, Some(s)) => WireAlgo::Rand {
                    seed: s
                        .parse()
                        .map_err(|e| format!("invalid --seed `{s}`: {e}"))?,
                },
                (None, None) => WireAlgo::Greedy,
            };
            let mut cfg = DistributedConfig::for_algo(algo);
            if let Some(n) = arg_value(&args, "--shards") {
                cfg.shards = n
                    .parse()
                    .map_err(|e| format!("invalid --shards value `{n}`: {e}"))?;
            }
            cfg.faults = arg_value(&args, "--faults")
                .map(|spec| {
                    spec.parse::<FaultPlan>()
                        .map_err(|e| format!("invalid --faults spec `{spec}`: {e}"))
                })
                .transpose()?;
            if let Some(m) = arg_value(&args, "--max-rounds") {
                cfg.max_rounds = m
                    .parse()
                    .map_err(|e| format!("invalid --max-rounds value `{m}`: {e}"))?;
            }
            if let Some(k) = arg_value(&args, "--checkpoint-every") {
                cfg.checkpoint_every = k
                    .parse()
                    .map_err(|e| format!("invalid --checkpoint-every value `{k}`: {e}"))?;
            }
            if let Some(n) = arg_value(&args, "--max-respawns") {
                cfg.max_respawns = n
                    .parse()
                    .map_err(|e| format!("invalid --max-respawns value `{n}`: {e}"))?;
            }
            if let Some(spec) = arg_value(&args, "--chaos-kill") {
                cfg.chaos_kills = parse_chaos_kills(&spec)?;
            }
            if let Some(spec) = arg_value(&args, "--chaos-net") {
                cfg.net_faults = Some(
                    spec.parse::<NetFaultPlan>()
                        .map_err(|e| format!("invalid --chaos-net spec `{spec}`: {e}"))?,
                );
            }
            if let Some(ms) = arg_value(&args, "--barrier-timeout-ms") {
                cfg.liveness.barrier_timeout =
                    Some(Duration::from_millis(ms.parse().map_err(|e| {
                        format!("invalid --barrier-timeout-ms value `{ms}`: {e}")
                    })?));
            }
            // Workers are real OS processes: this same binary, re-invoked
            // in shard-serve mode. A killed worker (--chaos-kill sends a
            // real SIGKILL) is respawned and restored from the latest
            // checkpoint, bit-identically.
            cfg.backend = WorkerBackend::Process {
                program: std::env::current_exe()
                    .map_err(|e| format!("cannot locate own executable: {e}"))?,
                args: vec!["shard-serve".to_string(), "--connect".to_string()],
            };
            let mut sup = Supervisor::passive();
            if let Some(dir) = arg_value(&args, "--checkpoint-dir") {
                sup.checkpoint_dir = Some(PathBuf::from(dir));
            }
            let metrics_out = arg_value(&args, "--metrics-out");
            let hub = metrics_out.is_some().then(|| Arc::new(MetricsHub::new()));
            let mut probe = match arg_value(&args, "--trace-out") {
                Some(trace_path) => {
                    let sink = JsonlSink::create(&trace_path)
                        .map_err(|e| format!("cannot open trace file `{trace_path}`: {e}"))?;
                    eprintln!("tracing to {trace_path}");
                    Probe::from_sink(sink)
                }
                None => Probe::disabled(),
            };
            if let Some(hub) = &hub {
                probe = probe.with_metrics(hub.clone());
            }
            let report = run_wire_coloring(&g, &cfg, &sup, probe)?;
            if let (Some(hub), Some(path)) = (&hub, &metrics_out) {
                let json = serde::json::to_string(&hub.snapshot_value());
                std::fs::write(path, json + "\n")
                    .map_err(|e| format!("cannot write metrics file `{path}`: {e}"))?;
                eprintln!("metrics written to {path}");
            }
            match report.colors_used {
                Some(colors) => eprintln!(
                    "{} shard(s): {} rounds, {colors} colors (palette Δ+1 = {})",
                    cfg.shards,
                    report.rounds,
                    g.max_degree() + 1
                ),
                None => eprintln!("{} shard(s): {} rounds", cfg.shards, report.rounds),
            }
            if let Some(t) = &report.traffic {
                eprintln!(
                    "wire: {} B init, {} B/round steady-state, {} ghost update(s) sent, \
                     {} suppressed",
                    t.init_bytes,
                    t.round_bytes(report.rounds),
                    t.ghost_updates,
                    t.ghost_suppressed
                );
                if t.adopted_ranges > 0 {
                    eprintln!(
                        "degraded: {} shard range(s) adopted in-process after \
                         exhausting their respawn budget",
                        t.adopted_ranges
                    );
                }
            }
            let mut out = String::new();
            for (v, o) in report.outputs.iter().enumerate() {
                out.push_str(&format!("{v} {o}\n"));
            }
            print!("{out}");
            Ok(())
        }
        Some("soak") => {
            // Randomized chaos campaign over the sharded runtime: each
            // iteration derives a graph, a simulated-fault plan, a wire
            // chaos plan, and a kill from one case seed, runs the sharded
            // case against the single-process reference, and captures any
            // divergence as a replayable repro bundle (which is replayed
            // on the spot to confirm it reproduces).
            let seconds: Option<u64> = arg_value(&args, "--seconds")
                .map(|v| {
                    v.parse()
                        .map_err(|e| format!("invalid --seconds value `{v}`: {e}"))
                })
                .transpose()?;
            let iterations: u64 = arg_value(&args, "--iterations")
                .map(|v| {
                    v.parse()
                        .map_err(|e| format!("invalid --iterations value `{v}`: {e}"))
                })
                .transpose()?
                .unwrap_or(if seconds.is_some() { u64::MAX } else { 20 });
            let shards: usize = arg_value(&args, "--shards").map_or(Ok(3), |v| v.parse())?;
            let algo: WireAlgo = arg_value(&args, "--algo").map_or(Ok(WireAlgo::Greedy), |v| {
                v.parse()
                    .map_err(|e| format!("invalid --algo spec `{v}`: {e}"))
            })?;
            let seed0: u64 = arg_value(&args, "--seed").map_or(Ok(1), |v| v.parse())?;
            let max_rounds: u64 =
                arg_value(&args, "--max-rounds").map_or(Ok(10_000), |v| v.parse())?;
            let bundle_dir = PathBuf::from(
                arg_value(&args, "--bundle-dir").unwrap_or_else(|| "soak-bundles".to_string()),
            );
            // The splitmix64 finalizer: one case seed fans out into every
            // chaos decision below, so `--seed` reproduces the campaign.
            let mix = |mut x: u64| {
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            let start = Instant::now();
            let (mut ran, mut failures, mut unreproduced) = (0u64, 0u64, 0u64);
            for i in 0..iterations {
                if let Some(s) = seconds {
                    if start.elapsed() >= Duration::from_secs(s) {
                        break;
                    }
                }
                let cs = mix(seed0 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let n = 24 + (cs % 33) as usize;
                let g = gnp(n, 0.15, cs);
                // Simulated faults: jitter is safe for every wire algo;
                // message drops only for greedy (rand requires reliable
                // delivery — see docs/DISTRIBUTED.md).
                let drop_p = if matches!(algo, WireAlgo::Greedy) {
                    0.02 * ((cs >> 8) % 4) as f64
                } else {
                    0.0
                };
                let jitter = (cs >> 16) % 3;
                let fault_spec = format!("seed={cs},drop={drop_p},jitter={jitter}");
                let faults: FaultPlan = fault_spec
                    .parse()
                    .map_err(|e| format!("internal fault spec `{fault_spec}`: {e}"))?;
                let mut net = NetFaultPlan {
                    seed: cs,
                    delay_p: 0.02,
                    dup_p: 0.05,
                    corrupt_p: 0.002,
                    ..NetFaultPlan::default()
                };
                let mut spec = ShardRunSpec::new(shards, &algo);
                spec.max_rounds = max_rounds;
                spec.max_respawns = 6;
                spec.kills = vec![((cs >> 32) % shards as u64, 1 + (cs >> 24) % 3)];
                if i % 3 == 0 {
                    net.resets.push(((cs >> 40) % shards as u64, 2));
                }
                if i % 5 == 4 {
                    // A hung worker: detection needs a barrier deadline.
                    net.hangs.push(((cs >> 48) % shards as u64, 3));
                    spec.barrier_timeout_ms = Some(750);
                    spec.heartbeat_ms = Some(250);
                }
                spec.net = Some(net);
                if let Some(verdict) = run_shard_case(&g, &spec, Some(&faults)) {
                    failures += 1;
                    let bundle = shard_bundle(
                        &g,
                        &spec,
                        Some(&faults),
                        verdict.clone(),
                        Some(format!("soak-{i:03}")),
                    );
                    let path = save_bundle(&bundle_dir, &bundle)?;
                    eprintln!(
                        "soak case {i}: FAILED — {verdict}\n  bundle saved to {} \
                         (replay with: delta-color replay)",
                        path.display()
                    );
                    let rep = replay_bundle(&path, &Probe::disabled())?;
                    if rep.reproduced {
                        eprintln!("  replay: failure reproduced");
                    } else {
                        unreproduced += 1;
                        eprintln!(
                            "  replay: NOT reproduced (observed: {})",
                            rep.observed_error.as_deref().unwrap_or("run was clean")
                        );
                    }
                }
                ran += 1;
            }
            eprintln!(
                "soak: {ran} case(s) in {:.1}s, {failures} failure(s), {unreproduced} unreproduced",
                start.elapsed().as_secs_f64()
            );
            if failures > 0 {
                Err(format!("soak campaign found {failures} diverging case(s)").into())
            } else {
                Ok(())
            }
        }
        Some("replay") => {
            let path = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .ok_or("usage: delta-color replay <bundle.json>")?;
            let bundle = load_bundle(std::path::Path::new(path))?;
            if !bundle.flight.is_empty() {
                eprintln!(
                    "flight recorder: last {} event(s) before capture:",
                    bundle.flight.len()
                );
                for event in &bundle.flight {
                    eprintln!("  {}", serde::json::to_string(event));
                }
            }
            let report = replay_bundle(std::path::Path::new(path), &Probe::disabled())?;
            eprintln!("recorded error:      {}", report.recorded_error);
            match &report.observed_error {
                Some(e) => eprintln!("observed error:      {e}"),
                None => eprintln!("observed error:      (run completed without error)"),
            }
            eprintln!("recorded violations: {}", report.recorded_violations.len());
            eprintln!("observed violations: {}", report.observed_violations.len());
            if report.reproduced {
                eprintln!("replay: failure reproduced");
                Ok(())
            } else {
                Err("replay did not reproduce the recorded failure".into())
            }
        }
        _ => {
            eprintln!(
                "usage:\n  delta-color gen [--cliques N] [--delta D] [--seed S]\n  \
                 delta-color color <file> [--randomized SEED | --general SEED] \
                 [--faults seed=S,drop=P,jitter=J,crash=N@R+...] [--threads K] \
                 [--trace-out PATH] [--profile] [--metrics-out PATH] \
                 [--flight-capacity N]\n    supervisor: [--checkpoint-dir DIR] \
                 [--resume SNAPSHOT] [--stop-after PHASE] [--bundle-dir DIR] [--degrade] \
                 [--component-round-budget N] [--component-wall-budget-ms N] \
                 [--chaos-panic I,J] [--chaos-skip I,J]\n  \
                 delta-color shard-color <file> [--shards N] [--algo SPEC] [--seed S] \
                 [--faults SPEC] [--max-rounds M] [--checkpoint-every K] \
                 [--checkpoint-dir DIR] [--chaos-kill S@R,...] [--chaos-net SPEC] \
                 [--barrier-timeout-ms N] [--max-respawns N] \
                 [--trace-out PATH] [--metrics-out PATH]\n  \
                 delta-color shard-serve --connect HOST:PORT [--read-timeout-ms N]\n  \
                 delta-color soak [--iterations N | --seconds S] [--shards N] [--algo SPEC] \
                 [--seed S] [--max-rounds M] [--bundle-dir DIR]\n  \
                 delta-color replay <bundle.json>"
            );
            Err("unknown command".into())
        }
    }
}

/// Folds a supervised run outcome into its report. `Complete` prints any
/// degraded components and yields the report; `Suspended` prints the
/// resume hint and yields `None` (the caller exits cleanly); `Failed`
/// yields the rendered failure as an error.
fn finish<R>(outcome: RunOutcome<R>) -> Option<Result<R, Box<dyn std::error::Error>>> {
    match outcome {
        RunOutcome::Complete { report, degraded } => {
            report_degraded(&degraded);
            Some(Ok(report))
        }
        RunOutcome::Suspended { cursor, snapshot } => {
            eprintln!(
                "suspended after phase `{cursor}`; resume with --resume {}",
                snapshot.display()
            );
            None
        }
        RunOutcome::Failed(f) => Some(Err(render_failure(&f).into())),
    }
}

fn report_degraded(degraded: &[DegradedComponent]) {
    for d in degraded {
        eprintln!(
            "degraded: component {} fell back to the Brooks baseline \
             ({}; charged {} rounds)",
            d.index, d.reason, d.rounds
        );
    }
}

fn render_failure(f: &FailureReport) -> String {
    report_degraded(&f.degraded);
    let mut msg = format!("run failed: {}", f.error);
    if let Some(cursor) = &f.cursor {
        msg.push_str(&format!(" (last completed phase: {cursor})"));
    }
    if !f.violations.is_empty() {
        msg.push_str(&format!("; {} violation(s):", f.violations.len()));
        for v in f.violations.iter().take(5) {
            msg.push_str(&format!("\n  {v}"));
        }
        if f.violations.len() > 5 {
            msg.push_str(&format!("\n  … and {} more", f.violations.len() - 5));
        }
    }
    if let Some(bundle) = &f.bundle {
        msg.push_str(&format!(
            "\nrepro bundle saved to {} (replay with: delta-color replay)",
            bundle.display()
        ));
    }
    msg
}

/// Renders the worker-pool utilization table and the latency histograms
/// collected by the metrics hub: one row per worker lane (busy/idle/merge
/// wall-clock and shares, units executed, units stolen beyond the fair
/// share), then count/p50/p95/p99/max for every populated histogram.
fn render_utilization(hub: &MetricsHub) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let lanes = hub.worker_lanes();
    if !lanes.is_empty() {
        let _ = writeln!(
            out,
            "{:>6}  {:>10}  {:>10}  {:>10}  {:>6}  {:>8}  {:>7}",
            "worker", "busy ms", "idle ms", "merge ms", "busy%", "units", "steals"
        );
        for lane in &lanes {
            let total = lane.busy_ns + lane.idle_ns + lane.merge_ns;
            let busy_pct = if total == 0 {
                0.0
            } else {
                100.0 * lane.busy_ns as f64 / total as f64
            };
            let _ = writeln!(
                out,
                "{:>6}  {:>10.3}  {:>10.3}  {:>10.3}  {busy_pct:>5.1}%  {:>8}  {:>7}",
                lane.worker,
                lane.busy_ns as f64 / 1e6,
                lane.idle_ns as f64 / 1e6,
                lane.merge_ns as f64 / 1e6,
                lane.units,
                lane.steals,
            );
        }
    }
    let hists = [
        "pool.call_ns",
        "exec.round_ns",
        "msg.round_ns",
        "supervisor.checkpoint_write_ns",
        "supervisor.resume_restore_ns",
    ];
    let populated: Vec<_> = hists
        .iter()
        .map(|name| (name, hub.histogram(name)))
        .filter(|(_, h)| h.count() > 0)
        .collect();
    if !populated.is_empty() {
        let _ = writeln!(
            out,
            "{:30}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
            "histogram", "count", "p50 ms", "p95 ms", "p99 ms", "max ms"
        );
        for (name, h) in populated {
            let ms = |v: u64| v as f64 / 1e6;
            let _ = writeln!(
                out,
                "{name:30}  {:>8}  {:>10.3}  {:>10.3}  {:>10.3}  {:>10.3}",
                h.count(),
                ms(h.quantile(0.50)),
                ms(h.quantile(0.95)),
                ms(h.quantile(0.99)),
                ms(h.max()),
            );
        }
    }
    out
}

/// Renders the per-span profile: rounds, share of the ledger total,
/// wall-clock, and messages. Messages are attributed to every span open
/// when the executor emitted its per-round snapshot.
fn render_profile(events: &[Event], total_rounds: u64) -> String {
    use std::fmt::Write as _;

    // Replay the stream: count messages into all currently open spans.
    let mut open: Vec<(String, u64)> = Vec::new(); // (path, messages so far)
    let mut closed: Vec<(String, u64, u64, u64)> = Vec::new(); // path, rounds, wall_ns, msgs
    for event in events {
        match event {
            Event::SpanEnter { path } => open.push((path.clone(), 0)),
            Event::SpanExit {
                path,
                rounds,
                wall_ns,
                ..
            } => {
                let msgs = open
                    .iter()
                    .rposition(|(p, _)| p == path)
                    .map_or(0, |i| open.remove(i).1);
                closed.push((path.clone(), *rounds, *wall_ns, msgs));
            }
            Event::Round { counters, .. } => {
                let sent: i64 = counters
                    .iter()
                    .filter(|(name, _)| name == "messages_sent")
                    .map(|&(_, v)| v)
                    .sum();
                for (_, msgs) in &mut open {
                    *msgs += sent.max(0) as u64;
                }
            }
            Event::CongestRound { messages, .. } => {
                for (_, msgs) in &mut open {
                    *msgs += messages;
                }
            }
            _ => {}
        }
    }

    let width = closed
        .iter()
        .map(|(p, ..)| p.len())
        .max()
        .unwrap_or(5)
        .max(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:width$}  {:>8}  {:>6}  {:>10}  {:>12}",
        "span", "rounds", "%", "wall ms", "messages"
    );
    for (path, rounds, wall_ns, msgs) in &closed {
        let pct = if total_rounds == 0 {
            0.0
        } else {
            100.0 * *rounds as f64 / total_rounds as f64
        };
        let _ = writeln!(
            out,
            "{path:width$}  {rounds:>8}  {pct:>5.1}%  {:>10.3}  {msgs:>12}",
            *wall_ns as f64 / 1e6,
        );
    }
    out
}
