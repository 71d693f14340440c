//! Telemetry integration tests: probes must change nothing about a run
//! (NullSink equivalence), traces must be deterministic for seeded runs
//! (RecordingSink reproducibility), the event stream must cover every
//! executed simulator round, and the deterministic slice of a metrics
//! snapshot must match its committed baseline.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;

use delta_coloring::coloring::{
    color_deterministic, color_deterministic_probed, color_randomized, color_randomized_probed,
    color_sparse_dense, color_sparse_dense_probed, Config, RandConfig,
};
use delta_coloring::graphs::generators::{self, HardCliqueParams, SparseDenseParams};
use delta_coloring::local::{ChargeKind, Event, NullSink, Probe, RecordingSink, EXEC_SCOPE};
use serde::{json, Value};

fn hard(cliques: usize, delta: usize, seed: u64) -> generators::HardCliqueInstance {
    generators::hard_cliques(&HardCliqueParams {
        cliques,
        delta,
        external_per_vertex: 1,
        seed,
    })
    .unwrap()
}

#[test]
fn null_sink_run_matches_probe_free_run() {
    let inst = hard(34, 16, 42);
    let bare = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    let probed = color_deterministic_probed(
        &inst.graph,
        &Config::for_delta(16),
        &Probe::from_sink(NullSink),
    )
    .unwrap();
    assert_eq!(
        bare.coloring, probed.coloring,
        "coloring must be unchanged by the probe"
    );
    assert_eq!(
        bare.ledger, probed.ledger,
        "round accounting must be unchanged by the probe"
    );
}

#[test]
fn null_sink_randomized_run_matches_probe_free_run() {
    let inst = hard(40, 16, 43);
    let config = RandConfig::for_delta(16, 7);
    let bare = color_randomized(&inst.graph, &config).unwrap();
    let probed =
        color_randomized_probed(&inst.graph, &config, &Probe::from_sink(NullSink)).unwrap();
    assert_eq!(bare.coloring, probed.coloring);
    assert_eq!(bare.ledger, probed.ledger);
}

#[test]
fn recording_sink_trace_is_deterministic_across_reruns() {
    let inst = hard(40, 16, 44);
    let config = RandConfig::for_delta(16, 11);
    let run = || {
        let sink = Arc::new(RecordingSink::new());
        color_randomized_probed(&inst.graph, &config, &Probe::new(sink.clone())).unwrap();
        sink.normalized()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "same-seed runs must emit identical normalized traces"
    );
}

#[test]
fn trace_covers_every_executed_round() {
    // An E1-style hard instance. Every executor-backed phase charges its
    // simulator rounds one-to-one (no dilation), and the executor emits
    // one Round event per simulated round — so the per-round events must
    // at least cover those charges.
    let inst = hard(34, 16, 45);
    let sink = Arc::new(RecordingSink::new());
    let report = color_deterministic_probed(
        &inst.graph,
        &Config::for_delta(16),
        &Probe::new(sink.clone()),
    )
    .unwrap();
    let l = &report.ledger;
    // "maximal matching" and the list-coloring "instance" phases charge
    // their simulator rounds one-to-one; the splitting/pair phases charge
    // dilated virtual rounds, so they are excluded from the lower bound.
    let executor_backed = l.total_for("maximal matching") + l.total_for("instance");
    assert!(
        executor_backed > 0,
        "the pipeline must have run executor-backed phases"
    );
    let per_round = sink.rounds_seen(EXEC_SCOPE);
    assert!(
        per_round >= executor_backed,
        "{per_round} per-round events cannot cover {executor_backed} executed rounds"
    );

    // Every ledger entry surfaces as a Charge event with matching rounds.
    let charged: u64 = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Charge { rounds, .. } => Some(*rounds),
            _ => None,
        })
        .sum();
    assert_eq!(
        charged,
        l.total(),
        "charge events must reproduce the ledger total"
    );

    // Spans cover the whole pipeline: their charged rounds sum to the
    // ledger total (the --profile invariant).
    let span_rounds: u64 = sink.span_exits().iter().map(|(_, r, _)| *r).sum();
    assert_eq!(
        span_rounds,
        l.total(),
        "pipeline spans must account for every round"
    );
}

#[test]
fn charge_kinds_distinguish_virtual_phases() {
    let inst = hard(34, 16, 46);
    let sink = Arc::new(RecordingSink::new());
    color_deterministic_probed(
        &inst.graph,
        &Config::for_delta(16),
        &Probe::new(sink.clone()),
    )
    .unwrap();
    let kinds: Vec<ChargeKind> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Charge { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert!(kinds.contains(&ChargeKind::Real));
    assert!(kinds.contains(&ChargeKind::Constant));
    assert!(
        kinds.contains(&ChargeKind::Virtual),
        "pair coloring runs on a virtual graph"
    );
}

/// Rounds of the top-level spans only. Leftover components of the
/// randomized pipeline replay their own (nested) spans inside
/// `pipeline/post-shattering`, and the ledger absorbs a component only
/// through its maximum, so nested spans are not part of the partition.
fn top_level_span_rounds(events: &[Event]) -> u64 {
    let mut depth = 0usize;
    let mut total = 0;
    for e in events {
        match e {
            Event::SpanEnter { .. } => depth += 1,
            Event::SpanExit { rounds, .. } => {
                depth -= 1;
                if depth == 0 {
                    total += rounds;
                }
            }
            _ => {}
        }
    }
    total
}

#[test]
fn randomized_spans_account_for_every_round_with_leftover_components() {
    let inst = hard(160, 16, 5);
    let sink = Arc::new(RecordingSink::new());
    let report = color_randomized_probed(
        &inst.graph,
        &RandConfig::for_delta(16, 1),
        &Probe::new(sink.clone()),
    )
    .unwrap();
    assert!(
        report.shatter.components > 0,
        "the instance must leave components for the pool"
    );
    assert!(report
        .ledger
        .entries()
        .iter()
        .any(|e| e.phase == "post-shattering (max component)"));
    assert_eq!(
        top_level_span_rounds(&sink.events()),
        report.ledger.total(),
        "pipeline spans must account for every round"
    );
}

#[test]
fn sparse_dense_spans_account_for_every_round() {
    let inst = generators::sparse_dense_mix(&SparseDenseParams {
        cliques: 68,
        delta: 32,
        sparse: 120,
        cross: 8,
        seed: 3,
    })
    .unwrap();
    let sink = Arc::new(RecordingSink::new());
    let report = color_sparse_dense_probed(
        &inst.graph,
        &RandConfig::for_delta(32, 1),
        &Probe::new(sink.clone()),
    )
    .unwrap();
    assert!(report.ledger.total() > 0);
    assert_eq!(
        top_level_span_rounds(&sink.events()),
        report.ledger.total(),
        "pipeline spans must account for every round"
    );
}

#[test]
fn ledger_groups_have_no_phantom_hard_phase() {
    let inst = hard(34, 16, 47);
    let det = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    let rand = color_randomized(&inst.graph, &RandConfig::for_delta(16, 3)).unwrap();
    let mix = generators::sparse_dense_mix(&SparseDenseParams {
        cliques: 68,
        delta: 32,
        sparse: 120,
        cross: 8,
        seed: 3,
    })
    .unwrap();
    let general = color_sparse_dense(&mix.graph, &RandConfig::for_delta(32, 1)).unwrap();
    for (name, ledger) in [
        ("det", &det.ledger),
        ("rand", &rand.ledger),
        ("general", &general.ledger),
    ] {
        let groups: Vec<String> = ledger.grouped().into_iter().map(|(p, _)| p).collect();
        assert!(
            groups.iter().any(|p| p.contains("classification")),
            "{name}: {groups:?}"
        );
        assert!(!groups.iter().any(|p| p == "hard"), "{name}: {groups:?}");
    }
}

/// The deterministic slice of a `--metrics-out` snapshot: counters and
/// watermarks whose names do not end in `_ns`, plus `worker_units_total`.
/// Timing metrics and the per-worker table are left out; what remains is
/// a pure function of the run.
fn deterministic_metrics(snapshot: &str) -> BTreeMap<String, Value> {
    let snapshot = json::parse(snapshot).expect("metrics snapshot is JSON");
    let mut slice = BTreeMap::new();
    for section in ["counters", "watermarks"] {
        let Ok(Value::Map(entries)) = snapshot.field(section) else {
            panic!("snapshot has no `{section}` map");
        };
        for (name, v) in entries {
            if !name.ends_with("_ns") {
                slice.insert(format!("{section}.{name}"), v.clone());
            }
        }
    }
    let units = snapshot
        .field("worker_units_total")
        .expect("worker_units_total");
    slice.insert("worker_units_total".to_string(), units.clone());
    slice
}

/// A randomized run with leftover components on a 4-thread pool: its
/// deterministic metric slice must equal `ci/baselines/metrics.smoke.json`
/// exactly, on any machine. If a pipeline change legitimately moves it,
/// regenerate that file with the two CLI commands below
/// (`... --metrics-out ci/baselines/metrics.smoke.json --profile`).
#[test]
fn metrics_snapshot_slice_matches_the_committed_baseline() {
    const BIN: &str = env!("CARGO_BIN_EXE_delta-color");
    let dir = std::env::temp_dir().join(format!("telemetry-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (graph, snapshot) = (dir.join("gm.txt"), dir.join("metrics.json"));
    let gen = Command::new(BIN)
        .args(["gen", "--cliques", "160", "--delta", "16", "--seed", "5"])
        .output()
        .expect("spawn delta-color");
    assert!(gen.status.success());
    std::fs::write(&graph, &gen.stdout).unwrap();
    let run = Command::new(BIN)
        .arg("color")
        .arg(&graph)
        .args(["--randomized", "1", "--threads", "4", "--metrics-out"])
        .arg(&snapshot)
        .arg("--profile")
        .output()
        .expect("spawn delta-color");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let measured = deterministic_metrics(&std::fs::read_to_string(&snapshot).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    let committed = deterministic_metrics(include_str!("../ci/baselines/metrics.smoke.json"));
    assert_eq!(measured, committed);
}
