//! Run-supervisor contracts: kill-and-resume bit-identity at every phase
//! boundary, panic containment with Brooks degradation, budget
//! enforcement, and failure repro bundles.
//!
//! The resume contract is exact: for every checkpoint boundary, stopping
//! there and resuming must produce the same coloring, the same round
//! ledger total, the same recovery stats, and a stitched telemetry
//! stream (partial events + resumed events) equal to the uninterrupted
//! run's stream after wall-clock normalization — at any thread count,
//! with or without a fault plan.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use delta_core::{
    drive_deterministic, drive_randomized, load_bundle, load_snapshot, replay_bundle, ChaosPlan,
    Config, DeltaColoringError, PhaseCursor, RandConfig, RandReport, Report, RunOutcome, Snapshot,
    Supervisor,
};
use graphgen::coloring::verify_delta_coloring;
use graphgen::generators::{self, BlueprintKind, HardCliqueParams};
use graphgen::{Color, Coloring, Graph, NodeId};
use localsim::{Event, FaultPlan, JsonlSink, MetricsHub, Probe, RecordingSink};

fn circulant(cliques: usize, seed: u64) -> generators::HardCliqueInstance {
    generators::hard_cliques_with_blueprint(
        &HardCliqueParams {
            cliques,
            delta: 16,
            external_per_vertex: 1,
            seed,
        },
        BlueprintKind::Circulant,
    )
    .unwrap()
}

/// `defer_radius = 5` leaves real leftover components on these circulant
/// instances, so the supervised component pool has units to quarantine.
fn shattering_config(seed: u64, threads: usize) -> RandConfig {
    let mut config = RandConfig::for_delta(16, seed);
    config.defer_radius = 5;
    config.base.threads = threads;
    config
}

fn normalize(events: &[Event]) -> Vec<Event> {
    events.iter().map(Event::normalized).collect()
}

/// Self-cleaning scratch directory under the system temp dir. The tag
/// must be unique per call site since tests share one process.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("delta-supervisor-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn checkpointing(dir: &TempDir) -> Supervisor {
    Supervisor {
        checkpoint_dir: Some(dir.path().to_path_buf()),
        ..Supervisor::passive()
    }
}

fn supervised_rand(
    g: &Graph,
    config: &RandConfig,
    faults: Option<&FaultPlan>,
    sup: &Supervisor,
    resume: Option<delta_core::Snapshot>,
) -> (RunOutcome<RandReport>, Vec<Event>) {
    let sink = Arc::new(RecordingSink::new());
    let probe = Probe::new(sink.clone());
    let outcome = drive_randomized(g, config, faults, &probe, sup, resume).unwrap();
    (outcome, sink.events())
}

fn supervised_det(
    g: &Graph,
    config: &Config,
    sup: &Supervisor,
    resume: Option<delta_core::Snapshot>,
) -> (RunOutcome<Report>, Vec<Event>) {
    let sink = Arc::new(RecordingSink::new());
    let probe = Probe::new(sink.clone());
    let outcome = drive_deterministic(g, config, &probe, sup, resume).unwrap();
    (outcome, sink.events())
}

const RAND_BOUNDARIES: [PhaseCursor; 5] = [
    PhaseCursor::Acd,
    PhaseCursor::Classification,
    PhaseCursor::PreShattering,
    PhaseCursor::PostShattering,
    PhaseCursor::PostProcessing,
];

const DET_BOUNDARIES: [PhaseCursor; 6] = [
    PhaseCursor::Acd,
    PhaseCursor::Classification,
    PhaseCursor::Phase1,
    PhaseCursor::Phase2,
    PhaseCursor::Phase3,
    PhaseCursor::Phase4,
];

/// Runs the randomized pipeline uninterrupted, then kills and resumes it
/// at every phase boundary, asserting bit-identity each time.
fn assert_rand_resume_identical(
    g: &Graph,
    config: &RandConfig,
    faults: Option<&FaultPlan>,
    tag: &str,
) {
    let ref_dir = TempDir::new(&format!("{tag}-ref"));
    let (outcome, ref_events) = supervised_rand(g, config, faults, &checkpointing(&ref_dir), None);
    let RunOutcome::Complete {
        report: ref_report, ..
    } = outcome
    else {
        panic!("{tag}: uninterrupted run must complete");
    };
    verify_delta_coloring(g, &ref_report.coloring).unwrap();
    let (plain, _) = supervised_rand(g, config, faults, &Supervisor::passive(), None);
    let RunOutcome::Complete { report: plain, .. } = plain else {
        panic!("{tag}: unsupervised run must complete");
    };
    assert_eq!(
        plain.coloring, ref_report.coloring,
        "{tag}: checkpointing changed the coloring"
    );
    let ref_checkpoints = ref_events
        .iter()
        .filter(|e| matches!(e, Event::Checkpoint { .. }))
        .count();
    assert_eq!(
        ref_checkpoints,
        RAND_BOUNDARIES.len(),
        "{tag}: uninterrupted run must emit one Checkpoint event per boundary"
    );

    for cursor in RAND_BOUNDARIES {
        let dir = TempDir::new(&format!("{tag}-{}", cursor.slug()));
        let stopper = Supervisor {
            stop_after: Some(cursor),
            ..checkpointing(&dir)
        };
        let (outcome, partial_events) = supervised_rand(g, config, faults, &stopper, None);
        let RunOutcome::Suspended {
            cursor: at,
            snapshot,
        } = outcome
        else {
            panic!("{tag}: expected suspension at `{cursor}`");
        };
        assert_eq!(at, cursor);

        let snap = load_snapshot(&snapshot).unwrap();
        let (outcome, resumed_events) =
            supervised_rand(g, config, faults, &checkpointing(&dir), Some(snap));
        let RunOutcome::Complete { report, .. } = outcome else {
            panic!("{tag}: resumed run from `{cursor}` must complete");
        };

        assert_eq!(
            report.coloring, ref_report.coloring,
            "{tag}: colors differ after resume from `{cursor}`"
        );
        assert_eq!(
            report.ledger.total(),
            ref_report.ledger.total(),
            "{tag}: round totals differ after resume from `{cursor}`"
        );
        assert_eq!(
            report.recovery, ref_report.recovery,
            "{tag}: recovery stats differ after resume from `{cursor}`"
        );
        let mut stitched = normalize(&partial_events);
        stitched.extend(normalize(&resumed_events));
        assert_eq!(
            stitched,
            normalize(&ref_events),
            "{tag}: stitched telemetry differs from uninterrupted run at `{cursor}`"
        );
    }
}

#[test]
fn randomized_kill_and_resume_is_bit_identical_at_every_boundary() {
    let inst = circulant(80, 500);
    for threads in [1, 4] {
        let config = shattering_config(1, threads);
        assert_rand_resume_identical(&inst.graph, &config, None, &format!("clean-t{threads}"));
    }
}

#[test]
fn faulted_kill_and_resume_is_bit_identical_at_every_boundary() {
    let inst = circulant(80, 501);
    let plan = FaultPlan {
        seed: 0xFA17,
        message_drop_p: 0.01,
        ..FaultPlan::default()
    };
    for threads in [1, 4] {
        let config = shattering_config(5, threads);
        assert_rand_resume_identical(
            &inst.graph,
            &config,
            Some(&plan),
            &format!("faulted-t{threads}"),
        );
    }
}

#[test]
fn deterministic_kill_and_resume_is_bit_identical_at_every_boundary() {
    let inst = circulant(80, 500);
    for threads in [1, 4] {
        let mut config = Config::for_delta(16);
        config.threads = threads;
        let tag = format!("det-t{threads}");

        let ref_dir = TempDir::new(&format!("{tag}-ref"));
        let (outcome, ref_events) =
            supervised_det(&inst.graph, &config, &checkpointing(&ref_dir), None);
        let RunOutcome::Complete {
            report: ref_report, ..
        } = outcome
        else {
            panic!("{tag}: uninterrupted run must complete");
        };
        verify_delta_coloring(&inst.graph, &ref_report.coloring).unwrap();
        let (plain, _) = supervised_det(&inst.graph, &config, &Supervisor::passive(), None);
        let RunOutcome::Complete { report: plain, .. } = plain else {
            panic!("{tag}: unsupervised run must complete");
        };
        assert_eq!(
            plain.coloring, ref_report.coloring,
            "{tag}: checkpointing changed the coloring"
        );

        for cursor in DET_BOUNDARIES {
            let dir = TempDir::new(&format!("{tag}-{}", cursor.slug()));
            let stopper = Supervisor {
                stop_after: Some(cursor),
                ..checkpointing(&dir)
            };
            let (outcome, partial_events) = supervised_det(&inst.graph, &config, &stopper, None);
            let RunOutcome::Suspended { snapshot, .. } = outcome else {
                panic!(
                    "{tag}: expected suspension at `{cursor}` (instance must have hard cliques)"
                );
            };
            let snap = load_snapshot(&snapshot).unwrap();
            let (outcome, resumed_events) =
                supervised_det(&inst.graph, &config, &checkpointing(&dir), Some(snap));
            let RunOutcome::Complete { report, .. } = outcome else {
                panic!("{tag}: resumed run from `{cursor}` must complete");
            };
            assert_eq!(
                report.coloring, ref_report.coloring,
                "{tag}: colors differ after resume from `{cursor}`"
            );
            assert_eq!(report.ledger.total(), ref_report.ledger.total());
            let mut stitched = normalize(&partial_events);
            stitched.extend(normalize(&resumed_events));
            assert_eq!(
                stitched,
                normalize(&ref_events),
                "{tag}: stitched telemetry differs from uninterrupted run at `{cursor}`"
            );
        }
    }
}

#[test]
fn resume_rejects_a_mismatched_graph() {
    let a = circulant(80, 500);
    let b = circulant(80, 777);
    let config = shattering_config(1, 1);
    let dir = TempDir::new("digest-mismatch");
    let stopper = Supervisor {
        stop_after: Some(PhaseCursor::Classification),
        ..checkpointing(&dir)
    };
    let (outcome, _) = supervised_rand(&a.graph, &config, None, &stopper, None);
    let RunOutcome::Suspended { snapshot, .. } = outcome else {
        panic!("expected suspension");
    };
    let snap = load_snapshot(&snapshot).unwrap();
    let err = drive_randomized(
        &b.graph,
        &config,
        None,
        &Probe::disabled(),
        &Supervisor::passive(),
        Some(snap),
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("digest"),
        "error must name the digest mismatch, got: {msg}"
    );
}

/// Suspends a randomized run after post-shattering, lets `edit` tamper
/// with the snapshot, and returns the message the resume refuses it with.
fn refused_rand_resume(tag: &str, edit: impl FnOnce(&mut Snapshot)) -> String {
    let inst = circulant(40, 1);
    let config = shattering_config(7, 1);
    let dir = TempDir::new(tag);
    let stopper = Supervisor {
        stop_after: Some(PhaseCursor::PostShattering),
        ..checkpointing(&dir)
    };
    let (outcome, _) = supervised_rand(&inst.graph, &config, None, &stopper, None);
    let RunOutcome::Suspended { snapshot, .. } = outcome else {
        panic!("{tag}: expected suspension");
    };
    let mut snap = load_snapshot(&snapshot).unwrap();
    edit(&mut snap);
    let err = drive_randomized(
        &inst.graph,
        &config,
        None,
        &Probe::disabled(),
        &Supervisor::passive(),
        Some(snap),
    )
    .unwrap_err();
    let DeltaColoringError::Supervisor(msg) = err else {
        panic!("{tag}: expected a supervisor error, got {err}");
    };
    msg
}

#[test]
fn resume_rejects_a_truncated_coloring() {
    let msg = refused_rand_resume("short-coloring", |snap| {
        snap.coloring = Coloring::empty(10);
    });
    assert!(msg.contains("covers 10 vertices"), "{msg}");
}

#[test]
fn resume_rejects_a_color_outside_the_palette() {
    let msg = refused_rand_resume("wide-color", |snap| {
        let mut colors: Vec<Option<Color>> = (0..snap.n)
            .map(|v| snap.coloring.get(NodeId(v as u32)))
            .collect();
        colors[0] = Some(Color(16));
        snap.coloring = Coloring::from_vec(colors);
    });
    assert!(msg.contains("color 16 outside the palette 0..16"), "{msg}");
}

#[test]
fn resume_rejects_a_truncated_ring() {
    let msg = refused_rand_resume("short-ring", |snap| {
        snap.rand.as_mut().unwrap().ring.truncate(5);
    });
    assert!(msg.contains("has 5 ring entries"), "{msg}");
}

#[test]
fn resume_rejects_a_slack_vertex_outside_the_graph() {
    let msg = refused_rand_resume("far-slack", |snap| {
        snap.rand.as_mut().unwrap().slack_vertices = vec![NodeId(999_999)];
    });
    assert!(msg.contains("slack vertex 999999 is outside"), "{msg}");
}

/// Suspends a deterministic run after classification, lets `edit` tamper
/// with the snapshot, and returns the message `drive_deterministic`
/// refuses it with when resumed under `resume_config`.
fn refused_det_resume(
    tag: &str,
    resume_config: &Config,
    edit: impl FnOnce(&mut Snapshot),
) -> String {
    let inst = circulant(40, 1);
    let dir = TempDir::new(tag);
    let stopper = Supervisor {
        stop_after: Some(PhaseCursor::Classification),
        ..checkpointing(&dir)
    };
    let (outcome, _) = supervised_det(&inst.graph, &Config::for_delta(16), &stopper, None);
    let RunOutcome::Suspended { snapshot, .. } = outcome else {
        panic!("{tag}: expected suspension");
    };
    let mut snap = load_snapshot(&snapshot).unwrap();
    edit(&mut snap);
    let err = drive_deterministic(
        &inst.graph,
        resume_config,
        &Probe::disabled(),
        &Supervisor::passive(),
        Some(snap),
    )
    .unwrap_err();
    let DeltaColoringError::Supervisor(msg) = err else {
        panic!("{tag}: expected a supervisor error, got {err}");
    };
    msg
}

#[test]
fn deterministic_resume_rejects_a_different_config() {
    let mut other = Config::for_delta(16);
    other.ruling_r += 1;
    let msg = refused_det_resume("det-config", &other, |_| {});
    assert!(msg.contains("snapshot configuration differs"), "{msg}");
}

#[test]
fn deterministic_resume_rejects_a_truncated_coloring() {
    let msg = refused_det_resume("det-short-coloring", &Config::for_delta(16), |snap| {
        snap.coloring = Coloring::empty(10);
    });
    assert!(msg.contains("covers 10 vertices"), "{msg}");
}

#[test]
fn deterministic_resume_refuses_a_randomized_snapshot() {
    let inst = circulant(40, 1);
    let dir = TempDir::new("det-from-rand");
    let stopper = Supervisor {
        stop_after: Some(PhaseCursor::Classification),
        ..checkpointing(&dir)
    };
    let (outcome, _) = supervised_rand(&inst.graph, &shattering_config(7, 1), None, &stopper, None);
    let RunOutcome::Suspended { snapshot, .. } = outcome else {
        panic!("expected suspension");
    };
    let snap = load_snapshot(&snapshot).unwrap();
    let err = drive_deterministic(
        &inst.graph,
        &Config::for_delta(16),
        &Probe::disabled(),
        &Supervisor::passive(),
        Some(snap),
    )
    .unwrap_err();
    let DeltaColoringError::Supervisor(msg) = err else {
        panic!("expected a supervisor error, got {err}");
    };
    assert!(
        msg.contains("written by the Randomized pipeline, resuming the Deterministic pipeline"),
        "{msg}"
    );
}

/// Lemma 13's incoming cap admits no valid outgoing selection on this
/// Δ=12 instance under `Config::for_delta(12)`, so phase 2 fails after the
/// phase-1 boundary: a real deterministic failure to capture and replay.
#[test]
fn deterministic_failure_captures_a_bundle_and_replay_reproduces_it() {
    let inst = generators::hard_cliques(&HardCliqueParams {
        cliques: 26,
        delta: 12,
        external_per_vertex: 1,
        seed: 4,
    })
    .unwrap();
    let dir = TempDir::new("det-bundle");
    let sup = Supervisor {
        bundle_dir: Some(dir.path().to_path_buf()),
        ..Supervisor::passive()
    };
    let (outcome, _) = supervised_det(&inst.graph, &Config::for_delta(12), &sup, None);
    let RunOutcome::Failed(failure) = outcome else {
        panic!("phase 2 must fail Lemma 13 on this instance");
    };
    assert!(failure.error.contains("Lemma 13"), "{}", failure.error);
    assert_eq!(failure.cursor, Some(PhaseCursor::Phase1));
    let bundle = failure
        .bundle
        .expect("bundle_dir was set, bundle must save");
    assert!(bundle.ends_with("bundle-after-phase1.json"));

    let replay = replay_bundle(&bundle, &Probe::disabled()).unwrap();
    assert!(replay.reproduced, "replaying the bundle must reproduce");
    assert_eq!(replay.recorded_error, failure.error);
    assert_eq!(replay.observed_violations, failure.violations);
}

#[test]
fn injected_panic_degrades_to_brooks_and_completes() {
    let inst = circulant(80, 500);
    let config = shattering_config(1, 2);
    let sup = Supervisor {
        degrade: true,
        chaos: ChaosPlan {
            panic_components: vec![0],
            ..ChaosPlan::default()
        },
        ..Supervisor::passive()
    };
    let (outcome, events) = supervised_rand(&inst.graph, &config, None, &sup, None);
    let RunOutcome::Complete { report, degraded } = outcome else {
        panic!("contained panic must not abort the run");
    };
    assert_eq!(degraded.len(), 1, "exactly the panicked component degrades");
    assert_eq!(degraded[0].index, 0);
    assert!(
        degraded[0].reason.contains("panic"),
        "reason must record the panic, got: {}",
        degraded[0].reason
    );
    verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    assert!(
        delta_core::validate_coloring(&inst.graph, &report.coloring, 16).is_ok(),
        "degraded run must still produce a valid Δ-coloring"
    );
    let degraded_events: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::Degraded { .. }))
        .collect();
    assert_eq!(
        degraded_events.len(),
        1,
        "one Degraded telemetry event per quarantined component"
    );
}

/// A contained component panic must flush the trace sink: a JSONL trace
/// buffered behind a large `BufWriter` reaches the backing store at the
/// containment point, not only when the sink is eventually dropped — so
/// a run that dies right after still leaves its trace on disk.
#[test]
fn contained_panic_flushes_buffered_trace() {
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let inst = circulant(80, 500);
    let config = shattering_config(1, 2);
    let sup = Supervisor {
        degrade: true,
        chaos: ChaosPlan {
            panic_components: vec![0],
            ..ChaosPlan::default()
        },
        ..Supervisor::passive()
    };
    let buf = SharedBuf::default();
    // 4 MiB of buffering: far more than this run emits, so no line can
    // reach the shared buffer through capacity spill — only via flush.
    let sink = Arc::new(JsonlSink::new(std::io::BufWriter::with_capacity(
        1 << 22,
        buf.clone(),
    )));
    let hub = Arc::new(MetricsHub::new());
    let probe = Probe::new(sink.clone()).with_metrics(hub.clone());
    let outcome = drive_randomized(&inst.graph, &config, None, &probe, &sup, None).unwrap();
    assert!(
        matches!(outcome, RunOutcome::Complete { .. }),
        "contained panic must not abort the run"
    );
    // The sink (and its BufWriter) is still alive — nothing was dropped.
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(
        !text.is_empty(),
        "containment must flush buffered trace lines while the sink is alive"
    );
    for line in text.lines() {
        let _: Event = serde::json::from_str(line)
            .unwrap_or_else(|e| panic!("flushed line must parse as an event: {e}\n{line}"));
    }
    assert!(
        text.contains("pre-shattering"),
        "the flushed prefix must cover the phases before the panic"
    );
    assert_eq!(
        hub.counter("supervisor.contained_panics").get(),
        1,
        "the containment path records the panic in the metrics hub"
    );
}

#[test]
fn round_budget_exhaustion_degrades_every_component() {
    let inst = circulant(80, 500);
    let config = shattering_config(1, 1);
    let sup = Supervisor {
        degrade: true,
        component_round_budget: Some(0),
        ..Supervisor::passive()
    };
    let (outcome, _) = supervised_rand(&inst.graph, &config, None, &sup, None);
    let RunOutcome::Complete { report, degraded } = outcome else {
        panic!("budget degradation must not abort the run");
    };
    assert_eq!(
        degraded.len(),
        report.shatter.components,
        "a zero round budget quarantines every leftover component"
    );
    assert!(
        !degraded.is_empty(),
        "instance must have leftover components"
    );
    assert!(degraded
        .iter()
        .all(|d| d.reason.contains("round budget exceeded")));
    verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
}

#[test]
fn budget_overrun_without_degradation_is_an_error() {
    let inst = circulant(80, 500);
    let config = shattering_config(1, 1);
    let sup = Supervisor {
        component_round_budget: Some(0),
        ..Supervisor::passive()
    };
    let err =
        drive_randomized(&inst.graph, &config, None, &Probe::disabled(), &sup, None).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("degradation disabled"),
        "error must say degradation was disabled, got: {msg}"
    );
}

#[test]
fn skipped_component_captures_a_bundle_and_replay_reproduces_it() {
    let inst = circulant(80, 500);
    let config = shattering_config(1, 1);
    let dir = TempDir::new("skip-bundle");
    let sup = Supervisor {
        bundle_dir: Some(dir.path().to_path_buf()),
        chaos: ChaosPlan {
            skip_components: vec![0],
            ..ChaosPlan::default()
        },
        ..Supervisor::passive()
    };
    let (outcome, _) = supervised_rand(&inst.graph, &config, None, &sup, None);
    let RunOutcome::Failed(failure) = outcome else {
        panic!("a silently skipped component must fail the completeness check");
    };
    assert!(
        !failure.violations.is_empty(),
        "the failure must record concrete violations"
    );
    let bundle = failure
        .bundle
        .expect("bundle_dir was set, bundle must save");

    let replay = replay_bundle(&bundle, &Probe::disabled()).unwrap();
    assert!(replay.reproduced, "replaying the bundle must reproduce");
    assert_eq!(replay.recorded_error, failure.error);
    assert_eq!(replay.observed_violations, failure.violations);
}

fn golden_bundle_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("golden-bundle.json")
}

/// The committed golden bundle (generated by `regenerate_golden_bundle`
/// below) must keep reproducing its recorded validation failure — this
/// pins the bundle schema and the replay determinism across refactors.
#[test]
fn golden_bundle_replay_reproduces_the_recorded_failure() {
    let replay = replay_bundle(&golden_bundle_path(), &Probe::disabled()).unwrap();
    assert!(
        !replay.recorded_violations.is_empty(),
        "golden bundle must carry a recorded violation list"
    );
    assert!(
        replay.reproduced,
        "golden bundle no longer reproduces: recorded `{}` vs observed `{:?}`",
        replay.recorded_error, replay.observed_error
    );
}

/// Phase 1 selects only the `DetDirect`/`Rand` matchings and the
/// `Augmenting`/`TokenWalk` HEG solvers: a bundle or snapshot naming a
/// removed variant is an error on load, not a panic.
#[test]
fn bundles_and_snapshots_naming_a_removed_phase1_solver_are_refused() {
    let dir = TempDir::new("removed-solvers");
    let stopper = Supervisor {
        stop_after: Some(PhaseCursor::Classification),
        ..checkpointing(&dir)
    };
    let inst = circulant(40, 1);
    let (outcome, _) = supervised_rand(&inst.graph, &shattering_config(7, 1), None, &stopper, None);
    let RunOutcome::Suspended { snapshot, .. } = outcome else {
        panic!("expected suspension");
    };
    let bundle = std::fs::read_to_string(golden_bundle_path()).unwrap();
    let snapshot = std::fs::read_to_string(snapshot).unwrap();
    let edited = dir.path().join("edited.json");
    for (from, to) in [
        (r#""heg":"Augmenting""#, r#""heg":"Sequential""#),
        (r#""matching":"DetDirect""#, r#""matching":"DetLineGraph""#),
    ] {
        assert!(bundle.contains(from) && snapshot.contains(from), "{from}");
        std::fs::write(&edited, bundle.replace(from, to)).unwrap();
        assert!(load_bundle(&edited).is_err(), "bundle naming {to}");
        std::fs::write(&edited, snapshot.replace(from, to)).unwrap();
        assert!(load_snapshot(&edited).is_err(), "snapshot naming {to}");
    }
}

/// Regenerates `tests/data/golden-bundle.json`. Run with:
/// `cargo test -p delta-core --test supervisor regenerate_golden_bundle -- --ignored`
#[test]
#[ignore = "writes the committed golden bundle; run manually after schema changes"]
fn regenerate_golden_bundle() {
    let inst = circulant(80, 500);
    let config = shattering_config(1, 1);
    let data_dir = golden_bundle_path().parent().unwrap().to_path_buf();
    std::fs::create_dir_all(&data_dir).unwrap();
    let sup = Supervisor {
        bundle_dir: Some(data_dir.clone()),
        chaos: ChaosPlan {
            skip_components: vec![0],
            ..ChaosPlan::default()
        },
        ..Supervisor::passive()
    };
    let (outcome, _) = supervised_rand(&inst.graph, &config, None, &sup, None);
    let RunOutcome::Failed(failure) = outcome else {
        panic!("skip chaos must fail");
    };
    let written = failure.bundle.unwrap();
    std::fs::rename(&written, golden_bundle_path()).unwrap();
}
