//! The run supervisor: phase checkpointing, crash-resumable pipelines,
//! panic containment with baseline degradation, and failure repro bundles.
//!
//! Both pipelines ([`crate::color_deterministic`],
//! [`crate::color_randomized`]) decompose into phase functions; this
//! module owns the *composition*. A [`Supervisor`] configures what
//! happens at each phase boundary and around each pooled component
//! solve:
//!
//! * **Checkpointing** — with a `checkpoint_dir`, every completed phase
//!   serializes a versioned [`Snapshot`] (graph digest, coloring, ledger,
//!   phase cursor, shattering state, fault plan) through the workspace
//!   serde shim. [`load_snapshot`] + `resume` continue a killed run from
//!   the last boundary, **bit-identical** to the uninterrupted run: phases
//!   at or before the cursor are *silently replayed* (they are
//!   deterministic functions of the graph and config, so they are
//!   recomputed against a throwaway ledger with a disabled probe — no
//!   charge or event is emitted twice), stateful outputs are restored from
//!   the snapshot, and later phases run live.
//! * **Containment** — with `degrade` set, every leftover-component solve
//!   of the randomized pipeline runs under `catch_unwind` and optional
//!   round / wall-clock budgets. A panicking or over-budget component is
//!   quarantined: its partial writes, events, and rounds are discarded,
//!   the component re-solves with the scoped Brooks baseline
//!   ([`baselines::brooks_component`]), a [`localsim::Event::Degraded`]
//!   event fires, and the run completes with a valid coloring.
//! * **Repro bundles** — with a `bundle_dir` (or `capture_failures`), any
//!   run error is converted into a self-contained [`ReproBundle`] (graph,
//!   config, fault plan, chaos plan, violation list) that
//!   [`replay_bundle`] re-executes deterministically.
//!
//! A *passive* supervisor ([`Supervisor::passive`]) does none of the
//! above; `color_randomized`/`color_deterministic` delegate to the drivers
//! here with a passive supervisor, so there is exactly one engine.
//!
//! Round budgets are deterministic (they compare ledger totals) and
//! preserve bit-identity; the wall-clock budget is a nondeterministic
//! safety net, off by default, and excluded from the identity contract —
//! see `docs/RECOVERY.md`.

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use graphgen::{Coloring, Graph, NodeId};
use localsim::{write_atomic, Event, FaultPlan, FlightRecorder, Probe, RoundLedger};
use serde::{json, Deserialize, Serialize};

use crate::deterministic::{
    det_phase1, det_phase2, det_phase3, det_phase4, det_phase_acd, det_phase_classification,
    det_phase_easy, Config, PipelineStats, Report,
};
use crate::error::DeltaColoringError;
use crate::randomized::{
    color_large_delta, rand_phase_easy, rand_phase_postprocess, rand_phase_postshatter,
    rand_phase_preshatter, RandConfig, RandReport, RecoveryStats, ShatterStats,
};
use crate::shard::{run_shard_case, ShardRunSpec};
use graphgen::Color;

/// On-disk snapshot format version; bumped on incompatible layout changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// On-disk repro-bundle format version.
pub const BUNDLE_VERSION: u32 = 1;

/// Which pipeline a snapshot or bundle belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PipelineKind {
    /// Theorem 1's deterministic pipeline.
    Deterministic,
    /// Theorem 2's randomized shattering pipeline.
    Randomized,
    /// The sharded wire runtime under chaos (a `delta-color soak` case,
    /// replayed through [`crate::shard::run_shard_case`]).
    Shard,
}

/// A phase boundary: the last *completed* phase a snapshot captures.
///
/// `Acd` and `Classification` are shared; `Phase1`–`Phase4` belong to the
/// deterministic pipeline; `PreShattering`–`PostProcessing` to the
/// randomized one. The easy sweep is always the final live step and has
/// no boundary (a run that reached it either completes or fails).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseCursor {
    /// Almost-clique decomposition done.
    Acd,
    /// Loophole detection + hard/easy classification done.
    Classification,
    /// Deterministic phase 1 (balanced matching) done.
    Phase1,
    /// Deterministic phase 2 (matching sparsification) done.
    Phase2,
    /// Deterministic phase 3 (slack triads) done.
    Phase3,
    /// Deterministic phase 4 (hard-clique coloring) done.
    Phase4,
    /// Randomized pre-shattering (T-nodes, pairs, deferred rings) done.
    PreShattering,
    /// Randomized post-shattering (leftover components solved) done.
    PostShattering,
    /// Randomized post-processing (rings + slack vertices) done.
    PostProcessing,
}

impl PhaseCursor {
    /// Every cursor, in pipeline order.
    pub const ALL: [PhaseCursor; 9] = [
        PhaseCursor::Acd,
        PhaseCursor::Classification,
        PhaseCursor::Phase1,
        PhaseCursor::Phase2,
        PhaseCursor::Phase3,
        PhaseCursor::Phase4,
        PhaseCursor::PreShattering,
        PhaseCursor::PostShattering,
        PhaseCursor::PostProcessing,
    ];

    /// Stable kebab-case name, used in snapshot filenames, `--stop-after`,
    /// and [`localsim::Event::Checkpoint`] payloads.
    pub fn slug(self) -> &'static str {
        match self {
            PhaseCursor::Acd => "acd",
            PhaseCursor::Classification => "classification",
            PhaseCursor::Phase1 => "phase1",
            PhaseCursor::Phase2 => "phase2",
            PhaseCursor::Phase3 => "phase3",
            PhaseCursor::Phase4 => "phase4",
            PhaseCursor::PreShattering => "pre-shattering",
            PhaseCursor::PostShattering => "post-shattering",
            PhaseCursor::PostProcessing => "post-processing",
        }
    }

    /// Position in pipeline order (shared phases first). Only cursors of
    /// the same pipeline are ever compared.
    pub fn ordinal(self) -> u8 {
        Self::ALL.iter().position(|&c| c == self).expect("listed") as u8
    }
}

impl fmt::Display for PhaseCursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

impl FromStr for PhaseCursor {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .iter()
            .copied()
            .find(|c| c.slug() == s)
            .ok_or_else(|| {
                let valid: Vec<&str> = Self::ALL.iter().map(|c| c.slug()).collect();
                format!("unknown phase `{s}`; valid phases: {}", valid.join(", "))
            })
    }
}

impl Serialize for PhaseCursor {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.slug().to_string())
    }
}

impl<'de> Deserialize<'de> for PhaseCursor {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => s.parse().map_err(serde::Error::new),
            other => Err(serde::Error::new(format!(
                "expected phase cursor string, found {other:?}"
            ))),
        }
    }
}

/// Deterministic failure injection for the supervisor itself: force
/// specific leftover components to panic (exercising containment) or to
/// silently skip their solve (producing a final validation failure and
/// hence a repro bundle). Component indices refer to the merge order of
/// the randomized pipeline's leftover components.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Components that panic at the start of their solve.
    pub panic_components: Vec<usize>,
    /// Components whose solve is skipped outright (their vertices stay
    /// uncolored, so the completeness check fails).
    pub skip_components: Vec<usize>,
}

impl ChaosPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panic_components.is_empty() && self.skip_components.is_empty()
    }
}

/// One leftover component the supervisor degraded to the Brooks baseline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedComponent {
    /// Component index (merge order).
    pub index: usize,
    /// Why the pipeline solve was abandoned ("panic: …", "error: …",
    /// "round budget exceeded: …", "wall-clock budget exceeded: …").
    pub reason: String,
    /// Rounds charged to the ledger for the baseline re-solve.
    pub rounds: u64,
}

/// Supervisor policy for one run. [`Supervisor::passive`] (the default)
/// changes nothing about a run; every field opts into one behavior.
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    /// Write a [`Snapshot`] after every completed phase into this
    /// directory (created if missing). Snapshots are written atomically
    /// (temp file + rename), so a kill mid-write never corrupts the
    /// latest good checkpoint.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a [`ReproBundle`] into this directory when the run fails.
    pub bundle_dir: Option<PathBuf>,
    /// Convert run errors into [`RunOutcome::Failed`] even without a
    /// `bundle_dir` (used by [`replay_bundle`]).
    pub capture_failures: bool,
    /// Stop (with [`RunOutcome::Suspended`]) right after checkpointing
    /// this phase. Requires `checkpoint_dir`.
    pub stop_after: Option<PhaseCursor>,
    /// Per-component LOCAL-round budget for post-shattering solves.
    /// Deterministic (compares ledger totals).
    pub component_round_budget: Option<u64>,
    /// Per-component wall-clock budget in milliseconds. A
    /// **nondeterministic safety net**: never enable it in runs whose
    /// telemetry is compared bit-for-bit.
    pub component_wall_budget_ms: Option<u64>,
    /// Contain panics and budget overruns by re-solving the component
    /// with the scoped Brooks baseline instead of aborting the run.
    pub degrade: bool,
    /// Deterministic supervisor-level failure injection.
    pub chaos: ChaosPlan,
    /// A shared flight recorder whose tail of recent events is embedded
    /// into any [`ReproBundle`] this supervisor captures. The recorder
    /// only *sees* events if it is also attached to the run's probe
    /// (typically through a `FanoutSink`); the supervisor never records
    /// into it, it only harvests the tail at failure time.
    pub flight: Option<Arc<FlightRecorder>>,
}

impl Supervisor {
    /// A supervisor that changes nothing (no checkpoints, no containment,
    /// no capture): runs behave exactly as the unsupervised entry points.
    pub fn passive() -> Self {
        Supervisor::default()
    }

    /// Whether run errors become [`RunOutcome::Failed`] (with a bundle
    /// when `bundle_dir` is set) instead of propagating as `Err`.
    pub fn captures_failures(&self) -> bool {
        self.capture_failures || self.bundle_dir.is_some()
    }

    fn validate(&self) -> Result<(), DeltaColoringError> {
        if self.stop_after.is_some() && self.checkpoint_dir.is_none() {
            return Err(DeltaColoringError::Supervisor(
                "--stop-after requires a checkpoint directory".to_string(),
            ));
        }
        Ok(())
    }

    /// The flight recorder's current tail, or empty without a recorder.
    fn flight_tail(&self) -> Vec<Event> {
        self.flight.as_ref().map(|f| f.tail()).unwrap_or_default()
    }
}

/// State the randomized pipeline carries across phase boundaries (the
/// serializable portion of [`Snapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandSnapshot {
    /// Run configuration (includes the seed — RNG state is *not*
    /// snapshotted because randomness is only consumed in pre-shattering,
    /// whose outputs are stored here).
    pub config: RandConfig,
    /// Shattering statistics so far.
    pub shatter: ShatterStats,
    /// Fault-recovery statistics so far.
    pub recovery: RecoveryStats,
    /// Slack (T-node) vertices chosen by pre-shattering.
    pub slack_vertices: Vec<NodeId>,
    /// Deferred-ring index per vertex (`None` = not deferred).
    pub ring: Vec<Option<usize>>,
    /// Components degraded to the baseline so far.
    pub degraded: Vec<DegradedComponent>,
}

/// State the deterministic pipeline carries across phase boundaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetSnapshot {
    /// Run configuration.
    pub config: Config,
    /// Pipeline statistics accumulated so far.
    pub stats: PipelineStats,
}

/// A versioned phase-boundary checkpoint. Everything needed to continue
/// the run is either stored here or deterministically recomputable from
/// `(graph, config)` — the graph itself is *not* embedded (it is large
/// and the caller has it); `graph_digest` guards against resuming on the
/// wrong input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Which pipeline wrote this snapshot.
    pub pipeline: PipelineKind,
    /// FNV-1a digest of the graph (vertex count + edge list).
    pub graph_digest: u64,
    /// Vertex count (for error messages).
    pub n: usize,
    /// Edge count (for error messages).
    pub m: usize,
    /// Last completed phase.
    pub cursor: PhaseCursor,
    /// Partial coloring at the boundary.
    pub coloring: Coloring,
    /// Round ledger at the boundary (probe stripped; reattached on
    /// resume so only *future* charges emit telemetry).
    pub ledger: RoundLedger,
    /// Active fault plan, if any.
    pub faults: Option<FaultPlan>,
    /// Randomized-pipeline state (`pipeline == Randomized`).
    pub rand: Option<RandSnapshot>,
    /// Deterministic-pipeline state (`pipeline == Deterministic`).
    pub det: Option<DetSnapshot>,
}

/// A self-contained failure reproduction: graph, configuration, fault and
/// chaos plans, the recorded failure, and the flight-recorder tail (the
/// last events emitted before the run died). [`replay_bundle`] re-runs it.
#[derive(Debug, Clone, Serialize)]
pub struct ReproBundle {
    /// Format version ([`BUNDLE_VERSION`]).
    pub version: u32,
    /// Which pipeline failed.
    pub pipeline: PipelineKind,
    /// The input graph, embedded in full.
    pub graph: Graph,
    /// Randomized config (`pipeline == Randomized`).
    pub rand_config: Option<RandConfig>,
    /// Deterministic config (`pipeline == Deterministic`).
    pub det_config: Option<Config>,
    /// Active fault plan, if any.
    pub faults: Option<FaultPlan>,
    /// Supervisor chaos plan in effect.
    pub chaos: ChaosPlan,
    /// Whether degradation was enabled.
    pub degrade: bool,
    /// Last phase completed before the failure, if any.
    pub cursor: Option<String>,
    /// The error that ended the run.
    pub error: String,
    /// Rendered violation list from the final validation sweep.
    pub violations: Vec<String>,
    /// Components degraded before the failure.
    pub degraded: Vec<DegradedComponent>,
    /// Flight-recorder tail at capture time, oldest first (empty when the
    /// run had no recorder attached).
    pub flight: Vec<Event>,
    /// Sharded-run spec (`pipeline == Shard`).
    pub shard_config: Option<ShardRunSpec>,
}

// Deserialized by hand so bundles written before the `flight` and
// `shard_config` fields existed (still format version 1 — both
// additions are purely additive) load with empty defaults instead of
// failing on the missing keys.
impl<'de> Deserialize<'de> for ReproBundle {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(ReproBundle {
            version: Deserialize::from_value(v.field("version")?)?,
            pipeline: Deserialize::from_value(v.field("pipeline")?)?,
            graph: Deserialize::from_value(v.field("graph")?)?,
            rand_config: Deserialize::from_value(v.field("rand_config")?)?,
            det_config: Deserialize::from_value(v.field("det_config")?)?,
            faults: Deserialize::from_value(v.field("faults")?)?,
            chaos: Deserialize::from_value(v.field("chaos")?)?,
            degrade: Deserialize::from_value(v.field("degrade")?)?,
            cursor: Deserialize::from_value(v.field("cursor")?)?,
            error: Deserialize::from_value(v.field("error")?)?,
            violations: Deserialize::from_value(v.field("violations")?)?,
            degraded: Deserialize::from_value(v.field("degraded")?)?,
            flight: match v.field("flight") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => Vec::new(),
            },
            shard_config: match v.field("shard_config") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => None,
            },
        })
    }
}

/// Builds a [`ReproBundle`] capturing one failed sharded chaos case —
/// the `delta-color soak` campaign's unit of capture. `cursor` becomes
/// the bundle filename stem (e.g. `soak-017`), `error` the verdict
/// string [`crate::shard::run_shard_case`] produced.
#[must_use]
pub fn shard_bundle(
    graph: &Graph,
    spec: &ShardRunSpec,
    faults: Option<&FaultPlan>,
    error: String,
    cursor: Option<String>,
) -> ReproBundle {
    ReproBundle {
        version: BUNDLE_VERSION,
        pipeline: PipelineKind::Shard,
        graph: graph.clone(),
        rand_config: None,
        det_config: None,
        faults: faults.cloned(),
        chaos: ChaosPlan::default(),
        degrade: false,
        cursor,
        error,
        violations: Vec::new(),
        degraded: Vec::new(),
        flight: Vec::new(),
        shard_config: Some(spec.clone()),
    }
}

/// A failed supervised run, as surfaced by [`RunOutcome::Failed`].
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The error that ended the run.
    pub error: String,
    /// Rendered violations from the final validation sweep.
    pub violations: Vec<String>,
    /// Last phase completed before the failure, if any.
    pub cursor: Option<PhaseCursor>,
    /// Where the repro bundle was written, when `bundle_dir` was set.
    pub bundle: Option<PathBuf>,
    /// Components degraded before the failure.
    pub degraded: Vec<DegradedComponent>,
}

/// Outcome of a supervised run.
#[derive(Debug, Clone)]
pub enum RunOutcome<R> {
    /// The run finished with a complete, validated coloring.
    Complete {
        /// The pipeline report.
        report: R,
        /// Components degraded to the baseline (empty unless `degrade`
        /// containment fired).
        degraded: Vec<DegradedComponent>,
    },
    /// `stop_after` fired: the run checkpointed and stopped.
    Suspended {
        /// The boundary the run stopped at.
        cursor: PhaseCursor,
        /// The snapshot to resume from.
        snapshot: PathBuf,
    },
    /// The run failed and the supervisor captured it.
    Failed(FailureReport),
}

impl<R> RunOutcome<R> {
    /// The completed report, if this outcome is `Complete`.
    pub fn into_report(self) -> Option<R> {
        match self {
            RunOutcome::Complete { report, .. } => Some(report),
            _ => None,
        }
    }
}

/// Outcome of [`replay_bundle`].
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Whether the replay reproduced the recorded failure: same error and
    /// same violation list.
    pub reproduced: bool,
    /// Error recorded in the bundle.
    pub recorded_error: String,
    /// Error observed by the replay (`None` = the replay succeeded).
    pub observed_error: Option<String>,
    /// Violations recorded in the bundle.
    pub recorded_violations: Vec<String>,
    /// Violations observed by the replay.
    pub observed_violations: Vec<String>,
}

/// FNV-1a digest of the graph: vertex count followed by the sorted edge
/// list. Cheap, stable across platforms, and collision-resistant enough
/// to catch "resumed on the wrong graph" mistakes.
pub fn graph_digest(g: &Graph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(g.n() as u64);
    for (u, v) in g.edges() {
        mix(u64::from(u.0));
        mix(u64::from(v.0));
    }
    h
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> DeltaColoringError {
    DeltaColoringError::Supervisor(format!("{what} {}: {e}", path.display()))
}

/// Writes `snap` atomically into `dir` as
/// `checkpoint-<ordinal>-<slug>.json`, returning the final path.
///
/// # Errors
///
/// [`DeltaColoringError::Supervisor`] on I/O failure.
pub fn save_snapshot(dir: &Path, snap: &Snapshot) -> Result<PathBuf, DeltaColoringError> {
    let name = format!(
        "checkpoint-{:02}-{}.json",
        snap.cursor.ordinal(),
        snap.cursor.slug()
    );
    let path = dir.join(name);
    write_atomic(&path, json::to_string(snap).as_bytes())
        .map_err(|e| io_err("writing snapshot", &path, &e))?;
    Ok(path)
}

/// Loads a [`Snapshot`] previously written by [`save_snapshot`].
///
/// # Errors
///
/// [`DeltaColoringError::Supervisor`] on I/O failure, a parse error, or a
/// version mismatch.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, DeltaColoringError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err("reading snapshot", path, &e))?;
    let snap: Snapshot = json::from_str(&text).map_err(|e| {
        DeltaColoringError::Supervisor(format!("parsing snapshot {}: {e}", path.display()))
    })?;
    if snap.version != SNAPSHOT_VERSION {
        return Err(DeltaColoringError::Supervisor(format!(
            "snapshot {} has format version {}, this build reads version {SNAPSHOT_VERSION}",
            path.display(),
            snap.version
        )));
    }
    Ok(snap)
}

/// Writes a [`ReproBundle`] into `dir` as `bundle-<slug-or-start>.json`.
///
/// # Errors
///
/// [`DeltaColoringError::Supervisor`] on I/O failure.
pub fn save_bundle(dir: &Path, bundle: &ReproBundle) -> Result<PathBuf, DeltaColoringError> {
    let stage = bundle.cursor.as_deref().unwrap_or("start");
    let path = dir.join(format!("bundle-after-{stage}.json"));
    write_atomic(&path, json::to_string(bundle).as_bytes())
        .map_err(|e| io_err("writing bundle", &path, &e))?;
    Ok(path)
}

/// Loads a [`ReproBundle`] previously written by [`save_bundle`].
///
/// # Errors
///
/// [`DeltaColoringError::Supervisor`] on I/O failure, a parse error, or a
/// version mismatch.
pub fn load_bundle(path: &Path) -> Result<ReproBundle, DeltaColoringError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err("reading bundle", path, &e))?;
    let bundle: ReproBundle = json::from_str(&text).map_err(|e| {
        DeltaColoringError::Supervisor(format!("parsing bundle {}: {e}", path.display()))
    })?;
    if bundle.version != BUNDLE_VERSION {
        return Err(DeltaColoringError::Supervisor(format!(
            "bundle {} has format version {}, this build reads version {BUNDLE_VERSION}",
            path.display(),
            bundle.version
        )));
    }
    Ok(bundle)
}

fn check_snapshot(
    snap: &Snapshot,
    g: &Graph,
    expected: PipelineKind,
) -> Result<(), DeltaColoringError> {
    if snap.pipeline != expected {
        return Err(DeltaColoringError::Supervisor(format!(
            "snapshot was written by the {:?} pipeline, resuming the {expected:?} pipeline",
            snap.pipeline
        )));
    }
    let digest = graph_digest(g);
    if snap.graph_digest != digest {
        return Err(DeltaColoringError::Supervisor(format!(
            "snapshot graph digest {:#018x} (n={}, m={}) does not match this graph's \
             {digest:#018x} (n={}, m={}); resume on the exact graph the run started with",
            snap.graph_digest,
            snap.n,
            snap.m,
            g.n(),
            g.m()
        )));
    }
    // The digest pins the graph, not the state: a snapshot edited after
    // it was written must still fit the graph before any phase reads it.
    if snap.coloring.len() != g.n() {
        return Err(DeltaColoringError::Supervisor(format!(
            "snapshot coloring covers {} vertices, the graph has {}",
            snap.coloring.len(),
            g.n()
        )));
    }
    let delta = g.max_degree();
    if let Some(c) = snap.coloring.max_color().filter(|c| c.index() >= delta) {
        return Err(DeltaColoringError::Supervisor(format!(
            "snapshot coloring uses color {} outside the palette 0..{delta}",
            c.0
        )));
    }
    Ok(())
}

/// Checks that a randomized snapshot's shattering state fits the graph
/// and the cursor: the deferred rings exist (one entry per vertex) once
/// pre-shattering is done and not before, and every slack vertex is a
/// vertex of the graph.
fn check_rand_state(
    rs: &RandSnapshot,
    g: &Graph,
    cursor: PhaseCursor,
) -> Result<(), DeltaColoringError> {
    let want_ring = if cursor.ordinal() >= PhaseCursor::PreShattering.ordinal() {
        g.n()
    } else {
        0
    };
    if rs.ring.len() != want_ring {
        return Err(DeltaColoringError::Supervisor(format!(
            "snapshot after `{cursor}` has {} ring entries, expected {want_ring}",
            rs.ring.len()
        )));
    }
    if let Some(v) = rs.slack_vertices.iter().find(|v| v.index() >= g.n()) {
        return Err(DeltaColoringError::Supervisor(format!(
            "snapshot slack vertex {} is outside the graph's 0..{}",
            v.0,
            g.n()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Randomized driver.
// ---------------------------------------------------------------------

struct RandRunState {
    coloring: Coloring,
    ledger: RoundLedger,
    shatter: ShatterStats,
    recovery: RecoveryStats,
    slack_vertices: Vec<NodeId>,
    ring: Vec<Option<usize>>,
    degraded: Vec<DegradedComponent>,
}

/// Runs the randomized pipeline under `sup`, optionally resuming from a
/// snapshot. With [`Supervisor::passive`] and no resume this is exactly
/// [`crate::color_randomized_with_faults`].
///
/// # Errors
///
/// As [`crate::color_randomized`], plus [`DeltaColoringError::Supervisor`]
/// for checkpoint I/O and snapshot-validation failures. When
/// [`Supervisor::captures_failures`] is set, run errors surface as
/// [`RunOutcome::Failed`] instead.
pub fn drive_randomized(
    g: &Graph,
    config: &RandConfig,
    faults: Option<&FaultPlan>,
    probe: &Probe,
    sup: &Supervisor,
    resume: Option<Snapshot>,
) -> Result<RunOutcome<RandReport>, DeltaColoringError> {
    sup.validate()?;
    if let Some(plan) = faults {
        plan.check(g.n())?;
    }
    let delta = g.max_degree();
    if delta < 4 {
        return Err(DeltaColoringError::UnsupportedStructure(format!(
            "maximum degree {delta} is below the supported minimum of 4"
        )));
    }
    if let Some(th) = config.large_delta_threshold {
        if delta >= th {
            if resume.is_some() {
                return Err(DeltaColoringError::Supervisor(
                    "the large-Δ branch has no phase boundaries and cannot resume".to_string(),
                ));
            }
            let mut ledger = RoundLedger::with_probe(probe.clone());
            let (coloring, shatter) = ledger.span("pipeline/large-delta branch", |l| {
                color_large_delta(g, config, l)
            })?;
            return Ok(RunOutcome::Complete {
                report: RandReport {
                    coloring,
                    ledger,
                    shatter,
                    recovery: RecoveryStats::default(),
                },
                degraded: Vec::new(),
            });
        }
    }

    let mut resume_cursor = None;
    let restore_start = Instant::now();
    let mut st = match resume {
        Some(snap) => {
            check_snapshot(&snap, g, PipelineKind::Randomized)?;
            let rs = snap.rand.ok_or_else(|| {
                DeltaColoringError::Supervisor(
                    "randomized snapshot is missing its pipeline state".to_string(),
                )
            })?;
            check_rand_state(&rs, g, snap.cursor)?;
            if rs.config != *config {
                return Err(DeltaColoringError::Supervisor(
                    "snapshot configuration differs from the resume configuration; \
                     resume with the snapshot's own config"
                        .to_string(),
                ));
            }
            if snap.faults != faults.cloned() {
                return Err(DeltaColoringError::Supervisor(
                    "snapshot fault plan differs from the resume fault plan".to_string(),
                ));
            }
            resume_cursor = Some(snap.cursor);
            let mut ledger = snap.ledger;
            ledger.set_probe(probe.clone());
            RandRunState {
                coloring: snap.coloring,
                ledger,
                shatter: rs.shatter,
                recovery: rs.recovery,
                slack_vertices: rs.slack_vertices,
                ring: rs.ring,
                degraded: rs.degraded,
            }
        }
        None => RandRunState {
            coloring: Coloring::empty(g.n()),
            ledger: RoundLedger::with_probe(probe.clone()),
            shatter: ShatterStats::default(),
            recovery: RecoveryStats::default(),
            slack_vertices: Vec::new(),
            ring: Vec::new(),
            degraded: Vec::new(),
        },
    };
    record_resume_metrics(probe, resume_cursor.is_some(), restore_start);

    let mut last_done = resume_cursor;
    let flow = run_randomized_phases(
        g,
        config,
        faults,
        probe,
        sup,
        &mut st,
        resume_cursor,
        &mut last_done,
    );
    match flow {
        Ok(Some((cursor, snapshot))) => Ok(RunOutcome::Suspended { cursor, snapshot }),
        Ok(None) => Ok(RunOutcome::Complete {
            report: RandReport {
                coloring: st.coloring,
                ledger: st.ledger,
                shatter: st.shatter,
                recovery: st.recovery,
            },
            degraded: st.degraded,
        }),
        Err(e) if sup.captures_failures() => {
            // The run is over; make sure everything buffered (trace file,
            // fanned-out sinks) reaches disk before the bundle is built.
            probe.flush();
            let violations: Vec<String> =
                crate::validate::check_coloring(g, &st.coloring, delta as u32)
                    .iter()
                    .map(ToString::to_string)
                    .collect();
            let bundle = ReproBundle {
                version: BUNDLE_VERSION,
                pipeline: PipelineKind::Randomized,
                graph: g.clone(),
                rand_config: Some(*config),
                det_config: None,
                faults: faults.cloned(),
                chaos: sup.chaos.clone(),
                degrade: sup.degrade,
                cursor: last_done.map(|c| c.slug().to_string()),
                error: e.to_string(),
                violations: violations.clone(),
                degraded: st.degraded.clone(),
                flight: sup.flight_tail(),
                shard_config: None,
            };
            let path = match &sup.bundle_dir {
                Some(dir) => Some(save_bundle(dir, &bundle)?),
                None => None,
            };
            Ok(RunOutcome::Failed(FailureReport {
                error: e.to_string(),
                violations,
                cursor: last_done,
                bundle: path,
                degraded: st.degraded,
            }))
        }
        Err(e) => Err(e),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_randomized_phases(
    g: &Graph,
    config: &RandConfig,
    faults: Option<&FaultPlan>,
    probe: &Probe,
    sup: &Supervisor,
    st: &mut RandRunState,
    resume_cursor: Option<PhaseCursor>,
    last_done: &mut Option<PhaseCursor>,
) -> Result<Option<(PhaseCursor, PathBuf)>, DeltaColoringError> {
    use PhaseCursor as Pc;
    let delta = g.max_degree();
    let replay = |c: Pc| resume_cursor.is_some_and(|rc| c.ordinal() <= rc.ordinal());
    macro_rules! boundary {
        ($cursor:expr) => {{
            *last_done = Some($cursor);
            if let Some(stop) = rand_boundary($cursor, g, config, faults, probe, sup, st)? {
                return Ok(Some(stop));
            }
        }};
    }

    // ACD + classification: pure functions of (g, config), recomputed on
    // every resume — silently (scratch ledger, disabled probe) when the
    // snapshot already accounts for them.
    let acd = if replay(Pc::Acd) {
        det_phase_acd(g, &config.base, &mut RoundLedger::new())?
    } else {
        let acd = det_phase_acd(g, &config.base, &mut st.ledger)?;
        boundary!(Pc::Acd);
        acd
    };
    let (loopholes, cls) = if replay(Pc::Classification) {
        det_phase_classification(g, &acd, &mut RoundLedger::new())?
    } else {
        let out = det_phase_classification(g, &acd, &mut st.ledger)?;
        boundary!(Pc::Classification);
        out
    };

    // Pre-shattering consumes the run's randomness; it is never replayed —
    // its outputs (pair colors, slack vertices, rings) live in the
    // snapshot.
    if !replay(Pc::PreShattering) {
        let (slack, ring) = st.ledger.span("pipeline/pre-shattering", |l| {
            rand_phase_preshatter(g, config, &acd, &cls, &mut st.coloring, l, &mut st.shatter)
        });
        st.slack_vertices = slack;
        st.ring = ring;
        boundary!(Pc::PreShattering);
    }

    if !replay(Pc::PostShattering) {
        st.ledger.span("pipeline/post-shattering", |l| {
            rand_phase_postshatter(
                g,
                config,
                &acd,
                &cls,
                faults,
                sup,
                &st.ring,
                &mut st.coloring,
                l,
                &mut st.shatter,
                &mut st.recovery,
                &mut st.degraded,
            )
        })?;
        boundary!(Pc::PostShattering);
    }

    if !replay(Pc::PostProcessing) {
        st.ledger.span("pipeline/post-processing", |l| {
            rand_phase_postprocess(g, config, &st.slack_vertices, &st.ring, &mut st.coloring, l)
        })?;
        boundary!(Pc::PostProcessing);
    }

    // The easy sweep is the final step of every run: always live.
    rand_phase_easy(g, config, &loopholes, &mut st.coloring, &mut st.ledger)?;

    st.coloring
        .check_complete(g, delta as u32)
        .map_err(|e| DeltaColoringError::InvariantViolated(format!("final coloring: {e}")))?;
    Ok(None)
}

fn rand_boundary(
    cursor: PhaseCursor,
    g: &Graph,
    config: &RandConfig,
    faults: Option<&FaultPlan>,
    probe: &Probe,
    sup: &Supervisor,
    st: &RandRunState,
) -> Result<Option<(PhaseCursor, PathBuf)>, DeltaColoringError> {
    let Some(dir) = &sup.checkpoint_dir else {
        return Ok(None);
    };
    let snap = Snapshot {
        version: SNAPSHOT_VERSION,
        pipeline: PipelineKind::Randomized,
        graph_digest: graph_digest(g),
        n: g.n(),
        m: g.m(),
        cursor,
        coloring: st.coloring.clone(),
        ledger: st.ledger.clone(),
        faults: faults.cloned(),
        rand: Some(RandSnapshot {
            config: *config,
            shatter: st.shatter.clone(),
            recovery: st.recovery,
            slack_vertices: st.slack_vertices.clone(),
            ring: st.ring.clone(),
            degraded: st.degraded.clone(),
        }),
        det: None,
    };
    let write_start = Instant::now();
    let path = save_snapshot(dir, &snap)?;
    record_checkpoint_metrics(probe, write_start);
    probe.emit_with(|| Event::Checkpoint {
        cursor: cursor.slug().to_string(),
        rounds: st.ledger.total(),
    });
    // Phase boundaries are the durability points of a supervised run: a
    // kill after this line must find the trace as complete as the
    // snapshot.
    probe.flush();
    if sup.stop_after == Some(cursor) {
        return Ok(Some((cursor, path)));
    }
    Ok(None)
}

/// Records one checkpoint write into the probe's metrics hub.
fn record_checkpoint_metrics(probe: &Probe, write_start: Instant) {
    if let Some(hub) = probe.metrics() {
        hub.counter("supervisor.checkpoints").incr();
        hub.histogram("supervisor.checkpoint_write_ns")
            .observe(u64::try_from(write_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Records a snapshot restore (validation + state reattachment) into the
/// probe's metrics hub. No-op for fresh (non-resumed) runs.
fn record_resume_metrics(probe: &Probe, resumed: bool, restore_start: Instant) {
    if !resumed {
        return;
    }
    if let Some(hub) = probe.metrics() {
        hub.counter("supervisor.resumes").incr();
        hub.histogram("supervisor.resume_restore_ns")
            .observe(u64::try_from(restore_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

// ---------------------------------------------------------------------
// Deterministic driver.
// ---------------------------------------------------------------------

struct DetRunState {
    coloring: Coloring,
    ledger: RoundLedger,
    stats: PipelineStats,
}

/// Runs the deterministic pipeline under `sup`, optionally resuming from
/// a snapshot. With [`Supervisor::passive`] and no resume this is exactly
/// [`crate::color_deterministic_probed`].
///
/// # Errors
///
/// As [`crate::color_deterministic`], plus
/// [`DeltaColoringError::Supervisor`] for checkpoint I/O and
/// snapshot-validation failures. When [`Supervisor::captures_failures`]
/// is set, run errors surface as [`RunOutcome::Failed`] instead.
pub fn drive_deterministic(
    g: &Graph,
    config: &Config,
    probe: &Probe,
    sup: &Supervisor,
    resume: Option<Snapshot>,
) -> Result<RunOutcome<Report>, DeltaColoringError> {
    sup.validate()?;
    let delta = g.max_degree();
    if delta < 4 {
        return Err(DeltaColoringError::UnsupportedStructure(format!(
            "maximum degree {delta} is below the supported minimum of 4"
        )));
    }

    let mut resume_cursor = None;
    let restore_start = Instant::now();
    let mut st = match resume {
        Some(snap) => {
            check_snapshot(&snap, g, PipelineKind::Deterministic)?;
            let ds = snap.det.ok_or_else(|| {
                DeltaColoringError::Supervisor(
                    "deterministic snapshot is missing its pipeline state".to_string(),
                )
            })?;
            if ds.config != *config {
                return Err(DeltaColoringError::Supervisor(
                    "snapshot configuration differs from the resume configuration; \
                     resume with the snapshot's own config"
                        .to_string(),
                ));
            }
            resume_cursor = Some(snap.cursor);
            let mut ledger = snap.ledger;
            ledger.set_probe(probe.clone());
            DetRunState {
                coloring: snap.coloring,
                ledger,
                stats: ds.stats,
            }
        }
        None => DetRunState {
            coloring: Coloring::empty(g.n()),
            ledger: RoundLedger::with_probe(probe.clone()),
            stats: PipelineStats::default(),
        },
    };
    record_resume_metrics(probe, resume_cursor.is_some(), restore_start);

    let mut last_done = resume_cursor;
    let flow = run_deterministic_phases(
        g,
        config,
        probe,
        sup,
        &mut st,
        resume_cursor,
        &mut last_done,
    );
    match flow {
        Ok(Some((cursor, snapshot))) => Ok(RunOutcome::Suspended { cursor, snapshot }),
        Ok(None) => Ok(RunOutcome::Complete {
            report: Report {
                coloring: st.coloring,
                ledger: st.ledger,
                stats: st.stats,
            },
            degraded: Vec::new(),
        }),
        Err(e) if sup.captures_failures() => {
            probe.flush();
            let violations: Vec<String> =
                crate::validate::check_coloring(g, &st.coloring, delta as u32)
                    .iter()
                    .map(ToString::to_string)
                    .collect();
            let bundle = ReproBundle {
                version: BUNDLE_VERSION,
                pipeline: PipelineKind::Deterministic,
                graph: g.clone(),
                rand_config: None,
                det_config: Some(*config),
                faults: None,
                chaos: sup.chaos.clone(),
                degrade: sup.degrade,
                cursor: last_done.map(|c| c.slug().to_string()),
                error: e.to_string(),
                violations: violations.clone(),
                degraded: Vec::new(),
                flight: sup.flight_tail(),
                shard_config: None,
            };
            let path = match &sup.bundle_dir {
                Some(dir) => Some(save_bundle(dir, &bundle)?),
                None => None,
            };
            Ok(RunOutcome::Failed(FailureReport {
                error: e.to_string(),
                violations,
                cursor: last_done,
                bundle: path,
                degraded: Vec::new(),
            }))
        }
        Err(e) => Err(e),
    }
}

fn run_deterministic_phases(
    g: &Graph,
    config: &Config,
    probe: &Probe,
    sup: &Supervisor,
    st: &mut DetRunState,
    resume_cursor: Option<PhaseCursor>,
    last_done: &mut Option<PhaseCursor>,
) -> Result<Option<(PhaseCursor, PathBuf)>, DeltaColoringError> {
    use PhaseCursor as Pc;
    let delta = g.max_degree();
    let replay = |c: Pc| resume_cursor.is_some_and(|rc| c.ordinal() <= rc.ordinal());
    macro_rules! boundary {
        ($cursor:expr) => {{
            *last_done = Some($cursor);
            if let Some(stop) = det_boundary($cursor, g, config, probe, sup, st)? {
                return Ok(Some(stop));
            }
        }};
    }

    let acd = if replay(Pc::Acd) {
        det_phase_acd(g, config, &mut RoundLedger::new())?
    } else {
        let acd = det_phase_acd(g, config, &mut st.ledger)?;
        boundary!(Pc::Acd);
        acd
    };
    let (loopholes, cls) = if replay(Pc::Classification) {
        det_phase_classification(g, &acd, &mut RoundLedger::new())?
    } else {
        let out = det_phase_classification(g, &acd, &mut st.ledger)?;
        st.stats = PipelineStats {
            cliques: acd.cliques.len(),
            hard: out.1.hard_count(),
            heg: out.1.heg_ids.len(),
            loophole_vertices: out.0.count(),
            ..PipelineStats::default()
        };
        boundary!(Pc::Classification);
        out
    };

    if !cls.hard_ids.is_empty() {
        let f2 = if replay(Pc::Phase1) {
            det_phase1(g, &acd, &cls, config, false, &mut RoundLedger::new())?
        } else {
            let f2 = det_phase1(g, &acd, &cls, config, false, &mut st.ledger)?;
            st.stats.phase1 = f2.stats.clone();
            boundary!(Pc::Phase1);
            f2
        };
        let f3 = if replay(Pc::Phase2) {
            det_phase2(g, &acd, &cls, &f2, config, &mut RoundLedger::new())?
        } else {
            let f3 = det_phase2(g, &acd, &cls, &f2, config, &mut st.ledger)?;
            st.stats.max_incoming = f3.incoming.iter().copied().max().unwrap_or(0);
            st.stats.incoming_bound = f3.incoming_bound;
            boundary!(Pc::Phase2);
            f3
        };
        let triads = if replay(Pc::Phase3) {
            det_phase3(g, &acd, &f3, &mut RoundLedger::new())?
        } else {
            let triads = det_phase3(g, &acd, &f3, &mut st.ledger)?;
            boundary!(Pc::Phase3);
            triads
        };
        if !replay(Pc::Phase4) {
            let pair_palette: Vec<Color> = (0..delta as u32).map(Color).collect();
            st.stats.phase4 = det_phase4(
                g,
                &acd,
                &cls,
                &triads,
                &pair_palette,
                &mut st.coloring,
                config,
                &mut st.ledger,
            )?;
            boundary!(Pc::Phase4);
        }
    }

    det_phase_easy(
        g,
        config,
        &loopholes,
        &mut st.coloring,
        &mut st.ledger,
        &mut st.stats,
    )?;

    st.coloring
        .check_complete(g, delta as u32)
        .map_err(|e| DeltaColoringError::InvariantViolated(format!("final coloring: {e}")))?;
    Ok(None)
}

fn det_boundary(
    cursor: PhaseCursor,
    g: &Graph,
    config: &Config,
    probe: &Probe,
    sup: &Supervisor,
    st: &DetRunState,
) -> Result<Option<(PhaseCursor, PathBuf)>, DeltaColoringError> {
    let Some(dir) = &sup.checkpoint_dir else {
        return Ok(None);
    };
    let snap = Snapshot {
        version: SNAPSHOT_VERSION,
        pipeline: PipelineKind::Deterministic,
        graph_digest: graph_digest(g),
        n: g.n(),
        m: g.m(),
        cursor,
        coloring: st.coloring.clone(),
        ledger: st.ledger.clone(),
        faults: None,
        rand: None,
        det: Some(DetSnapshot {
            config: *config,
            stats: st.stats.clone(),
        }),
    };
    let write_start = Instant::now();
    let path = save_snapshot(dir, &snap)?;
    record_checkpoint_metrics(probe, write_start);
    probe.emit_with(|| Event::Checkpoint {
        cursor: cursor.slug().to_string(),
        rounds: st.ledger.total(),
    });
    probe.flush();
    if sup.stop_after == Some(cursor) {
        return Ok(Some((cursor, path)));
    }
    Ok(None)
}

// ---------------------------------------------------------------------
// Bundle replay.
// ---------------------------------------------------------------------

/// Re-executes a [`ReproBundle`] deterministically and compares the
/// observed failure against the recorded one.
///
/// # Errors
///
/// [`DeltaColoringError::Supervisor`] when the bundle cannot be read or
/// parsed. A replay whose run *succeeds* is not an error — it returns
/// `reproduced: false`.
pub fn replay_bundle(path: &Path, probe: &Probe) -> Result<ReplayReport, DeltaColoringError> {
    let bundle = load_bundle(path)?;
    let sup = Supervisor {
        capture_failures: true,
        degrade: bundle.degrade,
        chaos: bundle.chaos.clone(),
        ..Supervisor::passive()
    };
    let (observed_error, observed_violations) = match bundle.pipeline {
        PipelineKind::Randomized => {
            let config = bundle.rand_config.ok_or_else(|| {
                DeltaColoringError::Supervisor(
                    "randomized bundle is missing its configuration".to_string(),
                )
            })?;
            match drive_randomized(
                &bundle.graph,
                &config,
                bundle.faults.as_ref(),
                probe,
                &sup,
                None,
            )? {
                RunOutcome::Failed(f) => (Some(f.error), f.violations),
                _ => (None, Vec::new()),
            }
        }
        PipelineKind::Deterministic => {
            let config = bundle.det_config.ok_or_else(|| {
                DeltaColoringError::Supervisor(
                    "deterministic bundle is missing its configuration".to_string(),
                )
            })?;
            match drive_deterministic(&bundle.graph, &config, probe, &sup, None)? {
                RunOutcome::Failed(f) => (Some(f.error), f.violations),
                _ => (None, Vec::new()),
            }
        }
        PipelineKind::Shard => {
            let spec = bundle.shard_config.as_ref().ok_or_else(|| {
                DeltaColoringError::Supervisor("shard bundle is missing its run spec".to_string())
            })?;
            // `run_shard_case` owns the comparison against the reference
            // run; its verdict string is the replay's observed error.
            (
                run_shard_case(&bundle.graph, spec, bundle.faults.as_ref()),
                Vec::new(),
            )
        }
    };
    let reproduced = observed_error.as_deref() == Some(bundle.error.as_str())
        && observed_violations == bundle.violations;
    Ok(ReplayReport {
        reproduced,
        recorded_error: bundle.error,
        observed_error,
        recorded_violations: bundle.violations,
        observed_violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;

    #[test]
    fn cursor_slugs_round_trip() {
        for c in PhaseCursor::ALL {
            assert_eq!(c.slug().parse::<PhaseCursor>().unwrap(), c);
            let v = c.to_value();
            assert_eq!(PhaseCursor::from_value(&v).unwrap(), c);
        }
        assert!("phase9".parse::<PhaseCursor>().is_err());
    }

    #[test]
    fn cursor_ordinals_follow_pipeline_order() {
        assert!(PhaseCursor::Acd.ordinal() < PhaseCursor::Classification.ordinal());
        assert!(PhaseCursor::Classification.ordinal() < PhaseCursor::Phase1.ordinal());
        assert!(PhaseCursor::Phase4.ordinal() < PhaseCursor::PreShattering.ordinal());
        assert!(PhaseCursor::PreShattering.ordinal() < PhaseCursor::PostShattering.ordinal());
        assert!(PhaseCursor::PostShattering.ordinal() < PhaseCursor::PostProcessing.ordinal());
    }

    #[test]
    fn digest_distinguishes_graphs() {
        let a = generators::complete(6);
        let b = generators::complete(7);
        let c = generators::cycle(6);
        assert_ne!(graph_digest(&a), graph_digest(&b));
        assert_ne!(graph_digest(&a), graph_digest(&c));
        assert_eq!(graph_digest(&a), graph_digest(&generators::complete(6)));
    }

    #[test]
    fn shard_bundles_round_trip_and_replay() {
        let g = generators::gnp(24, 0.2, 3);
        let mut spec = ShardRunSpec::new(2, &localsim::WireAlgo::Greedy);
        spec.kills = vec![(1, 1)];
        let dir = std::env::temp_dir().join(format!("shard-bundle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bundle = shard_bundle(
            &g,
            &spec,
            None,
            "synthetic failure".to_string(),
            Some("soak-000".to_string()),
        );
        let path = save_bundle(&dir, &bundle).unwrap();
        assert!(path.ends_with("bundle-after-soak-000.json"));
        let loaded = load_bundle(&path).unwrap();
        assert_eq!(loaded.pipeline, PipelineKind::Shard);
        assert_eq!(loaded.shard_config, Some(spec));
        // The captured case is actually healthy, so the replay observes
        // no divergence and reports the failure as not reproduced.
        let rep = replay_bundle(&path, &Probe::disabled()).unwrap();
        assert!(!rep.reproduced);
        assert_eq!(rep.observed_error, None);
        assert_eq!(rep.recorded_error, "synthetic failure");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_after_requires_checkpoint_dir() {
        let sup = Supervisor {
            stop_after: Some(PhaseCursor::Acd),
            ..Supervisor::passive()
        };
        let g = generators::complete(6);
        let err = drive_deterministic(&g, &Config::for_delta(5), &Probe::disabled(), &sup, None)
            .unwrap_err();
        assert!(matches!(err, DeltaColoringError::Supervisor(_)));
    }
}
