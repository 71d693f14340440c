//! The run supervisor: phase checkpointing, crash-resumable pipelines,
//! panic containment with baseline degradation, and failure repro bundles.
//!
//! Both pipelines ([`crate::color_deterministic`],
//! [`crate::color_randomized`]) decompose into phase functions, and both
//! run in one supervised skeleton here (`Run`). It owns every step the two
//! share: admission, the one resume path, the ACD/classification prefix,
//! the phase boundary (snapshot, `Checkpoint` event, flush, `stop_after`),
//! the final completeness check and failure capture. A pipeline supplies
//! only its snapshot body ([`RandSnapshot`] or [`DetSnapshot`]) and its
//! phase list; the randomized one adds its snapshot-state check and the
//! large-Δ branch. A [`Supervisor`] configures:
//!
//! * **Checkpointing** — with a `checkpoint_dir`, every completed phase
//!   writes a versioned [`Snapshot`]. [`load_snapshot`] + `resume` continue
//!   a killed run from the last boundary, **bit-identical** to the
//!   uninterrupted run: pure phases at or before the cursor are silently
//!   recomputed against a scratch ledger (no charge or event is emitted
//!   twice), stateful outputs come from the snapshot, and later phases run
//!   live.
//! * **Containment** — with `degrade` set, every leftover-component solve
//!   of the randomized pipeline runs under `catch_unwind` and optional
//!   round / wall-clock budgets; a panicking or over-budget component is
//!   discarded, re-solved with [`baselines::brooks_component`], and
//!   reported by a [`localsim::Event::Degraded`] event.
//! * **Repro bundles** — with a `bundle_dir` (or `capture_failures`), any
//!   run error becomes a self-contained [`ReproBundle`] that
//!   [`replay_bundle`] re-executes deterministically.
//!
//! `color_randomized`/`color_deterministic` run the same drivers with a
//! [`Supervisor::passive`], which does none of the above, so there is
//! exactly one engine. Round budgets are deterministic; the wall-clock
//! budget is a nondeterministic safety net, off by default and outside the
//! identity contract (see `docs/RECOVERY.md`).

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use acd::AcdResult;
use graphgen::{Color, Coloring, Graph, NodeId};
use localsim::{write_atomic, Event, FaultPlan, FlightRecorder, Probe, RoundLedger};
use serde::{json, Deserialize, Serialize};

use crate::classify::Classification;
use crate::deterministic::{
    det_phase1, det_phase2, det_phase3, det_phase4, det_phase_acd, det_phase_classification,
    det_phase_easy, Config, PipelineStats, Report,
};
use crate::error::DeltaColoringError;
use crate::loophole::LoopholeReport;
use crate::randomized::{
    color_large_delta, rand_phase_easy, rand_phase_postprocess, rand_phase_postshatter,
    rand_phase_preshatter, RandConfig, RandReport, RecoveryStats, ShatterStats,
};
use crate::shard::{run_shard_case, ShardRunSpec};

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

    /// Position in pipeline order (shared phases first), which is the
    /// declaration order. Only cursors of the same pipeline are ever
    /// compared.
    pub fn ordinal(self) -> u8 {
        self as u8
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
            flight: v
                .field("flight")
                .map_or(Ok(Vec::new()), Deserialize::from_value)?,
            shard_config: v
                .field("shard_config")
                .map_or(Ok(None), Deserialize::from_value)?,
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

/// Writes `value` atomically to `path` as JSON; `what` names it in errors.
fn write_json<T: Serialize>(
    what: &str,
    path: PathBuf,
    value: &T,
) -> Result<PathBuf, DeltaColoringError> {
    write_atomic(&path, json::to_string(value).as_bytes()).map_err(|e| {
        DeltaColoringError::Supervisor(format!("writing {what} {}: {e}", path.display()))
    })?;
    Ok(path)
}

/// Reads a JSON `what` written by [`write_json`] and refuses it unless
/// `version` of it is `expected`.
fn read_json<T: for<'de> Deserialize<'de>>(
    what: &str,
    path: &Path,
    expected: u32,
    version: impl FnOnce(&T) -> u32,
) -> Result<T, DeltaColoringError> {
    let (fail, at) = (DeltaColoringError::Supervisor, path.display());
    let text =
        std::fs::read_to_string(path).map_err(|e| fail(format!("reading {what} {at}: {e}")))?;
    let value: T = json::from_str(&text).map_err(|e| fail(format!("parsing {what} {at}: {e}")))?;
    match version(&value) {
        v if v == expected => Ok(value),
        v => Err(fail(format!(
            "{what} {at} has format version {v}, this build reads version {expected}"
        ))),
    }
}

/// Writes `snap` atomically into `dir` as
/// `checkpoint-<ordinal>-<slug>.json`, returning the final path.
///
/// # Errors
///
/// [`DeltaColoringError::Supervisor`] on I/O failure.
pub fn save_snapshot(dir: &Path, snap: &Snapshot) -> Result<PathBuf, DeltaColoringError> {
    let (at, slug) = (snap.cursor.ordinal(), snap.cursor.slug());
    let path = dir.join(format!("checkpoint-{at:02}-{slug}.json"));
    write_json("snapshot", path, snap)
}

/// Loads a [`Snapshot`] previously written by [`save_snapshot`].
///
/// # Errors
///
/// [`DeltaColoringError::Supervisor`] on I/O failure, a parse error, or a
/// version mismatch.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, DeltaColoringError> {
    read_json("snapshot", path, SNAPSHOT_VERSION, |s: &Snapshot| s.version)
}

/// Writes a [`ReproBundle`] into `dir` as `bundle-<slug-or-start>.json`.
///
/// # Errors
///
/// [`DeltaColoringError::Supervisor`] on I/O failure.
pub fn save_bundle(dir: &Path, bundle: &ReproBundle) -> Result<PathBuf, DeltaColoringError> {
    let stage = bundle.cursor.as_deref().unwrap_or("start");
    let path = dir.join(format!("bundle-after-{stage}.json"));
    write_json("bundle", path, bundle)
}

/// Loads a [`ReproBundle`] previously written by [`save_bundle`].
///
/// # Errors
///
/// [`DeltaColoringError::Supervisor`] on I/O failure, a parse error, or a
/// version mismatch.
pub fn load_bundle(path: &Path) -> Result<ReproBundle, DeltaColoringError> {
    read_json("bundle", path, BUNDLE_VERSION, |b: &ReproBundle| b.version)
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

/// The pipeline-specific half of a supervised [`Run`]: its snapshot body,
/// exactly the state the pipeline carries across boundaries plus its config.
trait PipelineBody: Clone {
    const KIND: PipelineKind;
    type Report;
    /// The body's field in a [`Snapshot`].
    fn slot(snap: &mut Snapshot) -> &mut Option<Self>;
    /// The configs a [`ReproBundle`] records; resume requires them equal.
    fn configs(&self) -> (Option<RandConfig>, Option<Config>);
    /// Checks state restored from a snapshot against the graph.
    fn check_state(&self, _g: &Graph, _cursor: PhaseCursor) -> Result<(), DeltaColoringError> {
        Ok(())
    }
    /// Records the classification's outputs before its boundary.
    fn classified(&mut self, _acd: &AcdResult, _loopholes: &LoopholeReport, _cls: &Classification) {
    }
    /// Components degraded to the baseline so far.
    fn degraded(&self) -> &[DegradedComponent] {
        &[]
    }
    /// The completed run's outcome.
    fn finish(self, coloring: Coloring, ledger: RoundLedger) -> RunOutcome<Self::Report>;
}

impl PipelineBody for RandSnapshot {
    const KIND: PipelineKind = PipelineKind::Randomized;
    type Report = RandReport;

    fn slot(snap: &mut Snapshot) -> &mut Option<Self> {
        &mut snap.rand
    }

    fn configs(&self) -> (Option<RandConfig>, Option<Config>) {
        (Some(self.config), None)
    }

    /// The deferred rings exist (one entry per vertex) once
    /// pre-shattering is done and not before, and every slack vertex is a
    /// vertex of the graph.
    fn check_state(&self, g: &Graph, cursor: PhaseCursor) -> Result<(), DeltaColoringError> {
        let want_ring = if cursor.ordinal() >= PhaseCursor::PreShattering.ordinal() {
            g.n()
        } else {
            0
        };
        if self.ring.len() != want_ring {
            return Err(DeltaColoringError::Supervisor(format!(
                "snapshot after `{cursor}` has {} ring entries, expected {want_ring}",
                self.ring.len()
            )));
        }
        if let Some(v) = self.slack_vertices.iter().find(|v| v.index() >= g.n()) {
            return Err(DeltaColoringError::Supervisor(format!(
                "snapshot slack vertex {} is outside the graph's 0..{}",
                v.0,
                g.n()
            )));
        }
        Ok(())
    }

    fn degraded(&self) -> &[DegradedComponent] {
        &self.degraded
    }

    fn finish(self, coloring: Coloring, ledger: RoundLedger) -> RunOutcome<RandReport> {
        RunOutcome::Complete {
            report: RandReport {
                coloring,
                ledger,
                shatter: self.shatter,
                recovery: self.recovery,
            },
            degraded: self.degraded,
        }
    }
}

impl PipelineBody for DetSnapshot {
    const KIND: PipelineKind = PipelineKind::Deterministic;
    type Report = Report;

    fn slot(snap: &mut Snapshot) -> &mut Option<Self> {
        &mut snap.det
    }

    fn configs(&self) -> (Option<RandConfig>, Option<Config>) {
        (None, Some(self.config))
    }

    fn classified(&mut self, acd: &AcdResult, loopholes: &LoopholeReport, cls: &Classification) {
        self.stats = PipelineStats {
            cliques: acd.cliques.len(),
            hard: cls.hard_count(),
            heg: cls.heg_ids.len(),
            loophole_vertices: loopholes.count(),
            ..PipelineStats::default()
        };
    }

    fn finish(self, coloring: Coloring, ledger: RoundLedger) -> RunOutcome<Report> {
        RunOutcome::Complete {
            report: Report {
                coloring,
                ledger,
                stats: self.stats,
            },
            degraded: Vec::new(),
        }
    }
}

/// Why a supervised phase list stopped before its end.
enum Halt {
    /// `stop_after` fired at this boundary, after writing this snapshot.
    Suspend(PhaseCursor, PathBuf),
    /// A phase or a checkpoint write failed.
    Fail(DeltaColoringError),
}

impl From<DeltaColoringError> for Halt {
    fn from(e: DeltaColoringError) -> Self {
        Halt::Fail(e)
    }
}

/// One supervised run of either pipeline: its live state and the inputs
/// every boundary and failure capture reads.
struct Run<'a, B> {
    g: &'a Graph,
    sup: &'a Supervisor,
    faults: Option<&'a FaultPlan>,
    coloring: Coloring,
    /// Carries the run's probe, fresh or restored.
    ledger: RoundLedger,
    body: B,
    /// Last boundary passed, restored from a snapshot or live. Phases run
    /// in cursor order, so a phase at or before it was restored.
    last_done: Option<PhaseCursor>,
}

impl<'a, B: PipelineBody> Run<'a, B> {
    /// A fresh run from `fresh`. Refuses `stop_after` without a checkpoint
    /// directory, a fault plan that does not fit the graph, and Δ < 4.
    fn new(
        g: &'a Graph,
        probe: &'a Probe,
        sup: &'a Supervisor,
        faults: Option<&'a FaultPlan>,
        fresh: B,
    ) -> Result<Self, DeltaColoringError> {
        if sup.stop_after.is_some() && sup.checkpoint_dir.is_none() {
            return Err(DeltaColoringError::Supervisor(
                "--stop-after requires a checkpoint directory".to_string(),
            ));
        }
        if let Some(plan) = faults {
            plan.check(g.n())?;
        }
        let delta = g.max_degree();
        if delta < 4 {
            return Err(DeltaColoringError::UnsupportedStructure(format!(
                "maximum degree {delta} is below the supported minimum of 4"
            )));
        }
        Ok(Run {
            g,
            sup,
            faults,
            coloring: Coloring::empty(g.n()),
            ledger: RoundLedger::with_probe(probe.clone()),
            body: fresh,
            last_done: None,
        })
    }

    /// Runs `phases` from the `resume` snapshot or from the start, checks
    /// the final coloring, and turns a suspension or a captured failure
    /// into its [`RunOutcome`].
    fn supervise(
        mut self,
        resume: Option<Snapshot>,
        phases: impl FnOnce(&mut Self) -> Result<(), Halt>,
    ) -> Result<RunOutcome<B::Report>, DeltaColoringError> {
        if let Some(snap) = resume {
            self.restore(snap)?;
        }
        let flow = phases(&mut self).and_then(|()| {
            let delta = self.g.max_degree() as u32;
            let complete = self.coloring.check_complete(self.g, delta);
            let fail = |e| DeltaColoringError::InvariantViolated(format!("final coloring: {e}"));
            Ok(complete.map_err(fail)?)
        });
        match flow {
            Ok(()) => Ok(self.body.finish(self.coloring, self.ledger)),
            Err(Halt::Suspend(cursor, snapshot)) => Ok(RunOutcome::Suspended { cursor, snapshot }),
            Err(Halt::Fail(e)) if self.sup.captures_failures() => {
                Ok(RunOutcome::Failed(self.capture(&e)?))
            }
            Err(Halt::Fail(e)) => Err(e),
        }
    }

    /// Restores the run from `snap` once it is checked against the
    /// graph, the pipeline, the config and the fault plan.
    fn restore(&mut self, mut snap: Snapshot) -> Result<(), DeltaColoringError> {
        let restore_start = Instant::now();
        check_snapshot(&snap, self.g, B::KIND)?;
        let kind = format!("{:?}", B::KIND).to_lowercase();
        let body = B::slot(&mut snap).take().ok_or_else(|| {
            DeltaColoringError::Supervisor(format!("{kind} snapshot is missing its pipeline state"))
        })?;
        body.check_state(self.g, snap.cursor)?;
        if body.configs() != self.body.configs() {
            return Err(DeltaColoringError::Supervisor(
                "snapshot configuration differs from the resume configuration; \
                 resume with the snapshot's own config"
                    .to_string(),
            ));
        }
        if snap.faults.as_ref() != self.faults {
            return Err(DeltaColoringError::Supervisor(
                "snapshot fault plan differs from the resume fault plan".to_string(),
            ));
        }
        let probe = self.ledger.probe().clone();
        self.coloring = snap.coloring;
        self.ledger = snap.ledger;
        self.ledger.set_probe(probe);
        self.body = body;
        self.last_done = Some(snap.cursor);
        if let Some(hub) = self.ledger.probe().metrics() {
            hub.counter("supervisor.resumes").incr();
            hub.histogram("supervisor.resume_restore_ns")
                .observe(u64::try_from(restore_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        Ok(())
    }

    /// Whether the restored snapshot already holds `cursor`'s outputs.
    fn covers(&self, cursor: PhaseCursor) -> bool {
        matches!(self.last_done, Some(at) if cursor.ordinal() <= at.ordinal())
    }

    /// Runs a phase whose output is a pure function of the graph and
    /// config. When the snapshot covers it, it is replayed silently
    /// against a scratch ledger with a disabled probe, so no charge or
    /// event is emitted twice; otherwise it runs live, `record` folds its
    /// output into the body, and its boundary follows.
    fn derive<T>(
        &mut self,
        cursor: PhaseCursor,
        phase: impl FnOnce(&mut RoundLedger) -> Result<T, DeltaColoringError>,
        record: impl FnOnce(&mut B, &T),
    ) -> Result<T, Halt> {
        if self.covers(cursor) {
            return Ok(phase(&mut RoundLedger::new())?);
        }
        let out = phase(&mut self.ledger)?;
        record(&mut self.body, &out);
        self.boundary(cursor)?;
        Ok(out)
    }

    /// Runs a phase whose outputs live in the snapshot (the coloring and
    /// the body) up to its boundary, unless the snapshot covers it.
    fn advance(
        &mut self,
        cursor: PhaseCursor,
        phase: impl FnOnce(&mut Coloring, &mut RoundLedger, &mut B) -> Result<(), DeltaColoringError>,
    ) -> Result<(), Halt> {
        if self.covers(cursor) {
            return Ok(());
        }
        phase(&mut self.coloring, &mut self.ledger, &mut self.body)?;
        self.boundary(cursor)
    }

    /// The ACD and the classification, the prefix both pipelines share.
    fn prefix(
        &mut self,
        config: &Config,
    ) -> Result<(AcdResult, LoopholeReport, Classification), Halt> {
        let g = self.g;
        let acd = self.derive(PhaseCursor::Acd, |l| det_phase_acd(g, config, l), |_, _| {})?;
        let (loopholes, cls) = self.derive(
            PhaseCursor::Classification,
            |l| det_phase_classification(g, &acd, l),
            |body, (loopholes, cls)| body.classified(&acd, loopholes, cls),
        )?;
        Ok((acd, loopholes, cls))
    }

    /// Marks `cursor` passed. With a checkpoint directory it also writes
    /// the snapshot, emits [`Event::Checkpoint`], flushes the probe, and
    /// suspends the run if `stop_after` names `cursor`; without one it
    /// builds and clones nothing.
    fn boundary(&mut self, cursor: PhaseCursor) -> Result<(), Halt> {
        self.last_done = Some(cursor);
        let Some(dir) = &self.sup.checkpoint_dir else {
            return Ok(());
        };
        let mut snap = Snapshot {
            version: SNAPSHOT_VERSION,
            pipeline: B::KIND,
            graph_digest: graph_digest(self.g),
            n: self.g.n(),
            m: self.g.m(),
            cursor,
            coloring: self.coloring.clone(),
            ledger: self.ledger.clone(),
            faults: self.faults.cloned(),
            rand: None,
            det: None,
        };
        *B::slot(&mut snap) = Some(self.body.clone());
        let write_start = Instant::now();
        let path = save_snapshot(dir, &snap)?;
        let probe = self.ledger.probe();
        if let Some(hub) = probe.metrics() {
            hub.counter("supervisor.checkpoints").incr();
            hub.histogram("supervisor.checkpoint_write_ns")
                .observe(u64::try_from(write_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        probe.emit_with(|| Event::Checkpoint {
            cursor: cursor.slug().to_string(),
            rounds: self.ledger.total(),
        });
        // Phase boundaries are the durability points of a supervised run: a
        // kill after this line must find the trace as complete as the
        // snapshot.
        probe.flush();
        if self.sup.stop_after == Some(cursor) {
            return Err(Halt::Suspend(cursor, path));
        }
        Ok(())
    }

    /// Turns the run error `e` into a failure report, saving a
    /// [`ReproBundle`] when `bundle_dir` is set.
    fn capture(&self, e: &DeltaColoringError) -> Result<FailureReport, DeltaColoringError> {
        // The run is over; make sure everything buffered (trace file,
        // fanned-out sinks) reaches disk before the bundle is built.
        self.ledger.probe().flush();
        let delta = self.g.max_degree() as u32;
        let violations = crate::validate::check_coloring(self.g, &self.coloring, delta);
        let (rand_config, det_config) = self.body.configs();
        let bundle = ReproBundle {
            version: BUNDLE_VERSION,
            pipeline: B::KIND,
            graph: self.g.clone(),
            rand_config,
            det_config,
            faults: self.faults.cloned(),
            chaos: self.sup.chaos.clone(),
            degrade: self.sup.degrade,
            cursor: self.last_done.map(|c| c.slug().to_string()),
            error: e.to_string(),
            violations: violations.iter().map(ToString::to_string).collect(),
            degraded: self.body.degraded().to_vec(),
            flight: self.sup.flight.as_ref().map_or_else(Vec::new, |f| f.tail()),
            shard_config: None,
        };
        let dir = self.sup.bundle_dir.as_ref();
        let path = dir.map(|dir| save_bundle(dir, &bundle)).transpose()?;
        Ok(FailureReport {
            error: bundle.error,
            violations: bundle.violations,
            cursor: self.last_done,
            bundle: path,
            degraded: bundle.degraded,
        })
    }
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
    use PhaseCursor as Pc;
    let fresh = RandSnapshot {
        config: *config,
        shatter: ShatterStats::default(),
        recovery: RecoveryStats::default(),
        slack_vertices: Vec::new(),
        ring: Vec::new(),
        degraded: Vec::new(),
    };
    let mut run = Run::new(g, probe, sup, faults, fresh)?;
    if matches!(config.large_delta_threshold, Some(th) if g.max_degree() >= th) {
        if resume.is_some() {
            return Err(DeltaColoringError::Supervisor(
                "the large-Δ branch has no phase boundaries and cannot resume".to_string(),
            ));
        }
        let (coloring, shatter) = run.ledger.span("pipeline/large-delta branch", |l| {
            color_large_delta(g, config, l)
        })?;
        run.body.shatter = shatter;
        return Ok(run.body.finish(coloring, run.ledger));
    }
    run.supervise(resume, |run| {
        let (acd, loopholes, cls) = run.prefix(&config.base)?;
        // Pre-shattering consumes the run's randomness; it is never
        // replayed — its outputs (pair colors, slack vertices, rings) live
        // in the snapshot.
        run.advance(Pc::PreShattering, |coloring, ledger, rs| {
            (rs.slack_vertices, rs.ring) = ledger.span("pipeline/pre-shattering", |l| {
                rand_phase_preshatter(g, config, &acd, &cls, coloring, l, &mut rs.shatter)
            });
            Ok(())
        })?;
        run.advance(Pc::PostShattering, |coloring, ledger, rs| {
            ledger.span("pipeline/post-shattering", |l| {
                rand_phase_postshatter(
                    g,
                    config,
                    &acd,
                    &cls,
                    faults,
                    sup,
                    &rs.ring,
                    coloring,
                    l,
                    &mut rs.shatter,
                    &mut rs.recovery,
                    &mut rs.degraded,
                )
            })
        })?;
        run.advance(Pc::PostProcessing, |coloring, ledger, rs| {
            ledger.span("pipeline/post-processing", |l| {
                rand_phase_postprocess(g, config, &rs.slack_vertices, &rs.ring, coloring, l)
            })
        })?;
        // The easy sweep is the final step of every run: always live.
        rand_phase_easy(g, config, &loopholes, &mut run.coloring, &mut run.ledger)?;
        Ok(())
    })
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
    use PhaseCursor as Pc;
    let fresh = DetSnapshot {
        config: *config,
        stats: PipelineStats::default(),
    };
    Run::new(g, probe, sup, None, fresh)?.supervise(resume, |run| {
        let (acd, loopholes, cls) = run.prefix(config)?;
        if !cls.hard_ids.is_empty() {
            let f2 = run.derive(
                Pc::Phase1,
                |l| det_phase1(g, &acd, &cls, config, false, l),
                |ds, f2| ds.stats.phase1 = f2.stats.clone(),
            )?;
            let f3 = run.derive(
                Pc::Phase2,
                |l| det_phase2(g, &acd, &cls, &f2, config, l),
                |ds, f3| {
                    ds.stats.max_incoming = f3.incoming.iter().copied().max().unwrap_or(0);
                    ds.stats.incoming_bound = f3.incoming_bound;
                },
            )?;
            let triads = run.derive(Pc::Phase3, |l| det_phase3(g, &acd, &f3, l), |_, _| {})?;
            run.advance(Pc::Phase4, |col, l, ds| {
                let palette: Vec<Color> = (0..g.max_degree() as u32).map(Color).collect();
                ds.stats.phase4 = det_phase4(g, &acd, &cls, &triads, &palette, col, config, l)?;
                Ok(())
            })?;
        }
        let Run {
            coloring,
            ledger,
            body: ds,
            ..
        } = run;
        det_phase_easy(g, config, &loopholes, coloring, ledger, &mut ds.stats)?;
        Ok(())
    })
}

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
