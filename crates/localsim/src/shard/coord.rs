//! The shard coordinator: partitions the graph, drives the round clock
//! over TCP loopback, aggregates telemetry, and recovers killed shards
//! from checkpoints.
//!
//! The coordinator is the sharded counterpart of [`crate::Executor`]:
//! it emits the *same* event stream (crash/drop/stall faults, per-round
//! registry snapshots under [`EXEC_SCOPE`]) and returns the same
//! [`RunResult`]/[`SimError`] outcomes, so an `N`-shard run is
//! interchangeable with — and testable against — a single-process run.
//! Per-round wire activity lands in the metrics hub instead
//! (`shard.bytes_sent`, `shard.bytes_recv`, `shard.frames`,
//! `shard.round_ns`, `shard.barrier_wait_ns`, `shard.init_bytes`,
//! `shard.ghost_updates_sent`, `shard.ghost_suppressed`), because
//! wall-clock and byte counts are not part of the simulated semantics.
//!
//! The wire path is built for throughput: `Init` frames are encoded
//! once (binary CSR or per-shard sub-topology, whichever is smaller)
//! and the cached bytes are replayed verbatim on every respawn; ghost
//! routing uses scatter lists built once per run ([`GhostPlan`]); and
//! the round barrier drains `RoundDone` frames by readiness-polling
//! every shard instead of serial blocking reads, so a slow shard never
//! delays reading the others.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphgen::{Graph, NodeId};
use serde::Value;
use telemetry::{Event, MetricCounter, Probe};

use super::algo::WireAlgo;
use super::netfault::{Liveness, NetDir, NetFaultPlan, NET_DELAY};
use super::proto::{encode_fault_plan, Frame, GhostUpdates, PROTO_VERSION};
use super::topology::{encode_full, encode_sub};
use super::wire::{self, frame_bytes, Dec, FrameConn, FrameMeter, TxFault};
use super::worker::ShardState;
use crate::exec::{LocalAlgorithm, NodeCtx, RunResult, SimError, EXEC_SCOPE};
use crate::faults::FaultPlan;
use crate::par::segments_weighted;
use crate::tally::RoundTally;

/// How a worker shard is hosted.
#[derive(Clone)]
pub enum WorkerBackend {
    /// Worker loops run on threads of this process, still speaking the
    /// full TCP protocol over loopback. The default; used by tests and
    /// benchmarks.
    Threads,
    /// Each worker is a separate OS process: `program` is spawned with
    /// `args` plus the coordinator's `host:port` appended as the final
    /// argument (the CLI's `shard-serve --connect` contract).
    Process {
        /// Executable to spawn (typically `std::env::current_exe`).
        program: PathBuf,
        /// Arguments before the appended address.
        args: Vec<String>,
    },
    /// Test hook: each "worker" is whatever the closure does with the
    /// coordinator's `host:port`, run on a fresh thread. Lets the
    /// liveness tests interpose byte-level proxies or deliberately
    /// half-dead workers without a process boundary.
    #[doc(hidden)]
    Custom(Arc<dyn Fn(String) + Send + Sync>),
}

impl std::fmt::Debug for WorkerBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerBackend::Threads => f.write_str("Threads"),
            WorkerBackend::Process { program, args } => f
                .debug_struct("Process")
                .field("program", program)
                .field("args", args)
                .finish(),
            WorkerBackend::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// A deterministic fault injection for the *runtime* layer (as opposed
/// to [`FaultPlan`], which injects faults into the simulated network):
/// kill one shard after the coordinator completes a given round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosKill {
    /// Shard index to kill.
    pub shard: usize,
    /// Fire after this many rounds have completed (`0` kills before the
    /// first round). With the process backend this is a SIGKILL.
    pub after_round: u64,
}

/// Why a sharded run failed.
#[derive(Debug)]
pub enum ShardError {
    /// The simulation itself failed, exactly as the single-process
    /// executor would report it.
    Sim(SimError),
    /// A transport failure that recovery could not absorb.
    Io(String),
    /// A protocol violation (bad handshake, unexpected frame, worker
    /// error report) — not retried.
    Protocol(String),
    /// A shard kept dying past the respawn budget. Since protocol v3
    /// the coordinator *adopts* such a shard in-process instead of
    /// failing; the variant remains for API stability and for callers
    /// matching historical traces.
    RespawnBudgetExhausted {
        /// The repeatedly failing shard.
        shard: usize,
        /// The exhausted budget.
        budget: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Sim(e) => write!(f, "{e}"),
            ShardError::Io(msg) => write!(f, "shard transport error: {msg}"),
            ShardError::Protocol(msg) => write!(f, "shard protocol error: {msg}"),
            ShardError::RespawnBudgetExhausted { shard, budget } => {
                write!(f, "shard {shard} exhausted its respawn budget of {budget}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<SimError> for ShardError {
    fn from(e: SimError) -> Self {
        ShardError::Sim(e)
    }
}

/// A full-cluster snapshot: everything needed to rewind every shard and
/// the coordinator's own aggregates to a round boundary. Assembled from
/// per-shard [`Frame::Dump`]s (plus coordinator-local outputs); round 0
/// is an implicit checkpoint computed without any wire traffic.
#[derive(Clone)]
struct Checkpoint {
    round: u64,
    states: Vec<u64>,
    live_bitmap: Vec<u8>,
    seen: Vec<u64>,
    outputs: Vec<Option<u64>>,
    crashed: usize,
    live_count: usize,
}

impl Checkpoint {
    /// Renders the checkpoint as a JSON value for on-disk phase
    /// snapshots (outputs as parallel node/value arrays).
    fn to_value(&self) -> Value {
        let pairs: Vec<(u32, u64)> = self
            .outputs
            .iter()
            .enumerate()
            .filter_map(|(v, o)| o.map(|o| (v as u32, o)))
            .collect();
        Value::Map(vec![
            ("schema_version".to_string(), Value::U64(1)),
            ("round".to_string(), Value::U64(self.round)),
            ("crashed".to_string(), Value::U64(self.crashed as u64)),
            ("live".to_string(), Value::U64(self.live_count as u64)),
            (
                "states".to_string(),
                Value::Seq(self.states.iter().map(|&s| Value::U64(s)).collect()),
            ),
            (
                "live_bitmap".to_string(),
                Value::Seq(
                    self.live_bitmap
                        .iter()
                        .map(|&b| Value::U64(u64::from(b)))
                        .collect(),
                ),
            ),
            (
                "seen".to_string(),
                Value::Seq(self.seen.iter().map(|&s| Value::U64(s)).collect()),
            ),
            (
                "output_nodes".to_string(),
                Value::Seq(
                    pairs
                        .iter()
                        .map(|&(v, _)| Value::U64(u64::from(v)))
                        .collect(),
                ),
            ),
            (
                "output_values".to_string(),
                Value::Seq(pairs.iter().map(|&(_, o)| Value::U64(o)).collect()),
            ),
        ])
    }
}

/// One shard's hosting handle.
enum WorkerHandle {
    Thread,
    Process(std::process::Child),
}

/// A round-trip failure: either one shard died (recoverable by respawn
/// + restore) or the protocol itself broke (fatal).
enum TripFail {
    Shard(usize),
    Fatal(ShardError),
}

/// The ghost-routing plan, built once per run instead of per round:
/// the per-shard ghost and boundary id universes (shared with the
/// workers, which derive identical lists from their topology), and for
/// every boundary node the scatter list of shards reading it.
struct GhostPlan {
    /// `ghost_ids[s]`: sorted foreign neighbors of shard `s`'s range —
    /// the universe `RoundGo` ghosts are packed against.
    ghost_ids: Vec<Vec<u32>>,
    /// `boundary_ids[s]`: sorted owned vertices of shard `s` with a
    /// foreign neighbor — the universe `RoundDone` boundary updates are
    /// packed against.
    boundary_ids: Vec<Vec<u32>>,
    /// `readers[s][i]`: shards whose ghost set contains
    /// `boundary_ids[s][i]`.
    readers: Vec<Vec<Vec<usize>>>,
}

impl GhostPlan {
    fn build(graph: &Graph, ranges: &[(u32, u32)]) -> GhostPlan {
        let shard_count = ranges.len();
        let mut ghost_ids: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        let mut boundary_ids: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            let (lo, hi) = (lo as usize, hi as usize);
            for v in lo..hi {
                let mut foreign = false;
                for w in graph.neighbors(NodeId(v as u32)) {
                    if w.index() < lo || w.index() >= hi {
                        foreign = true;
                        ghost_ids[s].push(w.0);
                    }
                }
                if foreign {
                    boundary_ids[s].push(v as u32);
                }
            }
            ghost_ids[s].sort_unstable();
            ghost_ids[s].dedup();
        }
        let mut readers: Vec<Vec<Vec<usize>>> = boundary_ids
            .iter()
            .map(|b| vec![Vec::new(); b.len()])
            .collect();
        for (t, ghosts) in ghost_ids.iter().enumerate() {
            for &g in ghosts {
                // Ranges are contiguous and cover every vertex, so the
                // owner is the first range ending past g; a ghost is by
                // construction a boundary node of its owner.
                let owner = ranges.partition_point(|&(_, end)| end <= g);
                let idx = boundary_ids[owner]
                    .binary_search(&g)
                    .expect("a ghost is a boundary node of its owning shard");
                readers[owner][idx].push(t);
            }
        }
        GhostPlan {
            ghost_ids,
            boundary_ids,
            readers,
        }
    }
}

/// Aggregated results of one round across all shards, merged in shard
/// order so every derived figure matches the sequential schedule.
#[derive(Default)]
struct RoundAgg {
    msgs: u64,
    dropped: u64,
    stalled: u64,
    halts: Vec<(u32, u64)>,
    /// Changed boundary states routed to the shards reading them,
    /// becoming the next round's `RoundGo` ghosts. Per-shard lists stay
    /// ascending because sources are merged in shard (= id) order.
    next_ghosts: Vec<Vec<(u32, u64)>>,
}

/// Runs [`WireAlgo`]s over a graph partitioned across worker shards.
pub struct ShardedExecutor<'g> {
    graph: &'g Graph,
    shards: usize,
    probe: Probe,
    faults: Option<FaultPlan>,
    backend: WorkerBackend,
    checkpoint_every: u64,
    checkpoint_dir: Option<PathBuf>,
    max_respawns: usize,
    kills: Vec<ChaosKill>,
    net_faults: Option<NetFaultPlan>,
    liveness: Liveness,
}

impl<'g> ShardedExecutor<'g> {
    /// A coordinator over `graph` with thread-backed workers, no
    /// telemetry, no faults, and no periodic checkpoints (the implicit
    /// round-0 checkpoint still makes every shard kill recoverable).
    pub fn new(graph: &'g Graph) -> Self {
        ShardedExecutor {
            graph,
            shards: 1,
            probe: Probe::disabled(),
            faults: None,
            backend: WorkerBackend::Threads,
            checkpoint_every: 0,
            checkpoint_dir: None,
            max_respawns: 4,
            kills: Vec::new(),
            net_faults: None,
            liveness: Liveness::default(),
        }
    }

    /// Sets the worker count; ranges are degree-weighted contiguous
    /// vertex slices, so shards beyond the vertex count stay empty and
    /// are not spawned.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Attaches a telemetry probe; the run then emits the identical
    /// per-round event stream a single-process [`crate::Executor`] run
    /// would, plus `shard.*` wire metrics into the probe's hub.
    #[must_use]
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Injects a seed-deterministic [`FaultPlan`], exactly like
    /// [`crate::Executor::with_faults`]. An inactive plan is a no-op.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan.is_active().then_some(plan);
        self
    }

    /// Selects how workers are hosted.
    #[must_use]
    pub fn with_backend(mut self, backend: WorkerBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Takes a full-cluster checkpoint every `k` rounds (`0` disables
    /// periodic checkpoints; round 0 is always an implicit checkpoint).
    #[must_use]
    pub fn with_checkpoint_every(mut self, k: u64) -> Self {
        self.checkpoint_every = k;
        self
    }

    /// Also writes each checkpoint to `dir` as an atomic JSON snapshot
    /// (`shard-checkpoint-<round>.json`), the shard analogue of the
    /// supervisor's phase snapshots.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.checkpoint_dir = dir;
        self
    }

    /// Caps how many times any single shard may be respawned.
    #[must_use]
    pub fn with_max_respawns(mut self, budget: usize) -> Self {
        self.max_respawns = budget;
        self
    }

    /// Injects runtime-layer shard kills (each fires once).
    #[must_use]
    pub fn with_chaos_kills(mut self, kills: Vec<ChaosKill>) -> Self {
        self.kills = kills;
        self
    }

    /// Injects a seed-deterministic *wire-level* [`NetFaultPlan`]:
    /// per-frame delay, duplication, and corruption, plus scheduled
    /// connection resets and worker hangs. An inactive plan is a no-op.
    /// Every decision is keyed by a per-connection counter of
    /// chaos-eligible frames, so the same plan replays bit-identically.
    #[must_use]
    pub fn with_net_faults(mut self, plan: NetFaultPlan) -> Self {
        self.net_faults = plan.is_active().then_some(plan);
        self
    }

    /// Overrides the coordinator's [`Liveness`] policy: connect and
    /// barrier timeouts, heartbeat cadence, and the read timeout handed
    /// to thread-backed workers.
    #[must_use]
    pub fn with_liveness(mut self, liveness: Liveness) -> Self {
        self.liveness = liveness;
        self
    }

    /// Runs `algo` across the shards until every node halts.
    ///
    /// # Errors
    ///
    /// [`ShardError::Sim`] carries exactly the [`SimError`] a
    /// single-process run would return (round budget, crashes, a fault
    /// plan that does not fit the graph); the other variants report
    /// runtime failures the recovery path could not absorb.
    pub fn run(&self, algo: WireAlgo, max_rounds: u64) -> Result<RunResult<u64>, ShardError> {
        let n = self.graph.n();
        if let Some(plan) = &self.faults {
            plan.check(n)?;
        }
        if n == 0 {
            return Ok(RunResult {
                outputs: Vec::new(),
                rounds: 0,
            });
        }
        // Start-up and shutdown are wall-clock costs outside the rounds;
        // naming them shows where a run's non-round time goes.
        let hub = self.probe.metrics();
        let started = Instant::now();
        let mut cluster = Cluster::start(self, algo)?;
        if let Some(h) = hub {
            h.histogram("shard.startup_ns").observe(elapsed_ns(started));
        }
        let result = self.drive(&mut cluster, algo, max_rounds);
        let stopping = Instant::now();
        cluster.shutdown();
        if let Some(h) = hub {
            h.histogram("shard.shutdown_ns")
                .observe(elapsed_ns(stopping));
        }
        result
    }

    #[allow(clippy::too_many_lines)]
    fn drive(
        &self,
        cluster: &mut Cluster,
        algo: WireAlgo,
        max_rounds: u64,
    ) -> Result<RunResult<u64>, ShardError> {
        let graph = self.graph;
        let n = graph.n();
        let offsets = graph.csr_offsets();
        let max_degree = graph.max_degree();
        let shard_count = cluster.ranges.len();

        // Scatter lists and pack universes, built once; per-round ghost
        // routing is then pure index arithmetic.
        let gplan = GhostPlan::build(graph, &cluster.ranges);

        let inert = FaultPlan::default();
        let plan = self.faults.as_ref().unwrap_or(&inert);
        let drop_on = plan.drops();
        let crash_sched = plan.crash_schedule();
        // The same tally as exec.rs: the emitted events must be
        // indistinguishable from an in-process run.
        let mut tally = RoundTally::new(&self.probe, EXEC_SCOPE, n, plan, false);
        let hub = self.probe.metrics();
        let h_round = hub.map(|h| h.histogram("shard.round_ns"));
        let h_barrier = hub.map(|h| h.histogram("shard.barrier_wait_ns"));

        // The implicit round-0 checkpoint: init states are computed
        // locally (init is pure), so recovery is possible before the
        // first periodic dump ever happens.
        let init_states: Vec<u64> = graph
            .vertices()
            .map(|v| {
                algo.init(&NodeCtx {
                    node: v,
                    uid: u64::from(v.0),
                    neighbors: graph.neighbors(v),
                    round: 0,
                    n,
                    max_degree,
                })
            })
            .collect();
        let seen0 = if drop_on {
            let mut seen = Vec::with_capacity(offsets[n]);
            for v in graph.vertices() {
                seen.extend(graph.neighbors(v).iter().map(|w| init_states[w.index()]));
            }
            seen
        } else {
            Vec::new()
        };
        let mut ckpt = Checkpoint {
            round: 0,
            states: init_states,
            live_bitmap: full_bitmap(n),
            seen: seen0,
            outputs: vec![None; n],
            crashed: 0,
            live_count: n,
        };
        self.persist_checkpoint(&ckpt)?;

        let mut alive = vec![true; n];
        let mut outputs: Vec<Option<u64>> = vec![None; n];
        let mut live_count = n;
        let mut crashed = 0usize;
        let mut rounds = 0u64;
        // Live owned nodes per shard, kept in lockstep with `alive`: a
        // shard at zero is idle and round trips skip it entirely.
        let ranges = cluster.ranges.clone();
        let owner = |v: u32| ranges.partition_point(|&(_, end)| end <= v);
        let count_live = |alive: &[bool]| -> Vec<usize> {
            ranges
                .iter()
                .map(|&(lo, hi)| (lo..hi).filter(|&v| alive[v as usize]).count())
                .collect()
        };
        let mut shard_live: Vec<usize> =
            ranges.iter().map(|&(lo, hi)| (hi - lo) as usize).collect();
        // Rounds already emitted to the probe. A restore rewinds
        // `rounds` but never `emitted`: replayed rounds recompute state
        // silently, so the stitched stream equals an uninterrupted one.
        let mut emitted = 0u64;
        let mut pending_ghosts: Vec<Vec<(u32, u64)>> = vec![Vec::new(); shard_count];
        let mut kills = self.kills.clone();
        // Scheduled wire faults fire once each, like chaos kills.
        let mut resets: Vec<(u64, u64)> = self
            .net_faults
            .as_ref()
            .map(|p| p.resets.clone())
            .unwrap_or_default();
        let mut hangs: Vec<(u64, u64)> = self
            .net_faults
            .as_ref()
            .map(|p| p.hangs.clone())
            .unwrap_or_default();

        while live_count > 0 {
            if rounds >= max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: max_rounds,
                    still_running: live_count,
                }
                .into());
            }
            while let Some(pos) = kills.iter().position(|k| k.after_round == rounds) {
                let kill = kills.remove(pos);
                cluster.kill_shard(kill.shard);
            }
            while let Some(pos) = resets.iter().position(|&(_, r)| r == rounds) {
                let (s, _) = resets.remove(pos);
                cluster.reset_shard(s as usize);
            }
            while let Some(pos) = hangs.iter().position(|&(_, r)| r == rounds) {
                let (s, _) = hangs.remove(pos);
                cluster.mute_shard(s as usize);
            }
            let r = rounds + 1;
            // Plan order drives event emission; the wire wants the list
            // sorted (crash application is order-independent).
            let crashes_now: Vec<u32> = crash_sched
                .get(&r)
                .map(|nodes| {
                    nodes
                        .iter()
                        .filter(|v| alive[v.index()])
                        .map(|v| v.0)
                        .collect()
                })
                .unwrap_or_default();
            let mut crashes_wire = crashes_now.clone();
            crashes_wire.sort_unstable();
            crashes_wire.dedup();
            let round_start = Instant::now();
            let active: Vec<bool> = shard_live.iter().map(|&c| c > 0).collect();
            let agg = match cluster.round_trip(
                r,
                &crashes_wire,
                &mut pending_ghosts,
                &gplan,
                &active,
                h_barrier.as_deref(),
            ) {
                Ok(agg) => agg,
                Err(TripFail::Shard(s)) => {
                    self.recover_and_report(cluster, s, &ckpt)?;
                    rounds = ckpt.round;
                    restore_volatile(
                        &ckpt,
                        &mut alive,
                        &mut outputs,
                        &mut live_count,
                        &mut crashed,
                    );
                    // A rewind can revive nodes on shards that had gone
                    // idle; recount liveness from the restored bitmap.
                    shard_live = count_live(&alive);
                    // The Restore carried every node's state, so the
                    // delta exchange restarts from a synchronized
                    // baseline with nothing pending.
                    pending_ghosts = vec![Vec::new(); shard_count];
                    continue;
                }
                Err(TripFail::Fatal(e)) => return Err(e),
            };

            let emitting = r > emitted;
            if emitting {
                tally.round_start(r, live_count, 0);
            }
            for &v in &crashes_now {
                alive[v as usize] = false;
                crashed += 1;
                live_count -= 1;
                shard_live[owner(v)] -= 1;
                if emitting {
                    tally.crash(NodeId(v));
                }
            }
            for &(v, o) in &agg.halts {
                alive[v as usize] = false;
                outputs[v as usize] = Some(o);
                live_count -= 1;
                shard_live[owner(v)] -= 1;
            }
            pending_ghosts = agg.next_ghosts;
            if emitting {
                tally.round_end(
                    agg.msgs as i64,
                    agg.halts.len(),
                    agg.dropped as i64,
                    agg.stalled as i64,
                );
                emitted = r;
            }
            rounds = r;
            if let Some(h) = &h_round {
                h.observe(elapsed_ns(round_start));
            }

            if self.checkpoint_every > 0
                && r.is_multiple_of(self.checkpoint_every)
                && live_count > 0
            {
                match cluster.checkpoint_trip(r) {
                    Ok((states, live_bitmap, seen)) => {
                        ckpt = Checkpoint {
                            round: r,
                            states,
                            live_bitmap,
                            seen,
                            outputs: outputs.clone(),
                            crashed,
                            live_count,
                        };
                        self.persist_checkpoint(&ckpt)?;
                    }
                    Err(TripFail::Shard(s)) => {
                        self.recover_and_report(cluster, s, &ckpt)?;
                        rounds = ckpt.round;
                        restore_volatile(
                            &ckpt,
                            &mut alive,
                            &mut outputs,
                            &mut live_count,
                            &mut crashed,
                        );
                        shard_live = count_live(&alive);
                        pending_ghosts = vec![Vec::new(); shard_count];
                    }
                    Err(TripFail::Fatal(e)) => return Err(e),
                }
            }
        }

        if crashed > 0 {
            return Err(SimError::Crashed { crashed, rounds }.into());
        }
        Ok(RunResult {
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("all nodes halted"))
                .collect(),
            rounds,
        })
    }

    /// Runs recovery for `failed` and surfaces every shard the cluster
    /// adopted along the way (respawn budget exhausted) as an
    /// [`Event::Degraded`] — the run continues with those ranges served
    /// in-process from the checkpoint instead of aborting.
    fn recover_and_report(
        &self,
        cluster: &mut Cluster,
        failed: usize,
        ckpt: &Checkpoint,
    ) -> Result<(), ShardError> {
        for s in cluster.recover(failed, ckpt)? {
            self.probe.emit_with(|| Event::Degraded {
                scope: "shard".to_string(),
                unit: s as u64,
                reason: format!(
                    "respawn budget of {} exhausted; range adopted in-process",
                    cluster.max_respawns
                ),
                rounds: ckpt.round,
            });
        }
        Ok(())
    }

    /// Writes `ckpt` into the checkpoint dir (see [`crate::write_atomic`]),
    /// if one is configured.
    fn persist_checkpoint(&self, ckpt: &Checkpoint) -> Result<(), ShardError> {
        let Some(dir) = &self.checkpoint_dir else {
            return Ok(());
        };
        let path = dir.join(format!("shard-checkpoint-{:04}.json", ckpt.round));
        let json = serde::json::to_string(&ckpt.to_value());
        crate::write_atomic(&path, (json + "\n").as_bytes())
            .map_err(|e| ShardError::Io(format!("cannot write checkpoint {}: {e}", path.display())))
    }
}

/// Nanoseconds since `t`, saturating.
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn full_bitmap(n: usize) -> Vec<u8> {
    let mut bm = vec![0u8; n.div_ceil(8)];
    for v in 0..n {
        bm[v / 8] |= 1 << (v % 8);
    }
    bm
}

fn restore_volatile(
    ckpt: &Checkpoint,
    alive: &mut [bool],
    outputs: &mut Vec<Option<u64>>,
    live_count: &mut usize,
    crashed: &mut usize,
) {
    for (v, a) in alive.iter_mut().enumerate() {
        *a = ckpt.live_bitmap[v / 8] & (1 << (v % 8)) != 0;
    }
    *outputs = ckpt.outputs.clone();
    *live_count = ckpt.live_count;
    *crashed = ckpt.crashed;
}

/// Checks a worker's opening frame: it must be a [`Frame::Hello`]
/// carrying exactly [`PROTO_VERSION`]. An old worker binary gets a
/// clear version-mismatch error instead of undecodable garbage later.
fn validate_hello(s: usize, hello: &Frame) -> Result<(), ShardError> {
    match hello {
        Frame::Hello { version } if *version == PROTO_VERSION => Ok(()),
        Frame::Hello { version } => Err(ShardError::Protocol(format!(
            "shard {s} speaks protocol {version}, expected {PROTO_VERSION} \
             (coordinator and worker binaries must match)"
        ))),
        other => Err(ShardError::Protocol(format!(
            "shard {s} opened with {other:?} instead of Hello"
        ))),
    }
}

/// The live worker fleet: listener, per-shard connections and hosting
/// handles, plus the cached per-shard `Init` frames that re-`Init` a
/// respawned worker without re-encoding the graph.
struct Cluster {
    listener: TcpListener,
    addr: String,
    conns: Vec<Option<FrameConn>>,
    handles: Vec<WorkerHandle>,
    respawns: Vec<usize>,
    ranges: Vec<(u32, u32)>,
    backend: WorkerBackend,
    /// Fully framed (length prefix included) `Init` bytes per shard,
    /// encoded once at startup and replayed verbatim on respawn.
    init_frames: Vec<Vec<u8>>,
    max_respawns: usize,
    meter: FrameMeter,
    liveness: Liveness,
    chaos: Option<NetFaultPlan>,
    /// Hang injection: replies from a muted shard are read and
    /// discarded, simulating a worker that is alive but wedged. Only the
    /// barrier deadline clears it (via kill + respawn).
    muted: Vec<bool>,
    /// Shards served in-process after exhausting their respawn budget
    /// (graceful degradation). `None` = still remote.
    adopted: Vec<Option<ShardState>>,
    /// Replies produced by adopted shards, drained in FIFO order —
    /// exactly the delivery order a connection would give.
    local_replies: Vec<VecDeque<Frame>>,
    /// When the coordinator last wrote to each shard; drives the idle
    /// heartbeat that keeps worker read timeouts from firing.
    last_send: Vec<Instant>,
    /// Per-connection counters of chaos-eligible frames (reset on every
    /// attach): the chaos plan keys on these, never on wall-clock-driven
    /// traffic like heartbeats, so decisions replay bit-identically.
    chaos_tx: Vec<u64>,
    chaos_rx: Vec<u64>,
    c_init_bytes: Option<MetricCounter>,
    c_ghost_sent: Option<MetricCounter>,
    c_ghost_suppressed: Option<MetricCounter>,
    c_adopted: Option<MetricCounter>,
}

impl Cluster {
    /// Binds the loopback listener, spawns one worker per non-empty
    /// partition range, and completes the Hello/Init handshake with
    /// each. Every shard is connected and sent its `Init` before any
    /// `InitAck` is awaited, so each worker's graph decode and state
    /// build overlaps the next shard's handshake.
    fn start(exec: &ShardedExecutor, algo: WireAlgo) -> Result<Cluster, ShardError> {
        let graph = exec.graph;
        let all: Vec<NodeId> = graph.vertices().collect();
        let segs = segments_weighted(&all, exec.shards, graph.csr_offsets());
        let ranges: Vec<(u32, u32)> = segs
            .iter()
            .filter(|seg| !seg.is_empty())
            .map(|seg| (seg[0].0, seg[seg.len() - 1].0 + 1))
            .collect();
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| ShardError::Io(format!("cannot bind loopback listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ShardError::Io(format!("cannot read listener address: {e}")))?
            .to_string();
        listener
            .set_nonblocking(true)
            .map_err(|e| ShardError::Io(format!("cannot configure listener: {e}")))?;
        let meter = exec
            .probe
            .metrics()
            .map_or_else(FrameMeter::disabled, |hub| FrameMeter::new(hub));
        let algo_spec = algo.to_string();
        let faults_bytes = exec
            .faults
            .as_ref()
            .map(encode_fault_plan)
            .unwrap_or_default();
        let drop_on = exec.faults.as_ref().is_some_and(FaultPlan::drops);
        // The full-graph payload is shared by every shard that picks
        // it; each shard takes its sub-topology instead when that
        // encodes smaller.
        let full_payload = encode_full(graph);
        let mut init_frames = Vec::with_capacity(ranges.len());
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            let sub_payload = encode_sub(graph, lo as usize, hi as usize, drop_on);
            let graph_payload = if sub_payload.len() < full_payload.len() {
                sub_payload
            } else {
                full_payload.clone()
            };
            let init = Frame::Init {
                shard: s as u32,
                shards: ranges.len() as u32,
                start: lo,
                end: hi,
                algo: algo_spec.clone(),
                faults: faults_bytes.clone(),
                graph: graph_payload,
            };
            let mut framed = Vec::new();
            // The cached bytes always open a fresh connection, so they
            // carry sequence 0 on every (re)spawn.
            frame_bytes(&init.encode(), 0, &mut framed)
                .map_err(|e| ShardError::Io(format!("shard {s} init frame: {e}")))?;
            init_frames.push(framed);
        }
        let counters = exec.probe.metrics().map(|h| {
            (
                h.counter("shard.init_bytes"),
                h.counter("shard.ghost_updates_sent"),
                h.counter("shard.ghost_suppressed"),
                h.counter("shard.adopted_ranges"),
            )
        });
        let (c_init_bytes, c_ghost_sent, c_ghost_suppressed, c_adopted) = match counters {
            Some((a, b, c, d)) => (Some(a), Some(b), Some(c), Some(d)),
            None => (None, None, None, None),
        };
        let shard_count = ranges.len();
        let mut cluster = Cluster {
            listener,
            addr,
            conns: (0..shard_count).map(|_| None).collect(),
            handles: (0..shard_count).map(|_| WorkerHandle::Thread).collect(),
            respawns: vec![0; shard_count],
            ranges,
            backend: exec.backend.clone(),
            init_frames,
            max_respawns: exec.max_respawns,
            meter,
            liveness: exec.liveness,
            chaos: exec.net_faults.clone(),
            muted: vec![false; shard_count],
            adopted: (0..shard_count).map(|_| None).collect(),
            local_replies: (0..shard_count).map(|_| VecDeque::new()).collect(),
            last_send: vec![Instant::now(); shard_count],
            chaos_tx: vec![0; shard_count],
            chaos_rx: vec![0; shard_count],
            c_init_bytes,
            c_ghost_sent,
            c_ghost_suppressed,
            c_adopted,
        };
        // Spawn and accept stay strictly one shard at a time, so the
        // connection accepted for shard `s` is the one `handles[s]`
        // opened (`kill_shard` relies on the pairing).
        let mut deadlines = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            cluster.handles[s] = cluster.spawn_worker()?;
            deadlines.push(cluster.connect(s)?);
        }
        for (s, deadline) in deadlines.into_iter().enumerate() {
            cluster.await_ack(s, deadline)?;
        }
        Ok(cluster)
    }

    fn spawn_worker(&self) -> Result<WorkerHandle, ShardError> {
        match &self.backend {
            WorkerBackend::Threads => {
                let addr = self.addr.clone();
                let read_timeout = self.liveness.worker_read_timeout;
                // Worker threads exit when their connection drops; the
                // handle is not joined (shutdown closes every socket).
                std::thread::spawn(move || {
                    let _ = super::worker::serve_connect_with(&addr, read_timeout);
                });
                Ok(WorkerHandle::Thread)
            }
            WorkerBackend::Custom(run) => {
                let addr = self.addr.clone();
                let run = Arc::clone(run);
                std::thread::spawn(move || run(addr));
                Ok(WorkerHandle::Thread)
            }
            WorkerBackend::Process { program, args } => std::process::Command::new(program)
                .args(args)
                .arg(&self.addr)
                .stdin(std::process::Stdio::null())
                .stdout(std::process::Stdio::null())
                .spawn()
                .map(WorkerHandle::Process)
                .map_err(|e| {
                    ShardError::Io(format!("cannot spawn worker {}: {e}", program.display()))
                }),
        }
    }

    /// The first half of shard `s`'s handshake: accepts the next
    /// incoming worker connection, reads its `Hello` and sends the
    /// cached pre-framed `Init` bytes. Returns the connect deadline,
    /// which [`Cluster::await_ack`] keeps for the rest of the handshake.
    fn connect(&mut self, s: usize) -> Result<Instant, ShardError> {
        let timeout = self.liveness.connect_timeout;
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        let stream: TcpStream = loop {
            match self.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(ShardError::Io(format!(
                            "worker for shard {s} did not connect within {timeout:?}"
                        )));
                    }
                    wire::backoff(&mut spins);
                }
                Err(e) => return Err(ShardError::Io(format!("accept failed: {e}"))),
            }
        };
        stream
            .set_nodelay(true)
            .map_err(|e| ShardError::Io(format!("cannot configure worker socket: {e}")))?;
        let mut conn = FrameConn::new(stream)
            .map_err(|e| ShardError::Io(format!("cannot configure worker socket: {e}")))?;
        let meter = self.meter.clone();
        // The whole handshake shares the connect deadline: a worker that
        // connects and then wedges mid-handshake is detected, not waited
        // on forever.
        let hello = conn
            .recv_deadline(&meter, Some(deadline))
            .and_then(|p| Frame::decode(&p))
            .map_err(|e| ShardError::Io(format!("shard {s} handshake failed: {e}")))?;
        validate_hello(s, &hello)?;
        conn.send_framed(&self.init_frames[s], &meter)
            .map_err(|e| ShardError::Io(format!("shard {s} init send failed: {e}")))?;
        if let Some(c) = &self.c_init_bytes {
            c.add(self.init_frames[s].len() as u64);
        }
        self.conns[s] = Some(conn);
        Ok(deadline)
    }

    /// The second half of shard `s`'s handshake: waits for its
    /// `InitAck` until `deadline`. On failure the half-open connection
    /// is dropped.
    fn await_ack(&mut self, s: usize, deadline: Instant) -> Result<(), ShardError> {
        let meter = self.meter.clone();
        let mut conn = self.conns[s]
            .take()
            .ok_or_else(|| ShardError::Io(format!("shard {s} is not connected")))?;
        match conn
            .recv_deadline(&meter, Some(deadline))
            .and_then(|p| Frame::decode(&p))
        {
            Ok(Frame::InitAck { shard }) if shard as usize == s => {}
            Ok(Frame::Error { message }) => {
                return Err(ShardError::Protocol(format!(
                    "shard {s} init failed: {message}"
                )))
            }
            Ok(other) => {
                return Err(ShardError::Protocol(format!(
                    "shard {s} replied {other:?} instead of InitAck"
                )))
            }
            Err(e) => return Err(ShardError::Io(format!("shard {s} init ack failed: {e}"))),
        }
        self.conns[s] = Some(conn);
        // Fresh connection, fresh chaos/liveness state: the plan keys on
        // per-connection frame counters, and the worker just heard from
        // us (the Init frame).
        self.muted[s] = false;
        self.chaos_tx[s] = 0;
        self.chaos_rx[s] = 0;
        self.last_send[s] = Instant::now();
        Ok(())
    }

    /// Sends an encoded payload to shard `s` — through its connection
    /// (with any chaos the plan injects), or straight into in-process
    /// frame handling for an adopted shard.
    fn send_payload(&mut self, s: usize, payload: &[u8]) -> io::Result<()> {
        if self.adopted[s].is_some() {
            return self.process_local(s, payload);
        }
        let meter = self.meter.clone();
        let fault = self.next_tx_fault(s);
        let conn = self.conns[s]
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "shard disconnected"))?;
        let sent = conn.send_with(payload, &meter, &fault);
        self.last_send[s] = Instant::now();
        sent
    }

    /// Chaos decision for the next coordinator→worker frame on shard
    /// `s`'s connection, keyed by the per-connection counter of
    /// chaos-eligible frames. Heartbeats and the cached `Init` bytes
    /// never pass through here, so wall-clock-driven keepalives cannot
    /// shift the decision stream.
    fn next_tx_fault(&mut self, s: usize) -> TxFault {
        let Some(plan) = &self.chaos else {
            return TxFault::default();
        };
        let f = self.chaos_tx[s];
        self.chaos_tx[s] += 1;
        TxFault {
            delay: plan.delays(s, NetDir::Send, f).then_some(NET_DELAY),
            dup: plan.dups(s, NetDir::Send, f),
            corrupt: plan.corrupts(s, NetDir::Send, f),
        }
    }

    /// Chaos decision for a frame received from shard `s`: an injected
    /// receive delay stalls the coordinator briefly; injected receive
    /// corruption discards the frame and fails the shard — exactly what
    /// a corrupted wire frame does via the checksum.
    fn rx_fault(&mut self, s: usize) -> Option<TripFail> {
        let plan = self.chaos.as_ref()?;
        let f = self.chaos_rx[s];
        self.chaos_rx[s] += 1;
        if plan.delays(s, NetDir::Recv, f) {
            std::thread::sleep(NET_DELAY);
        }
        plan.corrupts(s, NetDir::Recv, f)
            .then_some(TripFail::Shard(s))
    }

    /// Serves one frame of an adopted shard's protocol in-process,
    /// queueing the reply (when the frame warrants one) in the order a
    /// connection would deliver it.
    fn process_local(&mut self, s: usize, payload: &[u8]) -> io::Result<()> {
        let frame = Frame::decode(payload)?;
        let state = self.adopted[s].as_mut().expect("adopted shard has state");
        let reply = match frame {
            Frame::RoundGo {
                round,
                crashes,
                ghosts,
            } => state.run_round(round, &crashes, &ghosts)?,
            Frame::DumpReq { round } => state.dump(round),
            Frame::Restore {
                round,
                states,
                live,
                seen,
            } => state.restore(round, states, &live, seen)?,
            Frame::Shutdown | Frame::Heartbeat => return Ok(()),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("adopted shard {s} cannot serve {other:?}"),
                ))
            }
        };
        self.local_replies[s].push_back(reply);
        Ok(())
    }

    /// Receives one frame from shard `s` (bounded wait), or pops the
    /// next queued in-process reply for an adopted shard.
    fn recv(&mut self, s: usize, deadline: Option<Instant>) -> io::Result<Frame> {
        if self.adopted[s].is_some() {
            return self.local_replies[s].pop_front().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "adopted shard has no queued reply",
                )
            });
        }
        let meter = self.meter.clone();
        let conn = self.conns[s]
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "shard disconnected"))?;
        Frame::decode(&conn.recv_deadline(&meter, deadline)?)
    }

    /// Sends a `Heartbeat` to every connected shard the coordinator has
    /// not written to for `heartbeat_every`, so idle-elided shards and
    /// shards behind a long barrier never trip their read timeout.
    /// Heartbeats bypass both the meter and the chaos plan: they are
    /// wall-clock-driven, and must perturb neither the deterministic
    /// byte counters nor the chaos decision stream.
    fn heartbeat_idle(&mut self) {
        let quiet = self.liveness.heartbeat_every;
        let payload = Frame::Heartbeat.encode();
        for s in 0..self.ranges.len() {
            if self.adopted[s].is_some() || self.last_send[s].elapsed() < quiet {
                continue;
            }
            if let Some(conn) = self.conns[s].as_mut() {
                // A failed heartbeat is not an error here: the next real
                // exchange detects the corpse and recovers it.
                let _ = conn.send(&payload, &FrameMeter::disabled());
                self.last_send[s] = Instant::now();
            }
        }
    }

    /// Drains one reply frame from every shard with `want[s]` set, by
    /// readiness-polling all wanted connections — a shard that answers
    /// late never blocks reading the ones that answered early. Unwanted
    /// shards (idle, not kicked this trip) stay `None`. Adopted shards
    /// answer from their in-process reply queue.
    ///
    /// The wait is bounded by `Liveness::barrier_timeout`: past it, the
    /// first still-unanswered shard is declared hung (alive but wedged —
    /// a dead one would have failed its connection already) and handed
    /// to recovery like any other failure.
    fn collect_replies(&mut self, want: &[bool]) -> Result<Vec<Option<Frame>>, TripFail> {
        let meter = self.meter.clone();
        let shard_count = self.ranges.len();
        let mut results: Vec<Option<Frame>> = (0..shard_count).map(|_| None).collect();
        let target = want.iter().filter(|&&w| w).count();
        let deadline = self.liveness.barrier_timeout.map(|t| Instant::now() + t);
        let mut got = 0usize;
        let mut spins = 0u32;
        while got < target {
            let mut progress = false;
            for s in 0..shard_count {
                if !want[s] || results[s].is_some() {
                    continue;
                }
                if self.adopted[s].is_some() {
                    if let Some(frame) = self.local_replies[s].pop_front() {
                        results[s] = Some(frame);
                        got += 1;
                        progress = true;
                    }
                    continue;
                }
                let Some(conn) = self.conns[s].as_mut() else {
                    return Err(TripFail::Shard(s));
                };
                match conn.poll(&meter) {
                    Ok(Some(payload)) => {
                        if self.muted[s] {
                            // Injected hang: the reply arrived, but the
                            // coordinator acts as if it never did; only
                            // the barrier deadline clears this state.
                            continue;
                        }
                        if let Some(fail) = self.rx_fault(s) {
                            return Err(fail);
                        }
                        match Frame::decode(&payload) {
                            Ok(frame) => {
                                results[s] = Some(frame);
                                got += 1;
                                progress = true;
                            }
                            // Undecodable bytes mean the shard is gone or
                            // corrupt either way; recover it.
                            Err(_) => return Err(TripFail::Shard(s)),
                        }
                    }
                    Ok(None) => {}
                    // A muted shard's transport errors are swallowed too:
                    // the hang simulation ends at the deadline, not early.
                    Err(_) if self.muted[s] => {}
                    Err(_) => return Err(TripFail::Shard(s)),
                }
            }
            if progress {
                spins = 0;
            } else {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        let hung = (0..shard_count)
                            .find(|&s| want[s] && results[s].is_none())
                            .expect("an unanswered shard exists while under target");
                        return Err(TripFail::Shard(hung));
                    }
                }
                self.heartbeat_idle();
                // Single-core friendliness: let worker threads run, and
                // back off (bounded, jittered) once the barrier is
                // clearly not ready.
                wire::backoff(&mut spins);
            }
        }
        Ok(results)
    }

    /// One synchronous round: kick every **active** shard with its
    /// packed ghost deltas, then hold the barrier until each kicked
    /// shard's `RoundDone` arrives, merging in shard order.
    ///
    /// An idle shard — every owned node halted or crashed — is elided
    /// entirely: no `RoundGo`, no `RoundDone`, zero wire bytes. That is
    /// semantically free because dead nodes never step and contribute
    /// zero to every aggregate, and it is what keeps the long
    /// few-live-nodes tail of a coloring run cheap: a round's cost
    /// tracks the shards that still have work, not the fleet size.
    fn round_trip(
        &mut self,
        round: u64,
        crashes: &[u32],
        pending: &mut [Vec<(u32, u64)>],
        gplan: &GhostPlan,
        active: &[bool],
        h_barrier: Option<&telemetry::Histogram>,
    ) -> Result<RoundAgg, TripFail> {
        let shard_count = self.ranges.len();
        let mut ghost_sent = 0u64;
        for s in 0..shard_count {
            if !active[s] {
                // Updates routed at an idle shard are dropped, not
                // sent: nothing there will ever read a ghost again.
                pending[s].clear();
                continue;
            }
            let updates = std::mem::take(&mut pending[s]);
            ghost_sent += updates.len() as u64;
            let go = Frame::RoundGo {
                round,
                crashes: crashes.to_vec(),
                ghosts: GhostUpdates::pack(updates, &gplan.ghost_ids[s]),
            };
            if self.send_payload(s, &go.encode()).is_err() {
                return Err(TripFail::Shard(s));
            }
        }
        if let Some(c) = &self.c_ghost_sent {
            c.add(ghost_sent);
        }
        let barrier_start = Instant::now();
        let replies = self.collect_replies(active)?;
        let mut agg = RoundAgg {
            next_ghosts: vec![Vec::new(); shard_count],
            ..RoundAgg::default()
        };
        let mut suppressed_total = 0u64;
        for (s, frame) in replies.into_iter().enumerate() {
            let Some(frame) = frame else {
                continue; // idle shard, not kicked
            };
            match frame {
                Frame::RoundDone {
                    round: echo,
                    msgs,
                    dropped,
                    stalled,
                    suppressed,
                    halts,
                    boundary,
                } => {
                    if echo != round {
                        return Err(TripFail::Fatal(ShardError::Protocol(format!(
                            "shard {s} answered round {echo} during round {round}"
                        ))));
                    }
                    agg.msgs += msgs;
                    agg.dropped += dropped;
                    agg.stalled += stalled;
                    suppressed_total += suppressed;
                    agg.halts.extend(halts);
                    // Scatter the changed boundary states to every shard
                    // reading them; a malformed delta is treated like a
                    // dead shard (respawn + restore resynchronizes).
                    let Ok(resolved) = boundary.resolve(&gplan.boundary_ids[s]) else {
                        return Err(TripFail::Shard(s));
                    };
                    for (idx, state) in resolved {
                        let node = gplan.boundary_ids[s][idx];
                        for &t in &gplan.readers[s][idx] {
                            agg.next_ghosts[t].push((node, state));
                        }
                    }
                }
                Frame::Error { message } => {
                    return Err(TripFail::Fatal(ShardError::Protocol(format!(
                        "shard {s} reported: {message}"
                    ))))
                }
                other => {
                    return Err(TripFail::Fatal(ShardError::Protocol(format!(
                        "shard {s} sent {other:?} instead of RoundDone"
                    ))))
                }
            }
        }
        if let Some(c) = &self.c_ghost_suppressed {
            c.add(suppressed_total);
        }
        if let Some(h) = h_barrier {
            h.observe(elapsed_ns(barrier_start));
        }
        Ok(agg)
    }

    /// Collects a full-cluster dump after round `round`, returning the
    /// assembled `(states, live bitmap, drop cache)`.
    #[allow(clippy::type_complexity)]
    fn checkpoint_trip(&mut self, round: u64) -> Result<(Vec<u64>, Vec<u8>, Vec<u64>), TripFail> {
        // Checkpoints poll every shard, idle ones included: an idle
        // shard's states are still part of the snapshot. The request
        // names the round because an idle shard, never kicked, has no
        // local round clock to echo.
        let dump_req = Frame::DumpReq { round }.encode();
        for s in 0..self.ranges.len() {
            if self.send_payload(s, &dump_req).is_err() {
                return Err(TripFail::Shard(s));
            }
        }
        let n = self.ranges.last().map_or(0, |&(_, end)| end as usize);
        let mut states = Vec::with_capacity(n);
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        let mut seen = Vec::new();
        let all = vec![true; self.ranges.len()];
        for (s, frame) in self.collect_replies(&all)?.into_iter().enumerate() {
            let Some(frame) = frame else {
                continue;
            };
            match frame {
                Frame::Dump {
                    round: echo,
                    states: shard_states,
                    live,
                    seen: shard_seen,
                } => {
                    if echo != round {
                        return Err(TripFail::Fatal(ShardError::Protocol(format!(
                            "shard {s} dumped round {echo} during checkpoint of round {round}"
                        ))));
                    }
                    states.extend(shard_states);
                    for v in live {
                        bitmap[v as usize / 8] |= 1 << (v as usize % 8);
                    }
                    seen.extend(shard_seen);
                }
                other => {
                    return Err(TripFail::Fatal(ShardError::Protocol(format!(
                        "shard {s} sent {other:?} instead of Dump"
                    ))))
                }
            }
        }
        Ok((states, bitmap, seen))
    }

    /// Kills one shard at the transport/process level (the chaos hook):
    /// SIGKILL for process workers, a socket shutdown for thread
    /// workers. The next round trip will detect the corpse and recover.
    /// A no-op for adopted shards — there is nothing left to kill.
    fn kill_shard(&mut self, s: usize) {
        if s >= self.ranges.len() || self.adopted[s].is_some() {
            return;
        }
        self.muted[s] = false;
        if let WorkerHandle::Process(child) = &mut self.handles[s] {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(conn) = &self.conns[s] {
            conn.shutdown();
        }
        self.conns[s] = None;
    }

    /// Injected connection reset: drops shard `s`'s socket cold without
    /// touching the worker or the connection slot — the next frame
    /// exchange fails and drives the ordinary recovery path, exactly
    /// like a mid-run network partition.
    fn reset_shard(&mut self, s: usize) {
        if s >= self.ranges.len() || self.adopted[s].is_some() {
            return;
        }
        if let Some(conn) = &self.conns[s] {
            conn.shutdown();
        }
    }

    /// Injected hang: the worker stays alive and keeps answering, but
    /// the coordinator discards everything it says until the barrier
    /// deadline declares it hung and recovery respawns it.
    fn mute_shard(&mut self, s: usize) {
        if s < self.ranges.len() && self.adopted[s].is_none() {
            self.muted[s] = true;
        }
    }

    /// Respawns shard `s` and rewinds the whole cluster to `ckpt`,
    /// retrying (within the per-shard respawn budget) if more shards
    /// fail during the respawn handshake or the restore itself. A shard
    /// that exhausts its budget is *adopted* instead of failing the run:
    /// the coordinator rebuilds its state in-process from the cached
    /// `Init` frame and serves its range itself from then on. Returns
    /// the shards this recovery adopted.
    fn recover(&mut self, failed: usize, ckpt: &Checkpoint) -> Result<Vec<usize>, ShardError> {
        let mut adopted_now = Vec::new();
        let mut pending = vec![failed];
        // Shards that already acked *this* recovery's restore. A shard
        // must never be sent the same `Restore` twice: the duplicate ack
        // would linger in its connection and surface later where the
        // round loop expects a `RoundDone`.
        let mut restored = vec![false; self.ranges.len()];
        loop {
            while let Some(s) = pending.pop() {
                if self.adopted[s].is_some() {
                    // In-process handling cannot die of transport
                    // failures; reaching here is a logic error.
                    return Err(ShardError::Protocol(format!(
                        "adopted shard {s} failed while served in-process"
                    )));
                }
                restored[s] = false;
                self.respawns[s] += 1;
                if self.respawns[s] > self.max_respawns {
                    self.adopt(s)?;
                    adopted_now.push(s);
                    continue;
                }
                self.kill_shard(s);
                // A worker that dies mid-handshake (or never connects)
                // burns one respawn and is retried, never hung on.
                let attached = self.spawn_worker().and_then(|handle| {
                    self.handles[s] = handle;
                    let deadline = self.connect(s)?;
                    self.await_ack(s, deadline)
                });
                if attached.is_err() {
                    pending.push(s);
                }
            }
            match self.restore_all(ckpt, &mut restored) {
                Ok(()) => return Ok(adopted_now),
                Err(TripFail::Shard(s)) => pending.push(s),
                Err(TripFail::Fatal(e)) => return Err(e),
            }
        }
    }

    /// Graceful degradation: rebuilds shard `s`'s worker state from the
    /// cached pre-framed `Init` bytes and marks the shard adopted. From
    /// here on `send_payload`/`collect_replies` route its frames through
    /// [`ShardState`] directly — no socket, no process, no respawns.
    fn adopt(&mut self, s: usize) -> Result<(), ShardError> {
        self.kill_shard(s);
        // The cached bytes are a full v3 frame: length prefix, sequence
        // varint, 4 checksum bytes, then the Init payload.
        let framed = &self.init_frames[s];
        let mut d = Dec::new(framed);
        let init = d
            .u64()
            .and_then(|_| d.u64())
            .map(|_| framed.len() - d.remaining() + 4)
            .and_then(|skip| Frame::decode(&framed[skip..]))
            .map_err(|e| {
                ShardError::Protocol(format!("shard {s} cached init frame unreadable: {e}"))
            })?;
        let Frame::Init {
            start,
            end,
            algo,
            faults,
            graph,
            ..
        } = init
        else {
            return Err(ShardError::Protocol(format!(
                "shard {s} cached init decoded to {init:?}"
            )));
        };
        let state = ShardState::build(start, end, &algo, &faults, &graph)
            .map_err(|e| ShardError::Protocol(format!("shard {s} adoption failed: {e}")))?;
        self.adopted[s] = Some(state);
        self.local_replies[s].clear();
        if let Some(c) = &self.c_adopted {
            c.incr();
        }
        Ok(())
    }

    /// Sends a `Restore` and waits for its `RestoreAck` shard by shard,
    /// discarding any stale pre-failure frames still in flight (TCP is
    /// FIFO per connection, so everything before the ack is stale).
    /// Shards already marked in `restored` are skipped: a second
    /// `Restore` for the same checkpoint would draw a second ack that
    /// later reads as a bogus reply to `RoundGo`. Send and ack are kept
    /// in one loop for the same reason — if a later shard fails after an
    /// earlier one was merely *sent* to, the retry could not tell
    /// "restored" from "restore in flight".
    fn restore_all(&mut self, ckpt: &Checkpoint, restored: &mut [bool]) -> Result<(), TripFail> {
        // Encode once; the same payload goes to every shard.
        let payload = Frame::Restore {
            round: ckpt.round,
            states: ckpt.states.clone(),
            live: ckpt.live_bitmap.clone(),
            seen: ckpt.seen.clone(),
        }
        .encode();
        #[allow(clippy::needless_range_loop)] // `restored[s] = true` below needs the index
        for s in 0..self.ranges.len() {
            if restored[s] {
                continue;
            }
            if self.send_payload(s, &payload).is_err() {
                return Err(TripFail::Shard(s));
            }
            // Each ack gets its own bounded wait — restoring is
            // handshake-like traffic, so the connect timeout governs it.
            let deadline = Some(Instant::now() + self.liveness.connect_timeout);
            loop {
                match self.recv(s, deadline) {
                    Ok(Frame::RestoreAck { round }) if round == ckpt.round => {
                        restored[s] = true;
                        break;
                    }
                    Ok(Frame::RoundDone { .. } | Frame::Dump { .. } | Frame::RestoreAck { .. }) => {
                        // Stale answer from before the failure; discard.
                    }
                    Ok(Frame::Error { message }) => {
                        return Err(TripFail::Fatal(ShardError::Protocol(format!(
                            "shard {s} failed to restore: {message}"
                        ))))
                    }
                    Ok(other) => {
                        return Err(TripFail::Fatal(ShardError::Protocol(format!(
                            "shard {s} sent {other:?} during restore"
                        ))))
                    }
                    Err(_) => return Err(TripFail::Shard(s)),
                }
            }
        }
        Ok(())
    }

    /// Best-effort clean teardown: a `Shutdown` frame per live shard,
    /// then reap process workers (kill any that ignore the frame).
    fn shutdown(&mut self) {
        let payload = Frame::Shutdown.encode();
        for s in 0..self.ranges.len() {
            let _ = self.send_payload(s, &payload);
        }
        self.conns.iter_mut().for_each(|c| *c = None);
        for handle in &mut self.handles {
            if let WorkerHandle::Process(child) = handle {
                let deadline = Instant::now() + Duration::from_secs(5);
                let mut spins = 0u32;
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => wire::backoff(&mut spins),
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_mismatch_is_a_clear_protocol_error() {
        validate_hello(
            3,
            &Frame::Hello {
                version: PROTO_VERSION,
            },
        )
        .unwrap();
        let err = validate_hello(3, &Frame::Hello { version: 1 }).unwrap_err();
        match err {
            ShardError::Protocol(msg) => {
                assert!(msg.contains("protocol 1"), "{msg}");
                assert!(msg.contains(&format!("expected {PROTO_VERSION}")), "{msg}");
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
        assert!(validate_hello(0, &Frame::Shutdown).is_err());
    }
}
