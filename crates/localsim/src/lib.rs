//! A synchronous simulator for the LOCAL model of distributed computing.
//!
//! In the LOCAL model (\[Lin92\]) a communication network is an `n`-node
//! graph; computation proceeds in synchronous rounds in which every node
//! exchanges *unbounded* messages with its neighbors and performs unbounded
//! local computation. The complexity measure is the number of rounds until
//! every node has produced its output.
//!
//! Because messages are unbounded, a node may always transmit its entire
//! local state; any LOCAL algorithm can be written in the
//! *state-exchange* form this crate executes: in each round every node
//! reads the current state of each neighbor and computes its next state (or
//! halts with an output). [`Executor`] runs such a [`LocalAlgorithm`] over a
//! [`graphgen::Graph`] with double-buffered states — all nodes step against
//! the *previous* round's states, exactly matching synchronous message
//! delivery — and counts the rounds. Every executor steps each round on
//! the calling thread, in ascending node order (`docs/PERFORMANCE.md`
//! records why there is no parallel stepping path).
//!
//! Composite algorithms charge their subroutine costs to a [`RoundLedger`],
//! including `O(1)`-local steps (constant-radius computations the model
//! allows for free beyond the communication needed to collect the ball) and
//! virtual-graph executions (which multiply rounds by a constant dilation).
//!
//! # Example: every node halts with the maximum id in its 1-ball
//!
//! ```
//! use graphgen::{Graph, NodeId};
//! use localsim::{Executor, LocalAlgorithm, NodeCtx, Transition};
//!
//! struct MaxOfBall;
//!
//! impl LocalAlgorithm for MaxOfBall {
//!     type State = u64;
//!     type Output = u64;
//!
//!     fn init(&self, ctx: &NodeCtx) -> u64 {
//!         ctx.uid
//!     }
//!
//!     fn step(
//!         &self,
//!         ctx: &NodeCtx,
//!         state: &u64,
//!         neighbors: &[u64],
//!     ) -> Transition<u64, u64> {
//!         let _ = ctx;
//!         Transition::Halt(neighbors.iter().copied().chain([*state]).max().unwrap())
//!     }
//! }
//!
//! let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
//! let run = Executor::new(&g).run(&MaxOfBall, 10)?;
//! assert_eq!(run.rounds, 1);
//! assert_eq!(run.outputs[1], 2); // node 1 sees ids {0, 1, 2}
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod congest;
mod exec;
mod faults;
mod kernel;
mod ledger;
mod msg;
mod par;
pub mod pool;
pub mod shard;
mod tally;

pub use congest::{CongestError, CongestExecutor, CongestResult, RoundBits};
pub use exec::{
    Executor, LocalAlgorithm, NodeCtx, RunResult, SimError, Timed, Transition, EXEC_SCOPE,
};
pub use faults::FaultPlan;
pub use ledger::{LedgerEntry, RoundLedger};
pub use msg::{broadcast, MessageExecutor, MessageProgram, MsgTransition, Outgoing, MSG_SCOPE};
pub use par::{default_threads, set_default_threads};
// Internal partitioning helper, re-exported (hidden) so the partition
// property suite in `tests/partition.rs` can pin its balance guarantee.
#[doc(hidden)]
pub use par::segments_weighted;
pub use pool::{lease as pool_lease, PoolLease, WorkerPool};
pub use shard::{
    verify_wire_coloring, ChaosKill, Liveness, NetDir, NetFaultPlan, ShardError, ShardedExecutor,
    WireAlgo, WorkerBackend,
};

/// Writes `bytes` to `path` atomically and durably: into `<path>.tmp`
/// first, which is synced to disk, then renamed over `path`, after which
/// the parent directory is synced too (on Unix). A kill mid-write never
/// leaves a torn file under the final name, and once this returns `Ok`
/// the new file survives a power cut as well. Creates missing parent
/// directories. Every checkpoint, snapshot and repro bundle in the
/// workspace is written through here.
///
/// ```
/// let dir = std::env::temp_dir().join(format!("write-atomic-{}", std::process::id()));
/// let path = dir.join("sub/out.json");
/// localsim::write_atomic(&path, b"{}\n")?;
/// assert_eq!(std::fs::read(&path)?, b"{}\n");
/// assert!(!dir.join("sub/out.json.tmp").exists());
/// std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), std::io::Error>(())
/// ```
///
/// # Errors
///
/// Any I/O error from creating the directory, writing, or renaming.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    // `Path::new("f").parent()` is `Some("")`: the current directory.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    // The rename is an update of the directory, which has its own sync.
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

// Re-exported so simulator users can attach probes without naming the
// telemetry crate explicitly.
pub use telemetry::{
    ChargeKind, Event, FanoutSink, FaultKind, FlightRecorder, Histogram, JsonlSink, MetricCounter,
    MetricsHub, NullSink, Probe, RecordingSink, Sink, Watermark, WorkerLaneSnapshot,
    METRICS_SCHEMA_VERSION,
};
