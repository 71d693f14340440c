//! A sharded, multi-process backend for the LOCAL simulator.
//!
//! [`ShardedExecutor`] partitions the CSR graph into contiguous,
//! degree-weighted vertex ranges and runs each range in its own worker
//! (an OS process for `delta-color shard-serve`, or an in-process thread
//! for tests and benchmarks), connected to a coordinator over
//! length-prefixed TCP frames on loopback. Interior edges stay local to
//! their shard; only boundary-node state updates cross the wire each
//! round, under an epoch barrier that mirrors [`crate::pool`]'s clock
//! (`RoundGo` = epoch kick, all-`RoundDone` = barrier).
//!
//! The backend sits *behind* the existing executor semantics: given the
//! same graph, algorithm, and [`crate::FaultPlan`], an `N`-shard run
//! produces bit-identical outputs, round counts, and normalized
//! telemetry event streams as [`crate::Executor`] — including after a
//! worker is killed mid-run and resumed from a checkpoint (states are
//! pure functions of the round, never of hidden RNG position, so replay
//! re-derives identical transitions). `docs/DISTRIBUTED.md` documents
//! the wire format, partitioning, barrier and restart contracts, and the
//! `shard.*` metric names.

mod algo;
mod coord;
mod netfault;
mod proto;
mod topology;
mod wire;
pub mod worker;

pub use algo::{verify_wire_coloring, WireAlgo};
pub use coord::{ChaosKill, ShardError, ShardedExecutor, WorkerBackend};
pub use netfault::{Liveness, NetDir, NetFaultPlan, NET_DELAY};
pub use proto::{Frame, GhostUpdates, PROTO_VERSION};
pub use wire::{read_frame, write_frame, FrameMeter, FrameSeq, TxFault, MAX_FRAME};
pub use worker::{serve, serve_connect, serve_connect_with, DEFAULT_READ_TIMEOUT};
