//! Structured run traces for the Δ-coloring pipeline.
//!
//! The crate is deliberately tiny and dependency-light: a [`Probe`] is a
//! cheaply cloneable handle that is either *disabled* (every operation is
//! a branch on `None`) or carries a shared [`Sink`] receiving structured
//! [`Event`]s. Instrumented code never formats strings or allocates on
//! the disabled path — use [`Probe::emit_with`] so event construction is
//! lazy.
//!
//! Three sinks cover the use cases in this workspace:
//!
//! * [`NullSink`] — discards events; used by the overhead benchmark to
//!   show instrumentation is free when nobody listens.
//! * [`RecordingSink`] — collects events in memory for tests and for the
//!   `--profile` / `--json` reporting paths.
//! * [`JsonlSink`] — writes one JSON object per event, the on-disk trace
//!   format documented in `docs/OBSERVABILITY.md`.
//!
//! Phase structure is reported through [`Span`]s (wall-clock + rounds
//! charged, closed by the round ledger that owns them), per-round series
//! through one [`Event::Round`] per simulated round, and whole-run totals
//! through a [`MetricsHub`].

pub mod event;
pub mod metrics;
pub mod probe;
pub mod sink;

pub use event::{ChargeKind, Event, FaultKind};
pub use metrics::{
    Histogram, MetricCounter, MetricsHub, Watermark, WorkerLane, WorkerLaneSnapshot,
    METRICS_SCHEMA_VERSION,
};
pub use probe::{Probe, Span};
pub use sink::{FanoutSink, FlightRecorder, JsonlSink, NullSink, RecordingSink, Sink};
