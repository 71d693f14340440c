//! Lock-cheap process metrics: counters, watermark gauges, log₂-bucketed
//! histograms, and per-worker utilization lanes.
//!
//! Per-round series travel as one [`Event::Round`](crate::Event::Round)
//! per simulated round, tallied by the executor that steps the round.
//! This module is the complementary *whole-run* layer: a
//! [`MetricsHub`] is a thread-safe registry of monotonic counters,
//! high-watermark gauges, and log₂ histograms that instrumented code
//! updates with relaxed atomics (no locks on the hot path; registration
//! takes a lock once, handles are `Arc`s thereafter).
//!
//! # Determinism contract
//!
//! Every update is a commutative reduction — counters add, watermarks
//! take a max, histogram buckets add — so totals are independent of
//! thread interleaving. The nondeterministic inputs are wall-clock
//! observations (by convention in metrics whose name ends in `_ns`),
//! metrics derived from the dynamic schedule (suffix `_sched`, e.g. the
//! per-epoch steal counts — *which* worker over-claims depends on OS
//! scheduling even though the result does not), and the per-worker lane
//! table (which worker claimed which unit is scheduling-dependent).
//! [`MetricsHub::deterministic_snapshot`] excludes exactly those, so the
//! deterministic view of a seeded run is bit-identical at every thread
//! count — pinned by `crates/core/tests/pipeline_parallel.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Value;

/// Version of the snapshot JSON schema emitted by
/// [`MetricsHub::snapshot_value`] (and `--metrics-out`).
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Number of histogram buckets: one for zero plus one per power of two.
const BUCKETS: usize = 65;

/// Bucket index of a value: `0` holds zeroes, bucket `i ≥ 1` holds
/// `2^(i-1) <= v < 2^i`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket, used as the percentile estimate.
fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct MetricCounter(Arc<AtomicU64>);

impl MetricCounter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if delta != 0 {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-watermark gauge: `record` keeps the maximum ever observed.
///
/// Max is commutative, so watermarks stay deterministic under parallel
/// recording (unlike a set-last gauge, whose value would depend on the
/// thread schedule).
#[derive(Clone, Debug, Default)]
pub struct Watermark(Arc<AtomicU64>);

impl Watermark {
    /// Raises the watermark to `v` if it is higher.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current watermark.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram over `u64` observations.
///
/// 65 buckets (zero plus one per power of two), plus exact count, sum,
/// and max. Observation is three relaxed atomic RMWs and one `fetch_max`;
/// there are no locks anywhere.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the inclusive upper bound
    /// of the first bucket whose cumulative count reaches `ceil(q * n)`.
    /// Exact for the bucket boundary, an upper bound within it.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(idx).min(self.max());
            }
        }
        self.max()
    }

    /// Non-empty `(bucket_upper_bound, count)` pairs, ascending.
    #[must_use]
    pub(crate) fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(idx, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_upper(idx), c))
            })
            .collect()
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("count".to_string(), Value::U64(self.count())),
            ("sum".to_string(), Value::U64(self.sum())),
            ("max".to_string(), Value::U64(self.max())),
            ("p50".to_string(), Value::U64(self.quantile(0.50))),
            ("p95".to_string(), Value::U64(self.quantile(0.95))),
            ("p99".to_string(), Value::U64(self.quantile(0.99))),
            (
                "buckets".to_string(),
                Value::Seq(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(ub, c)| Value::Seq(vec![Value::U64(ub), Value::U64(c)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One worker's utilization lane: time spent working units, waiting for
/// the scheduler, and merging; plus units claimed and cross-segment
/// steals. All fields are scheduling-dependent — the deterministic
/// snapshot keeps only their across-lane sums where those are invariant
/// (total units equals the number of units submitted).
#[derive(Debug, Default)]
pub struct WorkerLane {
    /// Nanoseconds spent executing units.
    pub busy_ns: AtomicU64,
    /// Nanoseconds between finishing one unit and claiming the next.
    pub idle_ns: AtomicU64,
    /// Nanoseconds spent storing / merging results.
    pub merge_ns: AtomicU64,
    /// Units this worker claimed.
    pub units: AtomicU64,
    /// Units claimed beyond an even `len / workers` share — the dynamic
    /// scheduler's work "stolen" from slower workers.
    pub steals: AtomicU64,
}

impl WorkerLane {
    fn to_value(&self, index: usize) -> Value {
        Value::Map(vec![
            ("worker".to_string(), Value::U64(index as u64)),
            (
                "busy_ns".to_string(),
                Value::U64(self.busy_ns.load(Ordering::Relaxed)),
            ),
            (
                "idle_ns".to_string(),
                Value::U64(self.idle_ns.load(Ordering::Relaxed)),
            ),
            (
                "merge_ns".to_string(),
                Value::U64(self.merge_ns.load(Ordering::Relaxed)),
            ),
            (
                "units".to_string(),
                Value::U64(self.units.load(Ordering::Relaxed)),
            ),
            (
                "steals".to_string(),
                Value::U64(self.steals.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// A point-in-time copy of one worker lane, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerLaneSnapshot {
    /// Worker index (stable across the run; not an OS thread id).
    pub worker: usize,
    /// Nanoseconds spent executing units.
    pub busy_ns: u64,
    /// Nanoseconds waiting between units.
    pub idle_ns: u64,
    /// Nanoseconds storing/merging results.
    pub merge_ns: u64,
    /// Units claimed.
    pub units: u64,
    /// Units claimed beyond an even share.
    pub steals: u64,
}

/// A thread-safe registry of whole-run metrics.
///
/// Cheap to clone through an `Arc`; registration locks a map once per
/// distinct name, updates are lock-free. Attach one to a
/// [`Probe`](crate::Probe) with `Probe::with_metrics` and every
/// instrumented layer the probe reaches records into it.
#[derive(Debug, Default)]
pub struct MetricsHub {
    counters: Mutex<Vec<(String, MetricCounter)>>,
    watermarks: Mutex<Vec<(String, Watermark)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
    lanes: Mutex<Vec<Arc<WorkerLane>>>,
}

fn find_or_insert<T: Clone>(
    map: &Mutex<Vec<(String, T)>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> T {
    let mut map = map.lock().unwrap();
    if let Some((_, v)) = map.iter().find(|(n, _)| n == name) {
        return v.clone();
    }
    let v = make();
    map.push((name.to_string(), v.clone()));
    v
}

impl MetricsHub {
    /// An empty hub.
    #[must_use]
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// The counter named `name`, registered on first use.
    ///
    /// Names are dotted paths (`pool.units`, `exec.messages`); the `_ns`
    /// suffix marks wall-clock metrics excluded from the deterministic
    /// snapshot.
    #[must_use]
    pub fn counter(&self, name: &str) -> MetricCounter {
        find_or_insert(&self.counters, name, MetricCounter::default)
    }

    /// The high-watermark gauge named `name`, registered on first use.
    #[must_use]
    pub fn watermark(&self, name: &str) -> Watermark {
        find_or_insert(&self.watermarks, name, Watermark::default)
    }

    /// The histogram named `name`, registered on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        find_or_insert(&self.histograms, name, || Arc::new(Histogram::default()))
    }

    /// The utilization lane for worker `index`, growing the table as
    /// needed. Indices are logical worker slots (0-based), stable for a
    /// given thread count — not OS thread ids.
    #[must_use]
    pub fn worker_lane(&self, index: usize) -> Arc<WorkerLane> {
        let mut lanes = self.lanes.lock().unwrap();
        while lanes.len() <= index {
            lanes.push(Arc::new(WorkerLane::default()));
        }
        lanes[index].clone()
    }

    /// Point-in-time copies of every worker lane, by worker index.
    #[must_use]
    pub fn worker_lanes(&self) -> Vec<WorkerLaneSnapshot> {
        self.lanes
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(worker, l)| WorkerLaneSnapshot {
                worker,
                busy_ns: l.busy_ns.load(Ordering::Relaxed),
                idle_ns: l.idle_ns.load(Ordering::Relaxed),
                merge_ns: l.merge_ns.load(Ordering::Relaxed),
                units: l.units.load(Ordering::Relaxed),
                steals: l.steals.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The full snapshot: schema version, counters, watermarks,
    /// histograms (with quantiles), and the worker lane table. Keys are
    /// sorted, so two hubs holding the same values serialize identically.
    #[must_use]
    pub fn snapshot_value(&self) -> Value {
        self.snapshot_inner(false)
    }

    /// The deterministic subset of the snapshot: drops every metric whose
    /// name ends in `_ns` (wall clock) or `_sched` (derived from the
    /// dynamic schedule, e.g. per-epoch steal counts) and the
    /// scheduling-dependent per-lane table, keeping the lane-sum
    /// `worker_units_total`, which equals the number of units submitted
    /// to the pool. For a seeded run this value is bit-identical at
    /// every thread count.
    #[must_use]
    pub fn deterministic_snapshot(&self) -> Value {
        self.snapshot_inner(true)
    }

    fn snapshot_inner(&self, deterministic_only: bool) -> Value {
        let keep = |name: &str| {
            !deterministic_only || !(name.ends_with("_ns") || name.ends_with("_sched"))
        };
        let mut counters: Vec<(String, Value)> = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .filter(|(n, _)| keep(n))
            .map(|(n, c)| (n.clone(), Value::U64(c.get())))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut watermarks: Vec<(String, Value)> = self
            .watermarks
            .lock()
            .unwrap()
            .iter()
            .filter(|(n, _)| keep(n))
            .map(|(n, w)| (n.clone(), Value::U64(w.get())))
            .collect();
        watermarks.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, Value)> = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .filter(|(n, _)| keep(n))
            .map(|(n, h)| (n.clone(), h.to_value()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let lanes = self.lanes.lock().unwrap();
        let units_total: u64 = lanes.iter().map(|l| l.units.load(Ordering::Relaxed)).sum();
        let mut fields = vec![
            (
                "schema_version".to_string(),
                Value::U64(METRICS_SCHEMA_VERSION),
            ),
            ("counters".to_string(), Value::Map(counters)),
            ("watermarks".to_string(), Value::Map(watermarks)),
            ("histograms".to_string(), Value::Map(histograms)),
            ("worker_units_total".to_string(), Value::U64(units_total)),
        ];
        if !deterministic_only {
            fields.push((
                "workers".to_string(),
                Value::Seq(
                    lanes
                        .iter()
                        .enumerate()
                        .map(|(i, l)| l.to_value(i))
                        .collect(),
                ),
            ));
        }
        Value::Map(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_and_max() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1110);
        assert_eq!(h.max(), 1000);
        // p50 rank = 3 → value 3 lands in bucket (2,3]; upper bound 3.
        assert_eq!(h.quantile(0.50), 3);
        // p99 / p100 land in the last occupied bucket, capped at max.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn hub_registers_once_and_snapshots_sorted() {
        let hub = MetricsHub::new();
        hub.counter("b.second").add(2);
        hub.counter("a.first").add(1);
        hub.counter("b.second").add(3);
        hub.watermark("peak").record(10);
        hub.watermark("peak").record(7);
        assert_eq!(hub.counter("a.first").get(), 1);
        assert_eq!(hub.counter("b.second").get(), 5);
        assert_eq!(hub.watermark("peak").get(), 10);
        let text = serde::json::to_string(&hub.snapshot_value());
        assert!(text.contains("\"schema_version\":1"));
        let a = text.find("a.first").unwrap();
        let b = text.find("b.second").unwrap();
        assert!(a < b, "snapshot keys must be sorted");
    }

    #[test]
    fn deterministic_snapshot_drops_timing_and_lanes() {
        let hub = MetricsHub::new();
        hub.counter("pool.units").add(4);
        hub.counter("pool.spawn_ns").add(12345);
        hub.histogram("exec.round_ns").observe(99);
        hub.histogram("msg.inbox_bytes").observe(64);
        hub.histogram("pool.steals_per_epoch_sched").observe(7);
        let lane = hub.worker_lane(1);
        lane.busy_ns.fetch_add(500, Ordering::Relaxed);
        lane.units.fetch_add(4, Ordering::Relaxed);
        let det = serde::json::to_string(&hub.deterministic_snapshot());
        assert!(det.contains("pool.units"));
        assert!(det.contains("msg.inbox_bytes"));
        assert!(!det.contains("spawn_ns"));
        assert!(!det.contains("round_ns"));
        assert!(!det.contains("_sched"));
        assert!(!det.contains("\"workers\""));
        assert!(det.contains("\"worker_units_total\":4"));
        let full = serde::json::to_string(&hub.snapshot_value());
        assert!(full.contains("spawn_ns"));
        assert!(full.contains("\"workers\""));
    }

    #[test]
    fn lane_table_grows_and_snapshots() {
        let hub = MetricsHub::new();
        hub.worker_lane(2).units.fetch_add(7, Ordering::Relaxed);
        let lanes = hub.worker_lanes();
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes[2].units, 7);
        assert_eq!(lanes[2].worker, 2);
        assert_eq!(lanes[0].units, 0);
    }
}
