//! End-to-end and per-layer benchmark of the delta-coloring workspace.
//!
//! One command runs one named workload as a closed loop: a single client
//! with one coloring in flight at a time. Every operation's output is
//! validated and compared with a reference computed during set-up, and
//! a wrong or divergent output counts as a failed operation instead of
//! aborting the run.
//!
//! * Untraced runs (`--trace 0`) report the [`END_TO_END`] metrics.
//! * Traced runs (`--trace 1`) alternate untraced and traced operations
//!   and report the [`PER_LAYER`] metrics. A traced operation times the
//!   calls into each layer's public functions from this crate and reads
//!   the instruments the program already has (`RecordingSink` span exits,
//!   `MetricsHub` counters and histograms); the program itself gains no
//!   tracing.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

pub mod det;
pub mod rand;
pub mod shard;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stats::{median, percentile};

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("vertices_per_s", "1/s"),
    ("local_rounds", "rounds"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, measured by the traced run. A layer
/// a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("acd.ms", "ms"),
    ("acd.rounds", "rounds"),
    ("loophole.ms", "ms"),
    ("loophole.rounds", "rounds"),
    ("classify.ms", "ms"),
    ("classify.rounds", "rounds"),
    ("phase1.ms", "ms"),
    ("phase1.rounds", "rounds"),
    ("phase2.ms", "ms"),
    ("phase2.rounds", "rounds"),
    ("phase3.ms", "ms"),
    ("phase3.rounds", "rounds"),
    ("phase4.ms", "ms"),
    ("phase4.rounds", "rounds"),
    ("easy.ms", "ms"),
    ("easy.rounds", "rounds"),
    ("exec.rounds", "count"),
    ("exec.round_ms", "ms"),
    ("preshatter.ms", "ms"),
    ("preshatter.rounds", "rounds"),
    ("postshatter.ms", "ms"),
    ("postshatter.rounds", "rounds"),
    ("postprocess.ms", "ms"),
    ("postprocess.rounds", "rounds"),
    ("shatter.components", "count"),
    ("shatter.max_component", "count"),
    ("shatter.deferred", "count"),
    ("pool.busy_ms", "ms"),
    ("pool.idle_ms", "ms"),
    ("supervisor.checkpoints", "count"),
    ("supervisor.snapshot_bytes", "bytes"),
    ("supervisor.save_ms", "ms"),
    ("supervisor.load_ms", "ms"),
    ("supervisor.resume_ms", "ms"),
    ("shard.inproc_ms", "ms"),
    ("shard.overhead_us_per_round", "us"),
    ("shard.round_ms", "ms"),
    ("shard.barrier_wait_ms", "ms"),
    ("shard.init_bytes", "bytes"),
    ("shard.bytes_per_round", "bytes"),
    ("shard.frames", "count"),
    ("shard.ghost_updates", "count"),
    ("shard.ghost_suppressed", "count"),
    ("validate.ms", "ms"),
    ("layers.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["det-paper", "rand-ckpt", "shard-gnp"];

/// How many times a run performs its whole set-up; `setup_s` is the
/// median, and the last set-up's state is the one measured.
pub const SETUP_REPS: usize = 3;

/// Untimed operations each set-up runs after its preflight.
pub const WARMUP_OPS: usize = 2;

/// Instance size: `Full` is the benchmark, `Tiny` is for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The readings of one traced operation.
#[derive(Debug, Default)]
pub struct Traced {
    /// Output validated, matched the reference, and (where the workload
    /// checks it) the per-layer rounds summed to `local_rounds`.
    pub ok: bool,
    /// Wall time of the whole traced operation.
    pub wall_ms: f64,
    /// Per-layer readings by [`PER_LAYER`] name, including
    /// `layers.unattributed_ms` (`wall_ms` minus the layer times that
    /// partition the operation).
    pub readings: Vec<(&'static str, f64)>,
}

/// One generated instance of a workload, with its reference output.
pub trait Instance {
    /// Vertices colored by one operation.
    fn vertices(&self) -> usize;
    /// LOCAL rounds of one operation (synchronous rounds for the shard
    /// fleet), from the reference run.
    fn rounds(&self) -> u64;
    /// One untraced operation, graph in to validated coloring out.
    /// Returns whether the output is valid and equal to the reference;
    /// `corrupt` spoils the coloring before validation.
    fn run_op(&self, corrupt: bool) -> bool;
    /// One traced operation.
    fn run_traced(&self, corrupt: bool) -> Traced;
}

/// A workload after set-up: its instances, which successive operations
/// use in turn. More than one instance keeps a run's figures from hinging
/// on one graph.
pub struct Workload {
    instances: Vec<Box<dyn Instance>>,
    next: usize,
    corrupt: bool,
}

impl Workload {
    /// Builds `count` instances, instance `i` from seed `seed · count + i`
    /// (so distinct seeds never share an instance), then runs
    /// [`WARMUP_OPS`] untimed operations.
    ///
    /// # Errors
    ///
    /// The first instance set-up error, or a failed warm-up operation.
    pub fn build<T: Instance + 'static>(
        seed: u64,
        count: u64,
        make: impl Fn(u64) -> Result<T, String>,
    ) -> Result<Self, String> {
        let mut instances: Vec<Box<dyn Instance>> = Vec::new();
        for i in 0..count {
            instances.push(Box::new(make(seed.wrapping_mul(count).wrapping_add(i))?));
        }
        let mut w = Workload {
            instances,
            next: 0,
            corrupt: false,
        };
        for _ in 0..WARMUP_OPS {
            if !w.run_op() {
                return Err("warm-up operation failed".to_string());
            }
        }
        Ok(w)
    }

    fn advance(&mut self) -> &dyn Instance {
        let i = self.next;
        self.next = (i + 1) % self.instances.len();
        &*self.instances[i]
    }

    /// Vertices colored by one operation.
    #[must_use]
    pub fn vertices(&self) -> usize {
        self.instances[0].vertices()
    }

    /// Mean LOCAL rounds of one operation over the instances.
    #[must_use]
    pub fn local_rounds(&self) -> f64 {
        let total: u64 = self.instances.iter().map(|i| i.rounds()).sum();
        total as f64 / self.instances.len() as f64
    }

    /// One untraced operation on the next instance.
    pub fn run_op(&mut self) -> bool {
        let corrupt = self.corrupt;
        self.advance().run_op(corrupt)
    }

    /// One untraced and then one traced operation on the next instance:
    /// the untraced wall time in ms and validity, and the traced readings.
    pub fn run_pair(&mut self) -> (f64, bool, Traced) {
        let corrupt = self.corrupt;
        let instance = self.advance();
        let start = Instant::now();
        let ok = instance.run_op(corrupt);
        let untraced_ms = ms_since(start);
        (untraced_ms, ok, instance.run_traced(corrupt))
    }

    /// Makes every later operation corrupt its coloring before validation
    /// (the self-test's check that a wrong output counts as failed).
    pub fn inject_wrong_coloring(&mut self) {
        self.corrupt = true;
    }
}

/// Worker threads a workload runs with; `main` installs this as the
/// process-wide executor default before any set-up.
#[must_use]
pub fn threads_for(workload: &str) -> usize {
    match workload {
        "rand-ckpt" | "shard-gnp" => 2,
        _ => 1,
    }
}

/// Generates the workload's instances from `seed`, computes their
/// references, and runs the bit-identity preflight and warm-up.
///
/// # Errors
///
/// An unknown workload name, or a failed generation, reference run or
/// preflight.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<Workload, String> {
    match name {
        // Instance counts keep the across-seed spread of `local_rounds` small:
        // per instance it is about 2% at det-paper, 6% at rand-ckpt and
        // 20% at shard-gnp (13 to 37 rounds).
        "det-paper" => Workload::build(seed, 1, |s| det::DetPaper::setup(s, scale)),
        "rand-ckpt" => Workload::build(seed, 8, |s| rand::RandCkpt::setup(s, scale)),
        "shard-gnp" => Workload::build(seed, 32, |s| shard::ShardGnp::setup(s, scale)),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable context printed before the JSON line.
    pub notes: Vec<String>,
}

impl RunReport {
    /// The single-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Configuration of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Corrupt every operation's coloring (self-test only).
    pub inject_wrong: bool,
}

/// Runs one workload: set-up [`SETUP_REPS`] times, then a closed loop for
/// `seconds`.
///
/// # Errors
///
/// As [`setup`].
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first so peak memory reflects one.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(setup(&cfg.workload, cfg.seed, cfg.scale)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUP_REPS >= 1");
    if cfg.inject_wrong {
        w.inject_wrong_coloring();
    }
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut notes = vec![format!(
        "workload {} seed {} | closed loop, 1 client | threads {} | nproc {} | n {} | local_rounds {}",
        cfg.workload,
        cfg.seed,
        localsim::default_threads(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        w.vertices(),
        w.local_rounds()
    )];
    notes.push(format!(
        "setup_s samples {:?} (median of {SETUP_REPS})",
        setup_s
    ));
    if cfg.trace {
        Ok(traced_loop(&mut w, budget, notes))
    } else {
        Ok(untraced_loop(&mut w, budget, median(&setup_s), notes))
    }
}

fn untraced_loop(
    w: &mut Workload,
    budget: Duration,
    setup_s: f64,
    mut notes: Vec<String>,
) -> RunReport {
    let mut op_ms = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while op_ms.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        let ok = w.run_op();
        op_ms.push(ms_since(t));
        failed += u64::from(!ok);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let attempted = op_ms.len() as u64;
    let completed = attempted - failed;
    notes.push(format!(
        "op_ms samples {attempted} (p50 and p90 over all of them), failed {failed}"
    ));
    let metrics = vec![
        ("op_ms.p50", median(&op_ms), "ms"),
        ("op_ms.p90", percentile(&op_ms, 0.9), "ms"),
        (
            "vertices_per_s",
            (w.vertices() as f64) * (completed as f64) / elapsed,
            "1/s",
        ),
        ("local_rounds", w.local_rounds(), "rounds"),
        ("ok_rate", completed as f64 / attempted as f64, "ratio"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];
    RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn traced_loop(w: &mut Workload, budget: Duration, mut notes: Vec<String>) -> RunReport {
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut readings: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while traced_ms.is_empty() || start.elapsed() < budget {
        let (ms, ok, traced) = w.run_pair();
        untraced_ms.push(ms);
        failed += u64::from(!ok);
        traced_ms.push(traced.wall_ms);
        failed += u64::from(!traced.ok);
        for (name, value) in traced.readings {
            readings.entry(name).or_default().push(value);
        }
    }
    let untraced = median(&untraced_ms);
    let overhead_pct = (median(&traced_ms) - untraced) / untraced * 100.0;
    notes.push(format!(
        "traced ops {} and untraced ops {} (per-layer values are medians over traced ops), failed {failed}",
        traced_ms.len(),
        untraced_ms.len()
    ));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_pct" {
                overhead_pct
            } else {
                readings.get(name).map_or(0.0, |v| median(v))
            };
            (name, value, unit)
        })
        .collect();
    let attempted = (untraced_ms.len() + traced_ms.len()) as u64;
    RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Gives the first vertex that has a neighbor that neighbor's color, so
/// the coloring is no longer proper.
pub fn corrupt_coloring(g: &graphgen::Graph, coloring: &mut graphgen::Coloring) {
    let Some(v) = g.vertices().find(|&v| !g.neighbors(v).is_empty()) else {
        return;
    };
    if let Some(c) = coloring.get(g.neighbors(v)[0]) {
        coloring.unset(v);
        coloring.set(v, c);
    }
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds to milliseconds.
#[must_use]
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Mean of a hub histogram in milliseconds (0 when it saw nothing).
#[must_use]
pub fn mean_ms(h: &localsim::Histogram) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        ns_to_ms(h.sum()) / h.count() as f64
    }
}

/// The executor and component-pool readings of one
/// traced operation, from its metrics hub.
#[must_use]
pub fn hub_readings(hub: &localsim::MetricsHub) -> Vec<(&'static str, f64)> {
    let lanes = hub.worker_lanes();
    vec![
        ("exec.rounds", hub.counter("exec.rounds").get() as f64),
        ("exec.round_ms", mean_ms(&hub.histogram("exec.round_ns"))),
        (
            "pool.busy_ms",
            ns_to_ms(lanes.iter().map(|l| l.busy_ns).sum()),
        ),
        (
            "pool.idle_ms",
            ns_to_ms(lanes.iter().map(|l| l.idle_ns).sum()),
        ),
    ]
}
