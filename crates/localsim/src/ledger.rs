//! Round accounting for composite algorithms.

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use graphgen::Coloring;
use serde::{Deserialize, Serialize};
use telemetry::{ChargeKind, Event, Probe};

/// One charged item on a [`RoundLedger`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Which phase or subroutine incurred the cost.
    pub phase: String,
    /// LOCAL rounds charged.
    pub rounds: u64,
}

/// Accumulates the LOCAL-round cost of a composite algorithm, phase by
/// phase.
///
/// Four kinds of charges exist, mirroring how the paper accounts rounds:
///
/// * [`RoundLedger::charge`] — rounds measured by an [`crate::Executor`]
///   run on the real communication graph.
/// * [`RoundLedger::charge_constant`] — a documented `O(1)` cost for a
///   constant-radius local computation (collecting the radius-`r` ball
///   costs `r` rounds; everything computed from it is free).
/// * [`RoundLedger::charge_virtual`] — rounds of a subroutine run on a
///   virtual graph, multiplied by the constant dilation of simulating one
///   virtual round on the real network.
/// * [`RoundLedger::charge_overlapped`] — a step that reads only the graph
///   and the ids, so it runs from round 0 alongside the charged phases:
///   its first use waits only for the rounds not yet elapsed.
///
/// A ledger accounts one run on one graph. Besides its entries it carries
/// that run's shared `(Δ+1)`-coloring of the graph
/// ([`RoundLedger::shared_coloring`]), computed on first use. It is
/// working data, not state: neither serialized nor compared, shared by
/// clones and forks, and computed again by a ledger restored from a
/// snapshot.
///
/// # Example
///
/// ```
/// use localsim::RoundLedger;
///
/// let mut ledger = RoundLedger::new();
/// ledger.charge("maximal matching", 12);
/// ledger.charge_constant("ACD computation", 2);
/// ledger.charge_virtual("pair coloring", 5, 3);
/// assert_eq!(ledger.total(), 12 + 2 + 15);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundLedger {
    entries: Vec<LedgerEntry>,
    probe: Probe,
    /// Rounds elapsed in the run before this ledger's first entry: 0, or
    /// the parent's elapsed rounds for a [`RoundLedger::fork`].
    start: u64,
    shared: Arc<Mutex<Option<Arc<Coloring>>>>,
}

impl PartialEq for RoundLedger {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for RoundLedger {}

impl Serialize for RoundLedger {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("entries".to_string(), self.entries.to_value())])
    }
}

impl<'de> Deserialize<'de> for RoundLedger {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(RoundLedger {
            entries: Vec::from_value(v.field("entries")?)?,
            ..RoundLedger::default()
        })
    }
}

impl RoundLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty ledger whose charges are mirrored to `probe` as
    /// [`Event::Charge`] events.
    pub fn with_probe(probe: Probe) -> Self {
        RoundLedger {
            probe,
            ..RoundLedger::default()
        }
    }

    /// An empty ledger for a sub-run that starts now, such as one leftover
    /// component solved alongside the others: it reports to `probe`,
    /// counts this ledger's elapsed rounds as its start, and shares this
    /// ledger's [`RoundLedger::shared_coloring`].
    pub fn fork(&self, probe: Probe) -> RoundLedger {
        RoundLedger {
            entries: Vec::new(),
            probe,
            start: self.elapsed(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Installs (or replaces) the telemetry probe.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The attached probe (disabled by default).
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    fn record(&mut self, phase: String, rounds: u64, kind: ChargeKind) {
        self.probe.emit_with(|| Event::Charge {
            path: phase.clone(),
            rounds,
            kind,
        });
        self.entries.push(LedgerEntry { phase, rounds });
    }

    /// Charges `rounds` measured rounds to `phase`.
    pub fn charge(&mut self, phase: impl Into<String>, rounds: u64) {
        self.record(phase.into(), rounds, ChargeKind::Real);
    }

    /// Charges a documented constant cost for an `O(1)`-local step.
    pub fn charge_constant(&mut self, phase: impl Into<String>, rounds: u64) {
        self.record(phase.into(), rounds, ChargeKind::Constant);
    }

    /// Charges `rounds` virtual-graph rounds at the given `dilation`.
    pub fn charge_virtual(&mut self, phase: impl Into<String>, rounds: u64, dilation: u64) {
        self.record(phase.into(), rounds * dilation, ChargeKind::Virtual);
    }

    /// Charges a step of `rounds` rounds that reads only the graph and the
    /// ids, so it ran from round 0 with its messages sent alongside those
    /// of the steps charged before: it charges the
    /// [`RoundLedger::overlap_wait`] still to wait, and records an entry
    /// only when that wait is above 0. After the first charge the elapsed
    /// rounds cover the step, so every later call on this ledger, its
    /// forks or a ledger restored from its snapshot charges 0. Returns the
    /// rounds charged.
    ///
    /// ```
    /// use localsim::RoundLedger;
    ///
    /// let mut ledger = RoundLedger::new();
    /// ledger.charge("phase", 40);
    /// assert_eq!(ledger.charge_overlapped("helper", 58), 18);
    /// assert_eq!(ledger.charge_overlapped("helper", 58), 0);
    /// assert_eq!(ledger.total(), 58);
    /// assert_eq!(ledger.entries().len(), 2);
    /// ```
    pub fn charge_overlapped(&mut self, phase: impl Into<String>, rounds: u64) -> u64 {
        let wait = self.overlap_wait(rounds);
        if wait > 0 {
            self.record(phase.into(), wait, ChargeKind::Overlapped);
        }
        wait
    }

    /// The rounds of a step of `rounds` rounds, begun at round 0, not yet
    /// elapsed: `max(0, rounds − elapsed)`.
    pub fn overlap_wait(&self, rounds: u64) -> u64 {
        rounds.saturating_sub(self.elapsed())
    }

    /// The run's `(Δ+1)`-coloring of its whole graph, from `compute` on
    /// the first call of any clone or fork of this ledger and shared by
    /// every later one. Concurrent first calls compute it once.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; a later call tries again.
    pub fn shared_coloring<E>(
        &self,
        compute: impl FnOnce() -> Result<Coloring, E>,
    ) -> Result<Arc<Coloring>, E> {
        let mut slot = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(coloring) = &*slot {
            return Ok(Arc::clone(coloring));
        }
        let coloring = Arc::new(compute()?);
        *slot = Some(Arc::clone(&coloring));
        Ok(coloring)
    }

    /// Runs `f` inside a telemetry span `path` on this ledger's probe and
    /// closes the span with the rounds `f` charged here, so span rounds
    /// sum to the ledger total by construction. A span left through an
    /// `Err` still reports the rounds charged before the error.
    ///
    /// ```
    /// use localsim::{RecordingSink, Probe, RoundLedger};
    ///
    /// let sink = std::sync::Arc::new(RecordingSink::new());
    /// let mut ledger = RoundLedger::with_probe(Probe::new(sink.clone()));
    /// let x = ledger.span("pipeline/phase", |l| {
    ///     l.charge("matching", 4);
    ///     7
    /// });
    /// assert_eq!(x, 7);
    /// assert_eq!(sink.span_exits()[0].1, 4);
    /// ```
    pub fn span<T>(&mut self, path: &str, f: impl FnOnce(&mut RoundLedger) -> T) -> T {
        let before = self.total();
        let span = self.probe.span(path);
        let out = f(self);
        span.finish(self.total() - before);
        out
    }

    /// Appends every entry of `other`, prefixing phases with `prefix/`.
    /// Each absorbed entry surfaces on the probe with its full phase path.
    pub fn absorb(&mut self, prefix: &str, other: RoundLedger) {
        for e in other.entries {
            self.record(
                format!("{prefix}/{}", e.phase),
                e.rounds,
                ChargeKind::Absorbed,
            );
        }
    }

    /// Merges `other` taking the per-entry *maximum* against this ledger's
    /// running total under the same prefix. Used when independent
    /// components run the same pipeline in parallel: the network-wide cost
    /// of a phase is the maximum over components, not the sum.
    pub fn absorb_parallel_max(&mut self, prefix: &str, others: Vec<RoundLedger>) {
        let max_total = others.iter().map(RoundLedger::total).max().unwrap_or(0);
        self.record(
            format!("{prefix} (max component)"),
            max_total,
            ChargeKind::Absorbed,
        );
    }

    /// All entries in charge order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Total rounds charged.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|e| e.rounds).sum()
    }

    /// Rounds elapsed in the run so far: the total, plus the parent's
    /// elapsed rounds when this ledger is a [`RoundLedger::fork`].
    pub fn elapsed(&self) -> u64 {
        self.start + self.total()
    }

    /// Total rounds charged to phases whose name contains `needle`.
    pub fn total_for(&self, needle: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.phase.contains(needle))
            .map(|e| e.rounds)
            .sum()
    }

    /// A per-phase breakdown table: one row per top-level phase prefix
    /// (see [`RoundLedger::grouped`]) with its rounds and share of the
    /// total, plus a TOTAL row. This is what `delta-color --profile`
    /// prints.
    pub fn render_table(&self) -> String {
        let total = self.total();
        let mut out = String::new();
        out.push_str(&format!("{:<52} {:>8} {:>7}\n", "phase", "rounds", "%"));
        for (phase, rounds) in self.grouped() {
            let pct = if total == 0 {
                0.0
            } else {
                rounds as f64 * 100.0 / total as f64
            };
            out.push_str(&format!("{phase:<52} {rounds:>8} {pct:>6.1}%\n"));
        }
        out.push_str(&format!("{:<52} {:>8} {:>6.1}%", "TOTAL", total, 100.0));
        out
    }

    /// Totals grouped by phase prefix (the part before the first `/`),
    /// in first-charge order.
    pub fn grouped(&self) -> Vec<(String, u64)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        for e in &self.entries {
            let prefix = e.phase.split('/').next().unwrap_or(&e.phase).to_string();
            if !totals.contains_key(&prefix) {
                order.push(prefix.clone());
            }
            *totals.entry(prefix).or_default() += e.rounds;
        }
        order
            .into_iter()
            .map(|p| {
                let t = totals[&p];
                (p, t)
            })
            .collect()
    }
}

impl fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<52} {:>8}", "phase", "rounds")?;
        for e in &self.entries {
            writeln!(f, "{:<52} {:>8}", e.phase, e.rounds)?;
        }
        write!(f, "{:<52} {:>8}", "TOTAL", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_filters() {
        let mut l = RoundLedger::new();
        l.charge("mm", 10);
        l.charge("heg", 20);
        l.charge("mm-cleanup", 5);
        assert_eq!(l.total(), 35);
        assert_eq!(l.total_for("mm"), 15);
        assert_eq!(l.entries().len(), 3);
    }

    #[test]
    fn virtual_charge_multiplies() {
        let mut l = RoundLedger::new();
        l.charge_virtual("pairs", 7, 3);
        assert_eq!(l.total(), 21);
    }

    #[test]
    fn absorb_prefixes() {
        let mut inner = RoundLedger::new();
        inner.charge("matching", 4);
        let mut outer = RoundLedger::new();
        outer.absorb("phase1", inner);
        assert_eq!(outer.entries()[0].phase, "phase1/matching");
        assert_eq!(outer.total(), 4);
    }

    #[test]
    fn parallel_max_takes_max() {
        let mut a = RoundLedger::new();
        a.charge("x", 4);
        let mut b = RoundLedger::new();
        b.charge("x", 9);
        let mut outer = RoundLedger::new();
        outer.absorb_parallel_max("post-shattering", vec![a, b]);
        assert_eq!(outer.total(), 9);
    }

    #[test]
    fn grouped_by_prefix() {
        let mut l = RoundLedger::new();
        l.charge("phase1/matching", 5);
        l.charge("phase1/heg", 7);
        l.charge("phase2/split", 3);
        assert_eq!(
            l.grouped(),
            vec![("phase1".to_string(), 12), ("phase2".to_string(), 3)]
        );
    }

    #[test]
    fn display_contains_total() {
        let mut l = RoundLedger::new();
        l.charge("abc", 2);
        let s = l.to_string();
        assert!(s.contains("abc"));
        assert!(s.contains("TOTAL"));
    }

    #[test]
    fn render_table_shows_percentages() {
        let mut l = RoundLedger::new();
        l.charge("phase1/matching", 30);
        l.charge("phase2/split", 10);
        let table = l.render_table();
        assert!(table.contains("phase1"), "{table}");
        assert!(table.contains("75.0%"), "{table}");
        assert!(table.contains("25.0%"), "{table}");
        assert!(table.lines().last().unwrap().contains("100.0%"), "{table}");
    }

    #[test]
    fn render_table_empty_ledger() {
        let table = RoundLedger::new().render_table();
        assert!(table.contains("TOTAL"));
    }

    #[test]
    fn serde_round_trip_preserves_entries() {
        let mut l = RoundLedger::new();
        l.charge("acd computation", 2);
        l.charge_virtual("phase1/pairs", 7, 3);
        l.charge("easy cliques/greedy", 5);
        let json = serde::json::to_string(&l);
        let back: RoundLedger = serde::json::from_str(&json).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.total(), l.total());
        assert_eq!(back.entries(), l.entries());
    }

    #[test]
    fn overlapped_charge_waits_once_for_the_rounds_not_yet_elapsed() {
        let mut l = RoundLedger::new();
        l.charge("phases", 49);
        assert_eq!(l.overlap_wait(58), 9);
        assert_eq!(l.charge_overlapped("helper", 58), 9);
        assert_eq!(l.overlap_wait(58), 0);
        assert_eq!(l.charge_overlapped("helper", 58), 0);
        assert_eq!(l.total(), 58);
        assert_eq!(l.entries().len(), 2, "a 0-round wait records nothing");

        // Already elapsed: the step costs nothing and leaves no entry.
        let mut l = RoundLedger::new();
        l.charge("phases", 300);
        assert_eq!(l.charge_overlapped("helper", 190), 0);
        l.charge("later", 5);
        assert_eq!(l.charge_overlapped("helper", 190), 0);
        assert_eq!(l.total(), 305);
        assert_eq!(l.entries().len(), 2);
    }

    #[test]
    fn overlapped_charge_survives_a_snapshot_round_trip() {
        let mut l = RoundLedger::new();
        l.charge("phases", 10);
        l.charge_overlapped("helper", 58);
        let json = serde::json::to_string(&l);
        let mut resumed: RoundLedger = serde::json::from_str(&json).unwrap();
        assert_eq!(resumed, l);
        assert_eq!(resumed.charge_overlapped("helper", 58), 0);
        assert_eq!(resumed.total(), 58);
        assert_eq!(resumed.entries(), l.entries());
    }

    #[test]
    fn a_fork_starts_at_its_parents_elapsed_rounds() {
        let mut parent = RoundLedger::new();
        parent.charge("pre", 30);
        let mut fork = parent.fork(Probe::disabled());
        assert_eq!((fork.total(), fork.elapsed()), (0, 30));
        fork.charge("phase", 20);
        assert_eq!(fork.charge_overlapped("helper", 58), 8);
        assert_eq!((fork.total(), fork.elapsed()), (28, 58));
        assert_eq!(parent.overlap_wait(58), 28, "the parent has not paid it");
    }

    #[test]
    fn the_shared_coloring_is_computed_once_per_ledger_family() {
        let l = RoundLedger::new();
        let calls = std::cell::Cell::new(0);
        let compute = || {
            calls.set(calls.get() + 1);
            Ok::<_, ()>(Coloring::empty(3))
        };
        let a = l.shared_coloring(compute).unwrap();
        let b = l.clone().shared_coloring(compute).unwrap();
        let c = l.fork(Probe::disabled()).shared_coloring(compute).unwrap();
        assert_eq!(calls.get(), 1);
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &c));
        assert_eq!(
            l.shared_coloring(|| Err::<Coloring, _>("unused")).unwrap(),
            a
        );
        // A ledger restored from a snapshot starts without it.
        let restored: RoundLedger = serde::json::from_str(&serde::json::to_string(&l)).unwrap();
        assert!(restored
            .shared_coloring(|| Err::<Coloring, _>("recomputed"))
            .is_err());
        // A failed computation leaves the slot empty for the next call.
        assert_eq!(restored.shared_coloring(compute).unwrap().len(), 3);
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn span_closes_with_the_rounds_charged_inside_even_on_err() {
        use telemetry::RecordingSink;

        let sink = std::sync::Arc::new(RecordingSink::new());
        let mut l = RoundLedger::with_probe(Probe::new(sink.clone()));
        l.charge("before", 100);
        let ok: Result<(), ()> = l.span("ok", |l| {
            l.charge("a", 3);
            l.charge_virtual("b", 2, 3);
            Ok(())
        });
        assert!(ok.is_ok());
        let err: Result<(), ()> = l.span("err", |l| {
            l.charge("c", 4);
            Err(())
        });
        assert!(err.is_err());
        let exits: Vec<(String, u64)> = sink
            .span_exits()
            .into_iter()
            .map(|(p, r, _)| (p, r))
            .collect();
        assert_eq!(exits, vec![("ok".to_string(), 9), ("err".to_string(), 4)]);
        assert_eq!(l.total(), 113);
    }

    #[test]
    fn charges_surface_on_the_probe_with_paths() {
        use telemetry::RecordingSink;

        let sink = std::sync::Arc::new(RecordingSink::new());
        let mut l = RoundLedger::with_probe(Probe::new(sink.clone()));
        l.charge("mm", 10);
        l.charge_constant("ball", 2);
        l.charge_virtual("pairs", 5, 3);
        let mut inner = RoundLedger::new();
        inner.charge("matching", 4);
        l.absorb("phase1", inner);
        l.absorb_parallel_max("shatter", vec![]);
        l.charge_overlapped("helper", 100);

        let events = sink.events();
        assert_eq!(
            events,
            vec![
                Event::Charge {
                    path: "mm".into(),
                    rounds: 10,
                    kind: ChargeKind::Real
                },
                Event::Charge {
                    path: "ball".into(),
                    rounds: 2,
                    kind: ChargeKind::Constant
                },
                Event::Charge {
                    path: "pairs".into(),
                    rounds: 15,
                    kind: ChargeKind::Virtual
                },
                Event::Charge {
                    path: "phase1/matching".into(),
                    rounds: 4,
                    kind: ChargeKind::Absorbed
                },
                Event::Charge {
                    path: "shatter (max component)".into(),
                    rounds: 0,
                    kind: ChargeKind::Absorbed
                },
                Event::Charge {
                    path: "helper".into(),
                    rounds: 69,
                    kind: ChargeKind::Overlapped
                },
            ]
        );
        assert_eq!(l.total(), 100);
    }
}
