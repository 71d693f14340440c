//! CONGEST-mode accounting: run a [`MessageProgram`] while *metering* the
//! size of every message against a per-edge bandwidth budget.
//!
//! The CONGEST model restricts each per-edge message to `O(log n)` bits.
//! The paper's companion results ([MU21], [HM24] in the related work) live
//! in CONGEST; this module lets any per-port algorithm declare its message
//! widths and verifies the budget mechanically, reporting the maximum
//! width observed.
//!
//! ```
//! use graphgen::Graph;
//! use localsim::{broadcast, CongestExecutor, MessageProgram, MsgTransition, NodeCtx, Outgoing};
//!
//! struct MinId;
//! impl MessageProgram for MinId {
//!     type State = u64;
//!     type Msg = u64;
//!     type Output = u64;
//!     fn init(&self, ctx: &NodeCtx) -> (u64, Vec<Outgoing<u64>>) {
//!         (ctx.uid, broadcast(ctx.degree(), &ctx.uid))
//!     }
//!     fn step(&self, ctx: &NodeCtx, state: &mut u64, inbox: &[Option<u64>])
//!         -> MsgTransition<u64, u64>
//!     {
//!         let m = inbox.iter().flatten().copied().min().unwrap_or(*state).min(*state);
//!         if ctx.round >= 3 {
//!             MsgTransition::HaltAfter(Vec::new(), m)
//!         } else {
//!             *state = m;
//!             MsgTransition::Continue(broadcast(ctx.degree(), &m))
//!         }
//!     }
//! }
//!
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
//! // ids fit in log2(n) = 2 bits... but the type is u64, so we declare
//! // the width as the bits needed for the value.
//! let ex = CongestExecutor::new(&g, 32, |m: &u64| 64 - m.leading_zeros() as usize);
//! let run = ex.run(&MinId, 10)?;
//! assert!(run.max_message_bits <= 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use graphgen::Graph;
use telemetry::{Event, Probe};

use crate::exec::{RunResult, SimError};
use crate::msg::{MessageExecutor, MessageProgram, MsgTransition, Outgoing};
use crate::NodeCtx;

/// Bandwidth accounting for one round of a metered run.
///
/// `width_hist` buckets message widths by powers of two: a message of
/// width `w > 0` lands in bucket `w.next_power_of_two()`, zero-width
/// messages in bucket `0`. Buckets are sorted ascending. Histograms are
/// only populated when a probe is attached (they exist to feed
/// [`Event::CongestRound`]); unprobed runs keep the counts, max, and
/// totals but leave `width_hist` empty, skipping the per-message
/// bucketing scan on the hot path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundBits {
    /// Round index; `0` covers the messages sent by `init`.
    pub round: u64,
    /// Messages sent this round.
    pub messages: u64,
    /// Widest message this round (bits).
    pub max_bits: usize,
    /// Total bits sent this round.
    pub total_bits: u64,
    /// `(bucket_max_bits, count)` pairs, ascending by bucket.
    pub width_hist: Vec<(u64, u64)>,
}

/// Outcome of a metered run.
#[derive(Debug, Clone)]
pub struct CongestResult<O> {
    /// Per-node outputs.
    pub outputs: Vec<O>,
    /// Communication rounds.
    pub rounds: u64,
    /// Largest message width observed (bits).
    pub max_message_bits: usize,
    /// Total bits sent over the whole run.
    pub total_bits: u64,
    /// Per-round bandwidth accounting, indexed by send round.
    pub per_round: Vec<RoundBits>,
}

/// Errors from a metered run.
#[derive(Debug)]
pub enum CongestError {
    /// A message exceeded the bandwidth budget.
    BandwidthExceeded {
        /// Observed width (bits).
        bits: usize,
        /// The budget.
        budget: usize,
        /// Round in which it happened.
        round: u64,
    },
    /// Plain simulator failure.
    Sim(SimError),
}

impl std::fmt::Display for CongestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CongestError::BandwidthExceeded {
                bits,
                budget,
                round,
            } => {
                write!(
                    f,
                    "round {round}: a {bits}-bit message exceeds the {budget}-bit budget"
                )
            }
            CongestError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for CongestError {}

impl From<SimError> for CongestError {
    fn from(e: SimError) -> Self {
        CongestError::Sim(e)
    }
}

/// A [`MessageExecutor`] wrapper that meters message widths.
pub struct CongestExecutor<'g, F> {
    graph: &'g Graph,
    budget_bits: usize,
    size_of: F,
    probe: Probe,
    faults: Option<crate::FaultPlan>,
}

impl<'g, F> CongestExecutor<'g, F> {
    /// An executor over `graph` with the given per-message bit budget and
    /// width function.
    pub fn new(graph: &'g Graph, budget_bits: usize, size_of: F) -> Self {
        CongestExecutor {
            graph,
            budget_bits,
            size_of,
            probe: Probe::disabled(),
            faults: None,
        }
    }

    /// Injects a seed-deterministic [`crate::FaultPlan`] into the inner
    /// [`MessageExecutor`]. Dropped messages are still metered at the
    /// sender — the bits crossed the link before being lost — so
    /// bandwidth accounting is identical to the fault-free run of the
    /// same send schedule.
    #[must_use]
    pub fn with_faults(mut self, plan: crate::FaultPlan) -> Self {
        self.faults = plan.is_active().then_some(plan);
        self
    }

    /// Attaches a telemetry probe; runs then emit one
    /// [`Event::CongestRound`] per round (message count, width histogram,
    /// max/total bits) in addition to the inner executor's per-round
    /// events.
    #[must_use]
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }
}

/// Internal wrapper program that meters the inner program's messages.
/// `MessageProgram::step` takes `&self`, so the stats sit in a
/// `RefCell`.
struct Metered<'p, P, F> {
    inner: &'p P,
    size_of: F,
    budget: usize,
    /// Whether to build per-round width histograms (only when a probe
    /// listens; the scan is pure telemetry).
    hist: bool,
    stats: std::cell::RefCell<MeterStats>,
}

#[derive(Default)]
struct MeterStats {
    max_bits: usize,
    total_bits: u64,
    /// The earliest-round over-budget message, widest within that round.
    violation: Option<(usize, u64)>,
    per_round: Vec<RoundAcc>,
}

#[derive(Default)]
struct RoundAcc {
    messages: u64,
    max_bits: usize,
    total_bits: u64,
    hist: std::collections::BTreeMap<u64, u64>,
}

/// Power-of-two histogram bucket for a message width.
fn width_bucket(bits: usize) -> u64 {
    if bits == 0 {
        0
    } else {
        (bits as u64).next_power_of_two()
    }
}

impl<P: MessageProgram, F: Fn(&P::Msg) -> usize> Metered<'_, P, F> {
    fn meter(&self, outs: &[Outgoing<P::Msg>], round: u64) {
        if outs.is_empty() {
            return;
        }
        let mut stats = self.stats.borrow_mut();
        let idx = round as usize;
        if stats.per_round.len() <= idx {
            stats.per_round.resize_with(idx + 1, RoundAcc::default);
        }
        for o in outs {
            let bits = (self.size_of)(&o.msg);
            stats.max_bits = stats.max_bits.max(bits);
            stats.total_bits += bits as u64;
            if bits > self.budget {
                stats.violation = Some(match stats.violation {
                    None => (bits, round),
                    Some((b, r)) if round < r || (round == r && bits > b) => (bits, round),
                    Some(v) => v,
                });
            }
            let acc = &mut stats.per_round[idx];
            acc.messages += 1;
            acc.max_bits = acc.max_bits.max(bits);
            acc.total_bits += bits as u64;
            if self.hist {
                *acc.hist.entry(width_bucket(bits)).or_default() += 1;
            }
        }
    }
}

impl<P: MessageProgram, F: Fn(&P::Msg) -> usize> MessageProgram for Metered<'_, P, F> {
    type State = P::State;
    type Msg = P::Msg;
    type Output = P::Output;

    fn init(&self, ctx: &NodeCtx) -> (Self::State, Vec<Outgoing<Self::Msg>>) {
        let (st, outs) = self.inner.init(ctx);
        self.meter(&outs, 0);
        (st, outs)
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &mut Self::State,
        inbox: &[Option<Self::Msg>],
    ) -> MsgTransition<Self::Msg, Self::Output> {
        let t = self.inner.step(ctx, state, inbox);
        match &t {
            MsgTransition::Continue(outs) | MsgTransition::HaltAfter(outs, _) => {
                self.meter(outs, ctx.round);
            }
        }
        t
    }
}

impl<'g, F> CongestExecutor<'g, F> {
    /// Runs `prog` with metering.
    ///
    /// # Errors
    ///
    /// [`CongestError::BandwidthExceeded`] on the first over-budget
    /// message; simulator errors otherwise.
    pub fn run<P>(
        &self,
        prog: &P,
        max_rounds: u64,
    ) -> Result<CongestResult<P::Output>, CongestError>
    where
        P: MessageProgram,
        F: Fn(&P::Msg) -> usize + Clone,
    {
        let metered = Metered {
            inner: prog,
            size_of: self.size_of.clone(),
            budget: self.budget_bits,
            hist: self.probe.enabled(),
            stats: std::cell::RefCell::new(MeterStats::default()),
        };
        let mut inner = MessageExecutor::new(self.graph).with_probe(self.probe.clone());
        if let Some(plan) = &self.faults {
            inner = inner.with_faults(plan.clone());
        }
        let run: RunResult<P::Output> = inner.run(&metered, max_rounds)?;
        let stats = metered.stats.into_inner();
        // Bandwidth metrics are recorded even when the run ends in a
        // budget violation — the bits were sent before the check fired.
        if let Some(hub) = self.probe.metrics() {
            let messages: u64 = stats.per_round.iter().map(|r| r.messages).sum();
            hub.counter("congest.messages").add(messages);
            hub.counter("congest.total_bits").add(stats.total_bits);
            hub.watermark("congest.max_bits")
                .record(stats.max_bits as u64);
        }
        if let Some((bits, round)) = stats.violation {
            return Err(CongestError::BandwidthExceeded {
                bits,
                budget: self.budget_bits,
                round,
            });
        }
        let per_round: Vec<RoundBits> = stats
            .per_round
            .into_iter()
            .enumerate()
            .map(|(round, acc)| RoundBits {
                round: round as u64,
                messages: acc.messages,
                max_bits: acc.max_bits,
                total_bits: acc.total_bits,
                width_hist: acc.hist.into_iter().collect(),
            })
            .collect();
        for rb in &per_round {
            self.probe.emit_with(|| Event::CongestRound {
                round: rb.round,
                messages: rb.messages,
                max_bits: rb.max_bits as u64,
                total_bits: rb.total_bits,
                width_hist: rb.width_hist.clone(),
            });
        }
        Ok(CongestResult {
            outputs: run.outputs,
            rounds: run.rounds,
            max_message_bits: stats.max_bits,
            total_bits: stats.total_bits,
            per_round,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::broadcast;
    use graphgen::Graph;

    /// Each node broadcasts its uid once; width = significant bits.
    struct Ids;
    impl MessageProgram for Ids {
        type State = ();
        type Msg = u64;
        type Output = ();
        fn init(&self, ctx: &NodeCtx) -> ((), Vec<Outgoing<u64>>) {
            ((), broadcast(ctx.degree(), &ctx.uid))
        }
        fn step(&self, _c: &NodeCtx, _s: &mut (), _i: &[Option<u64>]) -> MsgTransition<u64, ()> {
            MsgTransition::HaltAfter(Vec::new(), ())
        }
    }

    fn width(m: &u64) -> usize {
        (64 - m.leading_zeros()) as usize
    }

    #[test]
    fn within_budget_reports_stats() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let ex = CongestExecutor::new(&g, 8, width);
        let out = ex.run(&Ids, 5).unwrap();
        assert_eq!(out.max_message_bits, 2); // uid 3 = 0b11
        assert!(out.total_bits > 0);
    }

    #[test]
    fn over_budget_rejected() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let ex = CongestExecutor::new(&g, 0, width);
        let err = ex.run(&Ids, 5).unwrap_err();
        assert!(matches!(
            err,
            CongestError::BandwidthExceeded {
                bits: 1,
                budget: 0,
                ..
            }
        ));
    }

    /// The module doc-comment's `MinId` program, verbatim.
    struct MinId;
    impl MessageProgram for MinId {
        type State = u64;
        type Msg = u64;
        type Output = u64;
        fn init(&self, ctx: &NodeCtx) -> (u64, Vec<Outgoing<u64>>) {
            (ctx.uid, broadcast(ctx.degree(), &ctx.uid))
        }
        fn step(
            &self,
            ctx: &NodeCtx,
            state: &mut u64,
            inbox: &[Option<u64>],
        ) -> MsgTransition<u64, u64> {
            let m = inbox
                .iter()
                .flatten()
                .copied()
                .min()
                .unwrap_or(*state)
                .min(*state);
            if ctx.round >= 3 {
                MsgTransition::HaltAfter(Vec::new(), m)
            } else {
                *state = m;
                MsgTransition::Continue(broadcast(ctx.degree(), &m))
            }
        }
    }

    #[test]
    fn min_id_per_round_histograms() {
        use telemetry::{Event, Probe, RecordingSink};

        let sink = std::sync::Arc::new(RecordingSink::new());
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let ex = CongestExecutor::new(&g, 32, width).with_probe(Probe::new(sink.clone()));
        let run = ex.run(&MinId, 10).unwrap();
        assert_eq!(run.rounds, 3);
        assert!(run.outputs.iter().all(|&m| m == 0));

        // Round 0 = init broadcasts: uid 0 (0 bits) once, uid 1 (1 bit)
        // twice, uids 2 and 3 (2 bits) three times over the path's ports.
        assert_eq!(run.per_round.len(), 3, "final round sends nothing");
        assert_eq!(
            run.per_round[0],
            RoundBits {
                round: 0,
                messages: 6,
                max_bits: 2,
                total_bits: 8,
                width_hist: vec![(0, 1), (1, 2), (2, 3)],
            }
        );
        // The minimum floods left-to-right, so widths shrink round over round.
        assert!(run.per_round[1].max_bits <= run.per_round[0].max_bits);
        assert_eq!(
            run.per_round.iter().map(|r| r.total_bits).sum::<u64>(),
            run.total_bits
        );

        let congest_events: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e, Event::CongestRound { .. }))
            .collect();
        assert_eq!(congest_events.len(), 3);
        // The inner message executor also reports per-round liveness.
        assert_eq!(sink.rounds_seen(crate::msg::MSG_SCOPE), 3);
    }
}
