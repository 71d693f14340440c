//! The per-round [`Event::Round`] / [`Event::Fault`] schema, owned in
//! one place for every executor that steps rounds: [`crate::Executor`],
//! [`crate::MessageExecutor`] and the shard coordinator.

use graphgen::NodeId;
use telemetry::{Event, FaultKind, Probe};

use crate::faults::FaultPlan;

/// Tallies one run's rounds into trace events. Counters are plain
/// integers; nothing is built unless the probe has a sink.
///
/// Each round's `Round` event carries, in this order, `live_nodes`,
/// `halted`, `messages_sent`, then `inbox_bytes` (message executor only),
/// `messages_dropped` (drop faults on) and `stalled_nodes` (jitter on),
/// and one gauge, `halted_fraction`. `live_nodes` and `inbox_bytes` are
/// levels at the start of the round; the other counters are its deltas.
pub(crate) struct RoundTally {
    probe: Probe,
    scope: &'static str,
    n: usize,
    counts_inbox: bool,
    counts_drops: bool,
    counts_stalls: bool,
    round: u64,
    live: usize,
    inbox_bytes: usize,
}

impl RoundTally {
    /// A tally for an `n`-node run under `plan`, emitting to `probe`
    /// under `scope`.
    pub(crate) fn new(
        probe: &Probe,
        scope: &'static str,
        n: usize,
        plan: &FaultPlan,
        counts_inbox: bool,
    ) -> Self {
        RoundTally {
            probe: probe.clone(),
            scope,
            n,
            counts_inbox,
            counts_drops: plan.drops(),
            counts_stalls: plan.jitters(),
            round: 0,
            live: 0,
            inbox_bytes: 0,
        }
    }

    /// Opens round `round` (1-based, like `NodeCtx::round`; events carry
    /// the 0-based index) with `live` nodes before this round's crashes.
    /// `inbox_bytes` is ignored unless the tally counts it.
    pub(crate) fn round_start(&mut self, round: u64, live: usize, inbox_bytes: usize) {
        self.round = round;
        self.live = live;
        self.inbox_bytes = inbox_bytes;
    }

    /// Records a node crashed at the start of the open round.
    pub(crate) fn crash(&mut self, node: NodeId) {
        self.live -= 1;
        self.probe.emit_with(|| Event::Fault {
            scope: self.scope.to_string(),
            round: self.round - 1,
            kind: FaultKind::Crash,
            node: Some(u64::from(node.0)),
            count: 1,
        });
    }

    /// Closes the open round with its deltas: emits the `Drop` and `Stall`
    /// fault events (when non-zero), then the `Round` event.
    pub(crate) fn round_end(&self, msgs: i64, halted: usize, dropped: i64, stalled: i64) {
        let round = self.round - 1;
        let fault = |kind, count: i64| {
            if count > 0 {
                self.probe.emit_with(|| Event::Fault {
                    scope: self.scope.to_string(),
                    round,
                    kind,
                    node: None,
                    count: count as u64,
                });
            }
        };
        fault(FaultKind::Drop, dropped);
        fault(FaultKind::Stall, stalled);
        self.probe.emit_with(|| {
            let mut counters = vec![
                ("live_nodes".to_string(), self.live as i64),
                ("halted".to_string(), halted as i64),
                ("messages_sent".to_string(), msgs),
            ];
            if self.counts_inbox {
                counters.push(("inbox_bytes".to_string(), self.inbox_bytes as i64));
            }
            if self.counts_drops {
                counters.push(("messages_dropped".to_string(), dropped));
            }
            if self.counts_stalls {
                counters.push(("stalled_nodes".to_string(), stalled));
            }
            let halted_fraction = (self.n - (self.live - halted)) as f64 / self.n as f64;
            Event::Round {
                scope: self.scope.to_string(),
                round,
                counters,
                gauges: vec![("halted_fraction".to_string(), halted_fraction)],
            }
        });
    }
}
