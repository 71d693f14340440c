//! The structured event vocabulary emitted by probes.

use serde::{Deserialize, Error, Serialize, Value};

/// How a round charge entered the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// A real communication-round charge.
    Real,
    /// A constant number of rounds hidden in O(1) bookkeeping.
    Constant,
    /// Rounds accounted to a virtual (simulated-in-parallel) phase.
    Virtual,
    /// An entry absorbed from a sub-ledger under a phase prefix.
    Absorbed,
    /// The wait for a step that ran alongside the phases charged before
    /// it: only the part of its rounds not yet elapsed.
    Overlapped,
}

impl ChargeKind {
    fn as_str(self) -> &'static str {
        match self {
            ChargeKind::Real => "real",
            ChargeKind::Constant => "constant",
            ChargeKind::Virtual => "virtual",
            ChargeKind::Absorbed => "absorbed",
            ChargeKind::Overlapped => "overlapped",
        }
    }

    fn parse(s: &str) -> Result<Self, Error> {
        match s {
            "real" => Ok(ChargeKind::Real),
            "constant" => Ok(ChargeKind::Constant),
            "virtual" => Ok(ChargeKind::Virtual),
            "absorbed" => Ok(ChargeKind::Absorbed),
            "overlapped" => Ok(ChargeKind::Overlapped),
            other => Err(Error::new(format!("unknown charge kind `{other}`"))),
        }
    }
}

/// What kind of injected fault an [`Event::Fault`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A node crashed: its state froze mid-run and it will never output.
    Crash,
    /// Messages were dropped in transit (aggregated per round).
    Drop,
    /// Nodes were stalled by bounded-asynchrony jitter (aggregated per
    /// round).
    Stall,
    /// A pipeline-level retry: a leftover component struck by faults was
    /// rolled back and re-solved.
    Retry,
}

impl FaultKind {
    fn as_str(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Drop => "drop",
            FaultKind::Stall => "stall",
            FaultKind::Retry => "retry",
        }
    }

    fn parse(s: &str) -> Result<Self, Error> {
        match s {
            "crash" => Ok(FaultKind::Crash),
            "drop" => Ok(FaultKind::Drop),
            "stall" => Ok(FaultKind::Stall),
            "retry" => Ok(FaultKind::Retry),
            other => Err(Error::new(format!("unknown fault kind `{other}`"))),
        }
    }
}

/// One structured trace event.
///
/// Wall-clock time appears only in [`Event::SpanExit`]; everything else
/// is a pure function of the run, so [`Event::normalized`] (which zeroes
/// `wall_ns`) makes two traces of the same seeded run comparable with
/// `==`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A phase span opened. `path` is `/`-separated, e.g.
    /// `"pipeline/phase 1: balanced matching"`.
    SpanEnter {
        /// Span path.
        path: String,
    },
    /// A phase span closed.
    SpanExit {
        /// Span path, matching the corresponding [`Event::SpanEnter`].
        path: String,
        /// Communication rounds charged while the span was open.
        rounds: u64,
        /// Wall-clock duration of the span in nanoseconds.
        wall_ns: u64,
        /// Always empty; kept so the JSONL schema stays stable.
        counters: Vec<(String, i64)>,
    },
    /// Rounds were charged to the round ledger.
    Charge {
        /// Ledger phase path (absorbed entries carry their prefix).
        path: String,
        /// Number of rounds charged.
        rounds: u64,
        /// Charge flavour.
        kind: ChargeKind,
    },
    /// Per-round counters of one executor round: the deltas the executor
    /// tallied while stepping it, plus its end-of-round gauges.
    ///
    /// # Counter conventions
    ///
    /// The `messages_sent` counter emitted by the state-exchange executor
    /// charges every **live** node one message per incident edge per round:
    /// reading a halted neighbor's frozen state still counts, because in
    /// the LOCAL model the halted node's final state must still be
    /// (re)transmitted for the reader to see it. Edges between two halted
    /// nodes charge nothing — neither endpoint reads. Consequently
    /// `messages_sent` for a round equals the sum of live-node degrees at
    /// the start of that round, and per-round values sum to the run total
    /// regardless of thread count (the parallel stepping path accumulates
    /// the same per-round figures).
    Round {
        /// Which executor/loop emitted this (e.g. `"localsim"`,
        /// `"localsim/msg"`).
        scope: String,
        /// Round index, starting at 0.
        round: u64,
        /// Counter values for this round, in the executor's fixed order.
        counters: Vec<(String, i64)>,
        /// Gauge values at the end of this round.
        gauges: Vec<(String, f64)>,
    },
    /// Per-round CONGEST bandwidth accounting.
    CongestRound {
        /// Round index, starting at 0.
        round: u64,
        /// Messages delivered this round.
        messages: u64,
        /// Widest message this round, in bits.
        max_bits: u64,
        /// Total bits sent this round.
        total_bits: u64,
        /// Histogram of message widths: `(bucket_max_bits, count)` where
        /// buckets are powers of two; a message of width `w` lands in the
        /// smallest bucket with `w <= bucket_max_bits`.
        width_hist: Vec<(u64, u64)>,
    },
    /// A scalar observation outside any round loop.
    Metric {
        /// Emitting scope.
        scope: String,
        /// Metric name.
        name: String,
        /// Observed value.
        value: f64,
    },
    /// An injected fault fired (fault-plan runs only; fault-free runs
    /// never emit this variant, so their traces are byte-stable).
    ///
    /// Crashes are reported one event per node, in ascending node order;
    /// drops and stalls are aggregated into one event per round with
    /// `node: None` and the affected count.
    Fault {
        /// Emitting executor/loop scope (e.g. `"localsim"`, `"pipeline"`).
        scope: String,
        /// Round index the fault fired in, starting at 0 (for
        /// [`FaultKind::Retry`] this is the retry attempt number).
        round: u64,
        /// What happened.
        kind: FaultKind,
        /// The affected node, for per-node faults (crashes).
        node: Option<u64>,
        /// How many units were affected (nodes stalled, messages dropped,
        /// vertices rolled back; `1` for a single crash).
        count: u64,
    },
    /// The supervisor quarantined a failed unit and re-solved it with the
    /// baseline path (`baselines::brooks`). Carries no wall-clock data, so
    /// normalized streams from supervised runs stay comparable with `==`.
    Degraded {
        /// Emitting scope (`"supervisor"`).
        scope: String,
        /// Index of the quarantined unit (leftover-component index).
        unit: u64,
        /// Why the fast path was abandoned (panic payload, budget
        /// overrun, or pipeline error text).
        reason: String,
        /// Rounds charged for the baseline re-solve.
        rounds: u64,
    },
    /// The supervisor committed a phase-boundary checkpoint. Emitted only
    /// when checkpointing is enabled; the cursor slug names the completed
    /// phase and `rounds` is the ledger total at the boundary.
    Checkpoint {
        /// Phase-cursor slug (e.g. `"post-shattering"`).
        cursor: String,
        /// Ledger total at the boundary.
        rounds: u64,
    },
}

impl Event {
    /// The event with wall-clock fields zeroed, for determinism
    /// comparisons across runs.
    #[must_use]
    pub fn normalized(&self) -> Event {
        match self {
            Event::SpanExit {
                path,
                rounds,
                counters,
                ..
            } => Event::SpanExit {
                path: path.clone(),
                rounds: *rounds,
                wall_ns: 0,
                counters: counters.clone(),
            },
            other => other.clone(),
        }
    }

    /// The event's type tag as it appears in the JSON encoding.
    #[must_use]
    pub(crate) fn type_tag(&self) -> &'static str {
        match self {
            Event::SpanEnter { .. } => "span_enter",
            Event::SpanExit { .. } => "span_exit",
            Event::Charge { .. } => "charge",
            Event::Round { .. } => "round",
            Event::CongestRound { .. } => "congest_round",
            Event::Metric { .. } => "metric",
            Event::Fault { .. } => "fault",
            Event::Degraded { .. } => "degraded",
            Event::Checkpoint { .. } => "checkpoint",
        }
    }
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn pairs_i(entries: &[(String, i64)]) -> Value {
    Value::Map(
        entries
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect(),
    )
}

fn pairs_f(entries: &[(String, f64)]) -> Value {
    Value::Map(
        entries
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect(),
    )
}

fn unpairs_i(v: &Value) -> Result<Vec<(String, i64)>, Error> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .map(|(k, v)| Ok((k.clone(), i64::from_value(v)?)))
            .collect(),
        other => Err(Error::new(format!("expected object, found {other:?}"))),
    }
}

fn unpairs_f(v: &Value) -> Result<Vec<(String, f64)>, Error> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .map(|(k, v)| Ok((k.clone(), f64::from_value(v)?)))
            .collect(),
        other => Err(Error::new(format!("expected object, found {other:?}"))),
    }
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = vec![("type".to_string(), s(self.type_tag()))];
        match self {
            Event::SpanEnter { path } => {
                m.push(("path".to_string(), s(path)));
            }
            Event::SpanExit {
                path,
                rounds,
                wall_ns,
                counters,
            } => {
                m.push(("path".to_string(), s(path)));
                m.push(("rounds".to_string(), rounds.to_value()));
                m.push(("wall_ns".to_string(), wall_ns.to_value()));
                m.push(("counters".to_string(), pairs_i(counters)));
            }
            Event::Charge { path, rounds, kind } => {
                m.push(("path".to_string(), s(path)));
                m.push(("rounds".to_string(), rounds.to_value()));
                m.push(("kind".to_string(), s(kind.as_str())));
            }
            Event::Round {
                scope,
                round,
                counters,
                gauges,
            } => {
                m.push(("scope".to_string(), s(scope)));
                m.push(("round".to_string(), round.to_value()));
                m.push(("counters".to_string(), pairs_i(counters)));
                m.push(("gauges".to_string(), pairs_f(gauges)));
            }
            Event::CongestRound {
                round,
                messages,
                max_bits,
                total_bits,
                width_hist,
            } => {
                m.push(("round".to_string(), round.to_value()));
                m.push(("messages".to_string(), messages.to_value()));
                m.push(("max_bits".to_string(), max_bits.to_value()));
                m.push(("total_bits".to_string(), total_bits.to_value()));
                m.push(("width_hist".to_string(), width_hist.to_value()));
            }
            Event::Metric { scope, name, value } => {
                m.push(("scope".to_string(), s(scope)));
                m.push(("name".to_string(), s(name)));
                m.push(("value".to_string(), value.to_value()));
            }
            Event::Fault {
                scope,
                round,
                kind,
                node,
                count,
            } => {
                m.push(("scope".to_string(), s(scope)));
                m.push(("round".to_string(), round.to_value()));
                m.push(("kind".to_string(), s(kind.as_str())));
                m.push(("node".to_string(), node.to_value()));
                m.push(("count".to_string(), count.to_value()));
            }
            Event::Degraded {
                scope,
                unit,
                reason,
                rounds,
            } => {
                m.push(("scope".to_string(), s(scope)));
                m.push(("unit".to_string(), unit.to_value()));
                m.push(("reason".to_string(), s(reason)));
                m.push(("rounds".to_string(), rounds.to_value()));
            }
            Event::Checkpoint { cursor, rounds } => {
                m.push(("cursor".to_string(), s(cursor)));
                m.push(("rounds".to_string(), rounds.to_value()));
            }
        }
        Value::Map(m)
    }
}

impl<'de> Deserialize<'de> for Event {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let tag = String::from_value(v.field("type")?)?;
        match tag.as_str() {
            "span_enter" => Ok(Event::SpanEnter {
                path: String::from_value(v.field("path")?)?,
            }),
            "span_exit" => Ok(Event::SpanExit {
                path: String::from_value(v.field("path")?)?,
                rounds: u64::from_value(v.field("rounds")?)?,
                wall_ns: u64::from_value(v.field("wall_ns")?)?,
                counters: unpairs_i(v.field("counters")?)?,
            }),
            "charge" => Ok(Event::Charge {
                path: String::from_value(v.field("path")?)?,
                rounds: u64::from_value(v.field("rounds")?)?,
                kind: ChargeKind::parse(&String::from_value(v.field("kind")?)?)?,
            }),
            "round" => Ok(Event::Round {
                scope: String::from_value(v.field("scope")?)?,
                round: u64::from_value(v.field("round")?)?,
                counters: unpairs_i(v.field("counters")?)?,
                gauges: unpairs_f(v.field("gauges")?)?,
            }),
            "congest_round" => Ok(Event::CongestRound {
                round: u64::from_value(v.field("round")?)?,
                messages: u64::from_value(v.field("messages")?)?,
                max_bits: u64::from_value(v.field("max_bits")?)?,
                total_bits: u64::from_value(v.field("total_bits")?)?,
                width_hist: Vec::from_value(v.field("width_hist")?)?,
            }),
            "metric" => Ok(Event::Metric {
                scope: String::from_value(v.field("scope")?)?,
                name: String::from_value(v.field("name")?)?,
                value: f64::from_value(v.field("value")?)?,
            }),
            "fault" => Ok(Event::Fault {
                scope: String::from_value(v.field("scope")?)?,
                round: u64::from_value(v.field("round")?)?,
                kind: FaultKind::parse(&String::from_value(v.field("kind")?)?)?,
                node: Option::<u64>::from_value(v.field("node")?)?,
                count: u64::from_value(v.field("count")?)?,
            }),
            "degraded" => Ok(Event::Degraded {
                scope: String::from_value(v.field("scope")?)?,
                unit: u64::from_value(v.field("unit")?)?,
                reason: String::from_value(v.field("reason")?)?,
                rounds: u64::from_value(v.field("rounds")?)?,
            }),
            "checkpoint" => Ok(Event::Checkpoint {
                cursor: String::from_value(v.field("cursor")?)?,
                rounds: u64::from_value(v.field("rounds")?)?,
            }),
            other => Err(Error::new(format!("unknown event type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: &Event) {
        let json = serde::json::to_string(e);
        let back: Event = serde::json::from_str(&json).unwrap();
        assert_eq!(&back, e, "round trip through {json}");
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(&Event::SpanEnter {
            path: "pipeline/acd".into(),
        });
        round_trip(&Event::SpanExit {
            path: "pipeline/acd".into(),
            rounds: 12,
            wall_ns: 34_567,
            counters: vec![("cliques".into(), 3), ("delta".into(), -1)],
        });
        round_trip(&Event::Charge {
            path: "hard/phase 1".into(),
            rounds: 4,
            kind: ChargeKind::Virtual,
        });
        round_trip(&Event::Round {
            scope: "localsim".into(),
            round: 7,
            counters: vec![("live".into(), 100), ("halted".into(), 28)],
            gauges: vec![("halted_fraction".into(), 0.28)],
        });
        round_trip(&Event::CongestRound {
            round: 2,
            messages: 40,
            max_bits: 17,
            total_bits: 512,
            width_hist: vec![(16, 30), (32, 10)],
        });
        round_trip(&Event::Metric {
            scope: "bench".into(),
            name: "wall_clock_ms".into(),
            value: 12.5,
        });
        round_trip(&Event::Fault {
            scope: "localsim".into(),
            round: 9,
            kind: FaultKind::Crash,
            node: Some(17),
            count: 1,
        });
        round_trip(&Event::Fault {
            scope: "localsim/msg".into(),
            round: 2,
            kind: FaultKind::Drop,
            node: None,
            count: 5,
        });
        round_trip(&Event::Degraded {
            scope: "supervisor".into(),
            unit: 3,
            reason: "panic: chaos".into(),
            rounds: 17,
        });
        round_trip(&Event::Checkpoint {
            cursor: "post-shattering".into(),
            rounds: 120,
        });
    }

    #[test]
    fn supervisor_variants_are_normalization_stable() {
        // Neither variant carries wall-clock data, so normalization must
        // be the identity — supervised traces stay `==`-comparable.
        let d = Event::Degraded {
            scope: "supervisor".into(),
            unit: 0,
            reason: "round budget".into(),
            rounds: 9,
        };
        assert_eq!(d.normalized(), d);
        assert_eq!(d.type_tag(), "degraded");
        let c = Event::Checkpoint {
            cursor: "acd".into(),
            rounds: 1,
        };
        assert_eq!(c.normalized(), c);
        assert_eq!(c.type_tag(), "checkpoint");
    }

    #[test]
    fn fault_kind_parse_rejects_unknown() {
        assert!(FaultKind::parse("meteor").is_err());
    }

    #[test]
    fn normalized_zeroes_wall_clock_only() {
        let e = Event::SpanExit {
            path: "p".into(),
            rounds: 3,
            wall_ns: 999,
            counters: vec![],
        };
        match e.normalized() {
            Event::SpanExit {
                rounds, wall_ns, ..
            } => {
                assert_eq!(rounds, 3);
                assert_eq!(wall_ns, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = Event::Metric {
            scope: "s".into(),
            name: "n".into(),
            value: 1.0,
        };
        assert_eq!(r.normalized(), r);
    }

    #[test]
    fn charge_kind_parse_rejects_unknown() {
        assert!(ChargeKind::parse("bogus").is_err());
    }

    #[test]
    fn every_charge_kind_round_trips_through_its_name() {
        for kind in [
            ChargeKind::Real,
            ChargeKind::Constant,
            ChargeKind::Virtual,
            ChargeKind::Absorbed,
            ChargeKind::Overlapped,
        ] {
            assert_eq!(ChargeKind::parse(kind.as_str()).unwrap(), kind);
        }
    }
}
