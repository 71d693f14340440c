//! Seed-deterministic fault injection for the executors.
//!
//! A [`FaultPlan`] describes which faults to inject into a run: per-message
//! drops, scheduled node crashes, and bounded-asynchrony round jitter. All
//! three executors accept a plan via `with_faults` and replay it exactly.
//!
//! # Determinism
//!
//! Every probabilistic decision is a pure function of `(plan.seed, key)`
//! where the key names the affected object — a directed port slot and
//! round for drops, a node and jitter window for stalls. No decision
//! depends on iteration order, thread count, or any evolving RNG stream,
//! so repeated runs of the same plan are bit-identical, and so is a shard
//! fleet at any shard count (see `docs/FAULTS.md` for the full argument).

use std::collections::BTreeMap;
use std::str::FromStr;

use graphgen::NodeId;
use serde::{Deserialize, Serialize};

use crate::exec::SimError;

/// Distinct hash streams so that drop and stall decisions for overlapping
/// integer keys never correlate.
const STREAM_DROP: u64 = 0xD09F_5CEE_D15A_57E5;
const STREAM_STALL: u64 = 0x57A1_1BAD_CAFE_F00D;

/// The 64-bit finalizer of splitmix64: a full-avalanche bijection.
/// Shared with the wire-level chaos plan (`shard::netfault`) so every
/// fault layer draws from the same deterministic primitive.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A reproducible description of the faults to inject into one run.
///
/// The default plan injects nothing; executors treat it exactly like no
/// plan at all (no extra counters, no fault events).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for all probabilistic fault decisions.
    pub seed: u64,
    /// Probability that any single message is dropped in transit,
    /// in `[0, 1)`. In the state-exchange executor a "message" is one
    /// neighbor-state read: a dropped read leaves the reader seeing the
    /// state it last heard from that neighbor.
    pub message_drop_p: f64,
    /// Nodes to crash, as `(round, node)` pairs: at the start of the given
    /// round (1-based, like `NodeCtx::round`) the node freezes its state —
    /// visible to neighbors forever, like a halted node — but never
    /// produces an output. A run with crashed nodes ends in
    /// [`crate::SimError::Crashed`].
    pub node_crash: Vec<(u64, NodeId)>,
    /// Bounded-asynchrony jitter: within every window of
    /// `round_jitter + 1` consecutive rounds, each node steps in exactly
    /// one (seed-chosen) round and stalls in the others. `0` disables
    /// jitter.
    pub round_jitter: u64,
}

impl FaultPlan {
    /// Whether this plan injects anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.drops() || self.jitters() || !self.node_crash.is_empty()
    }

    /// Whether this plan drops messages at all.
    #[inline]
    #[must_use]
    pub fn drops(&self) -> bool {
        self.message_drop_p > 0.0
    }

    /// Whether this plan stalls nodes at all.
    #[inline]
    #[must_use]
    pub fn jitters(&self) -> bool {
        self.round_jitter > 0
    }

    /// A uniform value in `[0, 1)`, keyed by `(seed, stream, a, b)`.
    ///
    /// This is the primitive behind every probabilistic decision; other
    /// layers (e.g. the pipeline's detect-and-retry loop) may derive their
    /// own decisions from it with their own `stream` tags.
    #[must_use]
    pub fn unit(&self, stream: u64, a: u64, b: u64) -> f64 {
        let h = mix(mix(mix(self.seed ^ stream) ^ a).wrapping_add(b));
        // The top 53 bits, scaled to [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether the message occupying directed-port `slot` in (1-based)
    /// `round` is dropped.
    #[inline]
    #[must_use]
    pub fn drops_message(&self, round: u64, slot: usize) -> bool {
        self.drops() && self.unit(STREAM_DROP, round, slot as u64) < self.message_drop_p
    }

    /// Whether `node` stalls (skips its step) in (1-based) `round`.
    ///
    /// Rounds are partitioned into windows of `round_jitter + 1`; in each
    /// window the node steps exactly once, at a seed-chosen offset.
    #[inline]
    #[must_use]
    pub fn stalls(&self, node: NodeId, round: u64) -> bool {
        if !self.jitters() {
            return false;
        }
        let period = self.round_jitter + 1;
        let window = (round - 1) / period;
        let offset = (round - 1) % period;
        let h = mix(mix(self.seed ^ STREAM_STALL ^ u64::from(node.0)).wrapping_add(window));
        offset != h % period
    }

    /// Checks the plan against an `n`-node graph: every scheduled crash
    /// must name a node of the graph. Every executor runs this check
    /// before round 1.
    ///
    /// # Errors
    ///
    /// [`SimError::BadFaultPlan`] naming the first crash entry outside
    /// the graph.
    pub fn check(&self, n: usize) -> Result<(), SimError> {
        match self.node_crash.iter().find(|(_, v)| v.index() >= n) {
            Some(&(round, v)) => Err(SimError::BadFaultPlan(format!(
                "crash entry `{}@{round}` names node {}, but the graph has {n} nodes",
                v.0, v.0
            ))),
            None => Ok(()),
        }
    }

    /// The crash schedule grouped by round, nodes sorted and deduplicated
    /// within each round.
    #[must_use]
    pub fn crash_schedule(&self) -> BTreeMap<u64, Vec<NodeId>> {
        let mut sched: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        for &(round, v) in &self.node_crash {
            sched.entry(round).or_default().push(v);
        }
        for nodes in sched.values_mut() {
            nodes.sort_unstable();
            nodes.dedup();
        }
        sched
    }
}

/// Parses the CLI spec format: comma-separated `key=value` pairs with
/// keys `seed`, `drop`, `jitter`, and `crash` (the latter a
/// `+`-separated list of `node@round` entries).
///
/// ```
/// use localsim::FaultPlan;
/// let plan: FaultPlan = "seed=7,drop=0.01,jitter=2,crash=3@5+9@5".parse()?;
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.node_crash.len(), 2);
/// # Ok::<(), String>(())
/// ```
impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        const KEYS: &str = "`seed`, `drop`, `jitter`, `crash`";
        let mut plan = FaultPlan::default();
        let mut seen: Vec<&str> = Vec::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part.split_once('=').ok_or_else(|| {
                format!(
                    "fault spec entry `{}` is not a `key=value` pair (valid keys: {KEYS})",
                    part.trim()
                )
            })?;
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(format!("fault spec key `{key}` has an empty value"));
            }
            if let Some(&dup) = seen.iter().find(|&&k| k == key) {
                return Err(format!("fault spec key `{dup}` given more than once"));
            }
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|e| format!("key `seed`: bad value `{value}`: {e}"))?;
                    seen.push("seed");
                }
                "drop" => {
                    let p: f64 = value
                        .parse()
                        .map_err(|e| format!("key `drop`: bad probability `{value}`: {e}"))?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(format!("key `drop`: probability `{value}` outside [0, 1)"));
                    }
                    plan.message_drop_p = p;
                    seen.push("drop");
                }
                "jitter" => {
                    plan.round_jitter = value
                        .parse()
                        .map_err(|e| format!("key `jitter`: bad value `{value}`: {e}"))?;
                    seen.push("jitter");
                }
                "crash" => {
                    for entry in value.split('+') {
                        let (node, round) = entry.split_once('@').ok_or_else(|| {
                            format!(
                                "key `crash`: entry `{entry}` is not `node@round` \
                                 (example: `crash=3@5+9@5`)"
                            )
                        })?;
                        let node: u32 = node.parse().map_err(|e| {
                            format!("key `crash`: bad node id `{node}` in entry `{entry}`: {e}")
                        })?;
                        let round: u64 = round.parse().map_err(|e| {
                            format!("key `crash`: bad round `{round}` in entry `{entry}`: {e}")
                        })?;
                        if round == 0 {
                            return Err(format!(
                                "key `crash`: entry `{entry}` crashes at round 0, \
                                 but crash rounds are 1-based"
                            ));
                        }
                        plan.node_crash.push((round, NodeId(node)));
                    }
                    seen.push("crash");
                }
                other => {
                    return Err(format!(
                        "unknown fault spec key `{other}` (valid keys: {KEYS})"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(!plan.drops_message(1, 0));
        assert!(!plan.stalls(NodeId(0), 1));
        assert!(plan.crash_schedule().is_empty());
    }

    #[test]
    fn decisions_are_reproducible_and_key_sensitive() {
        let plan = FaultPlan {
            seed: 42,
            message_drop_p: 0.5,
            round_jitter: 3,
            ..FaultPlan::default()
        };
        for round in 1..50 {
            for slot in 0..50 {
                assert_eq!(
                    plan.drops_message(round, slot),
                    plan.drops_message(round, slot)
                );
            }
            for v in 0..50 {
                assert_eq!(plan.stalls(NodeId(v), round), plan.stalls(NodeId(v), round));
            }
        }
        // Different seeds disagree somewhere.
        let other = FaultPlan {
            seed: 43,
            ..plan.clone()
        };
        assert!((1..200u64)
            .any(|r| (0..200).any(|s| plan.drops_message(r, s) != other.drops_message(r, s))));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan {
            seed: 1,
            message_drop_p: 0.2,
            ..FaultPlan::default()
        };
        let trials = 20_000usize;
        let hits = (0..trials)
            .filter(|&s| plan.drops_message(1 + s as u64 / 100, s))
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn jitter_steps_once_per_window() {
        let plan = FaultPlan {
            seed: 9,
            round_jitter: 2,
            ..FaultPlan::default()
        };
        let period = plan.round_jitter + 1;
        for v in (0..40).map(NodeId) {
            for window in 0..20u64 {
                let steps = (1..=period)
                    .filter(|off| !plan.stalls(v, window * period + off))
                    .count();
                assert_eq!(steps, 1, "node {v:?} window {window}");
            }
        }
    }

    #[test]
    fn crash_schedule_groups_sorts_and_dedups() {
        let plan = FaultPlan {
            node_crash: vec![
                (4, NodeId(9)),
                (2, NodeId(5)),
                (4, NodeId(1)),
                (4, NodeId(9)),
            ],
            ..FaultPlan::default()
        };
        let sched = plan.crash_schedule();
        assert_eq!(sched[&2], vec![NodeId(5)]);
        assert_eq!(sched[&4], vec![NodeId(1), NodeId(9)]);
    }

    #[test]
    fn spec_parsing_round_trips_the_readme_example() {
        let plan: FaultPlan = "seed=7,drop=0.01,jitter=2,crash=3@5+9@5".parse().unwrap();
        assert_eq!(plan.seed, 7);
        assert!((plan.message_drop_p - 0.01).abs() < 1e-12);
        assert_eq!(plan.round_jitter, 2);
        assert_eq!(plan.node_crash, vec![(5, NodeId(3)), (5, NodeId(9))]);
    }

    #[test]
    fn spec_parsing_rejects_malformed_input() {
        assert!("drop=1.5".parse::<FaultPlan>().is_err());
        assert!("drop=-0.1".parse::<FaultPlan>().is_err());
        assert!("crash=5".parse::<FaultPlan>().is_err());
        assert!("crash=5@0".parse::<FaultPlan>().is_err());
        assert!("frobnicate=1".parse::<FaultPlan>().is_err());
        assert!("seed".parse::<FaultPlan>().is_err());
        assert!("".parse::<FaultPlan>().unwrap() == FaultPlan::default());
    }

    /// Every error path names the offending key and value, so a bad CLI
    /// spec is diagnosable without reading this source file.
    #[test]
    fn spec_errors_name_the_offending_key_and_value() {
        let err = |spec: &str| spec.parse::<FaultPlan>().unwrap_err();

        let e = err("seed");
        assert!(e.contains("`seed`") && e.contains("key=value"), "{e}");
        let e = err("seed=abc");
        assert!(e.contains("`seed`") && e.contains("`abc`"), "{e}");
        let e = err("drop=oops");
        assert!(e.contains("`drop`") && e.contains("`oops`"), "{e}");
        let e = err("drop=1.5");
        assert!(e.contains("`drop`") && e.contains("outside [0, 1)"), "{e}");
        let e = err("jitter=fast");
        assert!(e.contains("`jitter`") && e.contains("`fast`"), "{e}");
        let e = err("crash=5");
        assert!(e.contains("`crash`") && e.contains("node@round"), "{e}");
        let e = err("crash=x@3");
        assert!(e.contains("`crash`") && e.contains("`x`"), "{e}");
        let e = err("crash=3@y");
        assert!(e.contains("`crash`") && e.contains("`y`"), "{e}");
        let e = err("crash=3@0");
        assert!(e.contains("`crash`") && e.contains("1-based"), "{e}");
        let e = err("warp=9");
        assert!(e.contains("`warp`") && e.contains("valid keys"), "{e}");
        let e = err("seed=");
        assert!(e.contains("`seed`") && e.contains("empty value"), "{e}");
        let e = err("seed=1,seed=2");
        assert!(e.contains("`seed`") && e.contains("more than once"), "{e}");
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let plan = FaultPlan {
            seed: 7,
            message_drop_p: 0.01,
            node_crash: vec![(5, NodeId(3)), (5, NodeId(9))],
            round_jitter: 2,
        };
        let json = serde::json::to_string(&plan);
        let back: FaultPlan = serde::json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
