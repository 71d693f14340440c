//! CONGEST implementations of Luby's MIS and Israeli–Itai matching.
//!
//! The state-exchange implementations in [`crate::mis`] and
//! [`crate::matching`] are convenient but broadcast whole states. These
//! per-port versions send only what the algorithms actually need —
//! `O(log n)`-bit priorities and constant-size status flags — and run
//! through the metering [`localsim::CongestExecutor`], demonstrating that
//! the classic symmetry-breaking toolbox is CONGEST-compatible (the model
//! of the paper's companion works [MU21, HM24]).

use graphgen::{Graph, NodeId};
use localsim::{
    broadcast, CongestError, CongestExecutor, MessageProgram, MsgTransition, NodeCtx, Outgoing,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-edge message of the CONGEST MIS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisMsg {
    /// This round's priority.
    Bid(u64),
    /// "I joined the MIS."
    Joined,
    /// "I am out (a neighbor joined)."
    Retired,
}

fn mis_msg_bits(m: &MisMsg) -> usize {
    match m {
        MisMsg::Bid(p) => 2 + (64 - p.leading_zeros()) as usize,
        MisMsg::Joined | MisMsg::Retired => 2,
    }
}

struct LubyCongest {
    seed: u64,
    /// Priorities are drawn modulo this bound, keeping messages narrow
    /// (`O(log n)` bits suffice w.h.p. for distinctness per round).
    priority_space: u64,
}

struct LubyState {
    rng: StdRng,
    bid: u64,
    alive_ports: Vec<bool>,
}

impl MessageProgram for LubyCongest {
    type State = LubyState;
    type Msg = MisMsg;
    type Output = bool;

    fn init(&self, ctx: &NodeCtx) -> (LubyState, Vec<Outgoing<MisMsg>>) {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ ctx.uid.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let bid = rng.gen_range(0..self.priority_space);
        let state = LubyState {
            rng,
            bid,
            alive_ports: vec![true; ctx.degree()],
        };
        let outs = broadcast(ctx.degree(), &MisMsg::Bid(bid));
        (state, outs)
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &mut LubyState,
        inbox: &[Option<MisMsg>],
    ) -> MsgTransition<MisMsg, bool> {
        // Mark retired/joined neighbors; a joined neighbor retires us.
        let mut neighbor_joined = false;
        for (p, msg) in inbox.iter().enumerate() {
            match msg {
                Some(MisMsg::Joined) => {
                    neighbor_joined = true;
                    state.alive_ports[p] = false;
                }
                Some(MisMsg::Retired) => state.alive_ports[p] = false,
                _ => {}
            }
        }
        if neighbor_joined {
            return MsgTransition::HaltAfter(live_broadcast(state, &MisMsg::Retired), false);
        }
        if ctx.round % 2 == 1 {
            // Decision round: compare my bid against live neighbors' bids.
            let me = (state.bid, ctx.uid);
            let beaten = inbox.iter().enumerate().any(|(p, m)| {
                matches!(m, Some(MisMsg::Bid(q))
                    if state.alive_ports[p] && (*q, port_uid(ctx, p)) > me)
            });
            if !beaten {
                return MsgTransition::HaltAfter(live_broadcast(state, &MisMsg::Joined), true);
            }
            MsgTransition::Continue(Vec::new())
        } else {
            // Redraw round.
            state.bid = state.rng.gen_range(0..self.priority_space);
            MsgTransition::Continue(live_broadcast(state, &MisMsg::Bid(state.bid)))
        }
    }
}

fn live_broadcast(state: &LubyState, msg: &MisMsg) -> Vec<Outgoing<MisMsg>> {
    state
        .alive_ports
        .iter()
        .enumerate()
        .filter(|&(_, &alive)| alive)
        .map(|(p, _)| Outgoing::new(p, *msg))
        .collect()
}

/// The uid of the neighbor on port `p` (ids are the indices here, which is
/// what the default executors install).
fn port_uid(ctx: &NodeCtx, p: usize) -> u64 {
    u64::from(ctx.neighbors[p].0)
}

/// Outcome of a CONGEST run.
#[derive(Debug, Clone)]
pub struct CongestRun<T> {
    /// The result.
    pub value: T,
    /// Communication rounds.
    pub rounds: u64,
    /// Widest message observed (bits).
    pub max_message_bits: usize,
}

/// Luby's MIS with `O(log n)`-bit messages, metered.
///
/// # Errors
///
/// Propagates metering/simulator failures.
pub fn congest_mis(g: &Graph, seed: u64) -> Result<CongestRun<Vec<bool>>, CongestError> {
    // log²-bit priorities: distinct per round w.h.p.
    let bits = 2 * (usize::BITS - g.n().leading_zeros()) as u64 + 8;
    let space = 1u64 << bits.min(62);
    let budget_bits = bits as usize + 4;
    let ex = CongestExecutor::new(g, budget_bits, mis_msg_bits);
    let max_rounds = 100 + 32 * (usize::BITS - g.n().leading_zeros()) as u64;
    let run = ex.run(
        &LubyCongest {
            seed,
            priority_space: space,
        },
        max_rounds,
    )?;
    Ok(CongestRun {
        value: run.outputs,
        rounds: run.rounds,
        max_message_bits: run.max_message_bits,
    })
}

/// Per-edge message of the CONGEST matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchMsg {
    /// Proposal to the receiving neighbor.
    Propose,
    /// Acceptance of the receiving neighbor's proposal.
    Accept,
    /// "I am matched" (to someone).
    Matched,
}

fn match_msg_bits(_m: &MatchMsg) -> usize {
    2
}

struct MatchCongest {
    seed: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MatchRole {
    Idle,
    Proposed(usize),
    Accepted(usize),
}

struct MatchState {
    rng: StdRng,
    free_ports: Vec<bool>,
    role: MatchRole,
}

impl MessageProgram for MatchCongest {
    type State = MatchState;
    type Msg = MatchMsg;
    type Output = Option<NodeId>;

    fn init(&self, ctx: &NodeCtx) -> (MatchState, Vec<Outgoing<MatchMsg>>) {
        let rng = StdRng::seed_from_u64(self.seed ^ ctx.uid.wrapping_mul(0xA076_1D64_78BD_642F));
        (
            MatchState {
                rng,
                free_ports: vec![true; ctx.degree()],
                role: MatchRole::Idle,
            },
            Vec::new(),
        )
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &mut MatchState,
        inbox: &[Option<MatchMsg>],
    ) -> MsgTransition<MatchMsg, Option<NodeId>> {
        // Track matched neighbors.
        for (p, msg) in inbox.iter().enumerate() {
            if matches!(msg, Some(MatchMsg::Matched)) {
                state.free_ports[p] = false;
            }
        }
        match (ctx.round - 1) % 3 {
            0 => {
                // Propose with a coin to a random free neighbor.
                let free: Vec<usize> = (0..ctx.degree()).filter(|&p| state.free_ports[p]).collect();
                if free.is_empty() {
                    return MsgTransition::HaltAfter(Vec::new(), None);
                }
                state.role = MatchRole::Idle;
                if state.rng.gen_bool(0.5) {
                    let p = free[state.rng.gen_range(0..free.len())];
                    state.role = MatchRole::Proposed(p);
                    return MsgTransition::Continue(vec![Outgoing::new(p, MatchMsg::Propose)]);
                }
                MsgTransition::Continue(Vec::new())
            }
            1 => {
                // Accept the smallest-uid proposer (non-proposers only).
                if matches!(state.role, MatchRole::Proposed(_)) {
                    return MsgTransition::Continue(Vec::new());
                }
                let best = inbox
                    .iter()
                    .enumerate()
                    .filter(|(p, m)| matches!(m, Some(MatchMsg::Propose)) && state.free_ports[*p])
                    .min_by_key(|&(p, _)| port_uid(ctx, p));
                if let Some((p, _)) = best {
                    state.role = MatchRole::Accepted(p);
                    return MsgTransition::Continue(vec![Outgoing::new(p, MatchMsg::Accept)]);
                }
                MsgTransition::Continue(Vec::new())
            }
            _ => {
                // Confirm: a proposer matched iff its target accepted; an
                // acceptor matched its chosen proposer unconditionally (the
                // proposer always confirms an acceptance).
                let matched_port = match state.role {
                    MatchRole::Proposed(p) if matches!(inbox[p], Some(MatchMsg::Accept)) => Some(p),
                    MatchRole::Accepted(p) => Some(p),
                    _ => None,
                };
                state.role = MatchRole::Idle;
                if let Some(p) = matched_port {
                    let partner = ctx.neighbors[p];
                    return MsgTransition::HaltAfter(
                        live_match_broadcast(state, MatchMsg::Matched),
                        Some(partner),
                    );
                }
                MsgTransition::Continue(Vec::new())
            }
        }
    }
}

fn live_match_broadcast(state: &MatchState, msg: MatchMsg) -> Vec<Outgoing<MatchMsg>> {
    state
        .free_ports
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f)
        .map(|(p, _)| Outgoing::new(p, msg))
        .collect()
}

/// Israeli–Itai style matching with 2-bit messages, metered.
///
/// # Errors
///
/// Propagates metering/simulator failures.
pub fn congest_matching(
    g: &Graph,
    seed: u64,
) -> Result<CongestRun<Vec<Option<NodeId>>>, CongestError> {
    let ex = CongestExecutor::new(g, 2, match_msg_bits);
    let max_rounds = 300 + 90 * (usize::BITS - g.n().leading_zeros()) as u64;
    let run = ex.run(&MatchCongest { seed }, max_rounds)?;
    Ok(CongestRun {
        value: run.outputs,
        rounds: run.rounds,
        max_message_bits: run.max_message_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::is_mis;
    use graphgen::generators;

    #[test]
    fn congest_mis_valid_and_narrow() {
        for (i, g) in [
            generators::cycle(50),
            generators::random_regular(120, 5, 2),
            generators::complete(10),
        ]
        .iter()
        .enumerate()
        {
            let out = congest_mis(g, i as u64).unwrap();
            assert!(is_mis(g, &out.value), "family {i}");
            let budget = 2 * (usize::BITS - g.n().leading_zeros()) as usize + 12;
            assert!(out.max_message_bits <= budget);
        }
    }

    #[test]
    fn congest_matching_valid_and_two_bit() {
        for (i, g) in [
            generators::cycle(40),
            generators::random_regular(100, 4, 7),
            generators::gnp(60, 0.12, 3),
        ]
        .iter()
        .enumerate()
        {
            let out = congest_matching(g, 40 + i as u64).unwrap();
            assert!(out.max_message_bits <= 2, "messages stay constant-size");
            // Symmetry + maximality.
            let mut edges = Vec::new();
            for v in g.vertices() {
                if let Some(p) = out.value[v.index()] {
                    assert_eq!(out.value[p.index()], Some(v), "asymmetric match at {v}");
                    if v < p {
                        edges.push((v, p));
                    }
                }
            }
            let m = crate::matching::Matching::from_pairs(g.n(), &edges);
            assert!(m.is_maximal(g), "family {i}");
        }
    }

    #[test]
    fn differential_vs_state_exchange() {
        // Both implementations produce *valid* (not identical) outputs on
        // the same graphs — the invariant, not the trace, is the contract.
        let g = generators::random_regular(200, 6, 11);
        let a = congest_mis(&g, 5).unwrap();
        assert!(is_mis(&g, &a.value));
        let b = crate::mis::mis_luby(&g, 5).unwrap();
        assert!(is_mis(&g, &b.value));
    }
}
