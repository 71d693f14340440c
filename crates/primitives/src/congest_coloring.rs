//! A CONGEST-friendly `(Δ+1)`-coloring: randomized color trials whose
//! per-edge messages are `O(log Δ)` bits.
//!
//! The paper's companion results in bandwidth-restricted models (\[MU21\],
//! \[HM24\]) motivate demonstrating the bandwidth accounting end to end:
//! this algorithm runs on the per-port [`localsim::MessageExecutor`]
//! through the metering [`localsim::CongestExecutor`], and its messages
//! are single color indices — width `⌈log₂(Δ+2)⌉` bits.
//!
//! Each round every uncolored node draws a uniformly random color from its
//! current free list and broadcasts it; it keeps the color unless a
//! neighbor announced the same color this round or owns it already.
//! `O(log n)` rounds suffice w.h.p. ([Johansson'99]-style analysis).

use graphgen::{Color, Coloring, Graph};
use localsim::{
    broadcast, CongestError, CongestExecutor, MessageProgram, MsgTransition, NodeCtx, Outgoing,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-edge message: a color trial or an adopted color announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialMsg {
    /// "I try this color this round."
    Try(u32),
    /// "I own this color now."
    Own(u32),
}

fn msg_bits(m: &TrialMsg) -> usize {
    // One tag bit plus the color index.
    let c = match m {
        TrialMsg::Try(c) | TrialMsg::Own(c) => *c,
    };
    1 + (32 - c.leading_zeros()) as usize
}

struct TrialProgram {
    seed: u64,
    palette: u32,
}

struct TrialState {
    taken: Vec<bool>,
    trying: Option<u32>,
    rng: StdRng,
}

impl MessageProgram for TrialProgram {
    type State = TrialState;
    type Msg = TrialMsg;
    type Output = Color;

    fn init(&self, ctx: &NodeCtx) -> (TrialState, Vec<Outgoing<TrialMsg>>) {
        let mut state = TrialState {
            taken: vec![false; self.palette as usize],
            trying: None,
            rng: StdRng::seed_from_u64(self.seed ^ ctx.uid.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        };
        let c = draw(&mut state);
        (state, broadcast(ctx.degree(), &TrialMsg::Try(c)))
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &mut TrialState,
        inbox: &[Option<TrialMsg>],
    ) -> MsgTransition<TrialMsg, Color> {
        // Record ownership announcements and collect this round's trials.
        let mine = state.trying.expect("an uncolored node always tries");
        let mut conflict = false;
        for msg in inbox.iter().flatten() {
            match *msg {
                TrialMsg::Own(c) => {
                    state.taken[c as usize] = true;
                    if c == mine {
                        conflict = true;
                    }
                }
                TrialMsg::Try(c) => {
                    if c == mine {
                        conflict = true;
                    }
                }
            }
        }
        if !conflict {
            // Keep the color: announce ownership once, then halt.
            return MsgTransition::HaltAfter(
                broadcast(ctx.degree(), &TrialMsg::Own(mine)),
                Color(mine),
            );
        }
        let c = draw(state);
        MsgTransition::Continue(broadcast(ctx.degree(), &TrialMsg::Try(c)))
    }
}

fn draw(state: &mut TrialState) -> u32 {
    let free: Vec<u32> = (0..state.taken.len() as u32)
        .filter(|&c| !state.taken[c as usize])
        .collect();
    let c = free[state.rng.gen_range(0..free.len())];
    state.trying = Some(c);
    c
}

/// Outcome of [`congest_delta_plus_one`].
#[derive(Debug, Clone)]
pub struct CongestColoring {
    /// The proper `(Δ+1)`-coloring.
    pub coloring: Coloring,
    /// Communication rounds.
    pub rounds: u64,
    /// Largest message observed (bits) — `O(log Δ)` by construction.
    pub max_message_bits: usize,
}

/// Randomized `(Δ+1)`-coloring with `O(log Δ)`-bit messages, metered by the
/// CONGEST executor; `O(log n)` rounds w.h.p.
///
/// # Errors
///
/// Propagates metering/simulator failures (the `⌈log₂(Δ+2)⌉ + 2`-bit budget
/// is satisfied by construction; exceeding the round budget w.h.p. does
/// not happen).
pub fn congest_delta_plus_one(g: &Graph, seed: u64) -> Result<CongestColoring, CongestError> {
    let palette = g.max_degree() as u32 + 1;
    let budget_bits = (32 - palette.leading_zeros()) as usize + 2;
    let ex = CongestExecutor::new(g, budget_bits, msg_bits);
    let max_rounds = 200 + 40 * (usize::BITS - g.n().leading_zeros()) as u64;
    let run = ex.run(&TrialProgram { seed, palette }, max_rounds)?;
    let coloring = Coloring::from_vec(run.outputs.into_iter().map(Some).collect());
    Ok(CongestColoring {
        coloring,
        rounds: run.rounds,
        max_message_bits: run.max_message_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;

    #[test]
    fn proper_and_narrow_on_families() {
        for (i, g) in [
            generators::cycle(60),
            generators::random_regular(200, 8, 3),
            generators::complete(12),
            generators::hypercube(6),
        ]
        .iter()
        .enumerate()
        {
            let out = congest_delta_plus_one(g, i as u64).unwrap();
            out.coloring
                .check_complete(g, g.max_degree() as u32 + 1)
                .unwrap();
            let budget = (32 - (g.max_degree() as u32 + 1).leading_zeros()) as usize + 2;
            assert!(
                out.max_message_bits <= budget,
                "message width {} exceeds O(log Δ) budget {}",
                out.max_message_bits,
                budget
            );
        }
    }

    #[test]
    fn rounds_logarithmic() {
        let small = congest_delta_plus_one(&generators::random_regular(128, 6, 1), 9)
            .unwrap()
            .rounds;
        let large = congest_delta_plus_one(&generators::random_regular(8192, 6, 1), 9)
            .unwrap()
            .rounds;
        assert!(large <= 4 * small + 40, "{small} -> {large}");
    }

    #[test]
    fn conflict_handling_on_dense_clique() {
        // K_16 forces heavy conflicts: still terminates properly.
        let g = generators::complete(16);
        let out = congest_delta_plus_one(&g, 5).unwrap();
        out.coloring.check_complete(&g, 16).unwrap();
    }
}
