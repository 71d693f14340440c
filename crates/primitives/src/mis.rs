//! Maximal independent sets: deterministic color-class greedy and Luby's
//! randomized algorithm.

use graphgen::Graph;
use localsim::{Executor, LocalAlgorithm, NodeCtx, Probe, SimError, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::linial::delta_plus_one_coloring_probed;
use crate::Timed;

/// Verifies that `in_set` is an independent dominating (maximal
/// independent) set of `g`.
pub fn is_mis(g: &Graph, in_set: &[bool]) -> bool {
    for v in g.vertices() {
        let covered = in_set[v.index()] || g.neighbors(v).iter().any(|&w| in_set[w.index()]);
        if !covered {
            return false;
        }
        if in_set[v.index()] && g.neighbors(v).iter().any(|&w| in_set[w.index()]) {
            return false;
        }
    }
    true
}

struct ClassGreedyMis {
    schedule: Vec<u32>,
    classes: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MisState {
    Undecided,
    In,
    Out,
}

impl LocalAlgorithm for ClassGreedyMis {
    type State = MisState;
    type Output = bool;

    fn init(&self, _ctx: &NodeCtx) -> MisState {
        MisState::Undecided
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &MisState,
        nbrs: &[MisState],
    ) -> Transition<MisState, bool> {
        match state {
            MisState::In => return Transition::Halt(true),
            MisState::Out => return Transition::Halt(false),
            MisState::Undecided => {}
        }
        if nbrs.contains(&MisState::In) {
            return if ctx.round >= u64::from(self.classes) {
                Transition::Halt(false)
            } else {
                Transition::Continue(MisState::Out)
            };
        }
        let my_class = self.schedule[ctx.node.index()];
        if ctx.round - 1 == u64::from(my_class) {
            // My class's turn and no neighbor joined: join.
            if ctx.round >= u64::from(self.classes) {
                Transition::Halt(true)
            } else {
                Transition::Continue(MisState::In)
            }
        } else {
            Transition::Continue(MisState::Undecided)
        }
    }
}

/// Deterministic MIS by sweeping the classes of a `(Δ+1)`-coloring;
/// `O(Δ + log* n)` rounds in total.
///
/// # Examples
///
/// ```
/// let g = graphgen::generators::hypercube(5);
/// let out = primitives::mis::mis_deterministic(&g, None)?;
/// assert!(primitives::mis::is_mis(&g, &out.value));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Propagates simulator errors.
pub fn mis_deterministic(g: &Graph, uids: Option<Vec<u64>>) -> Result<Timed<Vec<bool>>, SimError> {
    mis_deterministic_probed(g, uids, &Probe::disabled())
}

/// [`mis_deterministic`] with per-round telemetry mirrored to `probe`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn mis_deterministic_probed(
    g: &Graph,
    uids: Option<Vec<u64>>,
    probe: &Probe,
) -> Result<Timed<Vec<bool>>, SimError> {
    if g.n() == 0 {
        return Ok(Timed::new(Vec::new(), 0));
    }
    let helper = delta_plus_one_coloring_probed(g, uids, probe)?;
    let classes = g.max_degree() as u32 + 1;
    let schedule: Vec<u32> = g
        .vertices()
        .map(|v| helper.value.get(v).expect("complete coloring").0)
        .collect();
    let algo = ClassGreedyMis { schedule, classes };
    let run = Executor::new(g)
        .with_probe(probe.clone())
        .run(&algo, u64::from(classes) + 2)?;
    Ok(Timed::new(run.outputs, helper.rounds + run.rounds))
}

/// Luby's algorithm: per-iteration random priorities; local maxima join.
struct LubyMis {
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LubyState {
    /// Carrying this iteration's priority and the node's uid (for exact
    /// tie-breaking even under custom identifier assignments).
    Bid(u64, u64),
    /// Joined the MIS this iteration (announcing).
    Joining,
    In,
    Out,
}

fn priority(seed: u64, uid: u64, iteration: u64) -> u64 {
    // Deterministic per (seed, node, iteration): local randomness each node
    // could draw privately.
    let mut rng = StdRng::seed_from_u64(
        seed ^ uid.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ iteration.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    rng.gen()
}

impl LocalAlgorithm for LubyMis {
    type State = LubyState;
    type Output = bool;

    fn init(&self, ctx: &NodeCtx) -> LubyState {
        LubyState::Bid(priority(self.seed, ctx.uid, 0), ctx.uid)
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &LubyState,
        nbrs: &[LubyState],
    ) -> Transition<LubyState, bool> {
        match *state {
            LubyState::In => Transition::Halt(true),
            LubyState::Out => Transition::Halt(false),
            LubyState::Joining => Transition::Continue(LubyState::In),
            LubyState::Bid(p, uid) => {
                if nbrs
                    .iter()
                    .any(|s| matches!(s, LubyState::Joining | LubyState::In))
                {
                    return Transition::Continue(LubyState::Out);
                }
                // Odd rounds: decide by comparing priorities (uid breaks ties).
                if ctx.round % 2 == 1 {
                    let me = (p, uid);
                    let beaten = nbrs
                        .iter()
                        .any(|s| matches!(s, LubyState::Bid(q, qu) if (*q, *qu) > me));
                    if !beaten {
                        return Transition::Continue(LubyState::Joining);
                    }
                    Transition::Continue(LubyState::Bid(p, uid))
                } else {
                    // Even rounds: redraw for the next iteration.
                    Transition::Continue(LubyState::Bid(
                        priority(self.seed, ctx.uid, ctx.round / 2),
                        uid,
                    ))
                }
            }
        }
    }
}

/// Luby's randomized MIS; `O(log n)` rounds with high probability.
///
/// # Errors
///
/// Propagates simulator errors (including exceeding the generous
/// `64 + 16·log₂ n` round budget, which w.h.p. never happens).
pub fn mis_luby(g: &Graph, seed: u64) -> Result<Timed<Vec<bool>>, SimError> {
    mis_luby_probed(g, seed, &Probe::disabled())
}

/// [`mis_luby`] with per-round telemetry mirrored to `probe`.
///
/// # Errors
///
/// Propagates simulator errors (including exceeding the generous
/// `64 + 16·log₂ n` round budget, which w.h.p. never happens).
pub fn mis_luby_probed(g: &Graph, seed: u64, probe: &Probe) -> Result<Timed<Vec<bool>>, SimError> {
    if g.n() == 0 {
        return Ok(Timed::new(Vec::new(), 0));
    }
    let budget = 64 + 16 * (usize::BITS - g.n().leading_zeros()) as u64;
    let run = Executor::new(g)
        .with_probe(probe.clone())
        .run(&LubyMis { seed }, budget)?;
    Ok(Timed::new(run.outputs, run.rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;

    #[test]
    fn deterministic_mis_valid_on_families() {
        for g in [
            generators::cycle(31),
            generators::complete(8),
            generators::hypercube(5),
            generators::random_regular(100, 5, 1),
            generators::star(12),
        ] {
            let out = mis_deterministic(&g, None).unwrap();
            assert!(is_mis(&g, &out.value), "invalid MIS");
        }
    }

    #[test]
    fn luby_mis_valid_on_families() {
        for (i, g) in [
            generators::cycle(64),
            generators::random_regular(200, 6, 2),
            generators::gnp(80, 0.1, 3),
        ]
        .iter()
        .enumerate()
        {
            let out = mis_luby(g, i as u64).unwrap();
            assert!(is_mis(g, &out.value), "invalid Luby MIS");
        }
    }

    #[test]
    fn complete_graph_has_single_winner() {
        let g = generators::complete(10);
        let out = mis_deterministic(&g, None).unwrap();
        assert_eq!(out.value.iter().filter(|&&b| b).count(), 1);
        let out = mis_luby(&g, 5).unwrap();
        assert_eq!(out.value.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn empty_and_isolated() {
        let g = Graph::from_edges(3, []).unwrap();
        let out = mis_deterministic(&g, None).unwrap();
        assert_eq!(out.value, vec![true, true, true]);
    }

    #[test]
    fn luby_rounds_scale_logarithmically() {
        let small = mis_luby(&generators::random_regular(64, 4, 9), 1)
            .unwrap()
            .rounds;
        let large = mis_luby(&generators::random_regular(4096, 4, 9), 1)
            .unwrap()
            .rounds;
        assert!(large <= small * 4 + 30, "small={small} large={large}");
    }

    #[test]
    fn is_mis_rejects_bad_sets() {
        let g = generators::path(3);
        assert!(!is_mis(&g, &[false, false, false])); // not dominating
        assert!(!is_mis(&g, &[true, true, false])); // not independent
        assert!(is_mis(&g, &[true, false, true]));
        assert!(is_mis(&g, &[false, true, false]));
    }
}
