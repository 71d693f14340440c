//! Linial's color reduction and the additive-group reduction to `Δ + 1`
//! colors.
//!
//! [`linial_coloring`] reduces unique `u64` identifiers to `O(Δ²)` colors
//! in `O(log* n)` communication rounds using cover-free families built from
//! polynomials over `GF(q)` (\[Lin92\]). [`delta_plus_one_coloring`] then
//! runs the locally-iterative additive-group reduction of
//! Barenboim–Elkin–Goldenberg (PODC 2018) and a one-class-per-round sweep
//! to reach `Δ + 1` colors in at most `2q − Δ − 1 = O(Δ)` further rounds,
//! where `q` is the smallest prime `≥ 2Δ + 1` whose square covers
//! Linial's `O(Δ²)` colors.

use graphgen::{Color, Coloring, Graph};
use localsim::{Executor, LocalAlgorithm, NodeCtx, Probe, SimError, Transition};

use crate::Timed;

/// Smallest prime `>= lo`.
fn next_prime(lo: u64) -> u64 {
    let mut q = lo.max(2);
    loop {
        if is_prime(q) {
            return q;
        }
        q += 1;
    }
}

fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    let mut d = 3;
    while d * d <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Number of base-`q` digits needed for values `< m` (at least 1).
fn digits(q: u64, m: u128) -> usize {
    let mut e = 1usize;
    let mut pow = q as u128;
    while pow < m {
        pow *= q as u128;
        e += 1;
    }
    e
}

/// One Linial reduction step: target field size and polynomial degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinialStep {
    q: u64,
    degree: usize,
}

/// Precomputes the deterministic schedule of reduction steps from color
/// space `m0` with maximum degree `delta`. Every node derives the same
/// schedule from the globally known `n` and `Δ`.
fn linial_schedule(delta: usize, m0: u128) -> Vec<LinialStep> {
    let mut schedule = Vec::new();
    let mut m = m0;
    loop {
        // Smallest prime q with q > Δ · (digits(q, m) - 1); the polynomial
        // degree d = digits - 1 shrinks as q grows, so scanning upward finds
        // the first feasible q.
        let mut q = next_prime(delta as u64 + 2);
        let step = loop {
            let d = digits(q, m).saturating_sub(1).max(1);
            if q > (delta as u64) * (d as u64) {
                break LinialStep { q, degree: d };
            }
            q = next_prime(q + 1);
        };
        let new_m = (step.q as u128) * (step.q as u128);
        if new_m >= m {
            break;
        }
        schedule.push(step);
        m = new_m;
    }
    schedule
}

/// Evaluates the polynomial with base-`q` digits of `c` as coefficients.
fn poly_eval(c: u64, q: u64, degree: usize, x: u64) -> u64 {
    let mut acc: u128 = 0;
    let mut rem = c;
    let mut xp: u128 = 1;
    for _ in 0..=degree {
        let coeff = rem % q;
        rem /= q;
        acc = (acc + coeff as u128 * xp) % q as u128;
        xp = (xp * x as u128) % q as u128;
    }
    acc as u64
}

struct LinialAlgo {
    schedule: Vec<LinialStep>,
}

impl LocalAlgorithm for LinialAlgo {
    type State = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx) -> u64 {
        ctx.uid
    }

    fn step(&self, ctx: &NodeCtx, state: &u64, nbrs: &[u64]) -> Transition<u64, u64> {
        let Some(&LinialStep { q, degree }) = self.schedule.get(ctx.round as usize - 1) else {
            return Transition::Halt(*state);
        };
        // Choose x with p_self(x) != p_nbr(x) for every neighbor: at most
        // Δ·degree < q values of x are ruled out, so one always exists.
        let mut chosen = None;
        'xs: for x in 0..q {
            let own = poly_eval(*state, q, degree, x);
            for &cn in nbrs {
                if cn != *state && poly_eval(cn, q, degree, x) == own {
                    continue 'xs;
                }
            }
            chosen = Some(x * q + own);
            break;
        }
        let next = chosen.expect("Linial step always has a conflict-free evaluation point");
        if ctx.round as usize == self.schedule.len() {
            Transition::Halt(next)
        } else {
            Transition::Continue(next)
        }
    }
}

/// Reduces unique ids to `O(Δ²)` colors in `O(log* n)` rounds.
///
/// Returns the per-node colors and the size of the final color space.
///
/// # Errors
///
/// Propagates simulator errors (round budget, bad uid vectors).
pub fn linial_coloring(
    g: &Graph,
    uids: Option<Vec<u64>>,
) -> Result<Timed<(Vec<u64>, u64)>, SimError> {
    linial_coloring_probed(g, uids, &Probe::disabled())
}

/// [`linial_coloring`] with per-round telemetry mirrored to `probe`.
///
/// # Errors
///
/// Propagates simulator errors (round budget, bad uid vectors).
pub(crate) fn linial_coloring_probed(
    g: &Graph,
    uids: Option<Vec<u64>>,
    probe: &Probe,
) -> Result<Timed<(Vec<u64>, u64)>, SimError> {
    let delta = g.max_degree();
    if delta == 0 {
        return Ok(Timed::new((vec![0; g.n()], 1), 0));
    }
    let m0 = match &uids {
        Some(u) => u.iter().copied().max().unwrap_or(0) as u128 + 1,
        None => g.n() as u128,
    };
    let schedule = linial_schedule(delta, m0);
    let space = schedule.last().map_or(m0 as u64, |s| s.q * s.q);
    let ex = match uids {
        Some(u) => Executor::with_uids(g, u)?,
        None => Executor::new(g),
    }
    .with_probe(probe.clone());
    if schedule.is_empty() {
        // Ids already fit the target space; zero communication needed.
        let run = ex.run(&LinialAlgo { schedule }, 1)?;
        return Ok(Timed::new((run.outputs, space), 0));
    }
    let rounds_needed = schedule.len() as u64 + 1;
    let run = ex.run(&LinialAlgo { schedule }, rounds_needed)?;
    Ok(Timed::new((run.outputs, space), run.rounds))
}

/// The additive-group reduction of Barenboim–Elkin–Goldenberg (PODC 2018)
/// from a proper coloring with fewer than `q²` colors to `Δ + 1` colors,
/// as one fixed schedule of [`AdditiveReduction::rounds`] rounds.
///
/// A color `c` is the pair `⟨a, b⟩ = ⟨c / q, c mod q⟩` over `GF(q)`, with
/// `q` prime and `q ≥ 2Δ + 1`.
/// * Rounds `1..=q`: a node with `a ≠ 0` whose `b` no neighbor shares
///   becomes final, `⟨0, b⟩`; otherwise it moves to `⟨a, b + a⟩`. Two
///   moving neighbors with different `a` meet in `b` once per `q` rounds,
///   and a final neighbor is met once, so each neighbor blocks a node at
///   most twice and every node is final by round `2Δ + 1 ≤ q`.
/// * Then the final colors `q − 1` down to `Δ + 1` are swept one class per
///   round; a node takes the smallest color in `0..=Δ` that no neighbor
///   holds.
///
/// A color space below `2q` is swept directly from its top class, with
/// no reduction rounds: that schedule is the shorter one.
///
/// A node that is not final when the reduction rounds end never halts,
/// so the executor's round budget turns it into
/// [`SimError::RoundLimitExceeded`].
pub(crate) struct AdditiveReduction {
    q: u32,
    /// Reduction rounds: `q`, or 0 when every color is already final.
    reduce: u32,
    /// Final classes after the reduction: `q`, or the color space.
    top: u32,
    delta: u32,
    /// Initial `⟨a, b⟩` per node, from a proper coloring.
    init: Vec<(u32, u32)>,
}

impl AdditiveReduction {
    /// The reduction of the proper coloring `colors` (all `< space`) on a
    /// graph of maximum degree `delta ≥ 1`.
    pub(crate) fn new(colors: &[u64], space: u64, delta: u64) -> Self {
        let root = space.isqrt();
        let root = if root * root < space { root + 1 } else { root };
        let q = next_prime((2 * delta + 1).max(root));
        let q = u32::try_from(q).expect("field size fits in u32");
        let (reduce, top, init) = if space < 2 * u64::from(q) {
            (
                0,
                space as u32,
                colors.iter().map(|&c| (0, c as u32)).collect(),
            )
        } else {
            let split = |c: u64| ((c / u64::from(q)) as u32, (c % u64::from(q)) as u32);
            (q, q, colors.iter().map(|&c| split(c)).collect())
        };
        AdditiveReduction {
            q,
            reduce,
            top,
            delta: delta as u32,
            init,
        }
    }

    /// The schedule length every node knows: the reduction rounds, then
    /// one sweep round per class `top − 1` down to `Δ + 1`.
    pub(crate) fn rounds(&self) -> u64 {
        u64::from(self.reduce + self.top - self.delta) - 1
    }

    /// The round in which final color `b > Δ` is swept.
    fn sweep_round(&self, b: u32) -> u64 {
        u64::from(self.reduce + self.top - b)
    }
}

impl LocalAlgorithm for AdditiveReduction {
    type State = (u32, u32);
    type Output = u32;

    fn init(&self, ctx: &NodeCtx) -> (u32, u32) {
        self.init[ctx.node.index()]
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        &(a, b): &(u32, u32),
        nbrs: &[(u32, u32)],
    ) -> Transition<(u32, u32), u32> {
        if a != 0 {
            if ctx.round > u64::from(self.reduce) {
                // Not final within the reduction: the budget reports it.
                return Transition::Continue((a, b));
            }
            return if nbrs.iter().any(|&(_, nb)| nb == b) {
                let moved = (u64::from(b) + u64::from(a)) % u64::from(self.q);
                Transition::Continue((a, moved as u32))
            } else {
                Transition::Continue((0, b))
            };
        }
        let mut c = b;
        if c > self.delta && ctx.round == self.sweep_round(c) {
            // Widths are Δ + 1, so the mask lives in the bitset's inline
            // words and the pick is a couple of `trailing_ones`.
            let mut taken = crate::bitset::ColorBitset::new(self.delta as usize + 1);
            for &(_, nb) in nbrs {
                taken.mark(nb as usize);
            }
            c = taken
                .first_clear()
                .expect("at most Δ neighbors cannot fill Δ+1 slots") as u32;
        }
        if ctx.round == self.rounds() {
            Transition::Halt(c)
        } else {
            Transition::Continue((0, c))
        }
    }

    /// A moving node acts every round. A final node next acts in its
    /// class's sweep, or else in the halting round; every round in
    /// between leaves its color alone.
    fn wake(&self, ctx: &NodeCtx, &(a, b): &(u32, u32)) -> u64 {
        if a != 0 {
            ctx.round + 1
        } else if b > self.delta && self.sweep_round(b) > ctx.round {
            self.sweep_round(b)
        } else {
            self.rounds()
        }
    }
}

/// Computes a proper coloring with `Δ + 1` colors in `O(Δ + log* n)`
/// rounds (Linial followed by the additive-group reduction).
///
/// The rounds charged are the fixed schedule length that every node
/// knows in advance: Linial's steps plus at most `2q − Δ − 1` reduction
/// and sweep rounds.
///
/// # Examples
///
/// ```
/// let g = graphgen::generators::cycle(100);
/// let out = primitives::linial::delta_plus_one_coloring(&g, None)?;
/// out.value.check_complete(&g, 3)?; // Δ = 2: three colors suffice
/// assert!(out.rounds < 40, "flat in n up to log*");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Propagates simulator errors.
pub fn delta_plus_one_coloring(
    g: &Graph,
    uids: Option<Vec<u64>>,
) -> Result<Timed<Coloring>, SimError> {
    delta_plus_one_coloring_probed(g, uids, &Probe::disabled())
}

/// [`delta_plus_one_coloring`] with per-round telemetry mirrored to
/// `probe`: every executor round (Linial steps, reduction rounds and
/// sweeps alike) surfaces as a `round` event.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn delta_plus_one_coloring_probed(
    g: &Graph,
    uids: Option<Vec<u64>>,
    probe: &Probe,
) -> Result<Timed<Coloring>, SimError> {
    let delta = g.max_degree() as u64;
    let linial = linial_coloring_probed(g, uids, probe)?;
    let (colors, space) = linial.value;
    if space <= delta + 1 {
        let coloring = Coloring::from_vec(colors.iter().map(|&c| Some(Color(c as u32))).collect());
        return Ok(Timed::new(coloring, linial.rounds));
    }
    let algo = AdditiveReduction::new(&colors, space, delta);
    let rounds = algo.rounds();
    let run = Executor::new(g)
        .with_probe(probe.clone())
        .run(&algo, rounds)?;
    let coloring = Coloring::from_vec(run.outputs.iter().map(|&c| Some(Color(c))).collect());
    Ok(Timed::new(coloring, linial.rounds + rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;

    #[test]
    fn primes() {
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(8), 11);
        assert!(is_prime(97));
        assert!(!is_prime(91));
    }

    #[test]
    fn digit_count() {
        assert_eq!(digits(10, 1000), 3);
        assert_eq!(digits(10, 1001), 4);
        assert_eq!(digits(2, 2), 1);
    }

    #[test]
    fn schedule_shrinks_fast() {
        let s = linial_schedule(4, 1u128 << 64);
        assert!(
            s.len() <= 6,
            "log* schedule should be tiny, got {}",
            s.len()
        );
        let last = s.last().unwrap();
        assert!(last.q * last.q <= 32 * 32);
    }

    #[test]
    fn linial_on_cycle_is_proper() {
        let g = generators::cycle(101);
        let out = linial_coloring(&g, None).unwrap();
        let (colors, space) = out.value;
        for (u, v) in g.edges() {
            assert_ne!(colors[u.index()], colors[v.index()]);
        }
        assert!(colors.iter().all(|&c| c < space));
        assert!(space <= 1000);
        assert!(out.rounds <= 6);
    }

    #[test]
    fn field_covers_twice_delta_and_the_color_space() {
        // Δ = 61 with Linial's 67² colors: q = 127, 127 + 65 rounds.
        let r = AdditiveReduction::new(&[], 67 * 67, 61);
        assert_eq!((r.q, r.rounds()), (127, 192));
        // A color space wider than (2Δ + 1)² sets q: ⌈√1000⌉ = 32 → 37.
        let r = AdditiveReduction::new(&[], 1000, 2);
        assert_eq!((r.q, r.rounds()), (37, 71));
        // q² may equal the space exactly.
        assert_eq!(AdditiveReduction::new(&[], 49, 2).q, 7);
        assert_eq!(AdditiveReduction::new(&[], 50, 2).q, 11);
        // Below 2q colors, sweeping from the top class is shorter: Δ = 15,
        // q = 31, 40 colors sweep classes 39..=16 in 24 rounds, not 46.
        let r = AdditiveReduction::new(&[], 40, 15);
        assert_eq!((r.q, r.reduce, r.rounds()), (31, 0, 24));
        assert_eq!(AdditiveReduction::new(&[], 62, 15).rounds(), 46);
    }

    #[test]
    fn a_node_not_final_by_round_q_is_an_error() {
        // Equal start colors break the precondition: the two nodes share
        // `b` in every round, so neither becomes final, and the run fails
        // at the schedule's end instead of returning a color.
        let g = generators::complete(2);
        let algo = AdditiveReduction::new(&[3, 3], 6, 1);
        let err = Executor::new(&g).run(&algo, algo.rounds()).unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimitExceeded {
                limit: algo.rounds(),
                still_running: 2
            }
        );
    }

    #[test]
    fn delta_plus_one_on_various() {
        for g in [
            generators::cycle(64),
            generators::complete(9),
            generators::hypercube(5),
            generators::random_regular(120, 6, 3),
        ] {
            let t = g.max_degree() as u32 + 1;
            let out = delta_plus_one_coloring(&g, None).unwrap();
            out.value.check_complete(&g, t).unwrap();
        }
    }

    #[test]
    fn rounds_grow_mildly_with_n() {
        let r1 = delta_plus_one_coloring(&generators::cycle(64), None)
            .unwrap()
            .rounds;
        let r2 = delta_plus_one_coloring(&generators::cycle(4096), None)
            .unwrap()
            .rounds;
        // log*-style growth: going from 64 to 4096 nodes adds at most a
        // couple of rounds.
        assert!(r2 <= r1 + 4, "r1={r1} r2={r2}");
    }
}
