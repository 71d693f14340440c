//! Linial's color reduction and the Kuhn–Wattenhofer block reduction.
//!
//! [`linial_coloring`] reduces unique `u64` identifiers to `O(Δ²)` colors
//! in `O(log* n)` communication rounds using cover-free families built from
//! polynomials over `GF(q)` (\[Lin92\]). [`delta_plus_one_coloring`] then
//! applies the Kuhn–Wattenhofer parallel block reduction to reach `Δ + 1`
//! colors in `O(Δ log Δ)` further rounds.

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
    .with_threads(localsim::default_threads())
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

/// One round of the Kuhn–Wattenhofer reduction schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KwRound {
    /// Nodes whose color is `≡ class (mod modulus)` recolor to the smallest
    /// free color in their block's first `width` slots.
    Sweep {
        modulus: u64,
        class: u64,
        width: u64,
    },
    /// Local compaction `c -> (c / modulus) * width + (c % modulus)`.
    Remap { modulus: u64, width: u64 },
}

pub(crate) fn kw_schedule(mut k: u64, t: u64) -> Vec<KwRound> {
    let mut rounds = Vec::new();
    while k > 2 * t {
        let two_t = 2 * t;
        for j in (t..two_t).rev() {
            rounds.push(KwRound::Sweep {
                modulus: two_t,
                class: j,
                width: t,
            });
        }
        rounds.push(KwRound::Remap {
            modulus: two_t,
            width: t,
        });
        k = k.div_ceil(two_t) * t;
    }
    for j in (t..k).rev() {
        rounds.push(KwRound::Sweep {
            modulus: u64::MAX,
            class: j,
            width: t,
        });
    }
    rounds
}

pub(crate) struct KwAlgo {
    rounds: Vec<KwRound>,
    /// `(first, end)` round indices of each level: its sweeps from the
    /// highest class down, then its `Remap` (the last level ends with
    /// the schedule's last round instead).
    levels: Vec<(usize, usize)>,
    /// Initial proper coloring (KW needs properness, not uniqueness, so it
    /// cannot ride on the executor's uid mechanism).
    init_colors: Vec<u64>,
}

impl KwAlgo {
    pub(crate) fn new(rounds: Vec<KwRound>, init_colors: Vec<u64>) -> Self {
        let mut levels = Vec::new();
        let mut first = 0;
        for (i, round) in rounds.iter().enumerate() {
            if matches!(round, KwRound::Remap { .. }) || i + 1 == rounds.len() {
                levels.push((first, i + 1));
                first = i + 1;
            }
        }
        KwAlgo {
            rounds,
            levels,
            init_colors,
        }
    }
}

impl LocalAlgorithm for KwAlgo {
    type State = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx) -> u64 {
        self.init_colors[ctx.node.index()]
    }

    fn step(&self, ctx: &NodeCtx, state: &u64, nbrs: &[u64]) -> Transition<u64, u64> {
        let idx = ctx.round as usize - 1;
        let Some(&round) = self.rounds.get(idx) else {
            return Transition::Halt(*state);
        };
        let mut c = *state;
        match round {
            KwRound::Sweep {
                modulus,
                class,
                width,
            } => {
                let in_class = if modulus == u64::MAX {
                    c == class
                } else {
                    c % modulus == class
                };
                if in_class {
                    let base = if modulus == u64::MAX {
                        0
                    } else {
                        (c / modulus) * modulus
                    };
                    // Blocked bitmap: widths are t = Δ+1, so the mask
                    // lives entirely in the bitset's inline words and the
                    // pick is a couple of `trailing_ones`, not a byte scan.
                    let mut taken = crate::bitset::ColorBitset::new(width as usize);
                    for &nc in nbrs {
                        if nc >= base && nc < base + width {
                            taken.mark((nc - base) as usize);
                        }
                    }
                    let slot = taken
                        .first_clear()
                        .expect("at most Δ neighbors cannot fill Δ+1 slots");
                    c = base + slot as u64;
                }
            }
            KwRound::Remap { modulus, width } => {
                c = (c / modulus) * width + (c % modulus);
            }
        }
        if idx + 1 == self.rounds.len() {
            Transition::Halt(c)
        } else {
            Transition::Continue(c)
        }
    }

    /// A node next acts in its class's sweep of the current level, or
    /// else in the level's last round (its `Remap`, or the schedule's
    /// halting round); every round in between leaves its color alone.
    fn wake(&self, ctx: &NodeCtx, c: &u64) -> u64 {
        // The next round's 0-based index. The first level starts at 0,
        // so at least one level qualifies.
        let next = ctx.round as usize;
        let level = self.levels.partition_point(|&(first, _)| first <= next);
        let (first, end) = self.levels[level - 1];
        let mut act = end - 1;
        if let KwRound::Sweep {
            modulus,
            class: top,
            width,
        } = self.rounds[first]
        {
            let residue = if modulus == u64::MAX { *c } else { c % modulus };
            if (width..=top).contains(&residue) {
                let sweep = first + (top - residue) as usize;
                if sweep >= next {
                    act = sweep;
                }
            }
        }
        act as u64 + 1
    }
}

/// Computes a proper coloring with `Δ + 1` colors in
/// `O(Δ log Δ + log* n)` rounds (Linial followed by Kuhn–Wattenhofer).
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
/// `probe`: every executor round (Linial steps and KW sweeps alike)
/// surfaces as a `round` event.
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
    let t = delta + 1;
    if space <= t {
        let coloring = Coloring::from_vec(colors.iter().map(|&c| Some(Color(c as u32))).collect());
        return Ok(Timed::new(coloring, linial.rounds));
    }
    let rounds = kw_schedule(space, t);
    let budget = rounds.len() as u64 + 1;
    let algo = KwAlgo::new(rounds, colors);
    let run = Executor::new(g)
        .with_threads(localsim::default_threads())
        .with_probe(probe.clone())
        .run(&algo, budget)?;
    let coloring = Coloring::from_vec(run.outputs.iter().map(|&c| Some(Color(c as u32))).collect());
    Ok(Timed::new(coloring, linial.rounds + run.rounds))
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
