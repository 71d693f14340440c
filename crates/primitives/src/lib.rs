//! Distributed LOCAL-model primitives.
//!
//! This crate implements the classical subroutines that the paper's
//! Δ-coloring pipeline composes (Section 3.8 of the paper lists them with
//! the round complexities `T_MM`, `T_{deg+1}`, `T_SP`, `T_{6-rs}`):
//!
//! * [`linial`] — Linial's iterated color reduction: from unique ids to
//!   `O(Δ²)` colors in `O(log* n)` rounds, and the Kuhn–Wattenhofer
//!   parallel block reduction down to `Δ + 1` colors.
//! * [`list_coloring`] — `(deg+1)`-list coloring by scheduling color
//!   classes of a helper coloring (Lemma 24's role; our implementation
//!   runs in `O(Δ log Δ + log* n)` rounds, between the trivial `O(Δ²)` and
//!   the paper's `O(√(Δ log Δ))` — see DESIGN.md substitutions).
//! * [`mis`] — maximal independent sets: deterministic (color-class greedy)
//!   and randomized (Luby).
//! * [`ruling`] — `(2, r)`-ruling sets via MIS on the `r`-th graph power
//!   run as a virtual graph (Lemma 19's role).
//! * [`matching`] — maximal matching: deterministic (edge-coloring classes
//!   on the line graph) and randomized (Israeli–Itai style proposals).
//! * [`split`] — degree splitting (Lemma 21 / Corollary 22's role): Euler
//!   partition into walks, even-length segment chopping via a ruling set on
//!   the walk structure, and alternating 2-coloring.
//! * [`netdecomp`] — Linial–Saks network decomposition and the
//!   cluster-by-cluster solve driver (\[GG24\]'s role in the paper's
//!   `Õ(log^{5/3} n)` branch; see DESIGN.md substitutions).
//! * [`congest_coloring`] — a `(Δ+1)`-coloring with `O(log Δ)`-bit
//!   messages, demonstrating the CONGEST metering (\[MU21\]/\[HM24\]'s model
//!   in the related work).
//! * [`congest_mis`] — Luby's MIS (`O(log n)`-bit bids) and Israeli–Itai
//!   matching (2-bit messages) on the per-port executor.
//!
//! Every algorithm returns its measured LOCAL round count alongside its
//! output so callers can charge a [`localsim::RoundLedger`].

pub mod bitset;
pub mod congest_coloring;
pub mod congest_mis;
pub mod linial;
pub mod list_coloring;
pub mod matching;
pub mod mis;
pub mod netdecomp;
pub mod ruling;
pub mod split;

/// Output of a primitive: the result plus the LOCAL rounds it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timed<T> {
    /// The computed result.
    pub value: T,
    /// Measured LOCAL rounds.
    pub rounds: u64,
}

impl<T> Timed<T> {
    /// Wraps a result with its round count.
    pub fn new(value: T, rounds: u64) -> Self {
        Timed { value, rounds }
    }

    /// Maps the value, keeping the round count.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed {
            value: f(self.value),
            rounds: self.rounds,
        }
    }
}
