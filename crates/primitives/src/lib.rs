//! Distributed LOCAL-model primitives.
//!
//! This crate implements the classical subroutines that the paper's
//! Δ-coloring pipeline composes (Section 3.8 of the paper lists them with
//! the round complexities `T_MM`, `T_{deg+1}`, `T_SP`, `T_{6-rs}`):
//!
//! * [`linial`] — Linial's iterated color reduction: from unique ids to
//!   `O(Δ²)` colors in `O(log* n)` rounds, and the additive-group
//!   reduction down to `Δ + 1` colors in `O(Δ)` more.
//! * [`list_coloring`] — `(deg+1)`-list coloring by scheduling color
//!   classes of a helper coloring (Lemma 24's role; our implementation
//!   runs in `O(Δ + log* n)` rounds, the `T_{deg+1}` bound the paper's
//!   `O(Δ + log n)` branch uses — see DESIGN.md substitutions).
//! * [`mis`] — maximal independent sets: deterministic (color-class greedy)
//!   and randomized (Luby).
//! * [`ruling`] — `(2, r)`-ruling sets via MIS on the `r`-th graph power
//!   run as a virtual graph (Lemma 19's role).
//! * [`matching`] — maximal matching: deterministic (proposals scheduled by
//!   the classes of a `(Δ+1)`-coloring) and randomized (Israeli–Itai style
//!   proposals).
//! * [`split`] — degree splitting (Lemma 21 / Corollary 22's role): Euler
//!   partition into walks, even-length segment chopping via a ruling set on
//!   the walk structure, and alternating 2-coloring.
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
pub mod ruling;
pub mod split;
#[cfg(test)]
mod wake_tests;

pub use localsim::Timed;
