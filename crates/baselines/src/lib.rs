//! Baseline coloring algorithms the paper's pipeline is compared against
//! (experiment E6).
//!
//! * [`brooks_sequential`] — a centralized constructive proof of Brooks'
//!   theorem: the existence oracle. Its "round" cost is `n` (fully
//!   sequential).
//! * [`delta_plus_one`] — the distributed *greedy-regime* problem: one more
//!   color makes everything easy (`O(Δ + log* n)` rounds). The gap
//!   between this and Δ-coloring is the paper's motivation (§1).
//! * [`global_stalling`] — the naive distributed Δ-coloring: elect a single
//!   global slack source, layer the *entire* graph around it by BFS, and
//!   color inward. Correct, but `Θ(diameter)` rounds — the strawman the
//!   slack-triad machinery beats.
//! * [`random_trial_stuck`] — the one-round random color trial algorithm
//!   run to exhaustion with only Δ colors: demonstrates that Δ-coloring is
//!   not greedy-like (vertices end up with empty palettes and the process
//!   jams).

pub mod brooks;
pub mod naive;

pub use brooks::{brooks_component, brooks_sequential, BrooksError};
pub use naive::{delta_plus_one, global_stalling, random_trial_stuck, StuckReport};
