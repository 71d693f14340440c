//! Multihypergraphs and the hyperedge grabbing problem (HEG).
//!
//! Given a multihypergraph with maximum rank `r` (largest hyperedge) and
//! minimum degree `δ > r`, the **hyperedge grabbing problem** asks every
//! vertex to *grab* one of its incident hyperedges such that no hyperedge
//! is grabbed by more than one vertex. It is equivalent to hypergraph
//! sinkless orientation and is the engine of the paper's balanced-matching
//! phase (Lemma 5, citing [BMN+25], promises a deterministic
//! `O(log_{δ/r} n)`-round algorithm when `δ > r`).
//!
//! This crate provides
//!
//! * [`Hypergraph`] — the incidence structure with validation,
//! * [`heg_sequential`] — an exact centralized solver (bipartite matching
//!   saturating all vertices), the tests' ground-truth oracle; no pipeline
//!   runs it,
//! * [`heg_augmenting`] — a deterministic distributed-style solver: phases
//!   of parallel shortest augmenting paths; the expansion `δ/r > 1`
//!   guarantees `O(log_{δ/r} n)`-length paths always exist,
//! * [`heg_token_walk`] — a randomized solver in the spirit of sinkless-
//!   orientation algorithms: deficiency tokens walk through steals until
//!   they hit a free hyperedge,
//! * [`sinkless_orientation`] — graph sinkless orientation as the rank-2
//!   special case.
//!
//! See DESIGN.md for how these substitute for the (pseudocode-free)
//! algorithm of [BMN+25] while preserving the behaviour the pipeline needs.

mod heg;
mod structure;

pub mod generators;

pub use heg::{
    heg_augmenting, heg_sequential, heg_token_walk, sinkless_orientation, verify_heg, HegError,
    Orientation,
};
pub use localsim::Timed;
pub use structure::{Hypergraph, HypergraphError};
