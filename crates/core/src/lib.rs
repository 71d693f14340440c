//! Distributed Δ-coloring of dense graphs — the primary contribution of
//! *Towards Optimal Distributed Δ-Coloring* (Jakob & Maus, PODC 2025).
//!
//! Brooks' theorem says every connected graph with maximum degree Δ that is
//! neither a `K_{Δ+1}` nor an odd cycle admits a proper Δ-coloring. This
//! crate reproduces the paper's LOCAL-model algorithms for computing such a
//! coloring on **dense** graphs (graphs whose almost-clique decomposition
//! has no sparse vertices, Definition 4):
//!
//! * [`color_deterministic`] — Theorem 1's deterministic pipeline
//!   (Algorithms 1–3): classify almost-cliques into *easy* (touching a
//!   constant-size loophole) and *hard*; give every hard clique a *slack
//!   triad* via maximal matching + hyperedge grabbing + degree splitting;
//!   same-color the slack pairs; finish with `(deg+1)`-list coloring
//!   instances; and finally sweep easy cliques and loopholes by layered
//!   coloring around a ruling set of loopholes.
//! * [`color_randomized`] — Theorem 2's shattering pipeline (Algorithm 4):
//!   randomly placed T-nodes provide slack almost everywhere, leaving
//!   small leftover components that are solved in parallel by a modified
//!   deterministic pipeline with pair palette `{2..Δ}`.
//!
//! Every phase charges its measured LOCAL rounds to a
//! [`localsim::RoundLedger`] returned in the [`Report`]. The phases check
//! the paper's structural lemmas (7, 10, 12, 13, 15, 16) on every run and return
//! [`DeltaColoringError::InvariantViolated`] when one fails; Lemma 16's
//! `Δ − 2` degree bound is enforced only with
//! [`Config::enforce_paper_bounds`], which the paper's configuration sets.
//!
//! # Example
//!
//! ```
//! use graphgen::generators::{hard_cliques, HardCliqueParams};
//! use delta_core::{color_deterministic, Config};
//!
//! let inst = hard_cliques(&HardCliqueParams {
//!     cliques: 34, delta: 16, external_per_vertex: 1, seed: 3,
//! })?;
//! let report = color_deterministic(&inst.graph, &Config::for_delta(16))?;
//! graphgen::coloring::verify_delta_coloring(&inst.graph, &report.coloring)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod classify;
mod deterministic;
mod easy;
mod error;
mod extension;
mod loophole;
mod phase1;
mod phase2;
mod phase3;
mod phase4;
mod pool;
mod randomized;
pub mod render;
pub mod shard;
pub mod supervisor;
pub mod validate;

pub use classify::{classify_cliques, Classification, CliqueKind};
pub use deterministic::{
    color_deterministic, color_deterministic_probed, Config, HegAlgo, MatchingAlgo, PipelineStats,
    Report,
};
pub use easy::{color_easy_and_loopholes, color_easy_and_loopholes_scoped, EasyStats};
pub use error::DeltaColoringError;
pub use extension::{
    color_sparse_dense, color_sparse_dense_probed, SparseDenseReport, SparseDenseStats,
};
pub use loophole::{brute_force_color_loophole, detect_loopholes, Loophole, LoopholeReport};
pub use phase1::{balanced_matching, BalancedMatching, Phase1Stats};
pub use phase2::{sparsify_matching, SparsifiedMatching};
pub use phase3::{form_slack_triads, SlackTriad, TriadSet};
pub use phase4::{color_hard_cliques_phase4, Phase4Stats};
pub use randomized::{
    color_randomized, color_randomized_probed, color_randomized_with_faults, RandConfig,
    RandReport, RecoveryStats, ShatterStats,
};
pub use shard::{
    run_shard_case, run_wire_coloring, DistributedConfig, DistributedError, ShardRunSpec,
    WireColorReport, WireTraffic,
};
pub use supervisor::{
    drive_deterministic, drive_randomized, graph_digest, load_bundle, load_snapshot, replay_bundle,
    save_bundle, save_snapshot, shard_bundle, ChaosPlan, DegradedComponent, FailureReport,
    PhaseCursor, PipelineKind, ReplayReport, ReproBundle, RunOutcome, Snapshot, Supervisor,
};
pub use validate::{validate_coloring, ValidationReport, Violation};
