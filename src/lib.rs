//! # delta-coloring
//!
//! A from-scratch Rust reproduction of *Towards Optimal Distributed
//! Δ-Coloring* (Jakob & Maus, PODC 2025): deterministic and randomized
//! LOCAL-model algorithms that properly color dense graphs with Δ colors
//! (Brooks' theorem made distributed), together with every substrate they
//! stand on.
//!
//! This crate is the façade: it re-exports the workspace members so
//! downstream users can depend on one crate.
//!
//! | module | contents |
//! |---|---|
//! | [`graphs`] | graph type, text I/O, generators (incl. the paper's hard/easy dense families and sparse+dense mixtures), coloring validators |
//! | [`local`] | synchronous LOCAL-model simulators (state-exchange, per-port messages, CONGEST metering) and round ledger |
//! | [`decomposition`] | almost-clique decomposition (Lemma 2) |
//! | [`subroutines`] | Linial coloring + color reduction, (deg+1)-list coloring, MIS, ruling sets, maximal matching, degree splitting, network decomposition, CONGEST toolbox |
//! | [`grabbing`] | multihypergraphs and hyperedge grabbing (Lemma 5; three solvers) |
//! | [`coloring`] | the Δ-coloring pipelines (Theorems 1 and 2), the sparse+dense extension, figure renderers |
//! | [`reference`](mod@reference) | baselines: sequential Brooks, Δ+1, global stalling, greedy jamming |
//!
//! A CLI ships as `delta-color` (generate instances, color edge-list
//! files); see `docs/ALGORITHM.md` for a guided tour of the pipeline.
//!
//! # Quickstart
//!
//! ```
//! use delta_coloring::graphs::generators::{hard_cliques, HardCliqueParams};
//! use delta_coloring::coloring::{color_deterministic, Config};
//!
//! // A dense graph made of 34 hard cliques with Δ = 16.
//! let inst = hard_cliques(&HardCliqueParams {
//!     cliques: 34, delta: 16, external_per_vertex: 1, seed: 1,
//! })?;
//! let report = color_deterministic(&inst.graph, &Config::for_delta(16))?;
//! delta_coloring::graphs::coloring::verify_delta_coloring(&inst.graph, &report.coloring)?;
//! println!("Δ-colored {} vertices in {} LOCAL rounds", inst.graph.n(), report.rounds());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use acd as decomposition;
pub use baselines as reference;
pub use delta_core as coloring;
pub use graphgen as graphs;
pub use hypergraph as grabbing;
pub use localsim as local;
pub use primitives as subroutines;
