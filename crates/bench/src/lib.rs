//! Experiment harness regenerating the paper's claims (DESIGN.md's E1–E10).
//!
//! Each experiment is a function returning a Markdown section (a table in
//! the shape of the claim it reproduces plus a short interpretation). The
//! `experiments` binary runs any subset and can assemble EXPERIMENTS.md:
//!
//! ```text
//! cargo run --release -p delta-bench --bin experiments -- all --out EXPERIMENTS.md
//! cargo run --release -p delta-bench --bin experiments -- e1 e4
//! ```

pub mod experiments;
pub mod util;

/// Schema version stamped into every JSON report this crate writes (the
/// executors bench's `BENCH_executors.json` and the experiments `--json`
/// output).
/// `benchdiff` refuses to compare files whose versions differ; bump it
/// whenever a report's shape changes incompatibly.
pub const BENCH_SCHEMA_VERSION: u64 = 1;
