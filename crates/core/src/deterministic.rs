//! Algorithm 1 — the deterministic Δ-coloring pipeline (Theorem 1).

use acd::{compute_acd, AcdParams, AcdResult};
use graphgen::{Color, Coloring, Graph};
use localsim::{Probe, RoundLedger};
use primitives::ruling::RulingStyle;
use serde::{Deserialize, Serialize};

use crate::classify::{classify_cliques, Classification};
use crate::easy::{color_easy_and_loopholes, EasyStats};
use crate::error::DeltaColoringError;
use crate::loophole::{detect_loopholes, LoopholeReport};
use crate::phase1::{balanced_matching, BalancedMatching, Phase1Stats};
use crate::phase2::{sparsify_matching, SparsifiedMatching};
use crate::phase3::{form_slack_triads, TriadSet};
use crate::phase4::{color_hard_cliques_phase4, Phase4Stats};

/// Which maximal-matching subroutine Phase 1 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchingAlgo {
    /// Deterministic class-scheduled proposals (default; `O(n+m)` memory).
    DetDirect,
    /// Deterministic line-graph color-class sweep (small instances).
    DetLineGraph,
    /// Randomized Israeli–Itai proposals with the given seed.
    Rand(u64),
}

/// Which hyperedge-grabbing solver Phase 1 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HegAlgo {
    /// Deterministic parallel augmenting paths (default).
    Augmenting,
    /// Randomized deficiency-token walk with the given seed.
    TokenWalk(u64),
    /// Centralized exact matching (oracle; charged a single round).
    Sequential,
}

/// Configuration of the deterministic pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// ACD parameters (ε, η).
    pub acd: AcdParams,
    /// Number of sub-cliques per `C_HEG` clique (paper: 28).
    pub subcliques: usize,
    /// Maximal matching subroutine.
    pub matching: MatchingAlgo,
    /// HEG solver.
    pub heg: HegAlgo,
    /// Ruling-set radius for Algorithm 3 (1 = plain MIS).
    pub ruling_r: usize,
    /// Segment parameter of the degree splitting.
    pub split_segment: usize,
    /// Enforce the paper's exact constants (Lemma 16's Δ−2 bound etc.);
    /// automatically enabled for Δ ≥ 63 where they are proved.
    pub enforce_paper_bounds: bool,
    /// Worker threads for pipeline-level parallelism (the leftover
    /// component pool of the randomized pipeline, the loophole brute
    /// force of Algorithm 3). `0` resolves to the process default
    /// ([`localsim::default_threads`], i.e. `LOCALSIM_THREADS` or the
    /// CLI's `--threads`). Any value produces bit-identical colorings,
    /// ledgers, and telemetry; see `docs/PERFORMANCE.md`.
    pub threads: usize,
}

impl Config {
    /// The paper's configuration (`ε = 1/63`, 28 sub-cliques); requires
    /// `Δ ≥ 63`.
    pub fn paper() -> Self {
        Config {
            acd: AcdParams::paper(),
            subcliques: 28,
            matching: MatchingAlgo::DetDirect,
            heg: HegAlgo::Augmenting,
            ruling_r: 1,
            split_segment: 4,
            enforce_paper_bounds: true,
            threads: 0,
        }
    }

    /// A configuration scaled to the instance's maximum degree: the paper
    /// values for `Δ ≥ 63`, relaxed ε and fewer sub-cliques below.
    pub fn for_delta(delta: usize) -> Self {
        if delta >= 63 {
            Self::paper()
        } else {
            Config {
                acd: AcdParams::for_delta(delta),
                subcliques: (delta / 4).clamp(2, 28),
                enforce_paper_bounds: false,
                ..Self::paper()
            }
        }
    }
}

/// Aggregate statistics of one pipeline run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Almost-cliques in the ACD.
    pub cliques: usize,
    /// Hard cliques.
    pub hard: usize,
    /// `C_HEG` cliques.
    pub heg: usize,
    /// Loophole vertices detected.
    pub loophole_vertices: usize,
    /// Phase 1 structural stats.
    pub phase1: Phase1Stats,
    /// Phase 4 structural stats.
    pub phase4: Phase4Stats,
    /// Easy-sweep stats.
    pub easy: EasyStats,
    /// Maximum incoming F3 edges over cliques, and the Lemma 13 bound.
    pub max_incoming: usize,
    /// Lemma 13's incoming bound.
    pub incoming_bound: f64,
}

/// Outcome of a pipeline run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The proper Δ-coloring.
    pub coloring: Coloring,
    /// Per-phase LOCAL round accounting.
    pub ledger: RoundLedger,
    /// Structural statistics (experiments E1/E5).
    pub stats: PipelineStats,
}

impl Report {
    /// Total LOCAL rounds.
    pub fn rounds(&self) -> u64 {
        self.ledger.total()
    }
}

/// Runs Theorem 1's deterministic Δ-coloring pipeline on a dense graph.
///
/// # Errors
///
/// * [`DeltaColoringError::NotDense`] if the ACD finds sparse vertices.
/// * [`DeltaColoringError::ContainsMaxClique`] on a `K_{Δ+1}`.
/// * Invariant/structure errors on inputs outside the paper's assumptions.
pub fn color_deterministic(g: &Graph, config: &Config) -> Result<Report, DeltaColoringError> {
    color_deterministic_probed(g, config, &Probe::disabled())
}

/// [`color_deterministic`] with structured telemetry: every pipeline step
/// opens a span on `probe`, every ledger charge surfaces as a `charge`
/// event, and every simulator round executed by a subroutine surfaces as a
/// `round` event.
///
/// # Errors
///
/// As [`color_deterministic`].
pub fn color_deterministic_probed(
    g: &Graph,
    config: &Config,
    probe: &Probe,
) -> Result<Report, DeltaColoringError> {
    match crate::supervisor::drive_deterministic(
        g,
        config,
        probe,
        &crate::supervisor::Supervisor::passive(),
        None,
    )? {
        crate::supervisor::RunOutcome::Complete { report, .. } => Ok(report),
        crate::supervisor::RunOutcome::Suspended { .. }
        | crate::supervisor::RunOutcome::Failed(_) => {
            unreachable!("a passive supervisor neither suspends nor captures failures")
        }
    }
}

/// Step 0 of both pipelines: ACD computation, charged and spanned on the
/// ledger, plus the density check. The supervisor replays this silently
/// on resume by passing a throwaway ledger with a disabled probe — the
/// decomposition is a pure function of `(g, config.acd)`.
pub(crate) fn det_phase_acd(
    g: &Graph,
    config: &Config,
    ledger: &mut RoundLedger,
) -> Result<AcdResult, DeltaColoringError> {
    let acd = ledger.span("pipeline/acd", |l| {
        let acd = compute_acd(g, &config.acd);
        l.charge_constant("acd computation", acd.rounds);
        acd
    });
    if !acd.is_dense() {
        return Err(DeltaColoringError::NotDense {
            sparse: acd.sparse.len(),
        });
    }
    Ok(acd)
}

/// Loophole detection + hard/easy classification (shared by all three
/// pipelines; silently replayable the same way as [`det_phase_acd`]).
pub(crate) fn det_phase_classification(
    g: &Graph,
    acd: &AcdResult,
    ledger: &mut RoundLedger,
) -> Result<(LoopholeReport, Classification), DeltaColoringError> {
    ledger.span("pipeline/classification", |l| {
        let loopholes = detect_loopholes(g, &acd.clique_of);
        l.charge_constant("loophole detection", loopholes.rounds);
        let cls = classify_cliques(g, acd, &loopholes)?;
        // No `/` in the name: the ledger groups phases by their first
        // `/`-separated segment.
        l.charge_constant("hard-easy classification", cls.rounds);
        Ok((loopholes, cls))
    })
}

/// Step 3 (Algorithm 3): the easy sweep, spanned and charged.
pub(crate) fn det_phase_easy(
    g: &Graph,
    config: &Config,
    loopholes: &LoopholeReport,
    coloring: &mut Coloring,
    ledger: &mut RoundLedger,
    stats: &mut PipelineStats,
) -> Result<(), DeltaColoringError> {
    stats.easy = ledger.span("pipeline/easy sweep", |l| {
        color_easy_and_loopholes(
            g,
            loopholes,
            config.ruling_r,
            RulingStyle::Deterministic,
            config.threads,
            coloring,
            l,
        )
    })?;
    Ok(())
}

/// Algorithm 2 (phases 1–4), shared with the randomized pipeline.
///
/// `pair_palette_override` lets the randomized post-shattering phase
/// restrict pair colors to `1..Δ` (color 0 is reserved for T-node pairs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_hard_phases(
    g: &Graph,
    acd: &AcdResult,
    cls: &Classification,
    config: &Config,
    coloring: &mut Coloring,
    ledger: &mut RoundLedger,
    stats: &mut PipelineStats,
    pair_palette_override: Option<Vec<Color>>,
    allow_useless: bool,
) -> Result<(), DeltaColoringError> {
    let f2 = det_phase1(g, acd, cls, config, allow_useless, ledger)?;
    stats.phase1 = f2.stats.clone();

    let f3 = det_phase2(g, acd, cls, &f2, config, ledger)?;
    stats.max_incoming = f3.incoming.iter().copied().max().unwrap_or(0);
    stats.incoming_bound = f3.incoming_bound;

    let triads = det_phase3(g, acd, &f3, ledger)?;

    let delta = g.max_degree();
    let pair_palette =
        pair_palette_override.unwrap_or_else(|| (0..delta as u32).map(Color).collect());
    stats.phase4 = det_phase4(
        g,
        acd,
        cls,
        &triads,
        &pair_palette,
        coloring,
        config,
        ledger,
    )?;
    Ok(())
}

/// Phase 1: balanced matching (spanned and charged). Deterministic given
/// `(g, acd, cls, config)` when `config.matching`/`config.heg` are the
/// deterministic variants or seeded, so the supervisor replays it silently
/// on resume.
pub(crate) fn det_phase1(
    g: &Graph,
    acd: &AcdResult,
    cls: &Classification,
    config: &Config,
    allow_useless: bool,
    ledger: &mut RoundLedger,
) -> Result<BalancedMatching, DeltaColoringError> {
    ledger.span("pipeline/phase1 balanced matching", |l| {
        balanced_matching(
            g,
            acd,
            cls,
            config.subcliques,
            config.matching,
            config.heg,
            allow_useless,
            l,
        )
    })
}

/// Phase 2: matching sparsification (spanned and charged).
pub(crate) fn det_phase2(
    g: &Graph,
    acd: &AcdResult,
    cls: &Classification,
    f2: &BalancedMatching,
    config: &Config,
    ledger: &mut RoundLedger,
) -> Result<SparsifiedMatching, DeltaColoringError> {
    ledger.span("pipeline/phase2 sparsify matching", |l| {
        sparsify_matching(g, acd, cls, f2, config.acd.eps, config.split_segment, l)
    })
}

/// Phase 3: slack-triad formation (spanned and charged).
pub(crate) fn det_phase3(
    g: &Graph,
    acd: &AcdResult,
    f3: &SparsifiedMatching,
    ledger: &mut RoundLedger,
) -> Result<TriadSet, DeltaColoringError> {
    ledger.span("pipeline/phase3 slack triads", |l| {
        form_slack_triads(g, acd, f3, l)
    })
}

/// Phase 4: hard-clique coloring (spanned and charged). The only hard
/// phase that writes to `coloring` — its output is what the supervisor
/// snapshots at the phase-4 boundary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn det_phase4(
    g: &Graph,
    acd: &AcdResult,
    cls: &Classification,
    triads: &TriadSet,
    pair_palette: &[Color],
    coloring: &mut Coloring,
    config: &Config,
    ledger: &mut RoundLedger,
) -> Result<Phase4Stats, DeltaColoringError> {
    ledger.span("pipeline/phase4 coloring", |l| {
        color_hard_cliques_phase4(
            g,
            acd,
            cls,
            triads,
            pair_palette,
            coloring,
            config.enforce_paper_bounds,
            l,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::coloring::verify_delta_coloring;
    use graphgen::generators;

    fn hard(cliques: usize, delta: usize, ext: usize, seed: u64) -> generators::HardCliqueInstance {
        generators::hard_cliques(&generators::HardCliqueParams {
            cliques,
            delta,
            external_per_vertex: ext,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn colors_pure_hard_instance() {
        let inst = hard(34, 16, 1, 31);
        let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        assert!(report.rounds() > 0);
        assert_eq!(report.stats.hard, 34);
    }

    #[test]
    fn colors_hard_instance_ext2() {
        let inst = hard(320, 16, 2, 32);
        let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    }

    #[test]
    fn colors_easy_instance() {
        let inst = generators::easy_cliques(&generators::EasyCliqueParams {
            base: generators::HardCliqueParams {
                cliques: 34,
                delta: 16,
                external_per_vertex: 1,
                seed: 33,
            },
            easy: 4,
            kind: generators::LoopholeKind::LowDegree,
        })
        .unwrap();
        let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        assert!(report.stats.easy.colored > 0);
    }

    #[test]
    fn colors_mixed_instance() {
        let inst = generators::mixed_dense(&generators::MixedParams {
            base: generators::HardCliqueParams {
                cliques: 34,
                delta: 16,
                external_per_vertex: 1,
                seed: 34,
            },
            easy_low_degree: 2,
            easy_four_cycle: 1,
        })
        .unwrap();
        let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        assert!(report.stats.hard < 34);
        assert!(report.stats.hard > 0);
    }

    #[test]
    fn rejects_sparse_graph() {
        let g = generators::random_regular(100, 8, 3);
        let err = color_deterministic(&g, &Config::for_delta(8)).unwrap_err();
        assert!(matches!(err, DeltaColoringError::NotDense { .. }));
    }

    #[test]
    fn rejects_max_clique() {
        let g = generators::complete(9); // K9, Δ = 8
        let err = color_deterministic(&g, &Config::for_delta(8)).unwrap_err();
        assert_eq!(err, DeltaColoringError::ContainsMaxClique);
    }

    #[test]
    fn rejects_tiny_degree() {
        let g = generators::cycle(8);
        assert!(matches!(
            color_deterministic(&g, &Config::for_delta(2)),
            Err(DeltaColoringError::UnsupportedStructure(_))
        ));
    }

    #[test]
    fn deterministic_runs_agree() {
        let inst = hard(34, 16, 1, 35);
        let a = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        let b = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.rounds(), b.rounds());
    }

    #[test]
    fn alternative_subroutines_also_work() {
        let inst = hard(34, 16, 1, 36);
        for (matching, heg) in [
            (MatchingAlgo::Rand(7), HegAlgo::TokenWalk(9)),
            (MatchingAlgo::DetLineGraph, HegAlgo::Sequential),
        ] {
            let config = Config {
                matching,
                heg,
                ..Config::for_delta(16)
            };
            let report = color_deterministic(&inst.graph, &config).unwrap();
            verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        }
    }

    #[test]
    fn ledger_phases_populated() {
        let inst = hard(34, 16, 1, 37);
        let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        let ledger = &report.ledger;
        for phase in ["acd", "loophole", "phase1", "phase2", "phase4"] {
            assert!(
                ledger.total_for(phase) > 0,
                "phase {phase} missing from ledger:\n{ledger}"
            );
        }
    }
}
