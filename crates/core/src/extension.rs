//! Extension beyond the paper: randomized Δ-coloring of graphs with
//! **both** sparse and dense parts.
//!
//! The paper's §1.1 observes that sparse vertices are "extremely simple
//! for randomized algorithms": a one-round color trial gives them
//! *permanent slack* (two same-colored neighbors) with high probability,
//! after which they live in the greedy regime and can be colored last.
//! This module composes that observation with the dense machinery:
//!
//! 1. **Slack generation** — several rounds of random color trials among
//!    the sparse vertices; afterwards every uncolored sparse vertex must
//!    hold permanent slack (w.h.p. for Δ large enough; checked, with a
//!    structured error otherwise — this extension is *preconditioned*, not
//!    a resolution of the paper's open problem).
//! 2. **Dense machinery** — Algorithm 2 on the hard cliques. Type-II
//!    cliques may stall on uncolored sparse or easy neighbors; if a stall
//!    candidate's sparse neighbors were all trial-colored, one slack-owning
//!    neighbor is *uncolored again* (it keeps its own permanent slack, so
//!    deferring it is free).
//! 3. **Easy sweep** — Algorithm 3 scoped to the easy-clique vertices.
//! 4. **Sparse finish** — one `(deg+1)`-list instance over the uncolored
//!    sparse vertices: permanent slack makes every palette large enough.

use acd::compute_acd;
use graphgen::{Color, Coloring, Graph, NodeId};
use localsim::{Probe, RoundLedger};
use primitives::ruling::RulingStyle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::deterministic::{det_phase_classification, run_hard_phases, PipelineStats};
use crate::easy::color_easy_and_loopholes_scoped;
use crate::error::DeltaColoringError;
use crate::loophole::Loophole;
use crate::phase4::run_list_instance;
use crate::randomized::RandConfig;

/// Statistics of a sparse+dense run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SparseDenseStats {
    /// Sparse vertices in the ACD.
    pub sparse: usize,
    /// Sparse vertices colored by the trials.
    pub trial_colored: usize,
    /// Trial rounds used.
    pub trial_rounds: u64,
    /// Sparse vertices un-colored again to serve as stall slack sources.
    pub assists: usize,
    /// Dense pipeline statistics.
    pub dense: PipelineStats,
}

/// Outcome of a sparse+dense run.
#[derive(Debug, Clone)]
pub struct SparseDenseReport {
    /// The proper Δ-coloring.
    pub coloring: Coloring,
    /// Round accounting.
    pub ledger: RoundLedger,
    /// Statistics.
    pub stats: SparseDenseStats,
}

/// Whether an uncolored vertex holds permanent slack: two neighbors share
/// a color.
fn has_permanent_slack(g: &Graph, coloring: &Coloring, v: NodeId) -> bool {
    let mut seen = std::collections::HashSet::new();
    g.neighbors(v)
        .iter()
        .filter_map(|&w| coloring.get(w))
        .any(|c| !seen.insert(c))
}

/// Randomized Δ-coloring of a graph whose ACD has sparse vertices.
///
/// # Examples
///
/// ```
/// use delta_core::{color_sparse_dense, RandConfig};
/// use graphgen::generators::{sparse_dense_mix, SparseDenseParams};
/// let inst = sparse_dense_mix(&SparseDenseParams {
///     cliques: 68, delta: 32, sparse: 120, cross: 8, seed: 3,
/// })?;
/// let report = color_sparse_dense(&inst.graph, &RandConfig::for_delta(32, 1))?;
/// graphgen::coloring::verify_delta_coloring(&inst.graph, &report.coloring)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// * Everything [`crate::color_deterministic`] reports for the dense part.
/// * [`DeltaColoringError::UnsupportedStructure`] when slack generation
///   fails for some sparse vertex within the round budget — the regime the
///   paper leaves open (small Δ, adversarial sparse structure).
pub fn color_sparse_dense(
    g: &Graph,
    config: &RandConfig,
) -> Result<SparseDenseReport, DeltaColoringError> {
    color_sparse_dense_probed(g, config, &Probe::disabled())
}

/// [`color_sparse_dense`] with a telemetry probe attached: phase spans,
/// ledger charges, and per-round executor series are emitted to the
/// probe's sink.
///
/// # Errors
///
/// As [`color_sparse_dense`].
#[allow(clippy::too_many_lines)]
pub fn color_sparse_dense_probed(
    g: &Graph,
    config: &RandConfig,
    probe: &Probe,
) -> Result<SparseDenseReport, DeltaColoringError> {
    let delta = g.max_degree();
    if delta < 4 {
        return Err(DeltaColoringError::UnsupportedStructure(format!(
            "maximum degree {delta} is below the supported minimum of 4"
        )));
    }
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5BA2);
    let mut ledger = RoundLedger::with_probe(probe.clone());
    let mut coloring = Coloring::empty(g.n());
    let mut stats = SparseDenseStats::default();

    let acd = ledger.span("pipeline/acd", |l| {
        let acd = compute_acd(g, &config.base.acd);
        l.charge_constant("acd computation", acd.rounds);
        acd
    });
    let is_sparse: Vec<bool> = (0..g.n()).map(|v| acd.clique_of[v].is_none()).collect();
    stats.sparse = acd.sparse.len();

    // --- Step 1: slack generation among sparse vertices. ---
    let trial_rounds = ledger.span("pipeline/sparse trials", |l| {
        let budget = 6 + (usize::BITS - g.n().leading_zeros()) as u64;
        let mut trial_rounds = 0u64;
        loop {
            let needy: Vec<NodeId> = g
                .vertices()
                .filter(|&v| {
                    is_sparse[v.index()]
                        && !coloring.is_colored(v)
                        && g.degree(v) == delta
                        && !has_permanent_slack(g, &coloring, v)
                })
                .collect();
            if needy.is_empty() {
                break;
            }
            if trial_rounds >= budget {
                return Err(DeltaColoringError::UnsupportedStructure(format!(
                    "{} sparse vertices failed to acquire slack within {budget} trial rounds \
                     (Δ = {delta} may be too small for the w.h.p. regime)",
                    needy.len()
                )));
            }
            trial_rounds += 1;
            // One trial round over ALL uncolored sparse vertices (more colored
            // neighbors = more slack opportunities for the needy ones).
            let active: Vec<NodeId> = g
                .vertices()
                .filter(|&v| is_sparse[v.index()] && !coloring.is_colored(v))
                .collect();
            let mut draw: Vec<Option<Color>> = vec![None; g.n()];
            for &v in &active {
                let used: std::collections::HashSet<Color> = g
                    .neighbors(v)
                    .iter()
                    .filter_map(|&w| coloring.get(w))
                    .collect();
                let free: Vec<Color> = (0..delta as u32)
                    .map(Color)
                    .filter(|c| !used.contains(c))
                    .collect();
                if !free.is_empty() {
                    draw[v.index()] = Some(free[rng.gen_range(0..free.len())]);
                }
            }
            for &v in &active {
                let Some(c) = draw[v.index()] else { continue };
                let clash = g.neighbors(v).iter().any(|&w| draw[w.index()] == Some(c));
                if !clash {
                    coloring.set(v, c);
                }
            }
        }
        l.charge("sparse/slack-generation trials", trial_rounds);
        Ok(trial_rounds)
    })?;
    stats.trial_rounds = trial_rounds;
    stats.trial_colored = g
        .vertices()
        .filter(|&v| is_sparse[v.index()] && coloring.is_colored(v))
        .count();

    // --- Step 2: dense machinery. ---
    let (loopholes, cls) = det_phase_classification(g, &acd, &mut ledger)?;

    // Stall assistance: a Type-II clique stalls on an uncolored non-hard
    // neighbor; if a candidate's outside neighbors were all trial-colored,
    // un-color one that owns permanent slack itself.
    let with_ext_hard = |v: NodeId| {
        g.neighbors(v).iter().any(|&w| {
            cls.is_hard_vertex[w.index()] && acd.clique_of[w.index()] != acd.clique_of[v.index()]
        })
    };
    ledger.span("pipeline/stall assistance", |l| {
        for &cid in &cls.hard_ids {
            if cls.heg_ids.contains(&cid) {
                continue;
            }
            let members = &acd.cliques[cid as usize].vertices;
            let has_stall = members.iter().any(|&v| {
                !with_ext_hard(v)
                    && g.neighbors(v)
                        .iter()
                        .any(|&w| !cls.is_hard_vertex[w.index()] && !coloring.is_colored(w))
            });
            if has_stall {
                continue;
            }
            // Find a member + colored sparse neighbor with its own slack.
            let assist = members.iter().find_map(|&v| {
                if with_ext_hard(v) {
                    return None;
                }
                g.neighbors(v).iter().copied().find(|&w| {
                    is_sparse[w.index()]
                        && coloring.is_colored(w)
                        && has_permanent_slack(g, &coloring, w)
                })
            });
            let Some(w) = assist else {
                return Err(DeltaColoringError::UnsupportedStructure(format!(
                    "Type II clique {cid} has no stall source and no assistable sparse neighbor"
                )));
            };
            coloring.unset(w);
            stats.assists += 1;
        }
        l.charge_constant("sparse/stall assistance", 2);
        Ok(())
    })?;

    if !cls.hard_ids.is_empty() {
        run_hard_phases(
            g,
            &acd,
            &cls,
            &config.base,
            &mut coloring,
            &mut ledger,
            &mut stats.dense,
            None,
            false,
        )?;
    }

    // --- Step 3: easy sweep over easy cliques and the uncolored sparse
    // region. Every uncolored sparse vertex has permanent slack (or degree
    // < Δ), so it acts as a *slack anchor* — an extended loophole in the
    // sense of the paper's §4 — and joins the sweep both as a vote and as
    // reachable territory.
    let mut votes = loopholes.vote.clone();
    let mut easy_scope: Vec<bool> = (0..g.n())
        .map(|v| acd.clique_of[v].is_some() && !cls.is_hard_vertex[v])
        .collect();
    for v in g.vertices() {
        if is_sparse[v.index()] && !coloring.is_colored(v) {
            easy_scope[v.index()] = true;
            if g.degree(v) == delta && !has_permanent_slack(g, &coloring, v) {
                return Err(DeltaColoringError::UnsupportedStructure(format!(
                    "sparse vertex {v} lost its slack before the final sweep"
                )));
            }
            votes[v.index()] = Some(Loophole::LowDegree(v));
        }
    }
    // Assist easy cliques whose loophole votes went stale (their loophole
    // touched a trial-colored sparse vertex) and that see no uncolored
    // sparse anchor: un-color an adjacent slack-owning sparse vertex.
    for (cid, c) in acd.cliques.iter().enumerate() {
        if cls.is_hard_vertex[c.vertices[0].index()] {
            continue;
        }
        let reachable = c.vertices.iter().any(|&v| {
            let valid_vote = votes[v.index()].as_ref().is_some_and(|lh| {
                lh.vertices()
                    .iter()
                    .all(|&x| !coloring.is_colored(x) && easy_scope[x.index()])
            });
            valid_vote
                || g.neighbors(v)
                    .iter()
                    .any(|&w| easy_scope[w.index()] && !coloring.is_colored(w))
        });
        if reachable {
            continue;
        }
        let assist = c.vertices.iter().find_map(|&v| {
            g.neighbors(v).iter().copied().find(|&w| {
                is_sparse[w.index()]
                    && coloring.is_colored(w)
                    && has_permanent_slack(g, &coloring, w)
            })
        });
        let Some(w) = assist else {
            return Err(DeltaColoringError::UnsupportedStructure(format!(
                "easy clique {cid} has no anchor and no assistable sparse neighbor"
            )));
        };
        coloring.unset(w);
        easy_scope[w.index()] = true;
        votes[w.index()] = Some(Loophole::LowDegree(w));
        stats.assists += 1;
    }
    let merged = crate::loophole::LoopholeReport {
        vote: votes,
        rounds: 0,
    };
    if easy_scope.iter().any(|&b| b) {
        stats.dense.easy = ledger.span("pipeline/easy sweep", |l| {
            color_easy_and_loopholes_scoped(
                g,
                &merged,
                config.base.ruling_r,
                RulingStyle::Randomized(config.seed ^ 0xEA5E),
                Some(&easy_scope),
                config.base.threads,
                &mut coloring,
                l,
            )
        })?;
    }

    // --- Step 4: the sparse finish (anything the sweep did not touch). ---
    let remaining: Vec<NodeId> = g.vertices().filter(|&v| !coloring.is_colored(v)).collect();
    ledger.span("pipeline/sparse finish", |l| {
        run_list_instance(
            g,
            &remaining,
            delta as u32,
            &mut coloring,
            "sparse/finish",
            l,
        )
    })?;

    coloring
        .check_complete(g, delta as u32)
        .map_err(|e| DeltaColoringError::InvariantViolated(format!("final coloring: {e}")))?;
    Ok(SparseDenseReport {
        coloring,
        ledger,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::coloring::verify_delta_coloring;
    use graphgen::generators::{sparse_dense_mix, SparseDenseParams};

    fn mix(seed: u64) -> graphgen::generators::SparseDenseInstance {
        sparse_dense_mix(&SparseDenseParams {
            cliques: 68,
            delta: 32,
            sparse: 200,
            cross: 16,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn colors_sparse_dense_mixture() {
        let inst = mix(1);
        let report =
            color_sparse_dense(&inst.graph, &RandConfig::for_delta(inst.delta, 5)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        assert!(report.stats.sparse > 0, "the ACD must see sparse vertices");
        assert!(report.stats.trial_colored > 0);
    }

    #[test]
    fn several_seeds_succeed() {
        let inst = mix(2);
        for seed in 0..4 {
            let report =
                color_sparse_dense(&inst.graph, &RandConfig::for_delta(inst.delta, seed)).unwrap();
            verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        }
    }

    #[test]
    fn pure_sparse_graph_colors() {
        // A random Δ-regular graph: everything sparse, trials + finish.
        let g = graphgen::generators::random_regular(300, 24, 7);
        let report = color_sparse_dense(&g, &RandConfig::for_delta(24, 3)).unwrap();
        verify_delta_coloring(&g, &report.coloring).unwrap();
        assert_eq!(report.stats.dense.hard, 0);
    }

    #[test]
    fn dense_only_graph_still_works() {
        let inst = graphgen::generators::hard_cliques(&graphgen::generators::HardCliqueParams {
            cliques: 34,
            delta: 16,
            external_per_vertex: 1,
            seed: 8,
        })
        .unwrap();
        let report = color_sparse_dense(&inst.graph, &RandConfig::for_delta(16, 2)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
        assert_eq!(report.stats.sparse, 0);
    }

    #[test]
    fn tiny_delta_fails_gracefully_or_colors() {
        // Δ = 6 is far below the w.h.p. regime: either a structured error
        // or a valid coloring, never a panic or an improper coloring.
        let g = graphgen::generators::random_regular(60, 6, 4);
        match color_sparse_dense(&g, &RandConfig::for_delta(6, 1)) {
            Ok(report) => verify_delta_coloring(&g, &report.coloring).unwrap(),
            Err(DeltaColoringError::UnsupportedStructure(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
