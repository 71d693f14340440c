//! Direct tests of the pipeline phases: each lemma's statement exercised
//! on generated instances, plus failure injection for the validating
//! constructors.

use acd::{compute_acd, AcdParams};
use delta_core::{
    balanced_matching, classify_cliques, color_deterministic, color_hard_cliques_phase4,
    detect_loopholes, form_slack_triads, sparsify_matching, Config, HegAlgo, MatchingAlgo,
};
use graphgen::generators::{self, HardCliqueParams};
use graphgen::{Color, Coloring};
use localsim::RoundLedger;

struct Fixture {
    inst: generators::HardCliqueInstance,
    acd: acd::AcdResult,
    cls: delta_core::Classification,
    config: Config,
}

fn fixture(cliques: usize, delta: usize, ext: usize, seed: u64) -> Fixture {
    let inst = generators::hard_cliques(&HardCliqueParams {
        cliques,
        delta,
        external_per_vertex: ext,
        seed,
    })
    .unwrap();
    let acd = compute_acd(&inst.graph, &AcdParams::for_delta(delta));
    let loopholes = detect_loopholes(&inst.graph, &acd.clique_of);
    let cls = classify_cliques(&inst.graph, &acd, &loopholes).unwrap();
    let config = Config::for_delta(delta);
    Fixture {
        inst,
        acd,
        cls,
        config,
    }
}

fn run_phase1(f: &Fixture, ledger: &mut RoundLedger) -> delta_core::BalancedMatching {
    balanced_matching(
        &f.inst.graph,
        &f.acd,
        &f.cls,
        f.config.subcliques,
        MatchingAlgo::DetDirect,
        HegAlgo::Augmenting,
        false,
        ledger,
    )
    .unwrap()
}

#[test]
fn phase1_f2_is_an_oriented_matching_with_k_outgoing() {
    let f = fixture(34, 16, 1, 70);
    let mut ledger = RoundLedger::new();
    let f2 = run_phase1(&f, &mut ledger);
    // Matching: no vertex repeats.
    let mut seen = std::collections::HashSet::new();
    for &(t, h) in &f2.edges {
        assert!(seen.insert(t), "tail {t} repeated");
        assert!(seen.insert(h), "head {h} repeated");
        assert!(f.inst.graph.has_edge(t, h), "F2 edges are graph edges");
        assert_ne!(
            f.acd.clique_of[t.index()],
            f.acd.clique_of[h.index()],
            "F2 edges are inter-clique"
        );
    }
    // Lemma 12: exactly K outgoing per C_HEG clique.
    let mut outgoing = vec![0usize; f.acd.cliques.len()];
    for &(t, _) in &f2.edges {
        outgoing[f.acd.clique_of[t.index()].unwrap() as usize] += 1;
    }
    for &cid in &f.cls.heg_ids {
        assert_eq!(outgoing[cid as usize], f.config.subcliques, "clique {cid}");
    }
    assert_eq!(f2.stats.min_outgoing, f.config.subcliques);
}

#[test]
fn phase2_selects_two_outgoing_within_cap() {
    let f = fixture(34, 16, 1, 71);
    let mut ledger = RoundLedger::new();
    let f2 = run_phase1(&f, &mut ledger);
    let f3 = sparsify_matching(
        &f.inst.graph,
        &f.acd,
        &f.cls,
        &f2,
        f.config.acd.eps,
        f.config.split_segment,
        &mut ledger,
    )
    .unwrap();
    let mut outgoing = vec![0usize; f.acd.cliques.len()];
    for &(t, _) in &f3.edges {
        outgoing[f.acd.clique_of[t.index()].unwrap() as usize] += 1;
    }
    for &cid in &f3.type_i_plus {
        assert_eq!(
            outgoing[cid as usize], 2,
            "Type I+ clique {cid} keeps exactly 2"
        );
    }
    // F3 ⊆ F2.
    let f2_set: std::collections::HashSet<_> = f2.edges.iter().collect();
    assert!(f3.edges.iter().all(|e| f2_set.contains(e)));
    // Incoming bounded.
    let e_max = 1; // ext = 1
    let cap = (16 - 2 - 2 * e_max) / 2;
    assert!(f3.incoming.iter().all(|&i| i <= cap), "{:?}", f3.incoming);
}

/// At Δ = 12 the incoming cap is 4 and tight. On seeds 1 and 5 the
/// index-order greedy leaves a clique short although a selection exists,
/// and the augmenting repair finds one; on seeds 4 and 6 no selection
/// exists, so phase 2 still fails Lemma 13.
#[test]
fn phase2_fails_only_when_no_selection_exists() {
    for seed in 1..=6 {
        let inst = generators::hard_cliques(&HardCliqueParams {
            cliques: 26,
            delta: 12,
            external_per_vertex: 1,
            seed,
        })
        .unwrap();
        let result = color_deterministic(&inst.graph, &Config::for_delta(12));
        match (seed, result) {
            (4 | 6, Err(e)) => assert!(e.to_string().contains("Lemma 13"), "seed {seed}: {e}"),
            (4 | 6, Ok(_)) => panic!("seed {seed}: no selection exists, phase 2 must fail"),
            (_, Ok(report)) => {
                report.coloring.check_complete(&inst.graph, 12).unwrap();
                let repaired = report.ledger.total_for("selection repair") > 0;
                assert_eq!(repaired, seed == 1 || seed == 5, "seed {seed}");
            }
            (_, Err(e)) => panic!("seed {seed}: {e}"),
        }
    }
}

#[test]
fn phase3_triads_satisfy_definition_14_and_lemma_15() {
    let f = fixture(34, 16, 1, 72);
    let mut ledger = RoundLedger::new();
    let f2 = run_phase1(&f, &mut ledger);
    let f3 = sparsify_matching(
        &f.inst.graph,
        &f.acd,
        &f.cls,
        &f2,
        f.config.acd.eps,
        4,
        &mut ledger,
    )
    .unwrap();
    let triads = form_slack_triads(&f.inst.graph, &f.acd, &f3, &mut ledger).unwrap();
    assert_eq!(
        triads.triads.len(),
        f.cls.heg_ids.len(),
        "one triad per Type I+ clique"
    );
    let g = &f.inst.graph;
    let mut used = std::collections::HashSet::new();
    for t in &triads.triads {
        // Definition 14: v, w ∈ N(u), v ≁ w.
        assert!(g.has_edge(t.slack, t.pair_in));
        assert!(g.has_edge(t.slack, t.pair_out));
        assert!(!g.has_edge(t.pair_in, t.pair_out));
        // Lemma 15 (ii): vertex disjoint.
        for v in [t.slack, t.pair_in, t.pair_out] {
            assert!(used.insert(v), "vertex {v} reused across triads");
        }
        // Membership: slack and pair_in inside the clique, pair_out outside.
        assert_eq!(f.acd.clique_of[t.slack.index()], Some(t.clique));
        assert_eq!(f.acd.clique_of[t.pair_in.index()], Some(t.clique));
        assert_ne!(f.acd.clique_of[t.pair_out.index()], Some(t.clique));
    }
}

#[test]
fn phase4_colors_all_hard_vertices_and_respects_pairs() {
    let f = fixture(34, 16, 1, 73);
    let mut ledger = RoundLedger::new();
    let f2 = run_phase1(&f, &mut ledger);
    let f3 = sparsify_matching(
        &f.inst.graph,
        &f.acd,
        &f.cls,
        &f2,
        f.config.acd.eps,
        4,
        &mut ledger,
    )
    .unwrap();
    let triads = form_slack_triads(&f.inst.graph, &f.acd, &f3, &mut ledger).unwrap();
    let mut coloring = Coloring::empty(f.inst.graph.n());
    let palette: Vec<Color> = (0..16).map(Color).collect();
    let stats = color_hard_cliques_phase4(
        &f.inst.graph,
        &f.acd,
        &f.cls,
        &triads,
        &palette,
        &mut coloring,
        false,
        &mut ledger,
    )
    .unwrap();
    // All hard vertices are colored and the partial coloring is proper.
    for v in f.inst.graph.vertices() {
        assert!(coloring.is_colored(v), "{v} left uncolored");
    }
    coloring.check_complete(&f.inst.graph, 16).unwrap();
    // Slack pairs are same-colored.
    for t in &triads.triads {
        assert_eq!(coloring.get(t.pair_in), coloring.get(t.pair_out));
    }
    assert_eq!(stats.pairs, triads.triads.len());
    assert!(stats.gv_max_degree <= 14);
}

#[test]
fn phase1_rejects_too_many_subcliques() {
    let f = fixture(34, 16, 1, 74);
    let mut ledger = RoundLedger::new();
    // 20 sub-cliques > clique size 16: must error, not panic.
    let err = balanced_matching(
        &f.inst.graph,
        &f.acd,
        &f.cls,
        20,
        MatchingAlgo::DetDirect,
        HegAlgo::Augmenting,
        false,
        &mut ledger,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        delta_core::DeltaColoringError::InvariantViolated(_)
    ));
}

#[test]
fn ext2_phase_pipeline_consistent() {
    let f = fixture(320, 16, 2, 75);
    let mut ledger = RoundLedger::new();
    let f2 = run_phase1(&f, &mut ledger);
    assert!(f2.stats.r_h >= 2, "ext=2 instances have richer hypergraphs");
    let f3 = sparsify_matching(
        &f.inst.graph,
        &f.acd,
        &f.cls,
        &f2,
        f.config.acd.eps,
        4,
        &mut ledger,
    )
    .unwrap();
    let triads = form_slack_triads(&f.inst.graph, &f.acd, &f3, &mut ledger).unwrap();
    assert_eq!(triads.triads.len(), f.cls.heg_ids.len());
}

#[test]
fn enforce_paper_bound_rejects_tiny_pair_palette() {
    let f = fixture(34, 16, 1, 76);
    let mut ledger = RoundLedger::new();
    let f2 = run_phase1(&f, &mut ledger);
    let f3 = sparsify_matching(
        &f.inst.graph,
        &f.acd,
        &f.cls,
        &f2,
        f.config.acd.eps,
        4,
        &mut ledger,
    )
    .unwrap();
    let triads = form_slack_triads(&f.inst.graph, &f.acd, &f3, &mut ledger).unwrap();
    let mut coloring = Coloring::empty(f.inst.graph.n());
    // A palette of 2 colors cannot cover G_V's degree: structured error.
    let tiny: Vec<Color> = (0..2).map(Color).collect();
    let err = color_hard_cliques_phase4(
        &f.inst.graph,
        &f.acd,
        &f.cls,
        &triads,
        &tiny,
        &mut coloring,
        false,
        &mut ledger,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        delta_core::DeltaColoringError::InvariantViolated(_)
    ));
}

#[test]
fn ledger_reports_every_phase() {
    let f = fixture(34, 16, 1, 77);
    let mut ledger = RoundLedger::new();
    let f2 = run_phase1(&f, &mut ledger);
    let _ = sparsify_matching(
        &f.inst.graph,
        &f.acd,
        &f.cls,
        &f2,
        f.config.acd.eps,
        4,
        &mut ledger,
    )
    .unwrap();
    assert!(ledger.total_for("maximal matching") > 0);
    assert!(ledger.total_for("hyperedge grabbing") > 0);
    assert!(ledger.total_for("degree splitting") > 0);
}

#[test]
fn classification_matches_planted_structure_at_scale() {
    // Δ = 64, paper-parameter classification on a pure hard instance.
    let inst = generators::hard_cliques(&HardCliqueParams {
        cliques: 128,
        delta: 64,
        external_per_vertex: 1,
        seed: 78,
    })
    .unwrap();
    let acd = compute_acd(&inst.graph, &AcdParams::paper());
    assert!(acd.is_dense());
    assert_eq!(acd.cliques.len(), 128);
    let loopholes = detect_loopholes(&inst.graph, &acd.clique_of);
    assert_eq!(loopholes.count(), 0);
    let cls = classify_cliques(&inst.graph, &acd, &loopholes).unwrap();
    assert_eq!(cls.hard_count(), 128);
    assert_eq!(cls.heg_ids.len(), 128);
}
