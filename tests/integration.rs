//! Cross-crate integration tests: generator → ACD → pipelines → validator.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{json, Value};

use delta_coloring::coloring::{
    color_deterministic, color_randomized, Config, DeltaColoringError, HegAlgo, MatchingAlgo,
    RandConfig,
};
use delta_coloring::decomposition::{compute_acd, verify_acd, AcdParams};
use delta_coloring::graphs::coloring::verify_delta_coloring;
use delta_coloring::graphs::generators::{
    self, BlueprintKind, EasyCliqueParams, HardCliqueParams, LoopholeKind, MixedParams,
};
use delta_coloring::reference::brooks_sequential;

fn hard_params(cliques: usize, delta: usize, seed: u64) -> HardCliqueParams {
    HardCliqueParams {
        cliques,
        delta,
        external_per_vertex: 1,
        seed,
    }
}

#[test]
fn end_to_end_det_pipeline_many_seeds() {
    for seed in 0..6 {
        let inst = generators::hard_cliques(&hard_params(34, 16, 100 + seed)).unwrap();
        generators::verify_hard_instance(&inst).unwrap();
        let acd = compute_acd(&inst.graph, &AcdParams::for_delta(16));
        verify_acd(&inst.graph, &acd).unwrap();
        assert!(acd.is_dense());
        let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    }
}

#[test]
fn end_to_end_rand_pipeline_many_seeds() {
    let inst = generators::hard_cliques(&hard_params(60, 16, 200)).unwrap();
    for seed in 0..6 {
        let report = color_randomized(&inst.graph, &RandConfig::for_delta(16, seed)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    }
}

#[test]
fn det_and_rand_agree_with_brooks_on_solvability() {
    // Everything our pipelines color, the sequential Brooks oracle colors;
    // both agree the instance is Δ-colorable.
    let inst = generators::mixed_dense(&MixedParams {
        base: hard_params(34, 16, 300),
        easy_low_degree: 2,
        easy_four_cycle: 1,
    })
    .unwrap();
    let oracle = brooks_sequential(&inst.graph).unwrap();
    verify_delta_coloring(&inst.graph, &oracle).unwrap();
    let det = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    verify_delta_coloring(&inst.graph, &det.coloring).unwrap();
    let rand = color_randomized(&inst.graph, &RandConfig::for_delta(16, 3)).unwrap();
    verify_delta_coloring(&inst.graph, &rand.coloring).unwrap();
}

#[test]
fn circulant_instances_color_with_both_pipelines() {
    let inst = generators::hard_cliques_with_blueprint(
        &hard_params(80, 16, 400),
        BlueprintKind::Circulant,
    )
    .unwrap();
    let det = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    verify_delta_coloring(&inst.graph, &det.coloring).unwrap();
    let rand = color_randomized(&inst.graph, &RandConfig::for_delta(16, 5)).unwrap();
    verify_delta_coloring(&inst.graph, &rand.coloring).unwrap();
}

#[test]
fn clique_ring_easy_path_colors() {
    let g = generators::clique_ring(24, 16);
    let report = color_deterministic(&g, &Config::for_delta(16)).unwrap();
    verify_delta_coloring(&g, &report.coloring).unwrap();
    // Every clique is easy here: the hard machinery is idle.
    assert_eq!(report.stats.hard, 0);
    assert!(report.stats.easy.colored == g.n());
}

#[test]
fn ext2_instances_color() {
    let inst = generators::hard_cliques(&HardCliqueParams {
        cliques: 320,
        delta: 16,
        external_per_vertex: 2,
        seed: 500,
    })
    .unwrap();
    let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
}

#[test]
fn easy_instances_both_loophole_kinds() {
    for kind in [LoopholeKind::LowDegree, LoopholeKind::FourCycle] {
        let inst = generators::easy_cliques(&EasyCliqueParams {
            base: hard_params(34, 16, 600),
            easy: 4,
            kind,
        })
        .unwrap();
        let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
        verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    }
}

#[test]
fn paper_parameters_at_paper_scale() {
    // Δ = 64 with ε = 1/63 and K = 28: the regime where the paper's exact
    // constants are proved; enforce them.
    let inst = generators::hard_cliques(&hard_params(128, 64, 700)).unwrap();
    let report = color_deterministic(&inst.graph, &Config::paper()).unwrap();
    verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
    assert!(report.stats.phase1.min_outgoing >= 28, "Lemma 12");
    // Lemma 11's components: the rank bound r_H <= 2εΔ and the per-sub-
    // clique proposal count δ_H >= ⌊(1-ε)Δ/28⌋. (The full δ_H > 1.1·r_H
    // margin needs Δ in the thousands for the paper's constants to close;
    // feasibility — what the pipeline needs — is checked by the HEG solver
    // succeeding at all.)
    let eps = 1.0 / 63.0;
    assert!(
        report.stats.phase1.r_h as f64 <= 2.0 * eps * 64.0 + 1.0,
        "Lemma 11 rank bound"
    );
    assert!(
        report.stats.phase1.delta_h >= ((1.0 - eps) * 64.0 / 28.0).floor() as usize,
        "Lemma 11 proposal count: δ_H = {}",
        report.stats.phase1.delta_h
    );
    assert!(report.stats.phase4.gv_max_degree <= 62, "Lemma 16");
}

#[test]
fn error_paths_are_reported() {
    // Sparse graph.
    let g = generators::random_regular(60, 6, 1);
    assert!(matches!(
        color_deterministic(&g, &Config::for_delta(6)),
        Err(DeltaColoringError::NotDense { .. })
    ));
    // K_{Δ+1}.
    let g = generators::complete(10);
    assert!(matches!(
        color_deterministic(&g, &Config::for_delta(9)),
        Err(DeltaColoringError::ContainsMaxClique)
    ));
}

#[test]
fn alternative_subroutine_matrix() {
    for seed in [800, 36] {
        let inst = generators::hard_cliques(&hard_params(34, 16, seed)).unwrap();
        for matching in [MatchingAlgo::DetDirect, MatchingAlgo::Rand(1)] {
            for heg in [HegAlgo::Augmenting, HegAlgo::TokenWalk(2)] {
                let config = Config {
                    matching,
                    heg,
                    ..Config::for_delta(16)
                };
                let report = color_deterministic(&inst.graph, &config).unwrap();
                verify_delta_coloring(&inst.graph, &report.coloring).unwrap();
            }
        }
    }
}

#[test]
fn round_ledger_totals_are_consistent() {
    let inst = generators::hard_cliques(&hard_params(34, 16, 900)).unwrap();
    let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    let total: u64 = report.ledger.entries().iter().map(|e| e.rounds).sum();
    assert_eq!(total, report.ledger.total());
    assert_eq!(total, report.rounds());
    assert!(report.ledger.total_for("phase1") > 0);
}

/// The deterministic pipeline's ledger on `delta-color gen --cliques 80
/// --delta 16 --seed 2` under `Config::for_delta(16)` (what `delta-color
/// color` runs), pinned charge by charge. A change that moves a phase's
/// rounds updates this table in the same commit and says why.
#[test]
fn det_pipeline_round_charges_match_the_committed_ledger() {
    let inst = generators::hard_cliques(&hard_params(80, 16, 2)).unwrap();
    let report = color_deterministic(&inst.graph, &Config::for_delta(16)).unwrap();
    let charges: Vec<(&str, u64)> = report
        .ledger
        .entries()
        .iter()
        .map(|e| (e.phase.as_str(), e.rounds))
        .collect();
    assert_eq!(
        charges,
        [
            ("acd computation", 8),
            ("loophole detection", 3),
            ("hard-easy classification", 2),
            ("phase1/maximal matching F1", 10),
            ("phase1/hyperedge grabbing", 39),
            ("phase1/F2 rearrangement", 2),
            ("phase2/degree splitting (2 levels)", 300),
            ("phase2/outgoing selection", 4),
            ("phase3/slack triad formation", 1),
            ("phase4a/slack pair coloring", 66),
            ("phase4b/instance 1", 59),
            ("phase4b/instance 2", 1),
        ]
    );
    assert_eq!(report.rounds(), 495);
}

/// Scaled-down variant of [`paper_scale_stress`] that runs in the default
/// suite (and CI): same Δ = 64 paper parameters and assertions, 4× fewer
/// cliques (128 is the bipartite blueprint's minimum for Δ = 64) so it
/// finishes in seconds.
#[test]
fn paper_scale_stress_scaled_down() {
    let inst = generators::hard_cliques(&hard_params(128, 64, 7777)).unwrap();
    let det = color_deterministic(&inst.graph, &Config::paper()).unwrap();
    verify_delta_coloring(&inst.graph, &det.coloring).unwrap();
    let rand = color_randomized(
        &inst.graph,
        &RandConfig {
            base: Config::paper(),
            ..RandConfig::for_delta(64, 3)
        },
    )
    .unwrap();
    verify_delta_coloring(&inst.graph, &rand.coloring).unwrap();
}

/// Paper-scale stress: Δ = 64 with paper parameters through both
/// pipelines. Slow; run with `cargo test -- --ignored`.
#[test]
#[ignore = "paper-scale stress test (~minutes)"]
fn paper_scale_stress() {
    let inst = generators::hard_cliques(&hard_params(512, 64, 7777)).unwrap();
    let det = color_deterministic(&inst.graph, &Config::paper()).unwrap();
    verify_delta_coloring(&inst.graph, &det.coloring).unwrap();
    let rand = color_randomized(
        &inst.graph,
        &RandConfig {
            base: Config::paper(),
            ..RandConfig::for_delta(64, 3)
        },
    )
    .unwrap();
    verify_delta_coloring(&inst.graph, &rand.coloring).unwrap();
}

const BIN: &str = env!("CARGO_BIN_EXE_delta-color");

/// Runs the CLI, returning `(exit code, stdout, stderr)`.
fn cli(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn delta-color");
    (
        out.status.code().expect("exited, not signalled"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A fresh scratch directory under the system temp dir, unique per tag.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("integration-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Parses the JSON file at `path`, applies `edit`, and writes it back.
fn edit_json(path: &Path, edit: impl FnOnce(&mut Value)) {
    let mut v = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    edit(&mut v);
    std::fs::write(path, json::to_string(&v)).unwrap();
}

fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Map(entries) = v else {
        panic!("expected an object holding `{key}`")
    };
    &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1
}

fn seq(v: &mut Value) -> &mut Vec<Value> {
    let Value::Seq(items) = v else {
        panic!("expected a sequence")
    };
    items
}

/// Exit 1 with an `error: ` line, not a panic (exit 101).
fn assert_cli_error(args: &[&str]) {
    let (code, _, stderr) = cli(args);
    assert_eq!(code, 1, "{args:?} must fail cleanly:\n{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "{args:?} must print an `error: ` line:\n{stderr}"
    );
}

#[test]
fn resume_from_a_snapshot_that_does_not_fit_the_graph_is_an_error() {
    let dir = scratch_dir("hostile-snapshot");
    let graph = dir.join("g.txt");
    let (code, stdout, _) = cli(&["gen", "--cliques", "40", "--delta", "16", "--seed", "1"]);
    assert_eq!(code, 0);
    std::fs::write(&graph, stdout).unwrap();
    let (graph, ckpt) = (graph.to_str().unwrap(), dir.join("ckpt"));
    let args = [
        "color",
        graph,
        "--randomized",
        "7",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--stop-after",
        "classification",
    ];
    assert_eq!(cli(&args).0, 0);
    let snapshot = ckpt.join("checkpoint-01-classification.json");
    edit_json(&snapshot, |s| {
        seq(field(field(s, "coloring"), "colors")).truncate(10);
    });
    assert_cli_error(&["color", graph, "--resume", snapshot.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_of_a_bundle_with_an_out_of_range_neighbor_is_an_error() {
    let dir = scratch_dir("hostile-bundle");
    let graph = dir.join("g.txt");
    let (code, stdout, _) = cli(&["gen", "--cliques", "160", "--delta", "16", "--seed", "5"]);
    assert_eq!(code, 0);
    std::fs::write(&graph, stdout).unwrap();
    let bundles = dir.join("bundles");
    std::fs::create_dir_all(&bundles).unwrap();
    let args = [
        "color",
        graph.to_str().unwrap(),
        "--randomized",
        "1",
        "--chaos-skip",
        "0",
        "--bundle-dir",
        bundles.to_str().unwrap(),
    ];
    assert_eq!(cli(&args).0, 1, "a skipped component must fail the run");
    let bundle = std::fs::read_dir(&bundles)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("the failed run writes a bundle");
    edit_json(&bundle, |b| {
        seq(field(field(b, "graph"), "adj"))[0] = Value::U64(1_000_000_000);
    });
    assert_cli_error(&["replay", bundle.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
}
