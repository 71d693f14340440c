//! Regenerates the paper's structural figures (Figures 2-4) as Graphviz
//! DOT files from a live pipeline run.
//!
//! ```text
//! cargo run --release --example paper_figures
//! dot -Tsvg figure2_triads.dot -o figure2.svg   # if graphviz is installed
//! ```

use delta_coloring::coloring::render;
use delta_coloring::coloring::{
    balanced_matching, classify_cliques, detect_loopholes, form_slack_triads, sparsify_matching,
    Config, HegAlgo, MatchingAlgo,
};
use delta_coloring::decomposition::{compute_acd, AcdParams};
use delta_coloring::graphs::generators::{hard_cliques, HardCliqueParams};
use delta_coloring::local::RoundLedger;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small instance so the figures stay legible. It is drawn from the
    // Δ=16 family the `det_pipeline_on_hard` property test covers: at
    // Δ=12, `Config::for_delta`'s Lemma 13 incoming cap of 4 admits no
    // valid outgoing selection on some seeds, and phase 2 fails there.
    let inst = hard_cliques(&HardCliqueParams {
        cliques: 34,
        delta: 16,
        external_per_vertex: 1,
        seed: 4,
    })?;
    let config = Config::for_delta(inst.delta);
    let acd = compute_acd(&inst.graph, &AcdParams::for_delta(inst.delta));
    let loopholes = detect_loopholes(&inst.graph, &acd.clique_of);
    let cls = classify_cliques(&inst.graph, &acd, &loopholes)?;
    let mut ledger = RoundLedger::new();
    let f2 = balanced_matching(
        &inst.graph,
        &acd,
        &cls,
        config.subcliques,
        MatchingAlgo::DetDirect,
        HegAlgo::Augmenting,
        false,
        &mut ledger,
    )?;
    let f3 = sparsify_matching(
        &inst.graph,
        &acd,
        &cls,
        &f2,
        config.acd.eps,
        config.split_segment,
        &mut ledger,
    )?;
    let triads = form_slack_triads(&inst.graph, &acd, &f3, &mut ledger)?;

    let figures = [
        ("figure2_triads.dot", render::render_triads(&acd, &triads)),
        (
            "figure3_pair_graph.dot",
            render::render_pair_graph(&inst.graph, &triads),
        ),
        ("figure4_matching.dot", render::render_matching(&acd, &f2)),
    ];
    for (name, dot) in figures {
        std::fs::write(name, &dot)?;
        println!("wrote {name} ({} bytes)", dot.len());
    }
    println!(
        "\n{} slack triads over {} hard cliques; render with `dot -Tsvg <file> -o out.svg`",
        triads.triads.len(),
        cls.hard_ids.len()
    );
    Ok(())
}
