//! Textual (Graphviz DOT) renderers for the paper's structural figures.
//!
//! * Figure 2 — hard cliques with their slack triads: [`render_triads`].
//! * Figure 3 — the virtual conflict graph `G_V` of slack pairs:
//!   [`render_pair_graph`].
//! * Figure 4 — the `F1 → F2` edge flipping of the HEG phase:
//!   [`render_matching`].
//!
//! The output is self-contained DOT; render with
//! `dot -Tsvg figure.dot -o figure.svg`.

use std::fmt::Write as _;

use acd::AcdResult;
use graphgen::{Graph, NodeId};

use crate::phase1::BalancedMatching;
use crate::phase3::TriadSet;

fn clique_clusters(acd: &AcdResult, out: &mut String, highlight: impl Fn(NodeId) -> String) {
    for c in &acd.cliques {
        let _ = writeln!(out, "  subgraph cluster_{} {{", c.id);
        let _ = writeln!(out, "    label=\"C{}\"; style=rounded;", c.id);
        for &v in &c.vertices {
            let _ = writeln!(out, "    {} [{}];", v.0, highlight(v));
        }
        let _ = writeln!(out, "  }}");
    }
}

/// Figure 2: cliques as clusters, slack vertices checkered, slack pairs
/// boxed, pair/slack edges highlighted. Intra-clique edges are omitted for
/// legibility (every clique is complete).
pub fn render_triads(acd: &AcdResult, triads: &TriadSet) -> String {
    let mut out = String::from("graph slack_triads {\n  node [shape=circle, fontsize=9];\n");
    let style = |v: NodeId| -> String {
        for t in &triads.triads {
            if t.slack == v {
                return "style=filled, fillcolor=gray70, shape=doublecircle".to_string();
            }
            if t.pair_in == v || t.pair_out == v {
                return "style=filled, fillcolor=orange, shape=box".to_string();
            }
        }
        "style=solid".to_string()
    };
    clique_clusters(acd, &mut out, style);
    // External edges, highlighting the triad edges.
    let triad_edges: std::collections::HashSet<(NodeId, NodeId)> = triads
        .triads
        .iter()
        .flat_map(|t| {
            [
                (t.slack.min(t.pair_out), t.slack.max(t.pair_out)),
                (t.slack.min(t.pair_in), t.slack.max(t.pair_in)),
            ]
        })
        .collect();
    for (u, v) in acd.clique_of.external_edges() {
        let attr = if triad_edges.contains(&(u, v)) {
            " [color=orange, penwidth=2.5]"
        } else {
            " [color=gray80]"
        };
        let _ = writeln!(out, "  {} -- {}{};", u.0, v.0, attr);
    }
    // Same-color links between pair vertices (dashed).
    for t in &triads.triads {
        let _ = writeln!(
            out,
            "  {} -- {} [style=dashed, color=orange, constraint=false];",
            t.pair_in.0, t.pair_out.0
        );
    }
    out.push_str("}\n");
    out
}

/// Figure 3: the virtual graph `G_V` — one box per slack pair, an edge
/// whenever any of the underlying vertices are adjacent.
pub fn render_pair_graph(g: &Graph, triads: &TriadSet) -> String {
    let mut out = String::from(
        "graph pair_conflicts {\n  node [shape=box, style=filled, fillcolor=orange, fontsize=9];\n",
    );
    for (i, t) in triads.triads.iter().enumerate() {
        let _ = writeln!(
            out,
            "  p{} [label=\"{{{}, {}}}\"];",
            i, t.pair_in, t.pair_out
        );
    }
    let mut pair_of: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();
    for (i, t) in triads.triads.iter().enumerate() {
        pair_of.insert(t.pair_in, i);
        pair_of.insert(t.pair_out, i);
    }
    let mut seen = std::collections::HashSet::new();
    for (&v, &i) in &pair_of {
        for &w in g.neighbors(v) {
            if let Some(&j) = pair_of.get(&w) {
                if i != j && seen.insert((i.min(j), i.max(j))) {
                    let _ = writeln!(out, "  p{} -- p{} [color=orange];", i.min(j), i.max(j));
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Figure 4: the balanced matching — cliques as clusters, oriented `F2`
/// edges in green.
pub fn render_matching(acd: &AcdResult, f2: &BalancedMatching) -> String {
    let mut out = String::from("digraph balanced_matching {\n  node [shape=circle, fontsize=9];\n  edge [dir=none, color=gray80];\n");
    clique_clusters(acd, &mut out, |_| "style=solid".to_string());
    let f2_set: std::collections::HashSet<(NodeId, NodeId)> = f2.edges.iter().copied().collect();
    for (u, v) in acd.clique_of.external_edges() {
        if f2_set.contains(&(u, v)) {
            let _ = writeln!(
                out,
                "  {} -> {} [dir=forward, color=green, penwidth=2.5];",
                u.0, v.0
            );
        } else if f2_set.contains(&(v, u)) {
            let _ = writeln!(
                out,
                "  {} -> {} [dir=forward, color=green, penwidth=2.5];",
                v.0, u.0
            );
        } else {
            let _ = writeln!(out, "  {} -> {};", u.0, v.0);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_cliques;
    use crate::deterministic::{Config, HegAlgo, MatchingAlgo};
    use crate::loophole::detect_loopholes;
    use crate::phase1::balanced_matching;
    use crate::phase2::sparsify_matching;
    use crate::phase3::form_slack_triads;
    use acd::{compute_acd, AcdParams};
    use graphgen::generators;
    use localsim::RoundLedger;

    fn setup() -> (graphgen::Graph, AcdResult, BalancedMatching, TriadSet) {
        let inst = generators::hard_cliques(&generators::HardCliqueParams {
            cliques: 34,
            delta: 16,
            external_per_vertex: 1,
            seed: 60,
        })
        .unwrap();
        let acd = compute_acd(&inst.graph, &AcdParams::for_delta(16));
        let rep = detect_loopholes(&inst.graph, &acd.clique_of);
        let cls = classify_cliques(&inst.graph, &acd, &rep).unwrap();
        let mut ledger = RoundLedger::new();
        let config = Config::for_delta(16);
        let f2 = balanced_matching(
            &inst.graph,
            &acd,
            &cls,
            config.subcliques,
            MatchingAlgo::DetDirect,
            HegAlgo::Augmenting,
            false,
            &mut ledger,
        )
        .unwrap();
        let f3 = sparsify_matching(&inst.graph, &acd, &cls, &f2, config.acd.eps, 4, &mut ledger)
            .unwrap();
        let triads = form_slack_triads(&inst.graph, &acd, &f3, &mut ledger).unwrap();
        (inst.graph, acd, f2, triads)
    }

    #[test]
    fn triad_figure_mentions_all_triads() {
        let (_, acd, _, triads) = setup();
        let dot = render_triads(&acd, &triads);
        assert!(dot.starts_with("graph slack_triads"));
        assert!(dot.matches("fillcolor=orange").count() >= 2 * triads.triads.len());
        assert!(dot.matches("doublecircle").count() == triads.triads.len());
        assert!(dot.contains("subgraph cluster_0"));
    }

    #[test]
    fn pair_graph_has_one_node_per_pair() {
        let (g, _, _, triads) = setup();
        let dot = render_pair_graph(&g, &triads);
        assert_eq!(dot.matches("label=\"{").count(), triads.triads.len());
    }

    #[test]
    fn matching_figure_orients_f2() {
        let (_, acd, f2, _) = setup();
        let dot = render_matching(&acd, &f2);
        assert_eq!(dot.matches("color=green").count(), f2.edges.len());
    }
}
