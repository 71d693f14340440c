//! Mechanized post-run validation: sweeps a finished (or faulted) run for
//! every violation instead of stopping at the first.
//!
//! The pipelines' own `check_complete` calls abort on the first problem —
//! good for fail-fast tests, useless for diagnosing a faulted run where
//! several things went wrong at once. This module returns *all* of them:
//!
//! * [`check_coloring`] — proper-coloring violations (monochromatic
//!   edges), palette-bound violations (a color `≥ Δ`), and uncolored
//!   vertices, in one sweep.
//! * [`check_acd`] — Lemma 2's properties via [`acd::verify_acd`] plus a
//!   membership sweep (every vertex in exactly one clique or none).
//! * [`check_matching`] — Phase 1 invariants on a [`BalancedMatching`]:
//!   edges exist in the graph, cross distinct cliques, and no vertex is
//!   matched twice.
//!
//! [`validate_coloring`] bundles the coloring sweep into a
//! [`ValidationReport`] — the object the fault-injection loop and the CLI
//! consume.

use std::fmt;

use acd::AcdResult;
use graphgen::{Coloring, Graph, NodeId};

use crate::phase1::BalancedMatching;

/// One concrete violation found by a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two adjacent vertices share a color.
    MonochromaticEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// The shared color.
        color: u32,
    },
    /// A vertex uses a color outside `{0, …, palette−1}`.
    PaletteExceeded {
        /// The offending vertex.
        v: NodeId,
        /// Its color.
        color: u32,
        /// The palette bound (Δ for a Δ-coloring).
        palette: u32,
    },
    /// A vertex was left uncolored.
    Uncolored {
        /// The uncolored vertex.
        v: NodeId,
    },
    /// The almost-clique decomposition violates Lemma 2 or its membership
    /// bookkeeping is inconsistent.
    Acd(String),
    /// A Phase 1 matching edge breaks an invariant.
    Matching(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MonochromaticEdge { u, v, color } => {
                write!(f, "monochromatic edge {u}–{v} (both color {color})")
            }
            Violation::PaletteExceeded { v, color, palette } => {
                write!(f, "vertex {v} uses color {color} ≥ palette bound {palette}")
            }
            Violation::Uncolored { v } => write!(f, "vertex {v} is uncolored"),
            Violation::Acd(msg) => write!(f, "ACD: {msg}"),
            Violation::Matching(msg) => write!(f, "matching: {msg}"),
        }
    }
}

/// The full result of a validation sweep.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Every violation found, in sweep order.
    pub violations: Vec<Violation>,
}

impl ValidationReport {
    /// No violations?
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line summary: `"valid"` or a count-by-kind breakdown.
    pub fn summary(&self) -> String {
        if self.is_ok() {
            return "valid".to_string();
        }
        let (mut mono, mut pal, mut unc, mut other) = (0usize, 0usize, 0usize, 0usize);
        for v in &self.violations {
            match v {
                Violation::MonochromaticEdge { .. } => mono += 1,
                Violation::PaletteExceeded { .. } => pal += 1,
                Violation::Uncolored { .. } => unc += 1,
                _ => other += 1,
            }
        }
        format!(
            "{} violations ({mono} monochromatic edges, {pal} palette, {unc} uncolored, \
             {other} structural)",
            self.violations.len()
        )
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Sweeps `coloring` for every proper-coloring, palette-bound, and
/// completeness violation against `palette` colors (Δ for a Δ-coloring).
///
/// Unlike [`Coloring::check_complete`] this never stops early — a faulted
/// run may hold many independent violations and the caller wants all of
/// them.
pub fn check_coloring(g: &Graph, coloring: &Coloring, palette: u32) -> Vec<Violation> {
    let mut out = Vec::new();
    for v in g.vertices() {
        match coloring.get(v) {
            None => out.push(Violation::Uncolored { v }),
            Some(c) if c.0 >= palette => out.push(Violation::PaletteExceeded {
                v,
                color: c.0,
                palette,
            }),
            Some(_) => {}
        }
    }
    for (u, v) in g.edges() {
        if let (Some(cu), Some(cv)) = (coloring.get(u), coloring.get(v)) {
            if cu == cv {
                out.push(Violation::MonochromaticEdge { u, v, color: cu.0 });
            }
        }
    }
    out
}

/// Sweeps `coloring` restricted to `scope`: uncolored and palette checks
/// for scope vertices, edge checks for edges with at least one scope
/// endpoint. The fault-injection retry loop uses this to detect damage in
/// a single leftover component without paying a full-graph sweep per
/// attempt.
pub fn check_coloring_scoped(
    g: &Graph,
    coloring: &Coloring,
    palette: u32,
    scope: &[NodeId],
) -> Vec<Violation> {
    let mut in_scope = vec![false; g.n()];
    for &v in scope {
        in_scope[v.index()] = true;
    }
    let mut out = Vec::new();
    for &v in scope {
        let cv = coloring.get(v);
        match cv {
            None => out.push(Violation::Uncolored { v }),
            Some(c) if c.0 >= palette => out.push(Violation::PaletteExceeded {
                v,
                color: c.0,
                palette,
            }),
            Some(_) => {}
        }
        if let Some(c) = cv {
            for &w in g.neighbors(v) {
                // A scope-internal edge visits twice (dedup with v < w); a
                // boundary edge visits once, from its scope endpoint.
                if coloring.get(w) == Some(c) && (!in_scope[w.index()] || v < w) {
                    out.push(Violation::MonochromaticEdge {
                        u: v,
                        v: w,
                        color: c.0,
                    });
                }
            }
        }
    }
    out
}

/// Validates Lemma 2 plus membership consistency for a decomposition,
/// returning violations instead of the first error.
pub fn check_acd(g: &Graph, acd: &AcdResult) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Err(e) = acd::verify_acd(g, acd) {
        out.push(Violation::Acd(e.to_string()));
    }
    // Membership: clique_of must agree with the clique member lists both
    // ways (verify_acd checks one direction; sweep the other).
    let mut seen = vec![false; g.n()];
    for (ci, c) in acd.cliques.iter().enumerate() {
        for &v in &c.vertices {
            if seen[v.index()] {
                out.push(Violation::Acd(format!(
                    "vertex {v} appears in more than one clique"
                )));
            }
            seen[v.index()] = true;
            if acd.clique_of[v.index()] != Some(ci as u32) {
                out.push(Violation::Acd(format!(
                    "vertex {v} is listed in clique {ci} but clique_of disagrees"
                )));
            }
        }
    }
    for v in g.vertices() {
        if acd.clique_of[v.index()].is_some() && !seen[v.index()] {
            out.push(Violation::Acd(format!(
                "clique_of places {v} in a clique whose member list omits it"
            )));
        }
    }
    out
}

/// Validates Phase 1 invariants on an oriented matching: every edge is a
/// real graph edge, crosses two distinct almost-cliques, and no vertex is
/// matched more than once (balance — each clique's slack comes from
/// vertex-disjoint outgoing edges).
pub fn check_matching(g: &Graph, acd: &AcdResult, matching: &BalancedMatching) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut used = vec![false; g.n()];
    for &(tail, head) in &matching.edges {
        if !g.has_edge(tail, head) {
            out.push(Violation::Matching(format!(
                "oriented edge {tail}→{head} is not an edge of the graph"
            )));
        }
        let (ct, ch) = (acd.clique_of[tail.index()], acd.clique_of[head.index()]);
        if ct.is_none() || ch.is_none() || ct == ch {
            out.push(Violation::Matching(format!(
                "oriented edge {tail}→{head} does not cross two distinct cliques"
            )));
        }
        for v in [tail, head] {
            if used[v.index()] {
                out.push(Violation::Matching(format!(
                    "vertex {v} is matched more than once"
                )));
            }
            used[v.index()] = true;
        }
    }
    out
}

/// Full-coloring validation bundled as a [`ValidationReport`] — the entry
/// point the CLI and fault-injection tests consume.
#[must_use]
pub fn validate_coloring(g: &Graph, coloring: &Coloring, palette: u32) -> ValidationReport {
    ValidationReport {
        violations: check_coloring(g, coloring, palette),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acd::{compute_acd, AcdParams, ClusterSplit};
    use graphgen::generators::{hard_cliques, HardCliqueParams};
    use graphgen::Color;

    fn instance() -> graphgen::generators::HardCliqueInstance {
        hard_cliques(&HardCliqueParams {
            cliques: 34,
            delta: 16,
            external_per_vertex: 1,
            seed: 11,
        })
        .unwrap()
    }

    #[test]
    fn valid_coloring_passes() {
        let inst = instance();
        let report =
            crate::color_deterministic(&inst.graph, &crate::Config::for_delta(16)).unwrap();
        let val = validate_coloring(&inst.graph, &report.coloring, 16);
        assert!(val.is_ok(), "{val}");
        assert_eq!(val.summary(), "valid");
    }

    #[test]
    fn sweep_reports_every_violation_kind_at_once() {
        let inst = instance();
        let report =
            crate::color_deterministic(&inst.graph, &crate::Config::for_delta(16)).unwrap();
        let mut coloring = report.coloring;
        // Uncolor one vertex, over-color another, and force one clash.
        let a = NodeId(0);
        let b = NodeId(1);
        coloring.unset(a);
        coloring.unset(b);
        coloring.set(b, Color(999));
        let c = NodeId(2);
        let d = *inst
            .graph
            .neighbors(c)
            .iter()
            .find(|&&w| w != a && w != b)
            .unwrap();
        coloring.unset(d);
        coloring.set(d, coloring.get(c).unwrap());
        let val = validate_coloring(&inst.graph, &coloring, 16);
        assert!(!val.is_ok());
        let has = |f: fn(&Violation) -> bool| val.violations.iter().any(f);
        assert!(has(|v| matches!(v, Violation::Uncolored { .. })));
        assert!(has(|v| matches!(v, Violation::PaletteExceeded { .. })));
        assert!(has(|v| matches!(v, Violation::MonochromaticEdge { .. })));
        assert!(val.summary().contains("violations"));
    }

    #[test]
    fn scoped_sweep_sees_only_scope_damage() {
        let inst = instance();
        let report =
            crate::color_deterministic(&inst.graph, &crate::Config::for_delta(16)).unwrap();
        let mut coloring = report.coloring;
        coloring.unset(NodeId(5));
        coloring.unset(NodeId(40));
        let scoped = check_coloring_scoped(&inst.graph, &coloring, 16, &[NodeId(5)]);
        assert_eq!(
            scoped,
            vec![Violation::Uncolored { v: NodeId(5) }],
            "damage outside the scope must not be reported"
        );
    }

    #[test]
    fn acd_sweep_accepts_real_decomposition_and_flags_corruption() {
        let inst = instance();
        let mut acd = compute_acd(&inst.graph, &AcdParams::for_delta(16));
        assert!(check_acd(&inst.graph, &acd).is_empty());
        // Corrupt membership: point one vertex at the wrong clique.
        let v = acd.cliques[0].vertices[0];
        let mut clique_of = acd.clique_of.to_vec();
        clique_of[v.index()] = Some((acd.cliques.len() - 1) as u32);
        acd.clique_of = ClusterSplit::new(&inst.graph, clique_of);
        assert!(!check_acd(&inst.graph, &acd).is_empty());
    }

    #[test]
    fn matching_sweep_flags_bad_edges() {
        let inst = instance();
        let acd = compute_acd(&inst.graph, &AcdParams::for_delta(16));
        // A self-clique "edge": both endpoints in clique 0.
        let members = &acd.cliques[0].vertices;
        let bad = BalancedMatching {
            edges: vec![(members[0], members[1])],
            stats: crate::Phase1Stats::default(),
        };
        let out = check_matching(&inst.graph, &acd, &bad);
        assert!(out
            .iter()
            .any(|v| matches!(v, Violation::Matching(m) if m.contains("distinct cliques"))));
    }
}
