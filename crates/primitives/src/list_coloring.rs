//! Distributed `(deg + 1)`-list coloring.
//!
//! Given a subgraph `H` in which every vertex `v` holds a palette of at
//! least `deg_H(v) + 1` colors, a proper coloring from the palettes always
//! exists and can be computed greedily. Distributedly we first compute a
//! helper `(Δ_H + 1)`-coloring of `H` (Linial + the additive-group
//! reduction, see [`crate::linial`]) and then sweep its color classes:
//! when a class is scheduled, each of its members picks the smallest
//! palette color unused by already-colored neighbors — at that moment at
//! most `deg_H(v)` colors are blocked, so a palette color is always free.
//!
//! This plays the role of the paper's `T_{deg+1}` subroutine (Lemma 24);
//! our round complexity is `O(Δ_H + log* n)`, the bound §3.8 assumes.

use graphgen::{Color, Coloring, Graph, NodeId};
use localsim::{Executor, LocalAlgorithm, NodeCtx, Probe, SimError, Transition};

use crate::linial::delta_plus_one_coloring_probed;
use crate::Timed;

/// Errors from list-coloring instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListColoringError {
    /// A vertex's palette is smaller than its degree plus one.
    PaletteTooSmall {
        node: NodeId,
        palette: usize,
        degree: usize,
    },
    /// Simulator failure.
    Sim(SimError),
}

impl std::fmt::Display for ListColoringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListColoringError::PaletteTooSmall {
                node,
                palette,
                degree,
            } => write!(
                f,
                "vertex {node} has a palette of {palette} colors but degree {degree}"
            ),
            ListColoringError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ListColoringError {}

impl From<SimError> for ListColoringError {
    fn from(e: SimError) -> Self {
        ListColoringError::Sim(e)
    }
}

pub(crate) struct SweepAlgo {
    schedule: Vec<u32>,        // helper color per node
    palettes: Vec<Vec<Color>>, // palette per node
    /// Per node: `(color value, palette index)` sorted by color, so a
    /// neighbor's color maps to the palette slots it blocks in
    /// `O(log |palette|)` instead of a linear `contains` per candidate.
    palette_luts: Vec<Vec<(u32, u32)>>,
    classes: u32, // number of helper classes
}

impl SweepAlgo {
    /// The sweep over the `classes` helper classes of `schedule` (one
    /// class per node), coloring each node from its palette.
    pub(crate) fn new(schedule: Vec<u32>, palettes: &[Vec<Color>], classes: u32) -> Self {
        let palette_luts = palettes
            .iter()
            .map(|p| {
                let mut lut: Vec<(u32, u32)> =
                    p.iter().enumerate().map(|(i, c)| (c.0, i as u32)).collect();
                lut.sort_unstable();
                lut
            })
            .collect();
        SweepAlgo {
            schedule,
            palettes: palettes.to_vec(),
            palette_luts,
            classes,
        }
    }
}

/// State: `None` while waiting, `Some(color)` once colored.
impl LocalAlgorithm for SweepAlgo {
    type State = Option<Color>;
    type Output = Color;

    fn init(&self, _ctx: &NodeCtx) -> Option<Color> {
        None
    }

    fn step(
        &self,
        ctx: &NodeCtx,
        state: &Option<Color>,
        nbrs: &[Option<Color>],
    ) -> Transition<Option<Color>, Color> {
        if let Some(c) = state {
            return Transition::Halt(*c);
        }
        let my_class = self.schedule[ctx.node.index()];
        if ctx.round - 1 == my_class as u64 {
            // Mark the palette slots blocked by colored neighbors in a
            // bitset over palette *indices* (inline words for the
            // deg+1-sized palettes this pipeline builds), then take the
            // first clear slot — the same first-free-in-palette-order
            // color the old `find(!contains)` scan picked, without the
            // O(|palette| · deg) rescans.
            let palette = &self.palettes[ctx.node.index()];
            let lut = &self.palette_luts[ctx.node.index()];
            let mut taken = crate::bitset::ColorBitset::new(palette.len());
            for nc in nbrs.iter().flatten() {
                // Mark every slot holding this color (palettes may
                // repeat a color; all its copies are equally blocked).
                let lo = lut.partition_point(|&(c, _)| c < nc.0);
                for &(c, idx) in &lut[lo..] {
                    if c != nc.0 {
                        break;
                    }
                    taken.mark(idx as usize);
                }
            }
            let c = taken
                .first_clear()
                .map(|slot| palette[slot])
                .expect("deg+1 palette always has a free color at schedule time");
            if my_class + 1 == self.classes {
                Transition::Halt(c)
            } else {
                Transition::Continue(Some(c))
            }
        } else if ctx.round > u64::from(my_class) {
            // Already acted in an earlier round (colored) — unreachable
            // because colored nodes return above — or class passed without
            // us (impossible). Keep waiting defensively.
            Transition::Continue(*state)
        } else {
            Transition::Continue(None)
        }
    }

    /// An uncolored node idles until its class's round; a node that just
    /// colored itself halts in the next round.
    fn wake(&self, ctx: &NodeCtx, next: &Option<Color>) -> u64 {
        match next {
            None => (u64::from(self.schedule[ctx.node.index()]) + 1).max(ctx.round + 1),
            Some(_) => ctx.round + 1,
        }
    }
}

/// Colors every vertex of `h` from its palette, properly, in
/// `O(Δ_H + log* n)` rounds.
///
/// # Examples
///
/// ```
/// use graphgen::Color;
/// let g = graphgen::generators::cycle(12);
/// // Odd palettes only — (deg+1)-list coloring handles arbitrary lists.
/// let palettes: Vec<Vec<Color>> =
///     (0..12).map(|_| vec![Color(1), Color(3), Color(5)]).collect();
/// let out = primitives::list_coloring::deg_plus_one_list_color(&g, &palettes, None)?;
/// assert!(g.vertices().all(|v| out.value.get(v).unwrap().0 % 2 == 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// `palettes[v]` is the allowed color list of vertex `v`; it must contain
/// at least `deg_h(v) + 1` colors. `uids` optionally installs symmetry-
/// breaking identifiers (e.g. inherited from an enclosing graph).
///
/// # Errors
///
/// Returns [`ListColoringError::PaletteTooSmall`] if some palette is too
/// small, or a wrapped simulator error.
pub fn deg_plus_one_list_color(
    h: &Graph,
    palettes: &[Vec<Color>],
    uids: Option<Vec<u64>>,
) -> Result<Timed<Coloring>, ListColoringError> {
    deg_plus_one_list_color_probed(h, palettes, uids, &Probe::disabled())
}

/// [`deg_plus_one_list_color`] with per-round telemetry mirrored to
/// `probe`.
///
/// # Errors
///
/// Same as [`deg_plus_one_list_color`].
pub fn deg_plus_one_list_color_probed(
    h: &Graph,
    palettes: &[Vec<Color>],
    uids: Option<Vec<u64>>,
    probe: &Probe,
) -> Result<Timed<Coloring>, ListColoringError> {
    assert_eq!(palettes.len(), h.n(), "one palette per vertex");
    for v in h.vertices() {
        if palettes[v.index()].len() < h.degree(v) + 1 {
            return Err(ListColoringError::PaletteTooSmall {
                node: v,
                palette: palettes[v.index()].len(),
                degree: h.degree(v),
            });
        }
    }
    if h.n() == 0 {
        return Ok(Timed::new(Coloring::empty(0), 0));
    }
    let helper = delta_plus_one_coloring_probed(h, uids, probe)?;
    let classes = h.max_degree() as u32 + 1;
    let schedule: Vec<u32> = h
        .vertices()
        .map(|v| helper.value.get(v).expect("helper coloring is complete").0)
        .collect();
    let algo = SweepAlgo::new(schedule, palettes, classes);
    let run = Executor::new(h)
        .with_probe(probe.clone())
        .run(&algo, u64::from(classes) + 1)?;
    let coloring = Coloring::from_vec(run.outputs.into_iter().map(Some).collect());
    Ok(Timed::new(coloring, helper.rounds + run.rounds))
}

/// Convenience: a `(deg+1)`-list coloring instance on the subgraph of `g`
/// induced by `active`, with palettes given per active vertex.
///
/// Returns the chosen color per active vertex (in `active` order) — the
/// caller merges them into its global partial coloring.
///
/// # Errors
///
/// Same as [`deg_plus_one_list_color`].
pub fn deg_plus_one_list_color_subset(
    g: &Graph,
    active: &[NodeId],
    palettes: &[Vec<Color>],
    uids: Option<Vec<u64>>,
) -> Result<Timed<Vec<(NodeId, Color)>>, ListColoringError> {
    deg_plus_one_list_color_subset_probed(g, active, palettes, uids, &Probe::disabled())
}

/// [`deg_plus_one_list_color_subset`] with per-round telemetry mirrored to
/// `probe`.
///
/// # Errors
///
/// Same as [`deg_plus_one_list_color`].
pub fn deg_plus_one_list_color_subset_probed(
    g: &Graph,
    active: &[NodeId],
    palettes: &[Vec<Color>],
    uids: Option<Vec<u64>>,
    probe: &Probe,
) -> Result<Timed<Vec<(NodeId, Color)>>, ListColoringError> {
    let (h, back) = g.induced(active);
    let out = deg_plus_one_list_color_probed(&h, palettes, uids, probe)?;
    let assignment = back
        .iter()
        .enumerate()
        .map(|(i, &orig)| {
            (
                orig,
                out.value
                    .get(NodeId::from(i))
                    .expect("list coloring is complete"),
            )
        })
        .collect();
    Ok(Timed::new(assignment, out.rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;

    fn full_palettes(h: &Graph, k: u32) -> Vec<Vec<Color>> {
        (0..h.n()).map(|_| (0..k).map(Color).collect()).collect()
    }

    #[test]
    fn colors_cycle_with_three() {
        let g = generators::cycle(30);
        let out = deg_plus_one_list_color(&g, &full_palettes(&g, 3), None).unwrap();
        out.value.check_complete(&g, 3).unwrap();
    }

    #[test]
    fn respects_restricted_palettes() {
        // A path where middle vertices may only use {5, 6}.
        let g = generators::path(10);
        let palettes: Vec<Vec<Color>> = (0..10)
            .map(|_| vec![Color(5), Color(6), Color(9)])
            .collect();
        let out = deg_plus_one_list_color(&g, &palettes, None).unwrap();
        for v in g.vertices() {
            let c = out.value.get(v).unwrap();
            assert!([5, 6, 9].contains(&c.0));
        }
        out.value.check_partial(&g, 10).unwrap();
    }

    #[test]
    fn rejects_small_palette() {
        let g = generators::path(3);
        let mut palettes = full_palettes(&g, 3);
        palettes[1] = vec![Color(0), Color(1)]; // degree 2 needs 3 colors
        assert!(matches!(
            deg_plus_one_list_color(&g, &palettes, None),
            Err(ListColoringError::PaletteTooSmall { .. })
        ));
    }

    #[test]
    fn subset_instance_on_clique_interior() {
        let g = generators::complete(6);
        let active: Vec<_> = (0..4).map(graphgen::NodeId::from).collect();
        // Induced K4 needs 4 colors.
        let palettes: Vec<Vec<Color>> = (0..4).map(|_| (0..4).map(Color).collect()).collect();
        let out = deg_plus_one_list_color_subset(&g, &active, &palettes, None).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (_, c) in out.value {
            assert!(seen.insert(c), "clique vertices must all differ");
        }
    }

    #[test]
    fn distinct_palettes_heterogeneous_degrees() {
        let g = generators::star(8);
        let mut palettes = vec![vec![Color(0)]; 9];
        palettes[0] = (0..9).map(Color).collect(); // center degree 8
        for p in palettes.iter_mut().skip(1) {
            *p = vec![Color(1), Color(2)];
        }
        let out = deg_plus_one_list_color(&g, &palettes, None).unwrap();
        out.value.check_partial(&g, 10).unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        let out = deg_plus_one_list_color(&g, &[], None).unwrap();
        assert_eq!(out.rounds, 0);
    }
}
