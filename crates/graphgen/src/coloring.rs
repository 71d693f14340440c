//! Vertex colorings, palettes, and validity checking.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Graph, NodeId};

/// A color. Colors are dense small integers; a Δ-coloring uses `0..Δ`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Color(pub u32);

impl Color {
    /// The color index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Why a coloring failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColoringError {
    /// A vertex was left uncolored.
    Uncolored(NodeId),
    /// Two adjacent vertices received the same color.
    Monochromatic(NodeId, NodeId, Color),
    /// A color outside the allowed palette `0..k` was used.
    ColorOutOfRange {
        node: NodeId,
        color: Color,
        palette: u32,
    },
    /// Coloring length does not match the number of vertices.
    WrongLength { got: usize, expected: usize },
}

impl fmt::Display for ColoringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColoringError::Uncolored(v) => write!(f, "vertex {v} is uncolored"),
            ColoringError::Monochromatic(u, v, c) => {
                write!(f, "adjacent vertices {u} and {v} share color {c}")
            }
            ColoringError::ColorOutOfRange {
                node,
                color,
                palette,
            } => {
                write!(
                    f,
                    "vertex {node} has color {color} outside palette 0..{palette}"
                )
            }
            ColoringError::WrongLength { got, expected } => {
                write!(
                    f,
                    "coloring has {got} entries for a graph on {expected} vertices"
                )
            }
        }
    }
}

impl std::error::Error for ColoringError {}

/// A (possibly partial) vertex coloring.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Coloring {
    colors: Vec<Option<Color>>,
}

impl Coloring {
    /// An all-uncolored coloring for a graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Coloring {
            colors: vec![None; n],
        }
    }

    /// Builds from an explicit assignment vector.
    pub fn from_vec(colors: Vec<Option<Color>>) -> Self {
        Coloring { colors }
    }

    /// Number of vertices covered by this assignment vector.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether the assignment vector is empty.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The color of `v`, if assigned.
    #[inline]
    pub fn get(&self, v: NodeId) -> Option<Color> {
        self.colors[v.index()]
    }

    /// Whether `v` has a color.
    #[inline]
    pub fn is_colored(&self, v: NodeId) -> bool {
        self.colors[v.index()].is_some()
    }

    /// Assigns color `c` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` already has a different color — overwriting an existing
    /// color is always a bug in a coloring pipeline.
    pub fn set(&mut self, v: NodeId, c: Color) {
        let slot = &mut self.colors[v.index()];
        if let Some(old) = *slot {
            assert_eq!(old, c, "vertex {v} recolored from {old} to {c}");
        }
        *slot = Some(c);
    }

    /// Removes the color of `v` (used by augmenting recolorers).
    pub fn unset(&mut self, v: NodeId) {
        self.colors[v.index()] = None;
    }

    /// Number of colored vertices.
    pub fn colored_count(&self) -> usize {
        self.colors.iter().filter(|c| c.is_some()).count()
    }

    /// All uncolored vertices.
    pub fn uncolored(&self) -> Vec<NodeId> {
        self.colors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| NodeId::from(i))
            .collect()
    }

    /// Largest color used, if any vertex is colored.
    pub fn max_color(&self) -> Option<Color> {
        self.colors.iter().flatten().max().copied()
    }

    /// Usage count per color in `0..palette`.
    pub fn histogram(&self, palette: u32) -> Vec<usize> {
        let mut hist = vec![0usize; palette as usize];
        for c in self.colors.iter().flatten() {
            if c.0 < palette {
                hist[c.index()] += 1;
            }
        }
        hist
    }

    /// Colors already used on the neighbors of `v` in `g`.
    pub(crate) fn neighbor_colors(&self, g: &Graph, v: NodeId) -> Vec<Color> {
        let mut out: Vec<Color> = g.neighbors(v).iter().filter_map(|&w| self.get(w)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Smallest color in `0..palette` not used by any neighbor of `v`.
    pub fn first_free_color(&self, g: &Graph, v: NodeId, palette: u32) -> Option<Color> {
        let used = self.neighbor_colors(g, v);
        let mut taken = vec![false; palette as usize];
        for c in used {
            if c.0 < palette {
                taken[c.index()] = true;
            }
        }
        taken.iter().position(|&t| !t).map(|i| Color(i as u32))
    }

    /// Checks that colored vertices never clash and stay inside `0..palette`.
    ///
    /// Uncolored vertices are permitted — this is the *partial* validity
    /// check used between pipeline phases.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_partial(&self, g: &Graph, palette: u32) -> Result<(), ColoringError> {
        if self.colors.len() != g.n() {
            return Err(ColoringError::WrongLength {
                got: self.colors.len(),
                expected: g.n(),
            });
        }
        for v in g.vertices() {
            if let Some(c) = self.get(v) {
                if c.0 >= palette {
                    return Err(ColoringError::ColorOutOfRange {
                        node: v,
                        color: c,
                        palette,
                    });
                }
                for &w in g.neighbors(v) {
                    if v < w && self.get(w) == Some(c) {
                        return Err(ColoringError::Monochromatic(v, w, c));
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks that this is a complete proper coloring with palette `0..palette`.
    ///
    /// # Errors
    ///
    /// Returns the first uncolored vertex, clash, or out-of-range color.
    pub fn check_complete(&self, g: &Graph, palette: u32) -> Result<(), ColoringError> {
        self.check_partial(g, palette)?;
        for v in g.vertices() {
            if !self.is_colored(v) {
                return Err(ColoringError::Uncolored(v));
            }
        }
        Ok(())
    }
}

/// Validates a complete Δ-coloring: proper and using at most Δ colors.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_delta_coloring(g: &Graph, coloring: &Coloring) -> Result<(), ColoringError> {
    coloring.check_complete(g, g.max_degree() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path3() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn partial_then_complete() {
        let g = path3();
        let mut col = Coloring::empty(3);
        assert!(col.check_partial(&g, 2).is_ok());
        col.set(NodeId(0), Color(0));
        col.set(NodeId(1), Color(1));
        assert!(col.check_partial(&g, 2).is_ok());
        assert_eq!(
            col.check_complete(&g, 2),
            Err(ColoringError::Uncolored(NodeId(2)))
        );
        col.set(NodeId(2), Color(0));
        assert!(verify_delta_coloring(&g, &col).is_ok());
    }

    #[test]
    fn detects_clash() {
        let g = path3();
        let mut col = Coloring::empty(3);
        col.set(NodeId(0), Color(1));
        col.set(NodeId(1), Color(1));
        assert_eq!(
            col.check_partial(&g, 2),
            Err(ColoringError::Monochromatic(NodeId(0), NodeId(1), Color(1)))
        );
    }

    #[test]
    fn detects_out_of_palette() {
        let g = path3();
        let mut col = Coloring::empty(3);
        col.set(NodeId(0), Color(7));
        assert!(matches!(
            col.check_partial(&g, 2),
            Err(ColoringError::ColorOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "recolored")]
    fn recoloring_panics() {
        let mut col = Coloring::empty(1);
        col.set(NodeId(0), Color(0));
        col.set(NodeId(0), Color(1));
    }

    #[test]
    fn first_free_color_skips_neighbors() {
        let g = path3();
        let mut col = Coloring::empty(3);
        col.set(NodeId(0), Color(0));
        col.set(NodeId(2), Color(1));
        assert_eq!(col.first_free_color(&g, NodeId(1), 3), Some(Color(2)));
        assert_eq!(col.first_free_color(&g, NodeId(1), 2), None);
    }

    #[test]
    fn histogram_counts_palette_only() {
        let mut col = Coloring::empty(4);
        col.set(NodeId(0), Color(1));
        col.set(NodeId(1), Color(1));
        col.set(NodeId(2), Color(9)); // outside palette: not counted
        assert_eq!(col.histogram(3), vec![0, 2, 0]);
    }

    #[test]
    fn neighbor_colors_dedup() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let mut col = Coloring::empty(4);
        col.set(NodeId(1), Color(5));
        col.set(NodeId(2), Color(5));
        assert_eq!(col.neighbor_colors(&g, NodeId(0)), vec![Color(5)]);
    }
}
