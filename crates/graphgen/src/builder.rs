//! Incremental construction of [`Graph`]s.

use crate::{Graph, GraphError, NodeId};

/// A mutable edge-set accumulator that deduplicates on build.
///
/// Unlike [`Graph::from_edges`], the builder tolerates duplicate insertions
/// (they collapse into one edge) and ignores self-loops on request, which is
/// convenient for generators that stitch graphs together.
///
/// # Example
///
/// ```
/// use graphgen::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, collapsed
/// b.add_edge(1, 2);
/// let g = b.build()?;
/// assert_eq!(g.m(), 2);
/// # Ok::<(), graphgen::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Records the undirected edge `{a, b}`. Duplicates collapse at build.
    pub fn add_edge(&mut self, a: impl Into<NodeId>, b: impl Into<NodeId>) {
        let (a, b) = (a.into().0, b.into().0);
        self.edges.push((a.min(b), a.max(b)));
    }

    /// Records all `k·(k-1)/2` edges of a clique over `nodes`.
    pub fn add_clique(&mut self, nodes: &[NodeId]) {
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                self.add_edge(a, b);
            }
        }
    }

    /// Copies every edge of `g`, translating vertex `v` to `v + offset`.
    pub fn add_graph(&mut self, g: &Graph, offset: u32) {
        for (u, v) in g.edges() {
            self.add_edge(u.0 + offset, v.0 + offset);
        }
    }

    /// Finalizes the accumulated edges into a [`Graph`].
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range or a self-loop was
    /// recorded.
    pub fn build(mut self) -> Result<Graph, GraphError> {
        self.edges.sort_unstable();
        self.edges.dedup();
        if let Some(&(a, _)) = self.edges.iter().find(|(a, b)| a == b) {
            return Err(GraphError::SelfLoop(a));
        }
        Graph::from_edges(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_clique() {
        let mut b = GraphBuilder::new(4);
        b.add_clique(&[NodeId(0), NodeId(1), NodeId(2)]);
        b.add_edge(0u32, 1u32);
        let g = b.build().unwrap();
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(NodeId(3)), 0);
    }

    #[test]
    fn add_graph_with_offset() {
        let tri = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut b = GraphBuilder::new(6);
        b.add_graph(&tri, 0);
        b.add_graph(&tri, 3);
        b.add_edge(2u32, 3u32);
        let g = b.build().unwrap();
        assert_eq!(g.m(), 7);
        assert!(g.has_edge(NodeId(3), NodeId(5)));
    }

    #[test]
    fn self_loop_rejected_at_build() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1u32, 1u32);
        assert!(matches!(b.build(), Err(GraphError::SelfLoop(1))));
    }
}
