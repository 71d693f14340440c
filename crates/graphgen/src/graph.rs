//! The immutable CSR graph type shared by the whole workspace.

use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize, Value};

/// Identifier of a vertex: an index into the graph's vertex set.
///
/// Node identifiers are dense (`0..n`). Distributed algorithms that need
/// large, arbitrary identifiers for symmetry breaking use a separate
/// relabeling (see `localsim::NodeCtx::uid`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for indexing per-node state vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node index exceeds u32"))
    }
}

impl From<i32> for NodeId {
    /// Convenience for integer literals.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative.
    fn from(v: i32) -> Self {
        NodeId(u32::try_from(v).expect("node index must be non-negative"))
    }
}

/// Errors produced when constructing a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is `>= n`.
    EndpointOutOfRange { edge: (u32, u32), n: usize },
    /// An edge connects a vertex to itself.
    SelfLoop(u32),
    /// The same undirected edge was listed twice.
    DuplicateEdge(u32, u32),
    /// A generator was asked for parameters it cannot satisfy.
    InfeasibleParameters(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { edge, n } => {
                write!(
                    f,
                    "edge ({}, {}) has endpoint outside 0..{}",
                    edge.0, edge.1, n
                )
            }
            GraphError::SelfLoop(v) => write!(f, "self loop at vertex {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::InfeasibleParameters(msg) => write!(f, "infeasible parameters: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, simple, undirected graph in compressed sparse row form.
///
/// Adjacency lists are sorted, enabling `O(log Δ)` [`Graph::has_edge`]
/// queries and linear-time sorted-list intersections in
/// [`crate::analysis::common_neighbors`].
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
    m: usize,
    max_degree: usize,
    /// Lazily built reverse-port table (see [`Graph::reverse_ports`]).
    /// Pure cache: excluded from equality and serialization.
    rev_ports: OnceLock<Vec<u32>>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.adj == other.adj
            && self.m == other.m
            && self.max_degree == other.max_degree
    }
}

impl Eq for Graph {}

impl Serialize for Graph {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("offsets".into(), self.offsets.to_value()),
            ("adj".into(), self.adj.to_value()),
            ("m".into(), self.m.to_value()),
            ("max_degree".into(), self.max_degree.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for Graph {
    /// Reads a serialized CSR graph and refuses any that breaks the
    /// invariants every other method relies on, so a tampered file is an
    /// error rather than a later out-of-bounds panic.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let g = Graph {
            offsets: Deserialize::from_value(v.field("offsets")?)?,
            adj: Deserialize::from_value(v.field("adj")?)?,
            m: Deserialize::from_value(v.field("m")?)?,
            max_degree: Deserialize::from_value(v.field("max_degree")?)?,
            rev_ports: OnceLock::new(),
        };
        g.check_csr()
            .map_err(|e| serde::Error::new(format!("invalid graph: {e}")))?;
        Ok(g)
    }
}

impl Graph {
    /// Builds a graph on `n` vertices from an undirected edge list.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, an edge is a self
    /// loop, or the same undirected edge appears twice.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<Self, GraphError> {
        let mut deg = vec![0usize; n];
        let mut list: Vec<(u32, u32)> = Vec::new();
        for (a, b) in edges {
            if a as usize >= n || b as usize >= n {
                return Err(GraphError::EndpointOutOfRange { edge: (a, b), n });
            }
            if a == b {
                return Err(GraphError::SelfLoop(a));
            }
            deg[a as usize] += 1;
            deg[b as usize] += 1;
            list.push((a.min(b), a.max(b)));
        }
        list.sort_unstable();
        for w in list.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge(w[0].0, w[0].1));
            }
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![NodeId(0); offsets[n]];
        for &(a, b) in &list {
            adj[cursor[a as usize]] = NodeId(b);
            cursor[a as usize] += 1;
            adj[cursor[b as usize]] = NodeId(a);
            cursor[b as usize] += 1;
        }
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        let max_degree = deg.iter().copied().max().unwrap_or(0);
        Ok(Graph {
            offsets,
            adj,
            m: list.len(),
            max_degree,
            rev_ports: OnceLock::new(),
        })
    }

    /// Assembles a graph directly from already-validated CSR parts
    /// (`offsets.len() == n + 1`, per-vertex slices sorted, symmetric).
    /// Used by the binary codec in [`crate::io`], which guarantees those
    /// invariants structurally during decoding.
    pub(crate) fn from_csr_parts(
        offsets: Vec<usize>,
        adj: Vec<NodeId>,
        m: usize,
        max_degree: usize,
    ) -> Self {
        Graph {
            offsets,
            adj,
            m,
            max_degree,
            rev_ports: OnceLock::new(),
        }
    }

    /// Checks the CSR invariants: offsets start at 0, never decrease and
    /// end at `adj.len()`; each adjacency list is strictly ascending, in
    /// range and loop-free; every edge is listed from both ends; `m` and
    /// `max_degree` match the lists.
    fn check_csr(&self) -> Result<(), String> {
        let (offsets, adj) = (&self.offsets, &self.adj);
        if offsets.first() != Some(&0) {
            return Err("offsets must start with 0".to_string());
        }
        if let Some(i) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("offsets decrease at vertex {i}"));
        }
        if offsets[offsets.len() - 1] != adj.len() {
            return Err(format!(
                "last offset is {}, adjacency has {} entries",
                offsets[offsets.len() - 1],
                adj.len()
            ));
        }
        let n = offsets.len() - 1;
        let list = |v: usize| &adj[offsets[v]..offsets[v + 1]];
        for u in 0..n {
            let nbrs = list(u);
            if let Some(w) = nbrs.iter().find(|w| w.index() >= n) {
                return Err(format!("vertex {u} lists neighbor {} outside 0..{n}", w.0));
            }
            if nbrs.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("adjacency of vertex {u} is not strictly ascending"));
            }
            for w in nbrs {
                if w.index() == u {
                    return Err(format!("self loop at vertex {u}"));
                }
                if list(w.index()).binary_search(&NodeId(u as u32)).is_err() {
                    return Err(format!("edge ({u}, {}) is missing its reverse", w.0));
                }
            }
        }
        // Symmetric and loop-free, so `adj.len()` is even.
        if self.m != adj.len() / 2 {
            return Err(format!(
                "m is {}, adjacency lists {} edges",
                self.m,
                adj.len() / 2
            ));
        }
        let max_degree = (0..n).map(|v| list(v).len()).max().unwrap_or(0);
        if self.max_degree != max_degree {
            return Err(format!(
                "max_degree is {}, the largest degree is {max_degree}",
                self.max_degree
            ));
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Maximum degree Δ of the graph.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// The CSR offset array: `csr_offsets()[v]..csr_offsets()[v + 1]` is the
    /// range of `v`'s ports in a flat, port-indexed arena of length
    /// `csr_offsets()[n]` (= 2m). Simulators use this to keep one contiguous
    /// inbox buffer for the whole graph instead of one allocation per node.
    #[inline]
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The reverse-port table, aligned with the CSR adjacency array.
    ///
    /// For the directed slot `i = csr_offsets()[v] + p` (port `p` of `v`,
    /// leading to `w`), `reverse_ports()[i]` is the port of `w` that leads
    /// back to `v`. This turns "on which port does `w` hear from `v`?" —
    /// otherwise a per-message binary search over `w`'s adjacency list —
    /// into one O(1) lookup. Built in O(m) using the fact that adjacency
    /// lists are sorted: scanning senders in ascending order visits each
    /// receiver's ports in ascending order too.
    ///
    /// The table is built once per graph on first use and cached, so
    /// constructing several executors over the same graph (profiling
    /// sweeps, seq-vs-par equivalence runs) pays the O(m) sweep once.
    #[must_use]
    pub fn reverse_ports(&self) -> &[u32] {
        self.rev_ports.get_or_init(|| {
            let mut rev = vec![0u32; self.adj.len()];
            let mut cursor = vec![0u32; self.n()];
            for (nbr, slot) in self.adj.iter().zip(rev.iter_mut()) {
                let w = nbr.index();
                *slot = cursor[w];
                cursor[w] += 1;
            }
            rev
        })
    }

    /// Whether the undirected edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n() as u32).map(NodeId)
    }

    /// Iterator over all undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// The subgraph induced by `nodes`.
    ///
    /// Returns the induced graph (with vertices renumbered `0..nodes.len()`
    /// in the order given) and the back-map from new ids to original ids.
    ///
    /// Extraction goes through a per-thread [`SubgraphArena`], so repeated
    /// calls (one per leftover component, one per list-coloring instance)
    /// cost O(Σ extracted size), not O(calls · n).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains a duplicate.
    pub fn induced(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        thread_local! {
            static ARENA: RefCell<SubgraphArena> = RefCell::new(SubgraphArena::new());
        }
        let g = ARENA.with(|a| a.borrow_mut().extract(self, nodes));
        (g, nodes.to_vec())
    }

    /// The `k`-th power of the graph: `u ~ v` iff their distance is in `1..=k`.
    ///
    /// Used to reduce `(2, r)`-ruling sets to MIS. Cost is O(n · Δ^k); only
    /// call with small `k` on bounded-degree (virtual) graphs.
    pub fn power(&self, k: usize) -> Graph {
        assert!(k >= 1, "graph power requires k >= 1");
        let mut edges = Vec::new();
        let n = self.n();
        let mut seen = vec![u32::MAX; n];
        let mut frontier = Vec::new();
        let mut next = Vec::new();
        for u in 0..n as u32 {
            seen[u as usize] = u;
            frontier.clear();
            frontier.push(NodeId(u));
            for _ in 0..k {
                next.clear();
                for &x in &frontier {
                    for &y in self.neighbors(x) {
                        if seen[y.index()] != u {
                            seen[y.index()] = u;
                            next.push(y);
                            if u < y.0 {
                                edges.push((u, y.0));
                            }
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
            }
        }
        Graph::from_edges(n, edges).expect("power graph is valid")
    }

    /// Breadth-first distances from all of `sources` (multi-source BFS).
    ///
    /// Unreachable vertices get `usize::MAX`.
    pub fn bfs_distances(&self, sources: &[NodeId]) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n()];
        let mut queue = std::collections::VecDeque::new();
        for &s in sources {
            if dist[s.index()] == usize::MAX {
                dist[s.index()] = 0;
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[v.index()];
            for &w in self.neighbors(v) {
                if dist[w.index()] == usize::MAX {
                    dist[w.index()] = d + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        if self.n() == 0 {
            return true;
        }
        let dist = self.bfs_distances(&[NodeId(0)]);
        dist.iter().all(|&d| d != usize::MAX)
    }

    /// Connected components; each component is a sorted list of vertices.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let mut comp = vec![u32::MAX; self.n()];
        let mut out: Vec<Vec<NodeId>> = Vec::new();
        for s in self.vertices() {
            if comp[s.index()] != u32::MAX {
                continue;
            }
            let c = out.len() as u32;
            let mut members = vec![s];
            comp[s.index()] = c;
            let mut stack = vec![s];
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if comp[w.index()] == u32::MAX {
                        comp[w.index()] = c;
                        members.push(w);
                        stack.push(w);
                    }
                }
            }
            members.sort_unstable();
            out.push(members);
        }
        out
    }

    /// Exact eccentricity-based diameter of the component containing `v0`.
    ///
    /// Intended for tests and small control graphs: O(n·m).
    pub fn diameter_from(&self, v0: NodeId) -> usize {
        let dist0 = self.bfs_distances(&[v0]);
        let mut diam = 0;
        for v in self.vertices() {
            if dist0[v.index()] == usize::MAX {
                continue;
            }
            let d = self.bfs_distances(&[v]);
            diam = diam.max(
                d.iter()
                    .filter(|&&x| x != usize::MAX)
                    .max()
                    .copied()
                    .unwrap_or(0),
            );
        }
        diam
    }
}

/// Reusable scratch state for induced-subgraph extraction.
///
/// [`Graph::induced`] needs a forward map from original vertex ids to
/// subgraph ids. Allocating (and zeroing) that map per call costs O(n)
/// even for a 3-vertex component; the arena keeps one map alive across
/// calls and resets only the entries it touched, so extracting k
/// subgraphs costs O(Σ subgraph size) after the first call per thread.
///
/// The arena builds the induced CSR directly — degree count, prefix sum,
/// fill, per-list sort — skipping the edge-list materialization and
/// re-validation that `Graph::from_edges` would repeat (the host graph is
/// already simple, so the induced subgraph is too).
#[derive(Debug, Default)]
pub struct SubgraphArena {
    /// `fwd[v] == u32::MAX` ⇔ `v` untouched; reset after every call.
    fwd: Vec<u32>,
}

impl SubgraphArena {
    /// An empty arena; scratch grows lazily to the host graph size.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts the subgraph of `g` induced by `nodes`, renumbered
    /// `0..nodes.len()` in the order given (the caller keeps `nodes` as
    /// the back-map).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains a duplicate.
    pub fn extract(&mut self, g: &Graph, nodes: &[NodeId]) -> Graph {
        if self.fwd.len() < g.n() {
            self.fwd.resize(g.n(), u32::MAX);
        }
        let fwd = &mut self.fwd;
        for (i, v) in nodes.iter().enumerate() {
            assert!(
                fwd[v.index()] == u32::MAX,
                "duplicate node {v} in induced set"
            );
            fwd[v.index()] = i as u32;
        }
        let k = nodes.len();
        let mut offsets = vec![0usize; k + 1];
        for (i, &v) in nodes.iter().enumerate() {
            offsets[i + 1] = g
                .neighbors(v)
                .iter()
                .filter(|w| fwd[w.index()] != u32::MAX)
                .count();
        }
        for i in 0..k {
            offsets[i + 1] += offsets[i];
        }
        let mut adj = vec![NodeId(0); offsets[k]];
        let mut max_degree = 0usize;
        for (i, &v) in nodes.iter().enumerate() {
            let mut cursor = offsets[i];
            for &w in g.neighbors(v) {
                let j = fwd[w.index()];
                if j != u32::MAX {
                    adj[cursor] = NodeId(j);
                    cursor += 1;
                }
            }
            // Host adjacency is sorted by *original* id; the induced list
            // must be sorted by *new* id. For sorted `nodes` the renumbering
            // is monotone and this is a no-op pass.
            adj[offsets[i]..cursor].sort_unstable();
            max_degree = max_degree.max(cursor - offsets[i]);
        }
        for v in nodes {
            fwd[v.index()] = u32::MAX;
        }
        Graph {
            m: offsets[k] / 2,
            offsets,
            adj,
            max_degree,
            rev_ports: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn csr_basics() {
        let g = triangle_plus_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(NodeId(2)), 3);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn reverse_ports_invert_adjacency() {
        for g in [
            triangle_plus_pendant(),
            Graph::from_edges(6, [(0, 5), (5, 2), (2, 0), (1, 4), (3, 4)]).unwrap(),
            Graph::from_edges(0, []).unwrap(),
        ] {
            let off = g.csr_offsets();
            assert_eq!(off.len(), g.n() + 1);
            let rev = g.reverse_ports();
            assert_eq!(rev.len(), *off.last().unwrap());
            for v in g.vertices() {
                for (p, &w) in g.neighbors(v).iter().enumerate() {
                    let back = rev[off[v.index()] + p] as usize;
                    assert_eq!(g.neighbors(w)[back], v, "rev port of {v} -> {w}");
                }
            }
        }
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(Graph::from_edges(2, [(0, 0)]), Err(GraphError::SelfLoop(0)));
    }

    #[test]
    fn rejects_duplicate_even_reversed() {
        assert_eq!(
            Graph::from_edges(2, [(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge(0, 1))
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Graph::from_edges(2, [(0, 5)]),
            Err(GraphError::EndpointOutOfRange { .. })
        ));
    }

    #[test]
    fn edges_reported_once() {
        let g = triangle_plus_pendant();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 4);
        assert!(es.contains(&(NodeId(0), NodeId(1))));
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = triangle_plus_pendant();
        let (h, back) = g.induced(&[NodeId(2), NodeId(3), NodeId(0)]);
        assert_eq!(h.n(), 3);
        // edges {2,3} and {2,0} survive; {0,1},{1,2} dropped with vertex 1.
        assert_eq!(h.m(), 2);
        assert!(h.has_edge(NodeId(0), NodeId(1))); // 2-3
        assert!(h.has_edge(NodeId(0), NodeId(2))); // 2-0
        assert_eq!(back, vec![NodeId(2), NodeId(3), NodeId(0)]);
    }

    #[test]
    fn arena_extraction_matches_from_edges() {
        // Reusing one arena across differently-shaped extractions must
        // behave exactly like building each induced subgraph from scratch,
        // including unsorted node orders (which force the per-list sort).
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (4, 6),
                (6, 7),
            ],
        )
        .unwrap();
        let mut arena = SubgraphArena::new();
        for nodes in [
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(6), NodeId(4), NodeId(5)], // unsorted order
            vec![NodeId(7)],
            vec![],
        ] {
            let got = arena.extract(&g, &nodes);
            let mut edges = Vec::new();
            for (i, &v) in nodes.iter().enumerate() {
                for (j, &w) in nodes.iter().enumerate() {
                    if i < j && g.has_edge(v, w) {
                        edges.push((i as u32, j as u32));
                    }
                }
            }
            let want = Graph::from_edges(nodes.len(), edges).unwrap();
            assert_eq!(got, want, "induced by {nodes:?}");
            assert_eq!(got.max_degree(), want.max_degree());
            assert_eq!(got.m(), want.m());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn arena_rejects_duplicates() {
        let g = triangle_plus_pendant();
        SubgraphArena::new().extract(&g, &[NodeId(1), NodeId(1)]);
    }

    #[test]
    fn serde_roundtrip_ignores_cache() {
        let g = triangle_plus_pendant();
        let _ = g.reverse_ports(); // populate the cache on one side only
        let back = Graph::from_value(&g.to_value()).unwrap();
        assert_eq!(g, back);
        assert_eq!(g.reverse_ports(), back.reverse_ports());
    }

    /// Deserializes `triangle_plus_pendant` (offsets `[0, 2, 4, 7, 8]`,
    /// adjacency `[1, 2 | 0, 2 | 0, 1, 3 | 2]`) after `edit` tampers with
    /// one of its serialized fields, returning the refusal message.
    fn refusal(field: &str, edit: impl FnOnce(&mut Value)) -> String {
        let Value::Map(mut entries) = triangle_plus_pendant().to_value() else {
            unreachable!("a graph serializes to a map")
        };
        let (_, v) = entries.iter_mut().find(|(k, _)| k == field).unwrap();
        edit(v);
        Graph::from_value(&Value::Map(entries))
            .expect_err("tampered graph must be refused")
            .to_string()
    }

    fn set_index(v: &mut Value, i: usize, x: u64) {
        let Value::Seq(items) = v else {
            unreachable!("offsets and adj serialize to sequences")
        };
        items[i] = Value::U64(x);
    }

    #[test]
    fn deserialize_refuses_broken_offsets() {
        let msg = refusal("offsets", |v| *v = Value::Seq(Vec::new()));
        assert!(msg.contains("start with 0"), "{msg}");
        let msg = refusal("offsets", |v| set_index(v, 0, 1));
        assert!(msg.contains("start with 0"), "{msg}");
        let msg = refusal("offsets", |v| set_index(v, 1, 5));
        assert!(msg.contains("offsets decrease at vertex 1"), "{msg}");
        let msg = refusal("offsets", |v| set_index(v, 4, 13));
        assert!(msg.contains("last offset is 13"), "{msg}");
    }

    #[test]
    fn deserialize_refuses_out_of_range_neighbors() {
        let msg = refusal("adj", |v| set_index(v, 0, 1_000_000_000));
        assert!(msg.contains("neighbor 1000000000 outside 0..4"), "{msg}");
    }

    #[test]
    fn deserialize_refuses_unsorted_adjacency() {
        let msg = refusal("adj", |v| {
            set_index(v, 0, 2);
            set_index(v, 1, 1);
        });
        assert!(msg.contains("vertex 0 is not strictly ascending"), "{msg}");
        let msg = refusal("adj", |v| set_index(v, 1, 1));
        assert!(msg.contains("vertex 0 is not strictly ascending"), "{msg}");
    }

    #[test]
    fn deserialize_refuses_self_loops() {
        let msg = refusal("adj", |v| set_index(v, 0, 0));
        assert!(msg.contains("self loop at vertex 0"), "{msg}");
    }

    #[test]
    fn deserialize_refuses_asymmetric_adjacency() {
        let msg = refusal("adj", |v| set_index(v, 7, 1));
        assert!(msg.contains("edge (2, 3) is missing its reverse"), "{msg}");
    }

    #[test]
    fn deserialize_refuses_wrong_edge_count_and_max_degree() {
        let msg = refusal("m", |v| *v = Value::U64(5));
        assert!(msg.contains("m is 5"), "{msg}");
        let msg = refusal("max_degree", |v| *v = Value::U64(4));
        assert!(
            msg.contains("max_degree is 4, the largest degree is 3"),
            "{msg}"
        );
    }

    #[test]
    fn power_two_of_path() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let p = g.power(2);
        assert!(p.has_edge(NodeId(0), NodeId(2)));
        assert!(p.has_edge(NodeId(1), NodeId(3)));
        assert!(!p.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn bfs_and_diameter() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let d = g.bfs_distances(&[NodeId(0)]);
        assert_eq!(d[3], 3);
        assert_eq!(d[4], usize::MAX);
        assert!(!g.is_connected());
        assert_eq!(g.diameter_from(NodeId(0)), 3);
    }

    #[test]
    fn components_found() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let comps = g.components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1], vec![NodeId(2), NodeId(3)]);
        assert_eq!(comps[2], vec![NodeId(4)]);
    }
}
