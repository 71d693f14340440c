//! What a worker knows about the graph: the `Frame::Init` graph payload.
//!
//! Version 2 of the protocol ships topology in one of two shapes, chosen
//! by the coordinator per shard by exact encoded size:
//!
//! - **Full** (mode byte 0): the whole graph in `graphgen::io` binary
//!   CSR form. Encoded once and reused for every shard (and every
//!   respawn); wins on dense graphs where interval runs collapse (a
//!   clique is one run per vertex).
//! - **Sub** (mode byte 1): only what this shard can see — the owned
//!   range's full adjacency (global ids, ascending, so neighbor ports
//!   line up with the full graph's CSR), plus the global `n`, `Δ`, and
//!   optionally the owned range's global port base (needed only when a
//!   fault plan indexes the drop stream by global port). Wins on sparse
//!   graphs where a shard's neighborhood is a sliver of `m`.
//!
//! Everything else a worker needs is derivable: ghost ids are the
//! foreign ids in the owned adjacency, and init states are pure
//! functions of `(id, n, Δ)` for every [`super::WireAlgo`], so no ghost
//! adjacency ever travels.

use std::io;

use graphgen::io::{decode_graph, decode_runs, encode_graph, encode_runs, MAX_VERTICES};
use graphgen::{Graph, NodeId};

use super::wire::{put_varint, Dec};

const MODE_FULL: u8 = 0;
const MODE_SUB: u8 = 1;

/// The owned-range slice of a graph (see module docs for the format).
pub struct SubTopology {
    n: usize,
    max_degree: usize,
    lo: usize,
    hi: usize,
    /// Global port index of the first owned port (`csr_offsets()[lo]` of
    /// the full graph); `usize::MAX` when not shipped.
    port_base: usize,
    /// Local CSR over the owned range: `offsets[v - lo]..offsets[v - lo + 1]`
    /// indexes `adj`.
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
}

/// A worker's view of the topology.
pub enum Topology {
    /// The whole graph (mode byte 0).
    Full(Graph),
    /// Owned-range adjacency only (mode byte 1).
    Sub(SubTopology),
}

/// Encodes the full-graph payload: mode byte 0 + binary CSR.
#[must_use]
pub fn encode_full(g: &Graph) -> Vec<u8> {
    let mut out = vec![MODE_FULL];
    out.extend_from_slice(&encode_graph(g));
    out
}

/// Encodes the sub-topology payload for the owned range `lo..hi`;
/// `with_ports` ships the global port base (required by fault plans
/// with message drops, whose RNG stream is indexed by global port).
#[must_use]
pub fn encode_sub(g: &Graph, lo: usize, hi: usize, with_ports: bool) -> Vec<u8> {
    let mut out = vec![MODE_SUB];
    put_varint(&mut out, g.n() as u64);
    put_varint(&mut out, g.max_degree() as u64);
    put_varint(&mut out, lo as u64);
    put_varint(&mut out, hi as u64);
    out.push(u8::from(with_ports));
    if with_ports {
        put_varint(&mut out, g.csr_offsets()[lo] as u64);
    }
    let mut shifted: Vec<NodeId> = Vec::new();
    for v in lo..hi {
        // Full adjacency (both directions) per owned vertex, interval-
        // coded; ids may start at 0, so shift by one to satisfy the
        // strictly-positive-gap invariant of the run encoding.
        shifted.clear();
        shifted.extend(
            g.neighbors(NodeId(v as u32))
                .iter()
                .map(|w| NodeId(w.0 + 1)),
        );
        encode_runs(&mut out, 0, &shifted);
    }
    out
}

fn protocol(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Topology {
    /// Decodes an `Init` graph payload for the owned range `start..end`.
    ///
    /// # Errors
    ///
    /// Malformed payloads, unknown mode bytes, vertex counts past
    /// [`MAX_VERTICES`], reversed owned ranges, and payloads whose owned
    /// range disagrees with the `Init` frame's — all before allocating
    /// for the range.
    pub fn decode(bytes: &[u8], start: usize, end: usize) -> io::Result<Topology> {
        let mut d = Dec::new(bytes);
        match d.u8()? {
            MODE_FULL => {
                let g = decode_graph(&bytes[1..])
                    .map_err(|e| protocol(format!("bad full-graph payload: {e}")))?;
                if start > end || end > g.n() {
                    return Err(protocol(format!(
                        "owned range {start}..{end} outside 0..{}",
                        g.n()
                    )));
                }
                Ok(Topology::Full(g))
            }
            MODE_SUB => {
                let n = d.u64()? as usize;
                if n > MAX_VERTICES {
                    return Err(protocol(format!(
                        "vertex count {n} exceeds the {MAX_VERTICES}-vertex cap"
                    )));
                }
                let max_degree = d.u64()? as usize;
                let lo = d.u64()? as usize;
                let hi = d.u64()? as usize;
                if lo > hi {
                    return Err(protocol(format!(
                        "sub-topology range {lo}..{hi} is reversed"
                    )));
                }
                if lo != start || hi != end || hi > n {
                    return Err(protocol(format!(
                        "sub-topology range {lo}..{hi} disagrees with init range \
                         {start}..{end} (n = {n})"
                    )));
                }
                let with_ports = match d.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(protocol(format!("bad port flag {other}"))),
                };
                let port_base = if with_ports {
                    d.u64()? as usize
                } else {
                    usize::MAX
                };
                let mut pos = bytes.len() - d.remaining();
                let mut offsets = Vec::with_capacity(hi - lo + 1);
                offsets.push(0usize);
                let mut adj: Vec<NodeId> = Vec::new();
                for v in lo..hi {
                    // Shifted ids run 1..=n, hence the `n + 1` limit;
                    // the sink undoes the shift from `encode_sub`.
                    decode_runs(bytes, &mut pos, 0, n as u32 + 1, |w| {
                        adj.push(NodeId(w - 1));
                    })
                    .map_err(|e| protocol(format!("bad adjacency for vertex {v}: {e}")))?;
                    offsets.push(adj.len());
                }
                if pos != bytes.len() {
                    return Err(protocol("trailing bytes after sub-topology".to_string()));
                }
                if offsets.windows(2).any(|w| w[1] - w[0] > max_degree) {
                    return Err(protocol("owned degree exceeds declared Δ".to_string()));
                }
                Ok(Topology::Sub(SubTopology {
                    n,
                    max_degree,
                    lo,
                    hi,
                    port_base,
                    offsets,
                    adj,
                }))
            }
            other => Err(protocol(format!("unknown topology mode {other}"))),
        }
    }

    /// Global vertex count.
    #[must_use]
    pub fn n(&self) -> usize {
        match self {
            Topology::Full(g) => g.n(),
            Topology::Sub(s) => s.n,
        }
    }

    /// Global maximum degree.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        match self {
            Topology::Full(g) => g.max_degree(),
            Topology::Sub(s) => s.max_degree,
        }
    }

    /// Neighbors of `v` in ascending order (CSR port order). For a
    /// sub-topology, only owned vertices are known.
    ///
    /// # Panics
    ///
    /// On a sub-topology when `v` is outside the owned range — callers
    /// only gather for owned vertices.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        match self {
            Topology::Full(g) => g.neighbors(v),
            Topology::Sub(s) => {
                let vi = v.index();
                assert!(
                    vi >= s.lo && vi < s.hi,
                    "sub-topology neighbors of unowned vertex {vi}"
                );
                &s.adj[s.offsets[vi - s.lo]..s.offsets[vi - s.lo + 1]]
            }
        }
    }

    /// Global port index of the first port of owned vertex range
    /// `start..`, i.e. `csr_offsets()[start]` of the full graph.
    /// `None` when the payload did not ship port information.
    #[must_use]
    pub fn global_port_base(&self, start: usize) -> Option<usize> {
        match self {
            Topology::Full(g) => Some(g.csr_offsets()[start]),
            Topology::Sub(s) => (s.port_base != usize::MAX).then_some(s.port_base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        Graph::from_edges(n as usize, edges).unwrap()
    }

    #[test]
    fn sub_topology_matches_the_full_graph_on_the_owned_range() {
        for g in [
            graphgen::generators::path(24),
            graphgen::generators::cycle(24),
            graphgen::generators::gnp(60, 0.1, 13),
            clique(12),
        ] {
            let n = g.n();
            for (lo, hi) in [(0, n), (0, n / 2), (n / 3, 2 * n / 3), (n - 1, n), (5, 5)] {
                for with_ports in [false, true] {
                    let bytes = encode_sub(&g, lo, hi, with_ports);
                    let topo = Topology::decode(&bytes, lo, hi).unwrap();
                    assert_eq!(topo.n(), n);
                    assert_eq!(topo.max_degree(), g.max_degree());
                    for v in lo..hi {
                        assert_eq!(
                            topo.neighbors(NodeId(v as u32)),
                            g.neighbors(NodeId(v as u32)),
                            "vertex {v} of range {lo}..{hi}"
                        );
                    }
                    assert_eq!(
                        topo.global_port_base(lo),
                        with_ports.then(|| g.csr_offsets()[lo])
                    );
                }
            }
        }
    }

    #[test]
    fn full_mode_round_trips_and_knows_every_port_base() {
        let g = graphgen::generators::gnp(40, 0.15, 7);
        let bytes = encode_full(&g);
        let topo = Topology::decode(&bytes, 10, 30).unwrap();
        assert_eq!(topo.n(), g.n());
        for v in 0..g.n() {
            assert_eq!(
                topo.neighbors(NodeId(v as u32)),
                g.neighbors(NodeId(v as u32))
            );
        }
        assert_eq!(topo.global_port_base(10), Some(g.csr_offsets()[10]));
        // The range must fit the decoded graph.
        assert!(Topology::decode(&bytes, 10, g.n() + 1).is_err());
    }

    #[test]
    fn sub_encoding_of_a_sparse_shard_beats_the_full_graph() {
        // A shard of a long path sees O(owned) edges; the full graph is
        // O(n). The per-shard payload must reflect that.
        let g = graphgen::generators::path(10_000);
        let full = encode_full(&g);
        let sub = encode_sub(&g, 0, 100, false);
        assert!(
            sub.len() * 10 < full.len(),
            "sub = {} bytes, full = {} bytes",
            sub.len(),
            full.len()
        );
    }

    #[test]
    fn malformed_payloads_are_refused() {
        let g = graphgen::generators::path(8);
        // Unknown mode byte.
        assert!(Topology::decode(&[7], 0, 8).is_err());
        // Range mismatch between payload and Init frame.
        let bytes = encode_sub(&g, 2, 6, false);
        assert!(Topology::decode(&bytes, 2, 5).is_err());
        assert!(Topology::decode(&bytes, 3, 6).is_err());
        // Truncation anywhere is an error, not a panic.
        for cut in 1..bytes.len() {
            assert!(Topology::decode(&bytes[..cut], 2, 6).is_err());
        }
        // Trailing bytes are refused.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(Topology::decode(&padded, 2, 6).is_err());
        // Bad port flag.
        let mut flag = bytes;
        let flag_pos = 1 + 4; // n, Δ, lo, hi are single-byte varints here
        flag[flag_pos] = 9;
        assert!(Topology::decode(&flag, 2, 6).is_err());
    }

    /// An `Init` whose owned range runs backwards is refused, in both
    /// modes, instead of sizing the range's offsets by `hi - lo + 1`.
    #[test]
    fn reversed_owned_range_is_refused() {
        let g = graphgen::generators::path(10);
        let err = Topology::decode(&encode_sub(&g, 5, 3, false), 5, 3).err();
        assert!(err.is_some_and(|e| e.to_string().contains("reversed")));
        assert!(Topology::decode(&encode_full(&g), 5, 3).is_err());
    }

    /// The sub-topology's vertex count is held to the cap every graph
    /// reader enforces.
    #[test]
    fn sub_vertex_count_past_the_cap_is_refused() {
        let mut bytes = vec![MODE_SUB];
        for field in [MAX_VERTICES as u64 + 1, 0, 0, 0] {
            put_varint(&mut bytes, field); // n, Δ, lo, hi
        }
        bytes.push(0); // no port base
        let err = Topology::decode(&bytes, 0, 0).err();
        assert!(err.is_some_and(|e| e.to_string().contains("cap")));
    }
}
