//! Plain-text graph and coloring I/O.
//!
//! The edge-list format is one `u v` pair per line (whitespace separated,
//! 0-based vertex ids); blank lines and `#` comments are ignored. The
//! vertex count is `max id + 1` unless a `n <count>` header line raises it;
//! either way it may be at most [`MAX_VERTICES`].
//!
//! ```text
//! # a triangle plus an isolated vertex
//! n 4
//! 0 1
//! 1 2
//! 2 0
//! ```

use std::fmt::Write as _;
use std::path::Path;

use crate::{Coloring, Graph, GraphError, NodeId};

/// The most vertices a graph file may declare or imply. A larger count
/// is refused before anything is allocated for it, so a hostile header
/// line is an error, not an allocation failure.
pub const MAX_VERTICES: usize = 1 << 26;

/// Errors from parsing graph text.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number.
    Parse { line: usize, content: String },
    /// A line whose declared count or vertex id implies more than
    /// [`MAX_VERTICES`] vertices, with its 1-based number.
    TooManyVertices { line: usize, needed: u64 },
    /// The edges do not form a valid simple graph.
    Graph(GraphError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "cannot parse line {line}: {content:?}")
            }
            IoError::TooManyVertices { line, needed } => write!(
                f,
                "line {line} needs {needed} vertices, more than the {MAX_VERTICES} allowed"
            ),
            IoError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<GraphError> for IoError {
    fn from(e: GraphError) -> Self {
        IoError::Graph(e)
    }
}

/// Parses the edge-list format from a string.
///
/// # Errors
///
/// Returns a parse error with the offending line, a
/// [`IoError::TooManyVertices`] error for a line that needs more than
/// [`MAX_VERTICES`] vertices, or a graph-validity error (self loop,
/// duplicate edge).
pub fn parse_edge_list(text: &str) -> Result<Graph, IoError> {
    let mut n = 0usize;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (a, b) = (parts.next(), parts.next());
        match (a, b, parts.next()) {
            (Some("n"), Some(count), None) => {
                let c: u64 = count.parse().map_err(|_| IoError::Parse {
                    line: i + 1,
                    content: raw.to_string(),
                })?;
                n = n.max(capped(c, i + 1)?);
            }
            (Some(a), Some(b), None) => {
                let (u, v): (u32, u32) = match (a.parse(), b.parse()) {
                    (Ok(u), Ok(v)) => (u, v),
                    _ => {
                        return Err(IoError::Parse {
                            line: i + 1,
                            content: raw.to_string(),
                        })
                    }
                };
                n = n.max(capped(u64::from(u.max(v)) + 1, i + 1)?);
                edges.push((u, v));
            }
            _ => {
                return Err(IoError::Parse {
                    line: i + 1,
                    content: raw.to_string(),
                })
            }
        }
    }
    Ok(Graph::from_edges(n, edges)?)
}

/// `needed` as a vertex count, or the error naming line `line` when it
/// exceeds [`MAX_VERTICES`].
fn capped(needed: u64, line: usize) -> Result<usize, IoError> {
    match usize::try_from(needed) {
        Ok(n) if n <= MAX_VERTICES => Ok(n),
        _ => Err(IoError::TooManyVertices { line, needed }),
    }
}

/// Reads a graph from an edge-list file.
///
/// # Errors
///
/// As [`parse_edge_list`], plus I/O failures.
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    parse_edge_list(&std::fs::read_to_string(path)?)
}

/// Serializes a graph to the edge-list format.
pub fn write_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "n {}", g.n());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{} {}", u.0, v.0);
    }
    out
}

// --- Binary CSR codec -----------------------------------------------------
//
// A compact varint/interval encoding of the whole graph, used by the
// sharded runtime's `Init` frame (and anything else that wants a graph
// on a wire without paying for decimal text):
//
// ```text
// graph  := varint n, vertex^n
// vertex := varint runcount, run^runcount     (forward neighbors w > v)
// run    := varint gap, varint len            (gap >= 1, len >= 1)
// ```
//
// Each vertex stores only its *forward* adjacency (neighbors with a
// larger id) as maximal runs of consecutive ids: the first run starts at
// `v + gap`, each later run at `previous run end + gap`. Dense
// neighborhoods collapse to almost nothing (a clique is one run per
// vertex, ~4 bytes), and sparse ones pay a couple of bytes per edge —
// versus ~2 x digits + separators per edge for the text format.

/// Appends `v` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint starting at `*pos`, advancing it.
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, IoError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or_else(binary_truncated)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(binary_malformed("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(binary_malformed("varint longer than 10 bytes"));
        }
    }
}

fn binary_truncated() -> IoError {
    binary_malformed("truncated payload")
}

fn binary_malformed(what: &str) -> IoError {
    IoError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("binary graph: {what}"),
    ))
}

/// Serializes a graph to the binary CSR format above.
#[must_use]
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let n = g.n();
    // ~2 bytes per vertex header + ~3 per run is typical; m is a safe
    // upper-bound-ish reservation that avoids regrowth on sparse graphs.
    let mut out = Vec::with_capacity(8 + 2 * n + g.m());
    put_varint(&mut out, n as u64);
    for v in g.vertices() {
        let nbrs = g.neighbors(v);
        let split = nbrs.partition_point(|w| w.0 <= v.0);
        let fwd = &nbrs[split..];
        encode_runs(&mut out, v.0, fwd);
    }
    out
}

/// Appends the interval (run) encoding of the ascending id list `ids`,
/// with gaps anchored at `anchor` (exclusive: the first run starts at
/// `anchor + gap`, so every encoded id is `> anchor`). Callers encoding
/// lists that may start at id 0 pass the ids shifted up by one.
pub fn encode_runs(out: &mut Vec<u8>, anchor: u32, ids: &[NodeId]) {
    let mut runs = 0u64;
    let mut prev = u32::MAX;
    for w in ids {
        if prev == u32::MAX || w.0 != prev + 1 {
            runs += 1;
        }
        prev = w.0;
    }
    put_varint(out, runs);
    let mut cursor = anchor;
    let mut i = 0usize;
    while i < ids.len() {
        let start = ids[i].0;
        let mut len = 1u32;
        while i + (len as usize) < ids.len() && ids[i + len as usize].0 == start + len {
            len += 1;
        }
        put_varint(out, u64::from(start - cursor));
        put_varint(out, u64::from(len));
        cursor = start + len;
        i += len as usize;
    }
}

/// Decodes the interval encoding written by [`encode_runs`], pushing
/// each id (all `> anchor` and `< limit`, strictly ascending) through
/// `sink`.
///
/// # Errors
///
/// Rejects truncated/malformed varints, zero gaps or lengths, and runs
/// reaching `limit` or beyond.
pub fn decode_runs(
    buf: &[u8],
    pos: &mut usize,
    anchor: u32,
    limit: u32,
    mut sink: impl FnMut(u32),
) -> Result<(), IoError> {
    let runs = get_varint(buf, pos)?;
    let mut cursor = u64::from(anchor);
    for _ in 0..runs {
        let gap = get_varint(buf, pos)?;
        let len = get_varint(buf, pos)?;
        if gap == 0 || len == 0 {
            return Err(binary_malformed("zero run gap or length"));
        }
        let start = cursor + gap;
        let end = start + len;
        if end > u64::from(limit) {
            return Err(binary_malformed("run past the vertex count"));
        }
        for id in start..end {
            sink(id as u32);
        }
        cursor = end;
    }
    Ok(())
}

/// Parses the binary CSR format back into a [`Graph`] in `O(m)` — the
/// two decode passes fill each adjacency list already sorted (backward
/// entries arrive in ascending source order, then forward entries in
/// ascending id order), so no per-vertex sort is needed.
///
/// # Errors
///
/// Rejects truncated payloads, malformed varints, zero-length runs,
/// ids at or past the declared vertex count, and trailing bytes.
pub fn decode_graph(bytes: &[u8]) -> Result<Graph, IoError> {
    let mut pos = 0usize;
    let n = usize::try_from(get_varint(bytes, &mut pos)?)
        .map_err(|_| binary_malformed("vertex count overflows usize"))?;
    let limit = u32::try_from(n).map_err(|_| binary_malformed("vertex count overflows u32"))?;
    // Pass 1: degrees (each forward edge (v, w) counts for both ends).
    let mut deg = vec![0usize; n];
    let body = pos;
    for v in 0..limit {
        let mut fwd = 0usize;
        decode_runs(bytes, &mut pos, v, limit, |w| {
            deg[w as usize] += 1;
            fwd += 1;
        })?;
        deg[v as usize] += fwd;
    }
    if pos != bytes.len() {
        return Err(binary_malformed("trailing bytes"));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut total = 0usize;
    offsets.push(0);
    for &d in &deg {
        total += d;
        offsets.push(total);
    }
    let max_degree = deg.iter().copied().max().unwrap_or(0);
    // Pass 2: fill. Scanning sources in ascending order keeps every
    // list sorted without a sort pass: when vertex v is processed, its
    // backward entries (sources u < v) are already in place ascending,
    // and its own forward ids (all > v > any backward entry) append
    // ascending after them.
    let mut cursor = offsets[..n].to_vec();
    let mut adj = vec![NodeId(0); total];
    pos = body;
    for v in 0..limit {
        decode_runs(bytes, &mut pos, v, limit, |w| {
            adj[cursor[v as usize]] = NodeId(w);
            cursor[v as usize] += 1;
            adj[cursor[w as usize]] = NodeId(v);
            cursor[w as usize] += 1;
        })?;
    }
    Ok(Graph::from_csr_parts(offsets, adj, total / 2, max_degree))
}

/// Serializes a complete coloring as one `vertex color` pair per line.
pub fn write_coloring(coloring: &Coloring) -> String {
    let mut out = String::new();
    for i in 0..coloring.len() {
        match coloring.get(crate::NodeId::from(i)) {
            Some(c) => {
                let _ = writeln!(out, "{i} {}", c.0);
            }
            None => {
                let _ = writeln!(out, "{i} -");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Color, NodeId};

    #[test]
    fn parses_with_comments_and_header() {
        let g = parse_edge_list("# triangle\nn 4\n0 1\n1 2 # closing\n2 0\n").unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(NodeId(3)), 0);
    }

    #[test]
    fn roundtrips() {
        let g = crate::generators::hypercube(3);
        let text = write_edge_list(&g);
        let h = parse_edge_list(&text).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            parse_edge_list("0 x"),
            Err(IoError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_edge_list("1 2 3"),
            Err(IoError::Parse { .. })
        ));
        assert!(matches!(parse_edge_list("0 0"), Err(IoError::Graph(_))));
    }

    #[test]
    fn refuses_a_declared_count_past_the_cap() {
        let err = parse_edge_list("n 18446744073709551615\n").unwrap_err();
        assert!(matches!(
            err,
            IoError::TooManyVertices {
                line: 1,
                needed: u64::MAX
            }
        ));
        assert_eq!(
            err.to_string(),
            "line 1 needs 18446744073709551615 vertices, more than the 67108864 allowed"
        );
        let past_cap = format!("n {}\n", MAX_VERTICES + 1);
        assert!(matches!(
            parse_edge_list(&past_cap),
            Err(IoError::TooManyVertices { line: 1, .. })
        ));
    }

    #[test]
    fn refuses_an_edge_id_past_the_cap() {
        let err = parse_edge_list("# header\n0 1\n0 4294967295\n").unwrap_err();
        assert!(matches!(
            err,
            IoError::TooManyVertices {
                line: 3,
                needed: 4_294_967_296
            }
        ));
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn binary_codec_round_trips_every_shape() {
        let clique = {
            let edges: Vec<(u32, u32)> = (0..50u32)
                .flat_map(|u| (u + 1..50).map(move |v| (u, v)))
                .collect();
            Graph::from_edges(50, edges).unwrap()
        };
        for g in [
            Graph::from_edges(0, []).unwrap(),
            Graph::from_edges(4, []).unwrap(), // isolated vertices only
            crate::generators::path(17),
            crate::generators::cycle(9),
            crate::generators::hypercube(4),
            crate::generators::gnp(120, 0.07, 13),
            clique,
        ] {
            let bytes = encode_graph(&g);
            let h = decode_graph(&bytes).unwrap();
            assert_eq!(g, h);
            assert_eq!(g.max_degree(), h.max_degree());
            assert_eq!(g.m(), h.m());
        }
    }

    #[test]
    fn binary_codec_is_dramatically_smaller_than_text_on_dense_graphs() {
        let edges: Vec<(u32, u32)> = (0..200u32)
            .flat_map(|u| (u + 1..200).map(move |v| (u, v)))
            .collect();
        let g = Graph::from_edges(200, edges).unwrap();
        let text = write_edge_list(&g).len();
        let binary = encode_graph(&g).len();
        // A clique is one run per vertex: ~4 bytes against ~8 per edge
        // of text. The wire-path acceptance target is 10x; assert a
        // comfortable margin beyond it.
        assert!(
            binary * 50 < text,
            "binary {binary} bytes vs text {text} bytes"
        );
    }

    #[test]
    fn binary_codec_rejects_malformed_payloads() {
        let g = crate::generators::path(6);
        let bytes = encode_graph(&g);
        // Truncation anywhere must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_graph(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_graph(&padded).is_err());
        // A run reaching past the vertex count: n=2, vertex 0 claims a
        // 3-long run starting at 1.
        assert!(decode_graph(&[2, 1, 1, 3, 0]).is_err());
        // Zero-length run.
        assert!(decode_graph(&[2, 1, 1, 0, 0]).is_err());
        // Varint that overflows u64.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(decode_graph(&overflow).is_err());
    }

    #[test]
    fn run_encoding_round_trips_arbitrary_ascending_lists() {
        let lists: [&[u32]; 4] = [&[], &[3], &[1, 2, 3, 9, 11, 12], &[5, 7, 9]];
        for ids in lists {
            let nodes: Vec<NodeId> = ids.iter().map(|&v| NodeId(v + 1)).collect();
            let mut buf = Vec::new();
            // Anchor 0 with ids shifted by one (lists may contain 0).
            encode_runs(&mut buf, 0, &nodes);
            let mut got = Vec::new();
            let mut pos = 0;
            decode_runs(&buf, &mut pos, 0, u32::MAX, |w| got.push(w - 1)).unwrap();
            assert_eq!(pos, buf.len());
            assert_eq!(got, ids);
        }
    }

    #[test]
    fn coloring_output_format() {
        let mut c = Coloring::empty(3);
        c.set(NodeId(0), Color(5));
        c.set(NodeId(2), Color(1));
        assert_eq!(write_coloring(&c), "0 5\n1 -\n2 1\n");
    }
}
