//! Degree-weighted worklist partitioning: the balance guarantee of
//! `segments_weighted`, which splits a shard fleet's vertices.
//!
//! The partitioner's contract (see `par.rs`): segments are contiguous,
//! non-empty, cover the worklist in order, and every segment's weight
//! (`deg(v) + 1` summed over its nodes) exceeds the even share
//! `ceil(total / k)` by *less than the heaviest single node* — the best
//! bound any contiguous partition can promise, since a single hub may
//! outweigh the share on its own.

use graphgen::{Graph, GraphBuilder, NodeId};
use localsim::segments_weighted;
use proptest::prelude::*;

/// Checks the full `segments_weighted` contract for one (graph, live,
/// threads) triple; returns an error message on the first violation.
fn check_contract(offsets: &[usize], live: &[NodeId], threads: usize) -> Result<(), TestCaseError> {
    let segs = segments_weighted(live, threads, offsets);
    let k = threads.min(live.len()).max(1);
    prop_assert!(segs.len() <= k, "{} segments for k={k}", segs.len());
    prop_assert!(!live.is_empty() || segs.len() == 1);

    // Coverage in order, each segment non-empty.
    let flat: Vec<NodeId> = segs.iter().flat_map(|s| s.iter().copied()).collect();
    prop_assert_eq!(flat, live.to_vec());
    for s in &segs {
        prop_assert!(!s.is_empty(), "empty segment");
    }

    // Balance: every segment's weight < ceil(total / k) + max single
    // node weight.
    let weight = |v: NodeId| (offsets[v.index() + 1] - offsets[v.index()]) as u64 + 1;
    let total: u64 = live.iter().map(|&v| weight(v)).sum();
    if total == 0 {
        return Ok(());
    }
    let target = total.div_ceil(k as u64);
    let max_w = live.iter().map(|&v| weight(v)).max().unwrap_or(1);
    for (i, s) in segs.iter().enumerate() {
        let w: u64 = s.iter().map(|&v| weight(v)).sum();
        prop_assert!(
            w < target + max_w,
            "segment #{i} weight {w} >= target {target} + max node weight {max_w} \
             (k={k}, total={total})"
        );
    }
    Ok(())
}

fn arb_graph_and_live() -> impl Strategy<Value = (Graph, Vec<NodeId>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3);
        let keep = proptest::collection::vec(0u8..2, n..n + 1);
        (edges, keep).prop_map(move |(pairs, keep)| {
            let mut b = GraphBuilder::new(n);
            for (a, c) in pairs {
                if a != c {
                    b.add_edge(a, c);
                }
            }
            let g = b.build().expect("builder dedups");
            // A sorted sub-worklist, as compaction produces mid-run.
            let live: Vec<NodeId> = (0..n as u32)
                .map(NodeId)
                .filter(|v| keep[v.index()] == 1)
                .collect();
            (g, live)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random graphs x random live subsets x thread counts: contiguity,
    /// coverage, non-emptiness, and the `< target + max_single_weight`
    /// imbalance bound all hold.
    #[test]
    fn weighted_segments_satisfy_contract(
        case in arb_graph_and_live(),
        threads in 1usize..10,
    ) {
        let (g, live) = case;
        prop_assume!(!live.is_empty());
        check_contract(g.csr_offsets(), &live, threads)?;
    }
}

/// Adversarially skewed worklists: one hub carrying almost all the
/// weight must not drag a proportional share of leaves into its chunk.
#[test]
fn star_hub_gets_a_thin_chunk() {
    let g = graphgen::generators::star(63); // node 0: degree 63, leaves: degree 1
    let live: Vec<NodeId> = (0..64).map(NodeId).collect();
    let offsets = g.csr_offsets();
    let segs = segments_weighted(&live, 4, offsets);
    assert_eq!(segs.len(), 4);
    // total = 64 + 63*2 = 190, target = 48: the hub (weight 64) must
    // close its segment immediately rather than absorb ~16 leaves the
    // way a count-balanced split would.
    assert_eq!(segs[0], &[NodeId(0)], "hub should sit alone: {segs:?}");
    check_contract(offsets, &live, 4).unwrap();
}

/// A lollipop — K16 head welded to a 48-node path tail. No generator
/// builds this shape; it is the canonical mixed-density worklist (head
/// nodes weigh 16x the tail nodes).
fn lollipop(clique: usize, tail: usize) -> Graph {
    let n = clique + tail;
    let mut b = GraphBuilder::new(n);
    for a in 0..clique {
        for c in a + 1..clique {
            b.add_edge(a as u32, c as u32);
        }
    }
    // Weld the tail to the last clique vertex.
    for i in 0..tail {
        let a = if i == 0 { clique - 1 } else { clique + i - 1 };
        b.add_edge(a as u32, (clique + i) as u32);
    }
    b.build().expect("lollipop edges are simple")
}

#[test]
fn lollipop_segments_respect_weight_bound() {
    let g = lollipop(16, 48);
    let live: Vec<NodeId> = (0..64).map(NodeId).collect();
    for threads in [2, 3, 4, 8] {
        check_contract(g.csr_offsets(), &live, threads).unwrap();
    }
    // The clique head (16 nodes, weight 16 each on average) outweighs
    // the tail; with 4 threads the first segment must not reach past
    // the head plus a sliver of tail.
    let segs = segments_weighted(&live, 4, g.csr_offsets());
    assert!(
        segs[0].len() < 16,
        "first segment swallowed the whole clique head: {} nodes",
        segs[0].len()
    );
}
