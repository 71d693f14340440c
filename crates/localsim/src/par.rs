//! The process-wide default thread count and the degree-weighted
//! worklist partitioner.
//!
//! The executors step every round sequentially, so the thread count
//! changes no output: it sizes the pipelines' worker pool
//! (`delta_core`'s leftover components and loophole sweep, on
//! [`crate::WorkerPool`]). The partitioner splits a shard fleet's
//! vertices into contiguous, degree-balanced ranges.

use std::sync::OnceLock;

use graphgen::NodeId;

static THREADS: OnceLock<usize> = OnceLock::new();

/// The process-wide default thread count for the pipelines' worker
/// pool, read once from the `LOCALSIM_THREADS` environment variable:
/// `1` (or unset) runs pool jobs inline on the calling thread, and `0`
/// or an unparsable value falls back to `1` with a one-time notice on
/// stderr (so a typo'd setting never goes silently ignored).
///
/// [`set_default_threads`] overrides the environment (the CLI's
/// `--threads K` flag uses it); the first of the two to run wins, and the
/// value never changes afterwards.
pub fn default_threads() -> usize {
    *THREADS.get_or_init(|| match std::env::var("LOCALSIM_THREADS") {
        Err(_) => 1,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(k) if k >= 1 => k,
            _ => {
                // OnceLock guarantees this fires at most once per process.
                eprintln!(
                    "localsim: LOCALSIM_THREADS={raw:?} is not a thread count >= 1; \
                     using 1"
                );
                1
            }
        },
    })
}

/// Pins the process-wide default thread count, overriding the
/// `LOCALSIM_THREADS` environment variable. Returns `false` if the
/// default was already resolved (by an earlier call or an earlier
/// [`default_threads`] read) — the established value stays in force, so
/// callers that care should invoke this before the first pool call.
///
/// This is also what keeps the persistent worker pools safe: every
/// [`crate::pool::lease`] snapshots its width from the value in force
/// when the pool call starts, and a pool's width never changes after
/// construction. A mid-run `set_default_threads` therefore cannot
/// resize a live pool — it returns `false` and has no effect (the error
/// path is pinned by `tests/threads_config.rs`).
pub fn set_default_threads(k: usize) -> bool {
    THREADS.set(k.max(1)).is_ok()
}

/// Splits a sorted live worklist into at most `threads` contiguous,
/// non-empty segments balanced by *degree weight* rather than node
/// count.
///
/// A node costs `deg(v) + 1` (the gather is linear in degree; `+ 1`
/// keeps isolated nodes from being free), looked up through the CSR
/// `offsets` table. Segments are closed greedily once they reach the
/// even share `ceil(total / k)`, so on a star or clique-with-tail the
/// hub's chunk stops growing the moment the hub is in it instead of
/// dragging `n / k` leaves along with it.
///
/// Guarantees, for `k = min(threads, live.len())` segments or fewer:
/// segments are contiguous, non-empty, cover `live` in order, and every
/// segment's weight is `< ceil(total / k) + max_single_weight` — i.e.
/// the imbalance over the even share is less than the heaviest single
/// node, which is the best any contiguous partition can promise
/// (pinned by `tests/partition.rs`, which property-tests this bound
/// through the crate root's `#[doc(hidden)]` re-export).
pub fn segments_weighted<'a>(
    live: &'a [NodeId],
    threads: usize,
    offsets: &[usize],
) -> Vec<&'a [NodeId]> {
    let k = threads.min(live.len()).max(1);
    if k <= 1 {
        return vec![live];
    }
    let weight = |v: NodeId| (offsets[v.index() + 1] - offsets[v.index()]) as u64 + 1;
    let total: u64 = live.iter().map(|&v| weight(v)).sum();
    let target = total.div_ceil(k as u64);
    let mut out = Vec::with_capacity(k);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &v) in live.iter().enumerate() {
        acc += weight(v);
        // Close the segment once it reaches the even share — or when the
        // nodes left (i included) are down to one per remaining segment,
        // so every segment stays non-empty.
        let segments_left = k - out.len();
        let must_close = segments_left > 1 && live.len() - i <= segments_left;
        if (acc >= target || must_close) && out.len() + 1 < k {
            out.push(&live[start..=i]);
            start = i + 1;
            acc = 0;
        }
    }
    out.push(&live[start..]);
    debug_assert!(out.iter().all(|s| !s.is_empty()));
    out
}
