//! The `default_threads` / `set_default_threads` resolution order, and
//! its interaction with the persistent worker pools.
//!
//! The process-wide default resolves exactly once (first read of
//! `LOCALSIM_THREADS` or first `set_default_threads`, whichever runs
//! first) and never changes. That immutability is what makes the
//! persistent pools safe: a pool's width is snapshotted at lease time,
//! so a mid-run `set_default_threads` cannot resize a live pool — it
//! returns `false` and has no effect. This file is its own test binary
//! (hence its own process) so the `OnceLock` starts unresolved; the
//! whole scenario lives in one `#[test]` because the lock is
//! process-global and test functions share the process.

use std::sync::atomic::{AtomicUsize, Ordering};

use localsim::{default_threads, pool_lease, set_default_threads};

#[test]
fn default_is_immutable_after_first_resolution() {
    // The harness does not set LOCALSIM_THREADS, but stay robust if the
    // environment does: whatever the first read resolves to is the
    // pinned value for the rest of the process.
    let resolved = default_threads();
    assert!(resolved >= 1);

    // Too late: the default has been read, so pinning a *different*
    // count must be refused and the resolved value must stay in force.
    assert!(
        !set_default_threads(resolved + 1),
        "set_default_threads succeeded after default_threads resolved"
    );
    assert_eq!(
        default_threads(),
        resolved,
        "refused set still changed the value"
    );

    // Refusal is permanent, not first-call-only.
    assert!(!set_default_threads(resolved));
    assert_eq!(default_threads(), resolved);

    // The frozen default does not cap an explicit width: a 4-slot lease
    // runs every slot even though the process default stayed at
    // `resolved`, and leasing it leaves the default alone.
    let mut pool = pool_lease(4);
    assert_eq!(pool.slots(), 4);
    let hits = AtomicUsize::new(0);
    pool.run_epoch(&|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 4);
    assert_eq!(
        default_threads(),
        resolved,
        "an explicit pool width leaked into the default"
    );
}
