//! Persistent epoch-barrier worker pool.
//!
//! `delta_core`'s pipeline pool runs its independent units (leftover
//! components, loophole brute force) on this pool; the executors step
//! every round sequentially and never lease one. OS threads are spawned
//! **once per lease** and then parked on a condvar between calls; each
//! call is one *epoch* — publish a job, wake the workers, run slot 0 on
//! the caller, and block until the last worker checks in. The
//! steady-state cost of an epoch is one mutex hand-off and one wake/park
//! cycle per worker instead of a thread create/destroy pair.
//!
//! # Determinism
//!
//! The pool adds no scheduling freedom: worker `i` always receives slot
//! index `i`. Dynamic-scheduling callers (`delta_core`'s pool) put the
//! shared claim counter *inside* the job and return results in unit
//! order.
//!
//! # Thread-local reuse
//!
//! [`lease`] caches one pool per OS thread: a pipeline that makes many
//! pool calls back to back re-uses the same parked workers instead of
//! respawning per call. The cache is keyed by slot count — leasing a
//! different width drops the cached pool (joining its threads) and
//! spawns a fresh one. A second lease on the same thread while the
//! first is checked out spawns a transient pool.
//!
//! Pool width is fixed at construction. The process-wide default in
//! [`crate::default_threads`] is resolved once and never changes, so a
//! `set_default_threads` call mid-run cannot resize a live pool — it
//! returns `false` and the established width stays in force (see
//! `tests/threads_config.rs`).

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Locks the epoch state, recovering from a poisoned mutex.
///
/// Poisoning can only happen if a thread panicked *while holding* the
/// state lock (the user job always runs outside it, under
/// `catch_unwind`). The state transitions under the lock are all
/// trivially complete-or-untouched, so the data is still consistent;
/// recovering here means one poisoned epoch reports its original panic
/// instead of cascading `expect` aborts through every parked worker and
/// the next `lease` call.
fn lock_state(m: &Mutex<EpochState>) -> MutexGuard<'_, EpochState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A borrowed `Fn(usize) + Sync` job with its lifetime erased so parked
/// workers (spawned long before the job existed) can run it.
///
/// # Safety
///
/// The pointee is only dereferenced by workers between the epoch
/// publish and their check-in decrement, and [`WorkerPool::run_epoch`]
/// does not return — not even by unwinding — until every worker has
/// checked in and the job slot is cleared. The borrow therefore always
/// outlives every dereference. The pointee is `Sync`, so sharing the
/// pointer across worker threads is sound.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared references to it may cross
// threads); the pointer itself is only an address.
unsafe impl Send for Job {}

struct EpochState {
    /// Bumped once per epoch; workers use it to detect fresh work.
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet checked in for the current epoch.
    remaining: usize,
    shutdown: bool,
    /// First panic payload captured from a worker this epoch.
    panic: Option<PanicPayload>,
}

struct Shared {
    state: Mutex<EpochState>,
    /// Workers park here between epochs.
    work_cv: Condvar,
    /// The caller parks here until `remaining` hits zero.
    done_cv: Condvar,
}

/// A fixed-width pool of parked worker threads driven by per-round
/// epochs. See the module docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    slots: usize,
    /// Set once an epoch has propagated a panic (from any slot). A
    /// tainted pool still works — the barrier contained the panic — but
    /// [`PoolLease`] refuses to re-cache it, so thread-local reuse never
    /// hands a pool with a panicked history to an unsuspecting caller.
    panicked: bool,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("slots", &self.slots)
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `slots` logical workers: the caller runs slot 0 in
    /// [`run_epoch`](Self::run_epoch), and `slots - 1` OS threads are
    /// spawned (and immediately parked) for the rest. `slots <= 1`
    /// spawns nothing and runs epochs inline.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(EpochState {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..slots)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("localsim-pool-{slot}"))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            slots,
            panicked: false,
        }
    }

    /// Number of logical worker slots (caller included).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Whether any past epoch propagated a panic out of
    /// [`run_epoch`](Self::run_epoch).
    #[must_use]
    pub fn panicked(&self) -> bool {
        self.panicked
    }

    /// Runs one epoch: `f(0)` on the calling thread and `f(1)` …
    /// `f(slots - 1)` on the parked workers, returning only after every
    /// slot has finished. `f` sees each slot index exactly once per
    /// epoch.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from any slot — after all workers have checked
    /// in, so borrows captured by `f` are dead before unwinding reaches
    /// the caller.
    pub fn run_epoch<F: Fn(usize) + Sync>(&mut self, f: &F) {
        let spawned = self.handles.len();
        if spawned == 0 {
            f(0);
            return;
        }
        let erased: *const (dyn Fn(usize) + Sync) = f;
        // SAFETY: erases the borrow's lifetime so parked workers can hold
        // the pointer; see `Job` for why every dereference happens while
        // the borrow is live.
        let job = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(erased)
        });
        {
            let mut st = lock_state(&self.shared.state);
            debug_assert!(st.job.is_none() && st.remaining == 0, "epoch overlap");
            st.job = Some(job);
            st.epoch = st.epoch.wrapping_add(1);
            st.remaining = spawned;
            self.shared.work_cv.notify_all();
        }
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        let worker_panic = {
            let mut st = lock_state(&self.shared.state);
            while st.remaining > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
            st.panic.take()
        };
        // The first panic wins: a caller panic is re-raised before any
        // worker payload, and either taints the pool so the thread-local
        // lease cache will not silently re-issue it.
        if let Err(p) = caller {
            self.panicked = true;
            resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            self.panicked = true;
            resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock_state(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen && st.job.is_some() {
                    break;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            seen = st.epoch;
            *st.job.as_ref().expect("job present at epoch start")
        };
        // SAFETY: see `Job` — the caller blocks in `run_epoch` until we
        // check in below, so the borrow behind the pointer is live.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(slot) }));
        let mut st = lock_state(&shared.state);
        if let Err(p) = result {
            st.panic.get_or_insert(p);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

thread_local! {
    static CACHED: RefCell<Option<WorkerPool>> = const { RefCell::new(None) };
}

/// A checked-out [`WorkerPool`], returned to this thread's cache on
/// drop so the next lease of the same width skips the spawn entirely.
#[derive(Debug)]
pub struct PoolLease {
    pool: Option<WorkerPool>,
}

impl PoolLease {
    /// See [`WorkerPool::run_epoch`].
    pub fn run_epoch<F: Fn(usize) + Sync>(&mut self, f: &F) {
        self.pool
            .as_mut()
            .expect("lease holds a pool until drop")
            .run_epoch(f);
    }

    /// Number of logical worker slots (caller included).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.pool.as_ref().map_or(1, WorkerPool::slots)
    }
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            // A pool that propagated a panic is dropped here (joining
            // its workers) instead of being re-cached: the epoch barrier
            // contained the panic, but the cache must not hand the
            // tainted pool to the next lease on this thread.
            if pool.panicked() {
                return;
            }
            // Park the pool for the next lease; if the slot is occupied
            // (nested lease returned first) or thread-local storage is
            // gone (thread exit), just drop it — Drop joins the workers.
            let _ = CACHED.try_with(|c| {
                let mut slot = c.borrow_mut();
                if slot.is_none() {
                    *slot = Some(pool);
                }
            });
        }
    }
}

/// Checks a pool of exactly `slots` logical workers out of this
/// thread's cache, spawning one (and dropping a mismatched cached pool)
/// if needed. Width is fixed for the lease's lifetime — re-reads of
/// [`crate::default_threads`] never resize a live pool.
#[must_use]
pub fn lease(slots: usize) -> PoolLease {
    let cached = CACHED
        .try_with(|c| c.borrow_mut().take())
        .ok()
        .flatten()
        .filter(|p| p.slots() == slots.max(1) && !p.panicked());
    PoolLease {
        pool: Some(cached.unwrap_or_else(|| WorkerPool::new(slots))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_slot_runs_exactly_once_per_epoch() {
        let mut pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..100 {
            pool.run_epoch(&|slot| {
                hits[slot].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn epochs_see_fresh_borrows() {
        // The job borrows round-local data; each epoch must observe the
        // current round's buffer, not a stale one.
        let mut pool = WorkerPool::new(3);
        for round in 0..50u64 {
            let inputs: Vec<u64> = (0..3).map(|s| round * 10 + s).collect();
            let outputs: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
            pool.run_epoch(&|slot| {
                outputs[slot].store(inputs[slot] as usize, Ordering::Relaxed);
            });
            for (s, out) in outputs.iter().enumerate() {
                assert_eq!(out.load(Ordering::Relaxed) as u64, round * 10 + s as u64);
            }
        }
    }

    #[test]
    fn single_slot_runs_inline() {
        let mut pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let mut ran_on = None;
        let ran = Mutex::new(&mut ran_on);
        pool.run_epoch(&|slot| {
            assert_eq!(slot, 0);
            **ran.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(ran_on, Some(caller));
    }

    #[test]
    fn worker_panic_propagates_after_barrier() {
        let mut pool = WorkerPool::new(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_epoch(&|slot| {
                if slot == 2 {
                    panic!("boom in slot 2");
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "got {msg:?}");
        // The pool survives a panicked epoch and runs the next one.
        let ok = AtomicUsize::new(0);
        pool.run_epoch(&|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    /// Regression for the epoch-barrier panic path under the lease
    /// cache: a worker panic inside a leased epoch must surface the
    /// *original* payload to the caller (not a poisoned-mutex abort),
    /// and the next `lease` of the same width on this thread must hand
    /// out a healthy pool that runs epochs normally.
    #[test]
    fn lease_again_after_contained_worker_panic() {
        let mut leased = lease(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            leased.run_epoch(&|slot| {
                if slot == 3 {
                    panic!("leased boom in slot 3");
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            msg.contains("leased boom"),
            "original payload lost: {msg:?}"
        );
        // Returning the tainted lease must invalidate the cache slot…
        drop(leased);
        // …so the next lease gets a pool with a clean history that runs
        // a full epoch.
        let mut again = lease(4);
        assert_eq!(again.slots(), 4);
        let hits = AtomicUsize::new(0);
        again.run_epoch(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    /// A caller-slot panic (slot 0) taints the pool the same way a
    /// worker panic does: the lease cache refuses to re-issue it.
    #[test]
    fn caller_panic_also_invalidates_the_cache() {
        let mut pool = WorkerPool::new(2);
        assert!(!pool.panicked());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.run_epoch(&|slot| {
                if slot == 0 {
                    panic!("caller boom");
                }
            });
        }))
        .unwrap_err();
        assert!(pool.panicked());
        // The pool itself still runs epochs — the flag only gates the
        // thread-local cache, not correctness of the barrier.
        let hits = AtomicUsize::new(0);
        pool.run_epoch(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn lease_reuses_cached_pool_of_same_width() {
        let first = lease(3);
        drop(first);
        let again = lease(3);
        assert_eq!(again.slots(), 3);
        drop(again);
        // A different width replaces the cached pool.
        let wider = lease(5);
        assert_eq!(wider.slots(), 5);
    }

    #[test]
    fn nested_lease_gets_its_own_pool() {
        let mut outer = lease(2);
        let mut inner = lease(2);
        let count = AtomicUsize::new(0);
        outer.run_epoch(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        inner.run_epoch(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }
}
