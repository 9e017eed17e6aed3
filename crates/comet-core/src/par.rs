//! Shared-memory parallel execution primitives.
//!
//! Two tools live here:
//!
//! - [`par_map`] / [`par_map_cancellable`]: a minimal scoped-thread
//!   parallel map for embarrassingly parallel per-item work (hoisted
//!   from `comet-eval` so the explainer, the eval harness, and the
//!   network service share one implementation). Panics in one item are
//!   isolated; cancellation drains in-flight items cleanly.
//! - [`WorkerPool`]: a small *persistent* pool for repeated fine-grained
//!   fan-outs. A scoped spawn costs tens of microseconds per thread —
//!   fatal inside an explanation whose whole budget is a few hundred
//!   microseconds — so the pool keeps its threads alive across calls:
//!   [`WorkerPool::run`] broadcasts a job, the caller participates as
//!   worker 0, and parked workers wake by epoch. A pool of size 1
//!   spawns no threads at all and runs jobs inline.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use comet_models::panic_payload_message;

use crate::cancel::CancelToken;

/// One item's worker panicked; siblings were unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParPanic {
    /// Index of the failing item in the input slice.
    pub index: usize,
    /// The panic payload, rendered as text.
    pub message: String,
}

impl fmt::Display for ParPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panicked on item {}: {}", self.index, self.message)
    }
}

impl std::error::Error for ParPanic {}

/// Map `f` over `items` using all available cores, preserving order.
///
/// `f` receives `(index, item)` so callers can derive deterministic
/// per-item RNG seeds. Each item's call is isolated with
/// `catch_unwind`: a panicking item yields `Err(ParPanic)` in its slot
/// while the remaining items are still processed (no worker dies, no
/// sibling result is lost).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, ParPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_cancellable(items, &CancelToken::new(), f)
        .into_iter()
        // Invariant: with a never-cancelled token every slot is filled.
        .map(|slot| slot.expect("uncancelled par_map filled every slot"))
        .collect()
}

/// [`par_map`] with cooperative cancellation: workers poll `cancel`
/// before claiming each item, so after cancellation no *new* item
/// starts while in-flight items drain to completion. Unstarted items
/// yield `None` in their slots (started items yield `Some` as usual).
pub fn par_map_cancellable<T, R, F>(
    items: &[T],
    cancel: &CancelToken,
    f: F,
) -> Vec<Option<Result<R, ParPanic>>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers =
        std::thread::available_parallelism().map_or(4, |n| n.get()).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<R, ParPanic>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if cancel.poll() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let value = catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).map_err(|payload| {
                    ParPanic { index: i, message: panic_payload_message(&*payload) }
                });
                // Slots are locked only for this store, with `f` run
                // outside and its panics caught above — recover from
                // poisoning anyway rather than compounding a failure.
                *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(value);
            });
        }
    });
    results.into_iter().map(|slot| slot.into_inner().unwrap_or_else(|p| p.into_inner())).collect()
}

/// `par_map` for infallible workers: unwraps every slot, panicking with
/// the first [`ParPanic`] if a worker died. Use only where a worker
/// panic is itself a bug (e.g. pure arithmetic).
pub fn par_map_strict<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(items, f)
        .into_iter()
        .map(|slot| match slot {
            Ok(value) => value,
            Err(panic) => panic!("{panic}"),
        })
        .collect()
}

/// How long a worker spins on the epoch counter before parking on the
/// condvar. Spinning covers the common case of back-to-back rounds in
/// a sampling loop (sub-microsecond handoff); parking caps the cost of
/// an idle pool at nothing.
const SPIN_ROUNDS: u32 = 10_000;

/// State shared between a [`WorkerPool`]'s caller and its threads.
struct PoolShared {
    /// Bumped once per published job; workers watch it lock-free.
    epoch: AtomicU64,
    /// Set once on drop; workers exit their loops.
    shutdown: AtomicBool,
    /// The current job, valid for the current epoch. `None` between
    /// rounds. Guarded by `job_lock`; `wake` is its condvar.
    job: Mutex<Option<Job>>,
    wake: Condvar,
    /// Helpers still running the current job.
    remaining: AtomicUsize,
    done_lock: Mutex<()>,
    done: Condvar,
    /// First panic message out of a helper this round, if any.
    panic: Mutex<Option<String>>,
}

/// A type-erased borrow of the caller's job closure. The raw pointer is
/// only dereferenced between publication and the completion barrier in
/// [`WorkerPool::run`], which outlives the borrow by construction (the
/// completion wait happens even if the caller's own share of the work
/// panics — see `WaitForHelpers`).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (the closure is shared by reference
// across workers) and the pointer never outlives `run`'s borrow.
unsafe impl Send for Job {}

/// A persistent pool of `workers - 1` parked threads plus the caller.
///
/// [`run`](WorkerPool::run) hands every worker (including the caller,
/// as index 0) the same closure; workers split the actual items among
/// themselves, typically via an atomic cursor captured by the closure.
/// Creation is the expensive part (one OS thread per extra worker) —
/// create a pool once per explainer/benchmark/server worker and reuse
/// it across explanations; `run` itself costs at most a few
/// microseconds of handoff.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

impl WorkerPool {
    /// A pool of `workers` total workers (clamped to at least 1). One
    /// is the calling thread itself, so `workers - 1` threads are
    /// spawned; `WorkerPool::new(1)` spawns nothing and
    /// [`run`](WorkerPool::run) executes jobs inline.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            job: Mutex::new(None),
            wake: Condvar::new(),
            remaining: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let handles = (1..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("comet-pool-{index}"))
                    .spawn(move || helper_loop(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles, workers }
    }

    /// Total workers, including the calling thread.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(worker_index)` on every worker concurrently; the caller
    /// executes index 0. Returns once every worker has finished.
    ///
    /// A panic in a helper is caught at the pool boundary (so the pool
    /// survives) and re-raised on the caller after the round completes;
    /// a panic in the caller's own share unwinds normally, after
    /// blocking until the helpers are done (the closure borrows the
    /// caller's stack).
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() {
            f(0);
            return;
        }
        self.shared.remaining.store(self.handles.len(), Ordering::Release);
        {
            let mut job = lock(&self.shared.job);
            // SAFETY: erases the borrow's lifetime. `WaitForHelpers`
            // below guarantees — even under unwinding — that `run` does
            // not return before every helper has finished with the
            // pointer, and helpers never touch a job from a past epoch.
            *job = Some(Job(unsafe {
                std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                    f as *const _,
                )
            }));
            self.shared.epoch.fetch_add(1, Ordering::Release);
            self.shared.wake.notify_all();
        }
        let barrier = WaitForHelpers(&self.shared);
        f(0);
        drop(barrier);
        if let Some(message) = lock(&self.shared.panic).take() {
            panic!("pool worker panicked: {message}");
        }
    }
}

/// Completion barrier for [`WorkerPool::run`], enforced through `Drop`
/// so it holds even when the caller's share of the job panics.
struct WaitForHelpers<'a>(&'a PoolShared);

impl Drop for WaitForHelpers<'_> {
    fn drop(&mut self) {
        let mut spins = 0u32;
        while self.0.remaining.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                let guard = lock(&self.0.done_lock);
                if self.0.remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                // Timed wait: immune to missed wakeups by construction.
                let _ = self.0.done.wait_timeout(guard, Duration::from_millis(1));
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = lock(&self.shared.job);
            self.shared.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn helper_loop(shared: &PoolShared, index: usize) {
    let mut seen = 0u64;
    loop {
        // Spin on the epoch, then park.
        let mut spins = 0u32;
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if shared.epoch.load(Ordering::Acquire) != seen {
                break;
            }
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                let guard = lock(&shared.job);
                if shared.epoch.load(Ordering::Acquire) == seen
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    // Timed wait: immune to missed wakeups.
                    let _ = shared.wake.wait_timeout(guard, Duration::from_millis(50));
                }
            }
        }
        seen = shared.epoch.load(Ordering::Acquire);
        let job = lock(&shared.job).expect("epoch advanced without a job");
        // SAFETY: `run` keeps the pointee alive until `remaining` hits
        // zero, which this helper only signals after the call returns.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index) }));
        if let Err(payload) = result {
            let mut slot = lock(&shared.panic);
            if slot.is_none() {
                *slot = Some(panic_payload_message(&*payload));
            }
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = lock(&shared.done_lock);
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_indices() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |i, &x| (i as u64) * 1000 + x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Ok((i as u64) * 1000 + i as u64));
        }
    }

    #[test]
    fn handles_empty_input() {
        let items: Vec<u64> = Vec::new();
        let out: Vec<Result<u64, ParPanic>> = par_map(&items, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn strict_map_passes_through_healthy_workers() {
        let items: Vec<u64> = (0..10).collect();
        let out = par_map_strict(&items, |_, &x| x + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn pre_cancelled_token_runs_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<u64> = (0..20).collect();
        let out = par_map_cancellable(&items, &token, |_, &x| x);
        assert_eq!(out.len(), 20);
        assert!(out.iter().all(|slot| slot.is_none()));
    }

    #[test]
    fn cancellation_mid_run_drains_started_items() {
        let items: Vec<u64> = (0..200).collect();
        let token = CancelToken::after_polls(10);
        let out = par_map_cancellable(&items, &token, |_, &x| x * 2);
        assert!(token.is_cancelled());
        assert_eq!(out.len(), 200);
        let done = out.iter().flatten().count();
        // Strictly fewer than all items ran, and every completed slot
        // holds the right answer.
        assert!(done < 200, "expected an interrupted run, all items completed");
        for (i, slot) in out.iter().enumerate() {
            if let Some(result) = slot {
                assert_eq!(*result, Ok(i as u64 * 2));
            }
        }
    }

    #[test]
    fn uncancelled_token_is_transparent() {
        let items: Vec<u64> = (0..30).collect();
        let token = CancelToken::new();
        let out = par_map_cancellable(&items, &token, |_, &x| x + 7);
        assert!(out.iter().enumerate().all(|(i, slot)| *slot == Some(Ok(i as u64 + 7))));
        assert!(!token.is_cancelled());
    }

    #[test]
    fn panicking_item_is_isolated() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<u64> = (0..50).collect();
        let out = par_map(&items, |i, &x| {
            if i == 17 {
                panic!("boom on {i}");
            }
            x * 2
        });
        std::panic::set_hook(prev);
        for (i, v) in out.iter().enumerate() {
            if i == 17 {
                let err = v.as_ref().unwrap_err();
                assert_eq!(err.index, 17);
                assert!(err.message.contains("boom on 17"), "{}", err.message);
            } else {
                assert_eq!(*v, Ok(i as u64 * 2));
            }
        }
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(&|w| {
            assert_eq!(w, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_worker_participates_once_per_run() {
        let pool = WorkerPool::new(4);
        for _ in 0..50 {
            let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.run(&|w| {
                seen[w].fetch_add(1, Ordering::Relaxed);
            });
            for (w, count) in seen.iter().enumerate() {
                assert_eq!(count.load(Ordering::Relaxed), 1, "worker {w}");
            }
        }
    }

    #[test]
    fn pool_splits_work_via_shared_cursor() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..1000).collect();
        let total = AtomicU64::new(0);
        let cursor = AtomicUsize::new(0);
        pool.run(&|_| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            total.fetch_add(items[i], Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000 * 999 / 2);
    }

    #[test]
    fn helper_panic_is_reraised_and_pool_survives() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 1 {
                    panic!("helper exploded");
                }
            });
        }));
        std::panic::set_hook(prev);
        let message = panic_payload_message(&*result.unwrap_err());
        assert!(message.contains("helper exploded"), "{message}");
        // The pool is still usable after the panic round.
        let hits = AtomicUsize::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
