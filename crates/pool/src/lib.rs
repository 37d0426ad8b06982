//! The workspace's sweep scheduler: [`map`] over a persistent broadcast
//! worker pool.
//!
//! [`map`] is how the workspace fans a point list out across threads —
//! the campaign engine's points, hence every figure sweep. (Inputs are
//! built before any sweep, on scoped threads of their own in
//! `vr-workloads`.) One thread (or one item) runs inline on the caller;
//! anything else runs on one process-wide [`WorkerPool`].
//!
//! [`WorkerPool`] spawns its threads once and broadcasts jobs to them:
//! a *job* is one `&(dyn Fn(usize) + Sync)` closure that every
//! participating worker calls with its own worker index; the closure
//! does its own work distribution ([`map`] uses an atomic cursor over
//! the shared item slice).
//!
//! Lifetime contract: [`WorkerPool::run`] borrows the closure for the
//! duration of the call and **blocks until every participating worker
//! has returned from it**, so handing the (lifetime-erased) pointer to
//! long-lived pool threads is sound — no worker can touch it after
//! `run` returns. This is the same shape as `std::thread::scope`, with
//! the threads outliving the scope instead of dying with it.
//!
//! Panic contract: a panic inside the closure is caught on the worker
//! (the thread survives for the next job) and re-raised on the caller
//! as `panic!("sweep worker panicked")` after all workers finish. The
//! pool remains usable afterwards.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Applies `f` to every item on up to `threads` threads and returns
/// the results **in input order**.
///
/// `threads <= 1` (or fewer than two items) runs inline on the calling
/// thread, front to back. Anything else runs on the process-wide pool,
/// each worker claiming one item at a time from an atomic cursor.
///
/// *Why per item:* every caller's item is a whole simulation
/// (milliseconds at the smallest scale the harness runs), so one
/// `fetch_add` per item is noise, while claiming several at once can
/// only strand a slow item behind its batch-mates at the tail.
///
/// *Why process-wide:* a figure run makes many `map` calls (`all`
/// makes one per figure); one pool pays the thread spawns once per
/// process instead of once per call. It grows (is replaced) when a
/// call asks for more threads than it has. Calls from different
/// threads take turns, so **`f` must not call `map`**: the inner call
/// would wait forever for the turn its own caller holds.
///
/// # Panics
///
/// A panic in `f` on the pool is re-raised here as
/// `"sweep worker panicked"` once every worker has finished; inline, it
/// unwinds as itself.
pub fn map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    static POOL: Mutex<Option<WorkerPool>> = Mutex::new(None);
    let cursor = AtomicUsize::new(0);
    let tagged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    {
        // A re-raised worker panic poisons this lock; the pool itself
        // survives panics, so recover rather than cascade.
        let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.as_ref().is_none_or(|p| p.size() < threads) {
            *pool = Some(WorkerPool::new(threads));
        }
        pool.as_ref().expect("pool installed above").run(threads, &|_worker| {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                local.push((i, f(item)));
            }
            // One append per worker, after all its work: the lock is
            // not on the claim path.
            tagged.lock().unwrap_or_else(PoisonError::into_inner).append(&mut local);
        });
    }
    let mut tagged = tagged.into_inner().unwrap_or_else(PoisonError::into_inner);
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// A broadcast job: a lifetime-erased pointer to the caller's closure.
/// Sound to send across threads because [`WorkerPool::run`] keeps the
/// referent alive (and the caller blocked) until every worker is done
/// with it.
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is only dereferenced by pool workers between the
// generation bump that publishes it and the `remaining == 0` handshake
// that unblocks `run` — a window during which the caller guarantees
// the referent is alive and borrowed shared.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per submitted job; workers sleep until it moves.
    generation: u64,
    job: Option<Job>,
    /// Workers participating in the current job (indices `0..active`).
    active: usize,
    /// Participating workers that have not finished the job yet.
    remaining: usize,
    /// Whether any worker's closure call panicked this job.
    panicked: bool,
    shutdown: bool,
}

struct Inner {
    state: Mutex<PoolState>,
    /// Signalled on job publish and on shutdown.
    work_cv: Condvar,
    /// Signalled when the last participating worker finishes a job.
    done_cv: Condvar,
}

impl Inner {
    /// Mutex poisoning cannot leave `PoolState` inconsistent (no
    /// invariant spans a panic point under the lock), so recover
    /// instead of propagating a poisoned-lock panic.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("size", &self.handles.len()).finish_non_exhaustive()
    }
}

/// A fixed-size pool of persistent worker threads that repeatedly
/// execute broadcast jobs (see the module docs for the contracts).
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Serializes [`WorkerPool::run`] callers: one job in flight at a
    /// time (the state machine tracks a single generation).
    submit: Mutex<()>,
}

impl WorkerPool {
    /// Spawns a pool of `size.max(1)` worker threads.
    pub fn new(size: usize) -> WorkerPool {
        let size = size.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                active: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..size)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("vr-pool-{index}"))
                    .spawn(move || worker_loop(&inner, index))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, handles, submit: Mutex::new(()) }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f(index)` on workers `0..active.min(size)` concurrently
    /// and blocks until all of them return. Concurrent `run` calls
    /// from different threads serialize (the pool executes one job at
    /// a time); `run` must not be called from inside a job closure
    /// (the nested call would deadlock on the in-flight job).
    ///
    /// # Panics
    ///
    /// Panics with `"sweep worker panicked"` if any worker's `f` call
    /// panicked (after every worker has finished; the pool survives).
    pub fn run(&self, active: usize, f: &(dyn Fn(usize) + Sync)) {
        let active = active.clamp(1, self.size());
        let _turn = self.submit.lock().unwrap_or_else(PoisonError::into_inner);
        // Erase the borrow lifetime: see the module docs — `run` keeps
        // the referent alive until every worker is done.
        let job = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        });
        let mut st = self.inner.lock();
        st.job = Some(job);
        st.active = active;
        st.remaining = active;
        st.panicked = false;
        st.generation += 1;
        self.inner.work_cv.notify_all();
        while st.remaining > 0 {
            st = self.inner.done_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        if panicked {
            // The worker's panic payload was already reported by the
            // panic hook at the panic site; re-raise under the pool's
            // stable message (the one callers' tests pin).
            panic!("sweep worker panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, index: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job_ptr = {
            let mut st = inner.lock();
            while !st.shutdown && st.generation == seen_generation {
                st = inner.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if st.shutdown {
                return;
            }
            seen_generation = st.generation;
            if index >= st.active {
                // Not participating in this job; wait for the next.
                continue;
            }
            st.job.as_ref().expect("published job").0
        };
        // Call outside the lock so workers actually run concurrently.
        // SAFETY: `run` keeps the closure alive until `remaining`
        // reaches 0, which this worker only signals after returning.
        let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (*job_ptr)(index) })).is_ok();
        let mut st = inner.lock();
        if !ok {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            inner.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8, 128] {
            assert_eq!(map(threads, &items, |x| x * x), serial, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: [u64; 0] = [];
        assert_eq!(map(8, &empty, |x| *x), Vec::<u64>::new());
        assert_eq!(map(8, &[7u64], |x| x + 1), vec![8]);
        assert_eq!(map(0, &[7u64, 8], |x| x + 1), vec![8, 9], "0 threads runs inline");
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn map_propagates_a_worker_panic() {
        // A panicking closure must surface to the caller, not strand
        // the sweep with a missing result. All workers finish first,
        // so no thread outlives the borrowed items.
        let items: Vec<u64> = (0..64).collect();
        let _ = map(4, &items, |&x| {
            assert!(x != 33, "injected worker failure");
            x
        });
    }

    #[test]
    fn map_survives_an_earlier_panicked_call() {
        let items: Vec<u64> = (0..16).collect();
        let caught = catch_unwind(|| map(2, &items, |&x| assert!(x != 5, "injected")));
        assert!(caught.is_err());
        assert_eq!(map(2, &items, |x| x + 1), (1..17).collect::<Vec<u64>>());
    }

    #[test]
    fn broadcasts_to_exactly_the_active_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.size(), 4);
        for active in [1, 2, 4, 9] {
            let seen = Mutex::new(Vec::new());
            pool.run(active, &|i| {
                seen.lock().unwrap().push(i);
            });
            let mut v = seen.into_inner().unwrap();
            v.sort_unstable();
            let expect: Vec<usize> = (0..active.min(4)).collect();
            assert_eq!(v, expect, "active={active}");
        }
    }

    #[test]
    fn reuses_threads_across_many_jobs() {
        let pool = WorkerPool::new(3);
        let hits = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(3, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn panic_is_reraised_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|i| assert!(i != 1, "injected"));
        }));
        let msg = *caught.expect_err("must propagate").downcast::<&str>().unwrap();
        assert_eq!(msg, "sweep worker panicked");
        // The pool keeps working after a job panicked.
        let hits = AtomicUsize::new(0);
        pool.run(2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_submitters_serialize_safely() {
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        pool.run(2, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25 * 2);
    }
}
