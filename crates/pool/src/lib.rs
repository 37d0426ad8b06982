#![forbid(unsafe_code)]
//! The workspace's one fan-out: [`map`] over scoped threads.
//!
//! [`map`] is how the workspace spreads work across threads: the
//! campaign engine's points, hence every figure sweep, and the input
//! generators' edge chunks, CSR chunks and hpc-db kernels in
//! `vr-workloads`. `f` runs on the calling thread plus `threads - 1`
//! scoped threads ([`WorkerPool::run`]), each claiming the next item
//! until none is left, and the results come back in item order.
//!
//! The threads live for one call and nothing is shared between calls,
//! so a `map` closure may itself call `map`, and calls from different
//! threads run side by side.
//!
//! Panic contract: a panic in `f` resumes on the caller with its own
//! payload, at any thread count, once every thread has returned.

use std::panic::resume_unwind;
use std::sync::Mutex;

/// CPUs this process may run on (`available_parallelism`, which
/// honours the affinity mask), or 1 when the platform cannot say.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item on up to `threads` threads and returns
/// the results **in input order**.
///
/// `threads <= 1` (or fewer than two items) runs inline on the calling
/// thread, front to back. Anything else runs `f` on the caller and
/// `threads - 1` scoped threads, each claiming one item at a time.
/// Items are owned, so a worker can be handed a `&mut` chunk or a
/// value of its own; pass `&slice` to lend the elements instead.
///
/// *Why per item:* the points of a sweep are whole simulations
/// (milliseconds at the smallest scale the harness runs) and the
/// generators hand over one chunk per thread, so one lock per claim is
/// noise, while claiming several at once can only strand a slow item
/// behind its batch-mates at the tail.
///
/// # Panics
///
/// A panic in `f` resumes here with its own payload once every thread
/// has returned.
pub fn map<I, R, F>(threads: usize, items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items: Vec<I::Item> = items.into_iter().collect();
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    // The lock is held only to take an item, which cannot panic; a
    // `while let` on the lock itself would hold it through `f`.
    let next = || queue.lock().expect("queue lock is never poisoned").next();
    let mut done: Vec<(usize, R)> = WorkerPool::new(threads)
        .run(threads, &|_| {
            let mut done = Vec::new();
            while let Some((i, item)) = next() {
                done.push((i, f(item)));
            }
            done
        })
        .into_iter()
        .flatten()
        .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The scoped fan-out [`map`] is built on: up to `size` threads for the
/// length of one [`WorkerPool::run`] call, the caller among them. It
/// holds no threads between calls.
#[derive(Debug)]
pub struct WorkerPool {
    size: usize,
}

impl WorkerPool {
    /// A fan-out of `size.max(1)` threads.
    pub fn new(size: usize) -> WorkerPool {
        WorkerPool { size: size.max(1) }
    }

    /// Runs `f(0)` on the calling thread and `f(1)` … `f(active - 1)`
    /// on scoped threads (`active` clamped to `1..=size`), and returns
    /// their results in index order once all have returned.
    ///
    /// # Panics
    ///
    /// A panic in any `f` call resumes here with its own payload once
    /// every thread has returned.
    pub fn run<R, F>(&self, active: usize, f: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let active = active.clamp(1, self.size);
        std::thread::scope(|s| {
            let spawned: Vec<_> = (1..active).map(|i| s.spawn(move || f(i))).collect();
            let mut out = Vec::with_capacity(active);
            out.push(f(0));
            for h in spawned {
                out.push(h.join().unwrap_or_else(|panic| resume_unwind(panic)));
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// What a test thread sends on `rx`, failing the test instead of
    /// hanging it when nothing arrives within 30 s (a deadlock).
    fn within_30s<R>(rx: &mpsc::Receiver<R>) -> R {
        rx.recv_timeout(Duration::from_secs(30)).expect("returns without deadlock")
    }

    /// The message of a `panic!` payload.
    fn message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .expect("panic payload is a message")
    }

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
    #[should_panic(expected = "injected worker failure")]
    fn map_propagates_a_worker_panic() {
        // A panicking closure must surface to the caller with its own
        // message, not strand the sweep with a missing result. All
        // threads finish first, so none outlives the borrowed items.
        let items: Vec<u64> = (0..64).collect();
        let fail = |&x: &u64| {
            assert!(x != 33, "injected worker failure");
            x
        };
        let inline = catch_unwind(|| map(1, &items, fail)).expect_err("threads=1 must panic");
        assert_eq!(message(&*inline), "injected worker failure");
        let _ = map(4, &items, fail);
    }

    #[test]
    fn map_survives_an_earlier_panicked_call() {
        let items: Vec<u64> = (0..16).collect();
        let caught = catch_unwind(|| map(2, &items, |&x| assert!(x != 5, "injected")));
        assert!(caught.is_err());
        assert_eq!(map(2, &items, |x| x + 1), (1..17).collect::<Vec<u64>>());
    }

    #[test]
    fn a_map_closure_may_call_map() {
        // A scheduler with one turn per process deadlocks here: the
        // inner call waits for the turn its own caller holds.
        let (tx, rx) = mpsc::channel();
        let runner =
            std::thread::spawn(move || tx.send(map(4, 0..8u64, |x| map(4, 0..x, |y| x * 100 + y))));
        let nested = within_30s(&rx);
        runner.join().unwrap().unwrap();
        let want: Vec<Vec<u64>> = (0..8).map(|x| (0..x).map(|y| x * 100 + y).collect()).collect();
        assert_eq!(nested, want);
    }

    #[test]
    fn concurrent_callers_each_get_their_results_in_order() {
        // Each call's first item waits for the other's, so this passes
        // only when both calls run at once.
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let items: Vec<u64> = (0..200).collect();
            let both = Barrier::new(2);
            let call = |k: u64| {
                map(3, &items, |&x| {
                    if x == 0 {
                        both.wait();
                    }
                    x * k
                })
            };
            tx.send(std::thread::scope(|s| {
                let a = s.spawn(|| call(2));
                let b = s.spawn(|| call(3));
                (a.join().unwrap(), b.join().unwrap())
            }))
        });
        let (doubled, tripled) = within_30s(&rx);
        runner.join().unwrap().unwrap();
        let want = |k: u64| (0..200).map(|x| x * k).collect::<Vec<u64>>();
        assert_eq!(doubled, want(2));
        assert_eq!(tripled, want(3));
    }

    #[test]
    fn broadcasts_to_exactly_the_active_workers() {
        let pool = WorkerPool::new(4);
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
    fn panic_is_reraised_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|i| assert!(i != 1, "injected"));
        }));
        assert_eq!(message(&*caught.expect_err("must propagate")), "injected");
        // The pool keeps working after a call panicked.
        assert_eq!(pool.run(2, &|i| i * 10), vec![0, 10]);
    }

    #[test]
    fn cpus_is_at_least_one() {
        assert!(cpus() >= 1);
    }
}
