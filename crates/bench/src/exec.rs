//! The replication-sharding execution layer: a pool of scoped worker
//! threads that runs an experiment's independent replication units
//! across cores.
//!
//! Design:
//!
//! * one FIFO job queue (`Mutex<VecDeque>` plus a `Condvar`) shared by
//!   every worker and every submitting driver: a submit pushes and
//!   wakes one idle worker, a worker pops the oldest job or sleeps
//!   until one arrives;
//! * [`map`] fans a `Vec` of units out as one job per unit and
//!   reassembles the results **in unit order**, so the merged output
//!   is byte-identical no matter how many workers ran or in which
//!   order they finished;
//! * workers are scoped threads: [`Pool::with`] joins them before it
//!   returns, so a pool can never outlive the driver that created it.
//!
//! Worker-count selection (the CLI argument, else the detected core
//! count) lives in [`resolve_workers`].

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// A unit of work scheduled on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A pool of scoped worker threads draining one FIFO job queue.
///
/// Created with [`Pool::with`]; shared by reference (`&Pool`) with any
/// number of submitting threads. Dropping out of `with` shuts the
/// workers down and joins them.
pub struct Pool {
    /// Pending jobs, oldest first, and the shutdown flag.
    queue: Mutex<(VecDeque<Job>, bool)>,
    /// Signalled on every submit and on shutdown.
    ready: Condvar,
    workers: usize,
}

impl Pool {
    /// Run `f` with a pool of `workers` threads, then shut the pool
    /// down and join every worker before returning.
    ///
    /// `workers == 0` is clamped to 1. With one worker the pool still
    /// works but [`map`] short-circuits to inline execution, so a
    /// 1-worker pool is exactly the serial path.
    pub fn with<R>(workers: usize, f: impl FnOnce(&Pool) -> R) -> R {
        let workers = workers.max(1);
        let pool =
            Pool { queue: Mutex::new((VecDeque::new(), false)), ready: Condvar::new(), workers };
        std::thread::scope(|scope| {
            let pool = &pool;
            for _ in 0..workers {
                scope.spawn(move || pool.worker_loop());
            }
            // Catch a panicking driver (e.g. a unit panic re-raised by
            // [`map`]) so the shutdown flag is always set: otherwise
            // the workers never exit and the scope join hangs forever.
            let result = catch_unwind(AssertUnwindSafe(|| f(pool)));
            pool.queue.lock().expect("pool queue lock").1 = true;
            pool.ready.notify_all();
            match result {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            }
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queue one job for the next free worker.
    fn submit(&self, job: Job) {
        self.queue.lock().expect("pool queue lock").0.push_back(job);
        self.ready.notify_one();
    }

    /// Run queued jobs oldest first; exit once shutdown is flagged and
    /// the queue is empty.
    fn worker_loop(&self) {
        let mut queue = self.queue.lock().expect("pool queue lock");
        loop {
            if let Some(job) = queue.0.pop_front() {
                drop(queue);
                job();
                queue = self.queue.lock().expect("pool queue lock");
            } else if queue.1 {
                return;
            } else {
                queue = self.ready.wait(queue).expect("pool queue lock");
            }
        }
    }
}

/// Run `f` over every unit on the pool and return the results in unit
/// order (deterministic merge regardless of worker count or completion
/// order).
///
/// A unit that panics re-raises the panic on the calling thread and
/// cancels the units still queued, mirroring serial behavior.
/// With a single worker, or a single unit, everything runs inline on
/// the caller — the exact serial code path.
pub fn map<U, P, F>(pool: &Pool, units: Vec<U>, f: F) -> Vec<P>
where
    U: Send + Sync + 'static,
    P: Send + 'static,
    F: Fn(&U) -> P + Send + Sync + 'static,
{
    let n = units.len();
    fold(pool, units, f, Vec::with_capacity(n), |mut all, partial| {
        all.push(partial);
        all
    })
}

/// Run `f` over every unit on the pool and fold the partial results
/// into `init` with `merge`, **in unit order**, as they arrive.
///
/// This is the streaming counterpart of [`map`]: instead of holding
/// every partial result until the end, the caller's accumulator
/// absorbs each one the moment all earlier units have been absorbed.
/// The queue is FIFO, so a fold's units start in unit order and a
/// partial waits in the reorder buffer only while an earlier unit is
/// still running. The buffer holds what the other workers finish
/// during that one unit's run: at most `workers − 1` partials when
/// units cost about the same, more only when one unit runs several
/// times longer than those after it — bounded by the cost spread
/// between units, never by the unit count.
///
/// The merge order is the unit order regardless of how many workers
/// ran or in which order they finished, so an order-sensitive
/// accumulator (a running digest, a float fold) produces byte-identical
/// results for any worker count. With a single worker, or a single
/// unit, everything runs inline on the caller — the exact serial path.
///
/// A unit that panics re-raises the panic on the calling thread,
/// mirroring serial behavior; the fold's units still queued at that
/// moment are skipped instead of run.
pub fn fold<U, P, A, F, M>(pool: &Pool, units: Vec<U>, f: F, init: A, mut merge: M) -> A
where
    U: Send + Sync + 'static,
    P: Send + 'static,
    F: Fn(&U) -> P + Send + Sync + 'static,
    M: FnMut(A, P) -> A,
{
    let n = units.len();
    if pool.workers() <= 1 || n <= 1 {
        return units.iter().map(f).fold(init, merge);
    }
    let units = Arc::new(units);
    let f = Arc::new(f);
    let cancelled = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    for index in 0..n {
        let units = Arc::clone(&units);
        let f = Arc::clone(&f);
        let cancelled = Arc::clone(&cancelled);
        let tx = tx.clone();
        pool.submit(Box::new(move || {
            if cancelled.load(Ordering::Relaxed) {
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| f(&units[index])));
            // A disconnected receiver means the driver already gave up
            // (another unit panicked); dropping the result is fine.
            let _ = tx.send((index, result));
        }));
    }
    drop(tx);
    let mut acc = init;
    let mut next = 0usize;
    let mut pending: BTreeMap<usize, P> = BTreeMap::new();
    for _ in 0..n {
        let (index, result) = rx.recv().expect("pool worker dropped a unit result");
        match result {
            Ok(partial) => {
                pending.insert(index, partial);
                while let Some(partial) = pending.remove(&next) {
                    acc = merge(acc, partial);
                    next += 1;
                }
            }
            Err(payload) => {
                cancelled.store(true, Ordering::Relaxed);
                resume_unwind(payload)
            }
        }
    }
    debug_assert!(pending.is_empty() && next == n, "every unit merged exactly once");
    acc
}

/// Pick the worker count: explicit `cli` argument if given, else the
/// machine's available parallelism.
pub fn resolve_workers(cli: Option<usize>) -> usize {
    cli.unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)).max(1)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    use super::*;

    #[test]
    fn map_preserves_unit_order() {
        let units: Vec<u64> = (0..100).collect();
        let out = Pool::with(4, |pool| {
            map(pool, units, |&u| {
                // Scramble completion order.
                if u % 7 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                u * 3
            })
        });
        assert_eq!(out, (0..100).map(|u| u * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn one_worker_matches_many_workers() {
        let units: Vec<u64> = (0..50).collect();
        let serial = Pool::with(1, |pool| map(pool, units.clone(), |&u| u * u));
        let parallel = Pool::with(8, |pool| map(pool, units, |&u| u * u));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pool_usable_from_concurrent_drivers() {
        Pool::with(4, |pool| {
            std::thread::scope(|scope| {
                for d in 0..6u64 {
                    scope.spawn(move || {
                        let units: Vec<u64> = (0..40).collect();
                        let out = map(pool, units, move |&u| u + d);
                        assert_eq!(out, (0..40).map(|u| u + d).collect::<Vec<u64>>());
                    });
                }
            });
        });
    }

    #[test]
    fn fold_merges_in_unit_order_for_any_worker_count() {
        // An order-sensitive accumulator: a polynomial hash of the
        // unit results. Any reordering changes the value.
        let hash = |workers: usize| {
            let units: Vec<u64> = (0..200).collect();
            Pool::with(workers, |pool| {
                fold(
                    pool,
                    units,
                    |&u| {
                        if u % 5 == 0 {
                            std::thread::sleep(Duration::from_micros(150));
                        }
                        u * 7 + 1
                    },
                    0u64,
                    |acc, p| acc.wrapping_mul(0x100000001b3).wrapping_add(p),
                )
            })
        };
        let serial = hash(1);
        assert_eq!(hash(2), serial);
        assert_eq!(hash(4), serial);
        assert_eq!(hash(7), serial);
    }

    #[test]
    fn fold_panic_propagates_to_driver() {
        let result = std::panic::catch_unwind(|| {
            Pool::with(4, |pool| {
                fold(
                    pool,
                    (0..16u64).collect::<Vec<u64>>(),
                    |&u| {
                        assert!(u != 9, "unit 9 exploded");
                        u
                    },
                    0u64,
                    |acc, p| acc + p,
                )
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn fold_panic_cancels_the_units_still_queued() {
        let ran = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&ran);
        let result = std::panic::catch_unwind(|| {
            Pool::with(2, |pool| {
                fold(
                    pool,
                    (0..64u64).collect::<Vec<u64>>(),
                    move |&u| {
                        counter.fetch_add(1, Ordering::SeqCst);
                        assert!(u != 0, "unit 0 exploded");
                        std::thread::sleep(Duration::from_millis(20));
                        u
                    },
                    0u64,
                    |acc, p| acc + p,
                )
            })
        });
        assert!(result.is_err());
        // `Pool::with` has joined every worker, so the count is final.
        let ran = ran.load(Ordering::SeqCst);
        assert!(ran < 64, "all {ran} units ran after unit 0 panicked");
    }

    #[test]
    fn unit_panic_propagates_to_driver() {
        let result = std::panic::catch_unwind(|| {
            Pool::with(4, |pool| {
                map(pool, (0..16u64).collect::<Vec<u64>>(), |&u| {
                    assert!(u != 11, "unit 11 exploded");
                    u
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let out = Pool::with(0, |pool| {
            assert_eq!(pool.workers(), 1);
            map(pool, vec![1, 2, 3], |&u: &i32| u * 2)
        });
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn resolve_workers_prefers_cli() {
        assert_eq!(resolve_workers(Some(3)), 3);
        assert!(resolve_workers(None) >= 1);
    }
}
