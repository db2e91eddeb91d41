//! Deterministic work partitioning over a persistent worker pool.
//!
//! Every parallel path in the workspace follows the same recipe: split the
//! work into `t` units, give unit `w` the strided slice `w, w + t, w + 2t, …`
//! of some index space, and fold the units' results **in unit order** so the
//! fold is deterministic. This module is that recipe in one place — the
//! session pump, the work-optimal parallel detector and the
//! multi-token group walks all partition through it, so the bit-identity
//! argument ("which thread ran a unit cannot change the merged result") is
//! made once.
//!
//! # The pool
//!
//! Units run on one process-wide pool, not on threads spawned per call:
//! the parallel detector dispatches once per round and the session pump
//! once per tick, and a spawn/join per call cost more than the work it
//! split. The pool is the caller plus parked workers started on first use,
//! as many threads as the host's available parallelism and at least 2, so
//! the concurrent path runs (and is tested) on a single-CPU host too.
//!
//! A dispatch publishes the job under a new *generation* number,
//! unparks the workers it needs, and then claims units itself; units are
//! claimed one at a time under the pool lock, so a worker that wakes late
//! finds its share already done by the caller. The dispatch returns once
//! every claimed unit has finished — a generation-counter barrier. A worker
//! that runs out of units spins on the generation for 50 µs before parking
//! again, so back-to-back rounds skip the wake-up.
//!
//! The workers outlive any caller's stack frame, so a job owns what it
//! reads: callers share large inputs through an [`Arc`] and move small
//! per-call inputs in.
//!
//! Units must not wait on one another: a dispatch that finds the pool busy
//! (a nested call from inside a unit, or a concurrent call from another
//! thread) runs its units one after another on the calling thread. The
//! results are the same either way.
//!
//! Fan-out pays only above a grain of work; [`width`] is the sequential
//! cutoff the detector rounds and the session pump apply before
//! dispatching.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long an idle worker spins on the generation counter before it
/// parks, and how long a dispatching caller spins on the completion count
/// before it blocks. Long enough to span the commit phase between two
/// detector rounds (a few µs), so consecutive rounds never pay a futex
/// wake-up; short enough that an idle pool stops burning a CPU well within
/// a session-pump tick (2 ms).
const SPIN: Duration = Duration::from_micros(50);

/// Runs `work(w)` for `w ∈ 0..threads` on the worker pool and returns the
/// results **indexed by unit** (`out[w] == work(w)`), so folding the
/// results is independent of which thread ran which unit.
///
/// With `threads <= 1` the single unit runs on the calling thread — the
/// serial fallback shares the exact code path of the parallel one, which is
/// what makes "bit-identical at every thread count" hold by construction
/// for callers whose `work` is a pure function of its unit index. At most
/// the pool's thread count of units run at once; units must not wait on
/// one another.
///
/// # Panics
///
/// Propagates a panic from any unit, with its original payload, once every
/// other claimed unit has finished.
pub fn scoped_workers<R, F>(threads: usize, work: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    if threads <= 1 {
        return vec![work(0)];
    }
    Pool::global().run(threads, work)
}

/// Maps `f` over `0..total` on `threads` strided units of the pool
/// ([`scoped_workers`] + [`strided`]) and returns the results in index
/// order (`out[i] == f(i)`), whichever unit computed each index.
pub fn strided_map<T, F>(threads: usize, total: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let threads = threads.clamp(1, total.max(1));
    let parts = scoped_workers(threads, move |w| {
        strided(w, threads, total).map(&f).collect::<Vec<T>>()
    });
    let mut parts: Vec<std::vec::IntoIter<T>> = parts.into_iter().map(Vec::into_iter).collect();
    (0..total)
        .map(|i| {
            parts[i % threads]
                .next()
                .expect("strided units cover every index once")
        })
        .collect()
}

/// Worker `first`'s strided share of the index space `0..total` under
/// `step` workers: `first, first + step, first + 2·step, …`.
///
/// Strided ownership balances load when per-index cost drifts along the
/// index space, and the shares of `step` workers partition `0..total`
/// exactly.
///
/// # Panics
///
/// Panics if `step == 0`.
pub fn strided(first: usize, step: usize, total: usize) -> impl Iterator<Item = usize> {
    assert!(step >= 1, "stride step must be at least 1");
    (first..total).step_by(step)
}

/// The sequential cutoff: how many of `threads` units to split `items`
/// independent items into so that every unit gets at least `grain` of them
/// — `min(threads, items / grain)`, and at least 1. Below one grain per
/// unit a dispatch costs more than it saves, and a width of 1 runs on the
/// calling thread without touching the pool.
pub fn width(threads: usize, items: usize, grain: usize) -> usize {
    threads.min(items / grain.max(1)).max(1)
}

/// A published job: runs one unit and stores its outcome.
type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// The job currently being dispatched and its claim counter.
struct Slot {
    job: Option<Job>,
    units: usize,
    next: usize,
}

/// State shared by a pool's workers and its dispatching caller.
struct Shared {
    slot: Mutex<Slot>,
    /// Bumped once per dispatch, after the slot is filled: what idle
    /// workers spin and park on.
    generation: AtomicU64,
    /// Units of the current job that have finished running.
    done: AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    shutdown: AtomicBool,
}

/// Locks `m`, recovering the guard if a holder panicked: every critical
/// section guarded here is a plain assignment, so the data is valid at
/// every step, and the pool's bookkeeping must not unwind mid-dispatch.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spins until `ready()` holds or the 50 µs spin budget elapses; returns
/// `ready()`. The pool's idle workers wait this way before they park.
fn spin(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN {
            return ready();
        }
    }
}

impl Shared {
    /// Claims and runs units of the current job until none is left.
    fn run_units(&self) {
        loop {
            let (job, w, units) = {
                let mut slot = lock(&self.slot);
                match &slot.job {
                    Some(job) if slot.next < slot.units => {
                        let job = Arc::clone(job);
                        slot.next += 1;
                        (job, slot.next - 1, slot.units)
                    }
                    _ => return,
                }
            };
            job(w);
            drop(job);
            // Release pairs with `wait_done`'s Acquire load: the unit's
            // outcome, stored before this increment, is visible to the
            // dispatcher once it reads the final count.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == units {
                drop(lock(&self.done_lock));
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until `units` units of the current job have finished.
    fn wait_done(&self, units: usize) {
        let finished = || self.done.load(Ordering::Acquire) == units;
        if spin(finished) {
            return;
        }
        // The last finisher increments `done` before it takes `done_lock`
        // to notify, so checking under the lock cannot miss its wake-up.
        let mut guard = lock(&self.done_lock);
        while !finished() {
            guard = self
                .done_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A worker thread's life: wait for a new generation, help run it,
    /// repeat until shutdown.
    fn work_loop(&self) {
        let mut seen = 0;
        loop {
            let fresh = || {
                self.generation.load(Ordering::Acquire) != seen
                    || self.shutdown.load(Ordering::Acquire)
            };
            if !spin(fresh) {
                // An `unpark` that lands before our `park` leaves a token,
                // so a dispatch between the check and the park is not lost.
                while !fresh() {
                    thread::park();
                }
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            seen = self.generation.load(Ordering::Acquire);
            self.run_units();
        }
    }
}

/// Outcomes of one dispatch's units, filled in by whichever thread ran
/// each unit.
struct Outcomes<R> {
    results: Vec<Mutex<Option<R>>>,
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A set of parked worker threads that run the units of one dispatch at a
/// time.
struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Held by the one dispatch currently using the workers.
    busy: AtomicBool,
}

impl Pool {
    /// The process-wide pool, started on first use and never shut down.
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cpus = thread::available_parallelism().map_or(1, NonZeroUsize::get);
            Pool::new(cpus.max(2) - 1)
        })
    }

    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: None,
                units: 0,
                next: 0,
            }),
            generation: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("wcp-par-{i}"))
                    .spawn(move || shared.work_loop())
                    .expect("the OS refused to start a pool worker thread")
            })
            .collect();
        Pool {
            shared,
            workers,
            busy: AtomicBool::new(false),
        }
    }

    /// Runs `work(w)` for `w ∈ 0..units` on this pool's workers and the
    /// calling thread; see [`scoped_workers`].
    fn run<R, F>(&self, units: usize, work: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        if units <= 1 || self.busy.swap(true, Ordering::Acquire) {
            return (0..units.max(1)).map(work).collect();
        }
        let outcomes = Arc::new(Outcomes {
            results: (0..units).map(|_| Mutex::new(None)).collect(),
            panicked: Mutex::new(None),
        });
        let job: Job = {
            let outcomes = Arc::clone(&outcomes);
            Arc::new(
                move |w| match panic::catch_unwind(AssertUnwindSafe(|| work(w))) {
                    Ok(r) => *lock(&outcomes.results[w]) = Some(r),
                    Err(payload) => {
                        lock(&outcomes.panicked).get_or_insert(payload);
                    }
                },
            )
        };
        // Relaxed suffices: the slot lock below publishes the reset to any
        // worker before it can claim (and later count) a unit of this job.
        self.shared.done.store(0, Ordering::Relaxed);
        *lock(&self.shared.slot) = Slot {
            job: Some(job),
            units,
            next: 0,
        };
        self.shared.generation.fetch_add(1, Ordering::Release);
        for worker in self.workers.iter().take(units - 1) {
            worker.thread().unpark();
        }
        self.shared.run_units();
        self.shared.wait_done(units);
        lock(&self.shared.slot).job = None;
        self.busy.store(false, Ordering::Release);
        if let Some(payload) = lock(&outcomes.panicked).take() {
            panic::resume_unwind(payload);
        }
        outcomes
            .results
            .iter()
            .map(|r| lock(r).take().expect("every unit ran exactly once"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for worker in &self.workers {
            worker.thread().unpark();
        }
        for worker in self.workers.drain(..) {
            // Units never unwind out of a worker (the job catches their
            // panics), so a join error has nothing left to report.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;

    #[test]
    fn results_are_indexed_by_worker() {
        for threads in 1..=8 {
            let out = scoped_workers(threads, |w| w * 10);
            assert_eq!(out, (0..threads.max(1)).map(|w| w * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_threads_runs_one_unit_on_the_caller() {
        assert_eq!(scoped_workers(0, |w| w + 1), vec![1]);
    }

    #[test]
    fn strided_map_returns_results_in_index_order() {
        for threads in 0..=5 {
            for total in 0..20 {
                let out = strided_map(threads, total, |i| i * i);
                assert_eq!(out, (0..total).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn units_run_concurrently_on_the_same_persistent_worker() {
        // Unit 0 cannot finish before unit 1 has started, so the two run on
        // different threads: the caller and the pool's one worker, which
        // every dispatch reuses.
        let pool = Pool::new(1);
        let caller = thread::current().id();
        let mut helpers = HashSet::new();
        for _ in 0..50 {
            let (started, wait) = mpsc::channel();
            let wait = Mutex::new(wait);
            let ids = pool.run(2, move |w| {
                if w == 0 {
                    lock(&wait).recv().expect("unit 1 signals its start");
                } else {
                    started.send(()).expect("unit 0 is waiting");
                }
                thread::current().id()
            });
            assert_ne!(ids[0], ids[1]);
            helpers.extend(ids.into_iter().filter(|&id| id != caller));
        }
        assert_eq!(helpers.len(), 1);
    }

    #[test]
    fn a_panic_surfaces_after_every_other_unit_finished() {
        let pool = Pool::new(1);
        let finished = Arc::new(AtomicBool::new(false));
        let (panicking, wait) = mpsc::channel();
        let wait = Mutex::new(wait);
        let flag = Arc::clone(&finished);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, move |w| {
                if w == 1 {
                    panicking.send(()).expect("unit 0 is waiting");
                    panic!("unit 1 failed");
                }
                lock(&wait).recv().expect("unit 1 signals first");
                flag.store(true, Ordering::SeqCst);
            })
        }))
        .expect_err("the unit's panic propagates");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"unit 1 failed"));
        assert!(
            finished.load(Ordering::SeqCst),
            "returned before unit 0 ended"
        );
        assert_eq!(pool.run(3, |w| w + 1), vec![1, 2, 3], "pool still usable");
    }

    #[test]
    fn a_nested_dispatch_runs_inline() {
        let pool = Arc::new(Pool::new(1));
        let inner = Arc::clone(&pool);
        let out = pool.run(2, move |w| inner.run(3, move |v| 10 * w + v));
        assert_eq!(out, vec![vec![0, 1, 2], vec![10, 11, 12]]);
    }

    #[test]
    fn concurrent_callers_share_the_global_pool() {
        thread::scope(|s| {
            for t in 0..4usize {
                s.spawn(move || {
                    for round in 0..200 {
                        let out = scoped_workers(3, move |w| t * 1000 + round * 10 + w);
                        let want: Vec<usize> = (0..3).map(|w| t * 1000 + round * 10 + w).collect();
                        assert_eq!(out, want);
                    }
                });
            }
        });
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = Pool::new(3);
        let shared = Arc::downgrade(&pool.shared);
        assert_eq!(pool.run(4, |w| w), vec![0, 1, 2, 3]);
        drop(pool);
        assert!(shared.upgrade().is_none(), "a worker outlived its pool");
    }

    #[test]
    fn width_applies_the_grain() {
        assert_eq!(width(2, 10, 64), 1);
        assert_eq!(width(2, 128, 64), 2);
        assert_eq!(width(8, 200, 64), 3);
        assert_eq!(width(8, 10_000, 64), 8);
        assert_eq!(width(0, 10_000, 64), 1);
        assert_eq!(width(4, 3, 0), 3);
    }

    #[test]
    fn strided_shares_partition_the_space() {
        for step in 1..=5 {
            for total in 0..20 {
                let mut seen = vec![false; total];
                for first in 0..step {
                    for i in strided(first, step, total) {
                        assert!(!seen[i], "index {i} owned twice");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "step {step} total {total}");
            }
        }
    }

    #[test]
    fn strided_is_ascending() {
        let share: Vec<usize> = strided(2, 3, 14).collect();
        assert_eq!(share, vec![2, 5, 8, 11]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_step_panics() {
        let _ = strided(0, 0, 4).count();
    }
}
