//! # apex-par — bounded job executors for DSE sweeps and the daemon
//!
//! APEX's evaluation is a grid of (PE variant × application) runs, and
//! several inner stages (mining per application, rewrite-rule synthesis
//! per template) are embarrassingly parallel too. This crate holds the
//! workspace's two executors, one per shape of work:
//!
//! * [`par_map`] — one batch of borrowed items, mapped on at most `jobs`
//!   scoped threads:
//!   * **bounded** — never one thread per item (the pre-pool synthesis
//!     code spawned a thread per template and oversubscribed the machine
//!     on large applications), and at one level: a `par_map` inside a
//!     `par_map` worker runs inline on that worker;
//!   * **balanced** — every worker claims the next unclaimed index from
//!     one shared atomic cursor, so a few slow items cannot strand the
//!     rest of the batch behind one worker;
//!   * **deterministic** — results come back in input order regardless
//!     of which worker ran which item, so a parallel sweep is
//!     bit-identical to the serial one;
//!   * **no-panic** — a panicking job is caught in the worker and surfaces
//!     as a [`JobPanic`] value for that item only; the map itself never
//!     unwinds (the unattended-operation policy).
//! * [`WorkerPool`] — a persistent FIFO of `'static` boxed jobs for a
//!   long-running service (`apex serve`).
//!
//! Neither executor stops a job: a job stops itself through the deadline
//! and cancel flag of its own `apex_fault::Budget`. The two stay separate
//! because running borrowed batch items on the pool's `'static` workers
//! would need unsafe lifetime erasure, and this crate forbids `unsafe`.
//!
//! Built on `std::thread` only — no registry dependencies, matching the
//! workspace's in-tree shim policy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use apex_fault::{ApexError, Stage};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A job panicked inside an executor; carries the stringified panic
/// payload.
///
/// Converted into [`ApexError`] (with this value on the cause chain) at
/// the stage boundary via [`JobPanic::into_apex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the item whose job panicked.
    pub index: usize,
    /// The panic payload, downcast to a string where possible.
    pub payload: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.payload)
    }
}

impl std::error::Error for JobPanic {}

impl JobPanic {
    /// Wraps the payload `catch_unwind` returned for item `index`,
    /// downcast to a string where possible.
    pub fn caught(index: usize, payload: Box<dyn Any + Send>) -> Self {
        let payload = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        JobPanic { index, payload }
    }

    /// Funnels the panic into the workspace error hierarchy, attributing
    /// it to the stage whose job panicked.
    pub fn into_apex(self, stage: Stage) -> ApexError {
        ApexError::with_source(stage, self)
    }
}

/// Process-wide worker-count override installed by [`set_jobs`]
/// (0 = no override).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide worker-count override consulted by
/// [`default_jobs`] before the environment; `0` clears it back to
/// automatic selection. This is where a CLI `--jobs N` flag lands so every
/// pooled stage (mining, rule synthesis, the evaluation sweep) honours it.
pub fn set_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// The number of workers to use when the caller does not specify one: the
/// [`set_jobs`] override if installed, then `APEX_JOBS` if set to a
/// positive integer, otherwise the machine's available parallelism,
/// otherwise 1.
pub fn default_jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if forced >= 1 {
        return forced;
    }
    if let Ok(v) = std::env::var("APEX_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

thread_local! {
    /// Set on the threads [`par_map`] spawns: a nested map runs inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Maps `f` over `items` on at most `jobs` worker threads, returning the
/// results **in input order**. `f` receives `(index, &item)`.
///
/// A job that panics yields `Err(JobPanic)` for its slot; every other item
/// still completes. With `jobs <= 1`, one item, or a call from inside
/// another `par_map`'s worker, everything runs inline on the caller's
/// thread with identical semantics — the serial and parallel paths are
/// the same code, which is what makes "parallel output is bit-identical
/// to serial" a structural property rather than a test hope.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<R, JobPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let run_one = |i: usize| -> Result<R, JobPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).map_err(|p| JobPanic::caught(i, p))
    };
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 || n <= 1 || IN_WORKER.with(Cell::get) {
        return (0..n).map(run_one).collect();
    }

    // each worker claims the next unclaimed index until the range is dry
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        (i < n).then_some(i)
    };
    let mut buckets: Vec<Vec<(usize, Result<R, JobPanic>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    std::iter::from_fn(claim)
                        .map(|i| (i, run_one(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // the worker body only runs caught closures; an unwind here
                // is impossible, but the no-panic policy forbids expect()
                h.join().unwrap_or_default()
            })
            .collect()
    });

    // reassemble in input order
    let mut slots: Vec<Option<Result<R, JobPanic>>> = (0..n).map(|_| None).collect();
    for bucket in buckets.drain(..) {
        for (i, r) in bucket {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or(Err(JobPanic {
                index: i,
                payload: "worker thread died before returning its results".to_owned(),
            }))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// persistent worker pool (long-running services)
// ---------------------------------------------------------------------------

/// A long-lived, bounded-worker job pool for daemon-style callers
/// (`apex serve`): jobs are boxed closures pushed onto one FIFO queue and
/// drained by a fixed set of named worker threads.
///
/// Unlike [`par_map`] — which is scoped to one batch and returns results in
/// input order — this pool runs until [`WorkerPool::shutdown`]. It never
/// rejects a job: bounding admission is the caller's policy (the daemon
/// sheds on its own job table's queued count before it submits).
///
/// Panicking jobs are caught per-job (the worker survives and keeps
/// draining), matching the workspace no-panic policy.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Taken (joined) by the first [`WorkerPool::shutdown`].
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<PoolJob>>,
    wake: Condvar,
    /// `true` once shutdown begins: workers exit instead of taking the
    /// next queued job.
    shutdown: AtomicBool,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` threads (at least 1), named `apex-pool-N`.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("apex-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // thread spawn only fails on resource exhaustion; a
                    // pool with fewer workers still drains its queue
                    .unwrap_or_else(|_| std::thread::spawn(|| {}))
            })
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Enqueues one job. Returns `false` (dropping the job) once shutdown
    /// has begun — the admission layer should have stopped submitting by
    /// then, but a racing submit must not resurrect a draining pool.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        // the flag is read under the lock `stop` raises it under
        match self.shared.queue.lock() {
            Ok(mut q) if !self.shared.shutdown.load(Ordering::SeqCst) => {
                q.push_back(Box::new(job));
                self.shared.wake.notify_one();
                true
            }
            _ => false,
        }
    }

    /// Number of worker threads (0 once shut down).
    pub fn workers(&self) -> usize {
        self.workers.lock().map_or(0, |w| w.len())
    }

    /// Stops the pool and joins every worker.
    ///
    /// Queued jobs are dropped and only the jobs already *running* are
    /// waited for (the crash-safe drain: queued work is journaled
    /// elsewhere and re-runs on resume). Running jobs are never aborted —
    /// stop them cooperatively through their budget's cancel flag before
    /// calling this if a bounded shutdown time matters. Dropped jobs are
    /// released before this returns, freeing whatever their closures hold.
    pub fn shutdown(&self) {
        self.stop();
        let workers = self.workers.lock().map(|mut w| std::mem::take(&mut *w));
        for w in workers.unwrap_or_default() {
            // worker bodies catch job panics; join failure is impossible,
            // and the no-panic policy forbids expect() regardless
            let _ = w.join();
        }
        // taken out first so the jobs are dropped outside the lock
        let abandoned = self
            .shared
            .queue
            .lock()
            .map(|mut q| std::mem::take(&mut *q));
        drop(abandoned);
    }

    /// Raises the shutdown flag under the queue lock, so no submit lands
    /// after it and no worker misses the wake-up.
    fn stop(&self) {
        let _queue = self.shared.queue.lock();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }
}

impl Drop for WorkerPool {
    /// An unshut pool stops its workers (unjoined) instead of leaking them.
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let Ok(mut q) = shared.queue.lock() else {
                return;
            };
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = q.pop_front() {
                    break job;
                }
                match shared.wake.wait(q) {
                    Ok(guard) => q = guard,
                    Err(_) => return,
                }
            }
        };
        // the backstop: a panicking job costs only itself, never the worker
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for jobs in [1, 2, 4, 7] {
            let out = par_map(jobs, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            let want: Vec<usize> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let items: Vec<u64> = (0..100).map(|i| i * 37 + 11).collect();
        let f = |_: usize, &x: &u64| -> f64 { (x as f64).sqrt() * 3.25 - x as f64 / 7.0 };
        let serial: Vec<f64> = par_map(1, &items, f).into_iter().map(|r| r.unwrap()).collect();
        let parallel: Vec<f64> = par_map(4, &items, f).into_iter().map(|r| r.unwrap()).collect();
        // bit-identical, not approximately equal
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn panic_is_captured_per_item() {
        let items: Vec<usize> = (0..20).collect();
        let out = par_map(3, &items, |_, &x| {
            assert!(x != 13, "unlucky item");
            x
        });
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 13);
                assert!(e.payload.contains("unlucky"), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn panic_converts_into_apex_error_chain() {
        let items = [1u32];
        let out = par_map(1, &items, |_, _| -> u32 { panic!("synth exploded") });
        let err = out
            .into_iter()
            .next()
            .unwrap()
            .unwrap_err()
            .into_apex(Stage::Rewrite);
        assert_eq!(err.stage(), Stage::Rewrite);
        let chain = err.render_chain();
        assert!(chain.contains("synth exploded"), "{chain}");
    }

    #[test]
    fn unbalanced_work_is_shared_through_the_cursor() {
        // front-loaded cost: with a static block split, one worker would
        // run all the slow items serially. The cursor hands them out one
        // at a time, so more than one worker runs the slow prefix.
        let items: Vec<usize> = (0..32).collect();
        let slow_threads = Mutex::new(BTreeSet::new());
        let out = par_map(4, &items, |_, &x| {
            if x < 8 {
                if let Ok(mut t) = slow_threads.lock() {
                    t.insert(format!("{:?}", std::thread::current().id()));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out.len(), 32);
        assert!(out.iter().enumerate().all(|(i, r)| *r.as_ref().unwrap() == i));
        let threads = slow_threads.lock().unwrap().len();
        assert!(threads >= 2, "the slow prefix ran on {threads} worker(s)");
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        let one = [9u8];
        let out = par_map(4, &one, |_, &x| x + 1);
        assert_eq!(*out[0].as_ref().unwrap(), 10);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items: Vec<usize> = (0..3).collect();
        let out = par_map(64, &items, |_, &x| x);
        assert_eq!(out.len(), 3);
        assert!(out.iter().enumerate().all(|(i, r)| *r.as_ref().unwrap() == i));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn nested_pools_are_bounded() {
        // an outer sweep whose jobs themselves par_map (like mining
        // inside a variant build) completes, and each inner map runs
        // inline on its outer worker's thread: no thread is spawned
        let outer: Vec<usize> = (0..4).collect();
        let out = par_map(2, &outer, |_, &x| {
            let worker = std::thread::current().id();
            let inner: Vec<usize> = (0..8).collect();
            par_map(2, &inner, |_, &y| {
                assert_eq!(std::thread::current().id(), worker);
                x * 100 + y
            })
            .into_iter()
            .map(|r| r.unwrap())
            .sum::<usize>()
        });
        for (i, r) in out.into_iter().enumerate() {
            assert_eq!(r.unwrap(), i * 800 + 28);
        }
    }

    #[test]
    fn four_workers_overlap_in_time() {
        // four 200 ms jobs at jobs=4 must finish well under the 800 ms a
        // serial run needs — sleeps overlap even on a single-core host,
        // so this asserts the map genuinely runs jobs concurrently
        let items: Vec<usize> = (0..4).collect();
        let t0 = Instant::now();
        let out = par_map(4, &items, |_, &x| {
            std::thread::sleep(Duration::from_millis(200));
            x
        });
        let elapsed = t0.elapsed();
        assert!(out.into_iter().all(|r| r.is_ok()));
        assert!(
            elapsed < Duration::from_millis(600),
            "4 workers took {elapsed:?}; jobs did not overlap"
        );
    }

    #[test]
    fn set_jobs_overrides_and_clears() {
        set_jobs(3);
        assert_eq!(default_jobs(), 3);
        set_jobs(0);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn worker_pool_runs_every_submitted_job() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let (tx, rx) = mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            assert!(pool.submit(move || {
                let _ = tx.send(i);
            }));
        }
        let mut got: Vec<usize> = (0..16)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        pool.shutdown();
        assert_eq!(pool.workers(), 0);
        assert!(!pool.submit(|| {}), "a shut-down pool refuses new jobs");
    }

    #[test]
    fn worker_pool_shutdown_drops_queued_but_finishes_active() {
        let pool = WorkerPool::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicUsize::new(0));
        let (started_tx, started) = mpsc::channel();
        // job 0 occupies the single worker until the gate opens
        {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                let _ = started_tx.send(());
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        started.recv_timeout(Duration::from_secs(10)).unwrap();
        // queued behind the busy worker
        for _ in 0..4 {
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        std::thread::scope(|s| {
            // shutdown raises its flag at once, then waits for job 0
            s.spawn(|| pool.shutdown());
            std::thread::sleep(Duration::from_millis(50));
            gate.store(true, Ordering::SeqCst);
        });
        assert_eq!(
            ran.load(Ordering::SeqCst),
            1,
            "shutdown waits for the active job but drops the queue"
        );
    }

    #[test]
    fn worker_pool_survives_panicking_jobs() {
        let pool = WorkerPool::new(1);
        assert!(pool.submit(|| panic!("job blew up")));
        let (tx, rx) = mpsc::channel();
        assert!(pool.submit(move || {
            let _ = tx.send(());
        }));
        // the single worker must outlive the panicking job to run this one
        assert!(
            rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "worker died with the panicking job"
        );
        assert_eq!(pool.workers(), 1);
        pool.shutdown();
    }
}
