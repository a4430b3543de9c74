//! A shared, scoped worker pool for independent searches.
//!
//! One CrystalBall checking round contains several *independent* searches:
//! the main consequence-prediction run, the known-path replays, and the
//! filter-safety re-check. Historically each ran back-to-back, and the
//! parallel engine additionally spawned fresh threads for every BFS level.
//! [`WorkerPool`] fixes both: it is a long-lived pool of worker threads
//! that any number of concurrent searches submit closures to — the
//! parallel engine's check/expand phases, a `Predictor`'s replay batch,
//! and a sibling checker shard's safety re-check all draw from the same
//! workers, so one busy search soaks up capacity another is not using.
//!
//! # Scoped execution
//!
//! Tasks may borrow from the submitting stack frame ([`PoolScope::spawn`]
//! accepts non-`'static` closures). Safety rests on one invariant:
//! [`WorkerPool::scope`] does not return — not even by unwinding — until
//! every task spawned inside it has finished running. A drop guard
//! performs the wait, so a panic in the scope body still blocks until the
//! outstanding borrows are dead.
//!
//! # Deadlock freedom
//!
//! A scope's owner *helps*: while waiting it pops and runs queued tasks
//! of its *own* batch (never another scope's — running foreign work
//! would block the owner on a stranger's task after its own batch had
//! drained). Helping makes nested scopes safe: a pool task that opens
//! its own scope (the parallel engine running *inside* a prediction
//! round) executes its subtasks itself if no worker is free, so
//! progress never depends on pool capacity — a pool may even have zero
//! worker threads, in which case every scope degrades to sequential
//! execution on its owner.
//!
//! Nothing rests on the queue order: no task waits for another task of
//! its own batch (the parallel engine's range tasks only read the
//! explored set, and its coordinator collects a wave after the wave's
//! scope has returned), so helping alone keeps every scope live.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct QueuedJob {
    batch: Arc<BatchState>,
    run: Task,
}

/// Completion tracking for one scope's tasks.
struct BatchState {
    remaining: AtomicUsize,
    /// First panic payload raised by a task of this batch, re-raised at
    /// the scope so the original assertion message survives.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    cv: Condvar,
}

struct PoolQueue {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
}

/// Joins the worker threads when the last [`WorkerPool`] handle drops.
struct Guard {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
        }
        self.shared.cv.notify_all();
        for h in self
            .handles
            .lock()
            .expect("pool handles poisoned")
            .drain(..)
        {
            let _ = h.join();
        }
    }
}

/// A cloneable handle to a fixed set of worker threads. All clones share
/// the same workers; the threads exit when the last handle drops.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    guard: Arc<Guard>,
    threads: usize,
}

impl Clone for WorkerPool {
    fn clone(&self) -> Self {
        WorkerPool {
            shared: self.shared.clone(),
            guard: self.guard.clone(),
            threads: self.threads,
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers. Zero is allowed: scopes then
    /// execute every task on their owning thread (sequential fallback).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cb-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        let guard = Arc::new(Guard {
            shared: shared.clone(),
            handles: Mutex::new(handles),
        });
        WorkerPool {
            shared,
            guard,
            threads,
        }
    }

    /// Number of worker threads (excluding scope owners, which also run
    /// tasks while they wait).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f`, which may spawn borrowing tasks via the provided
    /// [`PoolScope`], then helps execute queued work until every spawned
    /// task has completed. Panics from tasks are re-raised here after the
    /// wait. Returns `f`'s result.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        let batch = Arc::new(BatchState {
            remaining: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let scope = PoolScope {
            shared: &self.shared,
            batch: batch.clone(),
            _env: std::marker::PhantomData,
        };
        // The guard waits even if `f` unwinds, so no spawned task can
        // outlive the borrows it captured.
        let wait = WaitGuard {
            shared: &self.shared,
            batch: &batch,
        };
        let out = f(&scope);
        drop(wait);
        if let Some(payload) = batch.panic.lock().expect("panic slot poisoned").take() {
            resume_unwind(payload);
        }
        out
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
pub struct PoolScope<'p, 'env> {
    shared: &'p Arc<PoolShared>,
    batch: Arc<BatchState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Queues `task` for execution by a pool worker (or by any thread
    /// helping while it waits). The task may borrow anything that outlives
    /// the enclosing [`WorkerPool::scope`] call.
    #[allow(unsafe_code)]
    pub fn spawn(&self, task: impl FnOnce() + Send + 'env) {
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(task);
        // SAFETY: the scope's WaitGuard blocks `WorkerPool::scope` (even
        // during unwinding) until `batch.remaining` reaches zero, which
        // only happens after this task has run to completion — so every
        // borrow with lifetime 'env captured by the task stays alive for
        // as long as the task can execute.
        let run: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(boxed)
        };
        self.batch.remaining.fetch_add(1, Ordering::AcqRel);
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.jobs.push_back(QueuedJob {
                batch: self.batch.clone(),
                run,
            });
        }
        self.shared.cv.notify_all();
    }
}

struct WaitGuard<'a> {
    shared: &'a PoolShared,
    batch: &'a Arc<BatchState>,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        help_until_done(self.shared, self.batch);
    }
}

fn run_job(shared: &PoolShared, job: QueuedJob) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(job.run)) {
        let mut slot = job.batch.panic.lock().expect("panic slot poisoned");
        slot.get_or_insert(payload);
    }
    if job.batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last task of the batch: wake its (possibly sleeping) owner.
        // Taking the lock orders this notify after the owner's re-check.
        drop(shared.queue.lock().expect("pool queue poisoned"));
        shared.cv.notify_all();
    }
}

/// Runs queued jobs *of this batch* until none remain outstanding.
///
/// Only the batch's own tasks are helped: an owner must not end up
/// executing a stranger's long task after its own work has drained
/// (priority inversion). Liveness holds anyway — tasks of a batch can
/// only be queued before its owner starts waiting (scopes are not
/// handed to tasks), so once the queue holds none of them, the rest are
/// in flight on other threads and the last completion wakes the owner.
fn help_until_done(shared: &PoolShared, batch: &Arc<BatchState>) {
    loop {
        if batch.remaining.load(Ordering::Acquire) == 0 {
            return;
        }
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if batch.remaining.load(Ordering::Acquire) == 0 {
                    return;
                }
                let mine = q.jobs.iter().position(|j| Arc::ptr_eq(&j.batch, batch));
                if let Some(ix) = mine {
                    break q.jobs.remove(ix).expect("indexed job");
                }
                q = shared.cv.wait(q).expect("pool queue poisoned");
            }
        };
        run_job(shared, job);
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(j) = q.jobs.pop_front() {
                    break j;
                }
                if q.shutdown {
                    return;
                }
                q = shared.cv.wait(q).expect("pool queue poisoned");
            }
        };
        run_job(shared, job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_borrowing_tasks_to_completion() {
        let pool = WorkerPool::new(3);
        let mut slots = vec![0u64; 64];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 + 1);
            }
        });
        assert!(slots.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn scope_returns_body_result() {
        let pool = WorkerPool::new(1);
        let hits = AtomicU64::new(0);
        let r = pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            42
        });
        assert_eq!(r, 42);
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_scopes_make_progress_beyond_pool_capacity() {
        // One worker; the outer scope fills it, and every task opens its
        // own inner scope — only owner work-helping lets this finish.
        let pool = WorkerPool::new(1);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                let total = &total;
                s.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        std::thread::scope(|ts| {
            for _ in 0..4 {
                let pool = pool.clone();
                let total = &total;
                ts.spawn(move || {
                    for _ in 0..16 {
                        pool.scope(|s| {
                            for _ in 0..4 {
                                s.spawn(|| {
                                    total.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 16 * 4);
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        let pool = WorkerPool::new(2);
        let finished = Arc::new(AtomicU64::new(0));
        let fin = finished.clone();
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..8 {
                    let fin = fin.clone();
                    s.spawn(move || {
                        fin.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = res.expect_err("panic re-raised at the scope");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom"),
            "the original panic payload survives the pool"
        );
        assert_eq!(
            finished.load(Ordering::Relaxed),
            8,
            "sibling tasks still ran to completion"
        );
        // The pool survives a task panic.
        let ok = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_thread_pool_runs_everything_on_the_owner() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 0);
        let owner = std::thread::current().id();
        let sink = Mutex::new(Vec::new());
        pool.scope(|s| {
            for _ in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    sink.lock().unwrap().push(std::thread::current().id());
                });
            }
        });
        let ran_on = sink.into_inner().unwrap();
        assert_eq!(ran_on.len(), 4);
        assert!(
            ran_on.iter().all(|&id| id == owner),
            "no workers: the scope owner executed every task"
        );
    }

    #[test]
    fn owner_does_not_execute_foreign_batches() {
        // A scope owner waiting on its own (empty) batch must return
        // immediately even while another scope's long task is queued.
        let pool = WorkerPool::new(1);
        let gate = Arc::new(AtomicU64::new(0));
        let g = gate.clone();
        let p2 = pool.clone();
        let slow = std::thread::spawn(move || {
            p2.scope(|s| {
                for _ in 0..8 {
                    let g = g.clone();
                    s.spawn(move || {
                        while g.load(Ordering::Relaxed) == 0 {
                            std::thread::yield_now();
                        }
                    });
                }
            });
        });
        // Give the slow scope time to enqueue its blocked tasks.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t0 = std::time::Instant::now();
        pool.scope(|_| {}); // empty batch: nothing to help with
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(500),
            "empty scope returned without running foreign work"
        );
        gate.store(1, Ordering::Relaxed);
        slow.join().unwrap();
    }

    #[test]
    fn clones_share_workers_and_drop_cleanly() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.threads(), 2);
        let clone = pool.clone();
        drop(pool);
        let hits = AtomicU64::new(0);
        clone.scope(|s| {
            s.spawn(|| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
