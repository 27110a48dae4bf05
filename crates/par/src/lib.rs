//! # rolag-par
//!
//! A dependency-free scoped worker pool shared by the pass driver and the
//! benchmark harness (promoted out of `rolag-bench`).
//!
//! Design points:
//!
//! * **Order preservation.** Results come back in item order regardless of
//!   which worker computed them, so parallel runs are drop-in replacements
//!   for serial loops.
//! * **Lock-free result collection.** Each worker appends `(index, result)`
//!   pairs to its own buffer; buffers are merged after the scope joins.
//!   There are no per-slot mutexes and no contention beyond the single
//!   atomic work counter.
//! * **Panic propagation.** If a worker panics, the *original* panic
//!   payload is re-raised on the calling thread once all workers have
//!   stopped, instead of dying later on a misleading "slot unfilled"
//!   expectation.
//! * **Per-worker state.** [`par_map_with`] gives every worker a private
//!   state value built by an `init` closure (e.g. a body-less module context)
//!   and hands the states back to the caller for deterministic merging.
//! * **No thread that cannot pay off.** When only one worker would run
//!   (one item, or `jobs == 1`), [`par_map_with`] runs `init` and then
//!   every job on the calling thread, in item order, and returns exactly
//!   one state. The contract is the same as the threaded path: ordered
//!   results, the state handed back, and a panicking job's original payload
//!   reaching the caller (it simply unwinds through). [`WorkerPool`] has no
//!   such shortcut: its tasks always run on pool threads, which is what
//!   bounds concurrency across the pool's submitters.
//! * **One hardware query per process.** `jobs == 0` means one worker per
//!   available core; [`requested_jobs`] asks the OS once (on Linux the
//!   query reads cgroup files) and caches the answer, and explicit job
//!   counts never ask at all.

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Workers a `jobs` request asks for: `jobs` itself, or for `0` the
/// available parallelism the OS reports (4 when it cannot tell), queried
/// once per process. Every `jobs` knob in the workspace (the scoped maps,
/// [`WorkerPool::new`], the corpus batch sizing) resolves through here, so
/// they agree on what `0` means.
pub fn requested_jobs(jobs: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    if jobs > 0 {
        return jobs;
    }
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// Number of workers to use for `len` items when the caller asked for
/// `jobs` (`0` = one per available core). Always in `1..=len.max(1)`.
pub fn effective_jobs(jobs: usize, len: usize) -> usize {
    requested_jobs(jobs).clamp(1, len.max(1))
}

/// Runs `job` over `items` on a pool of workers, preserving item order.
///
/// Equivalent to `items.iter().map(|t| job(t)).collect()`, up to wall-clock
/// time. A panicking `job` aborts the pool and re-raises the original
/// panic payload on the caller.
pub fn par_map<T, R, F>(items: Vec<T>, job: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (results, _) = par_map_with(&items, 0, || (), |(), _idx, item| job(item));
    results
}

/// Like [`par_map`], but every worker owns a private state created by
/// `init`, and the per-worker states are returned alongside the ordered
/// results (in worker order) for the caller to merge.
///
/// `job` receives `(worker state, item index, item)`. Work is distributed
/// dynamically through an atomic counter, so the mapping from items to
/// workers is nondeterministic — callers that need determinism must make
/// `job`'s result independent of the worker state's history, or merge the
/// returned states in a canonical order.
///
/// When a single worker would run, no thread is spawned: `init` and the
/// jobs run on the calling thread, in item order, and one state comes back.
pub fn par_map_with<T, R, S, I, F>(items: &[T], jobs: usize, init: I, job: F) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let workers = effective_jobs(jobs, items.len());
    if workers == 1 {
        let mut state = init();
        let results = items
            .iter()
            .enumerate()
            .map(|(i, item)| job(&mut state, i, item))
            .collect();
        return (results, vec![state]);
    }

    let next = AtomicUsize::new(0);
    // One (state, results) pair per worker; moved back out of the scope.
    let mut per_worker: Vec<(S, Vec<(usize, R)>)> = Vec::with_capacity(workers);
    let mut panic_payload = None;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let init = &init;
                let job = &job;
                scope.spawn(move || {
                    let mut state = init();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, job(&mut state, i, &items[i])));
                    }
                    (state, out)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(pair) => per_worker.push(pair),
                // Keep the first panic; keep joining so no worker outlives
                // the scope while we unwind.
                Err(payload) => {
                    if panic_payload.is_none() {
                        panic_payload = Some(payload);
                    }
                }
            }
        }
    });

    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }

    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut states = Vec::with_capacity(per_worker.len());
    for (state, pairs) in per_worker {
        states.push(state);
        for (i, r) in pairs {
            debug_assert!(results[i].is_none(), "item {i} produced twice");
            results[i] = Some(r);
        }
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("work counter covered every item"))
        .collect();
    (results, states)
}

/// A queued unit of work. `'static` because pool threads outlive any one
/// submission; [`WorkerPool::map_with`] erases shorter borrow lifetimes and
/// restores soundness by blocking until every erased task has finished.
type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Task>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    ready: Condvar,
}

/// A persistent worker pool: threads are spawned once and reused across
/// any number of [`map_with`](WorkerPool::map_with) calls, avoiding the
/// per-batch spawn/join cost of [`par_map_with`] for long-lived processes
/// (the `rolag-serve` daemon keeps one pool for its whole lifetime).
///
/// Multiple caller threads may submit maps concurrently; their tasks share
/// the queue and drain on whichever workers free up first. Do **not** call
/// [`map_with`](WorkerPool::map_with) from inside a pool task — a full
/// queue would then deadlock waiting on its own worker.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// One worker's contribution to a map: its private state plus the
/// `(item index, result)` pairs it computed.
type WorkerYield<S, R> = (S, Vec<(usize, R)>);

impl WorkerPool {
    /// Spawns a pool of `jobs` workers (`0` = one per available core).
    pub fn new(jobs: usize) -> Self {
        let count = requested_jobs(jobs);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let task = {
                        let mut st = shared.state.lock().unwrap();
                        loop {
                            if let Some(t) = st.queue.pop_front() {
                                break Some(t);
                            }
                            if st.shutdown {
                                break None;
                            }
                            st = shared.ready.wait(st).unwrap();
                        }
                    };
                    match task {
                        Some(t) => t(),
                        None => break,
                    }
                })
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// [`par_map_with`] semantics on the persistent pool: ordered results,
    /// per-worker states handed back for canonical merging, first panic
    /// payload re-raised on the caller after every task has stopped.
    pub fn map_with<T, R, S, I, F>(&self, items: &[T], init: I, job: F) -> (Vec<R>, Vec<S>)
    where
        T: Sync,
        R: Send,
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        if items.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let tasks = self.workers.len().min(items.len()).max(1);
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<WorkerYield<S, R>>> = Mutex::new(Vec::with_capacity(tasks));
        let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let latch = Latch {
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
        };

        {
            let mut st = self.shared.state.lock().unwrap();
            for _ in 0..tasks {
                let run = || {
                    // The guard decrements the latch even if anything below
                    // unwinds, so the submitting thread can never hang.
                    let _guard = LatchGuard { latch: &latch };
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let mut state = init();
                        let mut out: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            out.push((i, job(&mut state, i, &items[i])));
                        }
                        (state, out)
                    }));
                    match result {
                        Ok(pair) => collected.lock().unwrap().push(pair),
                        Err(payload) => {
                            let mut slot = panic_slot.lock().unwrap();
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            // Drain remaining work so sibling tasks stop early.
                            next.store(items.len(), Ordering::Relaxed);
                        }
                    }
                };
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(run);
                // SAFETY: the task borrows stack locals of this call frame
                // (`next`, `collected`, `panic_slot`, `latch`, plus `items`,
                // `init`, `job`). We transmute the borrow lifetime away to
                // fit the queue's `'static` task type, and re-establish
                // soundness by blocking on `latch` below: this function does
                // not return (or unwind — the waits cannot panic) until every
                // task queued here has run its `LatchGuard` destructor, so no
                // borrow outlives its referent.
                let task: Task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
                st.queue.push_back(task);
            }
            drop(st);
            self.shared.ready.notify_all();
        }

        latch.wait();

        if let Some(payload) = panic_slot.lock().unwrap().take() {
            resume_unwind(payload);
        }

        let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let mut states = Vec::with_capacity(tasks);
        for (state, pairs) in collected.into_inner().unwrap() {
            states.push(state);
            for (i, r) in pairs {
                debug_assert!(results[i].is_none(), "item {i} produced twice");
                results[i] = Some(r);
            }
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("work counter covered every item"))
            .collect();
        (results, states)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap();
        while *left > 0 {
            left = self.done.wait(left).unwrap();
        }
    }
}

/// Decrements the latch on drop — including during an unwind — so a
/// panicking task can never leave the submitter blocked.
struct LatchGuard<'a> {
    latch: &'a Latch,
}

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        let mut left = match self.latch.remaining.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *left -= 1;
        if *left == 0 {
            self.latch.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert!(par_map(Vec::<u8>::new(), |&x| x).is_empty());
        assert_eq!(par_map(vec![7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn propagates_the_original_panic_payload() {
        // 64 items spread over every available core; one item runs inline.
        for items in [(0..64).collect::<Vec<u32>>(), vec![13]] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map(items, |&x| {
                    if x == 13 {
                        panic!("unlucky item 13");
                    }
                    x
                });
            }));
            let payload = result.expect_err("must panic");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-string payload>");
            assert!(
                msg.contains("unlucky item 13"),
                "original payload lost: {msg}"
            );
        }
    }

    #[test]
    fn worker_states_are_returned() {
        let items: Vec<usize> = (0..100).collect();
        for (jobs, max_states) in [(4, 4), (1, 1)] {
            let (results, states) = par_map_with(
                &items,
                jobs,
                || 0usize,
                |count, _i, &x| {
                    *count += 1;
                    x + 1
                },
            );
            assert_eq!(results, (1..=100).collect::<Vec<_>>());
            assert_eq!(states.iter().sum::<usize>(), 100, "every item counted once");
            assert!(!states.is_empty() && states.len() <= max_states);
        }
    }

    #[test]
    fn single_worker_maps_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |_: &mut (), _: usize, _: &u8| std::thread::current().id() == caller;
        // One item under an explicit job count, and many items with jobs = 1.
        for (items, jobs) in [(vec![0u8], 2), (vec![0u8; 16], 1)] {
            let (results, states) = par_map_with(&items, jobs, || (), on_caller);
            assert!(results.iter().all(|&same| same), "jobs={jobs}");
            assert_eq!(states.len(), 1);
        }
        // The threaded path runs every job on a spawned worker.
        let (results, _) = par_map_with(&[0u8; 64], 2, || (), on_caller);
        assert!(results.iter().all(|&same| !same));
    }

    #[test]
    fn pool_matches_par_map_with_and_is_reusable() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.worker_count(), 4);
        let items: Vec<usize> = (0..500).collect();
        for _ in 0..3 {
            let (results, states) = pool.map_with(
                &items,
                || 0usize,
                |count, _i, &x| {
                    *count += 1;
                    x * 3
                },
            );
            assert_eq!(results, (0..500).map(|x| x * 3).collect::<Vec<_>>());
            assert_eq!(states.iter().sum::<usize>(), 500);
            assert!(states.len() <= 4);
        }
        let (empty, states) = pool.map_with(&[] as &[u8], || (), |(), _, &x| x);
        assert!(empty.is_empty() && states.is_empty());
    }

    #[test]
    fn pool_propagates_panics_and_survives_them() {
        let pool = WorkerPool::new(3);
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_with(
                &items,
                || (),
                |(), _, &x| {
                    if x == 21 {
                        panic!("unlucky item 21");
                    }
                    x
                },
            );
        }));
        let payload = result.expect_err("must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-string payload>");
        assert!(msg.contains("unlucky item 21"), "payload lost: {msg}");
        // The pool is still serviceable after a panicking batch.
        let (ok, _) = pool.map_with(&items, || (), |(), _, &x| x + 1);
        assert_eq!(ok, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn pool_serves_concurrent_submitters() {
        let pool = WorkerPool::new(4);
        std::thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..4u64)
                .map(|k| {
                    scope.spawn(move || {
                        let items: Vec<u64> = (0..200).collect();
                        let (out, _) = pool.map_with(&items, || (), |(), _, &x| x + k);
                        assert_eq!(out, (k..200 + k).collect::<Vec<_>>());
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn effective_jobs_clamps() {
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(2, 100), 2);
        assert_eq!(effective_jobs(0, 0), 1);
        assert!(effective_jobs(0, 100) >= 1);
        assert_eq!(effective_jobs(0, usize::MAX), requested_jobs(0));
        assert_eq!(requested_jobs(3), 3);
    }
}
