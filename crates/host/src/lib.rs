//! **pagoda-host** — Pagoda's TaskTable scheduling design on real CPU
//! threads.
//!
//! The simulated runtime in `pagoda-core` reproduces the paper; this
//! crate demonstrates that the *design* — a fixed table of task slots,
//! single-writer hand-off per slot, executors that claim work at the
//! finest granularity available — is a useful native scheduler in its own
//! right. It is what Pagoda looks like when "warp" means "worker thread"
//! and "PCIe visibility" means "release/acquire ordering":
//!
//! * a fixed **slot table** (columns × rows) replaces the TaskTable; a
//!   spawner claims a `FREE` slot with one CAS, writes the job, and
//!   publishes it with a `Release` store — no queue, no global lock;
//! * each **worker owns a column** (its "MTB"), scanning it first and
//!   stealing from neighbours when idle — the same load-spreading that
//!   the GPU runtime gets from per-column scheduler warps;
//! * the paper's ready-field pipelining disappears: shared-memory
//!   atomics give the ordering guarantees that Pagoda had to build from
//!   one-way DMA writes. This contrast is the point — the TaskTable
//!   protocol *is* the price of PCIe.
//!
//! The crate also re-exports [`Backend`], the trait every simulated
//! Pagoda executor implements; it lives in `pagoda-core`, next to the
//! runtime it abstracts.
//!
//! ```
//! use pagoda_host::HostPagoda;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let rt = HostPagoda::new(4, 64);
//! let sum = Arc::new(AtomicU64::new(0));
//! for i in 0..1000u64 {
//!     let sum = Arc::clone(&sum);
//!     rt.spawn(move || {
//!         sum.fetch_add(i, Ordering::Relaxed);
//!     });
//! }
//! rt.wait_all();
//! assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
//! ```

mod slots;

pub use pagoda_core::Backend;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use pagoda_obs::{Counter, Obs};
use parking_lot::{Condvar, Mutex};

use slots::{Job, SlotTable};

/// A handle to one spawned task.
#[derive(Debug, Clone)]
pub struct TaskHandle {
    done: Arc<AtomicBool>,
}

impl TaskHandle {
    /// Non-blocking completion check (the paper's `check`).
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

struct Shared {
    table: SlotTable,
    obs: Obs,
    /// Serialises [`Shared::count`]; see there.
    count_lock: Mutex<()>,
    spawned: AtomicU64,
    completed: AtomicU64,
    panicked: AtomicU64,
    shutdown: AtomicBool,
    /// Sleep/wake for idle workers and blocked waiters.
    idle_lock: Mutex<()>,
    work_cv: Condvar,
    done_cv: Condvar,
}

impl Shared {
    /// Bumps an obs counter by one. `MemRecorder::count` is a plain
    /// load/store — every simulated driver writes its recorder from one
    /// thread — and this executor is the one concurrent writer in the
    /// tree (every worker, every spawner), so it serialises its own
    /// bumps when a retaining recorder is attached. A counters-only
    /// recorder (`retains() == false`) is called directly and must
    /// count atomically itself.
    fn count(&self, c: Counter) {
        let _serial = self.obs.enabled().then(|| self.count_lock.lock());
        self.obs.count(c, 1);
    }
}

/// The native narrow-task executor. Dropping it shuts the workers down
/// (after outstanding tasks finish).
pub struct HostPagoda {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl HostPagoda {
    /// Creates an executor with `workers` threads and `rows` task slots
    /// per worker column.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(workers: usize, rows: usize) -> Self {
        Self::with_obs(workers, rows, Obs::off())
    }

    /// [`HostPagoda::new`] with an observability sink: spawn/completion
    /// counters flow to the same recorder as the simulated runtimes',
    /// so native and simulated executions are comparable side by side.
    ///
    /// # Panics
    /// Panics if either size parameter is zero.
    pub fn with_obs(workers: usize, rows: usize, obs: Obs) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(rows > 0, "need at least one slot per column");
        let shared = Arc::new(Shared {
            table: SlotTable::new(workers, rows),
            obs,
            count_lock: Mutex::new(()),
            spawned: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pagoda-host-{w}"))
                    .spawn(move || worker_loop(w, &shared))
                    .expect("spawn worker thread")
            })
            .collect();
        HostPagoda {
            shared,
            workers: handles,
        }
    }

    /// An executor sized to the machine (one worker per core, 32 rows —
    /// the paper's TaskTable depth).
    pub fn with_default_size() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self::new(workers, 32)
    }

    /// Spawns a task (the paper's `taskSpawn`): finds a free slot —
    /// blocking briefly if the table is full, exactly the paper's
    /// admission throttle — publishes the job, and wakes a worker.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, job: F) -> TaskHandle {
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let boxed: Job = Box::new(move || {
            job();
            flag.store(true, Ordering::Release);
        });
        self.shared.spawned.fetch_add(1, Ordering::Relaxed);
        self.shared.count(Counter::TasksSpawned);
        let mut job = boxed;
        loop {
            match self.shared.table.try_publish(job) {
                Ok(()) => break,
                Err(returned) => {
                    job = returned;
                    // Table full: let workers drain a little (the lazy
                    // aggregate copy-back analogue is just a short sleep —
                    // completion is immediately visible here).
                    std::thread::yield_now();
                }
            }
        }
        self.shared.work_cv.notify_one();
        TaskHandle { done }
    }

    /// Unified spawn name: the simulated `pagoda-core` runtime, the
    /// fleet-level `pagoda-cluster` handle, and this native executor all
    /// expose `submit` as the one spawn entry point; this is an alias of
    /// [`HostPagoda::spawn`] for call sites written against that shape.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) -> TaskHandle {
        self.spawn(job)
    }

    /// Blocks until `handle`'s task completes (the paper's `wait`).
    pub fn wait(&self, handle: &TaskHandle) {
        let mut guard = self.shared.idle_lock.lock();
        while !handle.is_done() {
            self.shared
                .done_cv
                .wait_for(&mut guard, std::time::Duration::from_millis(1));
        }
    }

    /// Blocks until every spawned task has completed (`waitAll`).
    pub fn wait_all(&self) {
        let mut guard = self.shared.idle_lock.lock();
        while self.shared.completed.load(Ordering::Acquire)
            < self.shared.spawned.load(Ordering::Acquire)
        {
            self.shared
                .done_cv
                .wait_for(&mut guard, std::time::Duration::from_millis(1));
        }
    }

    /// Tasks that panicked so far (panics are contained per task).
    pub fn panicked_tasks(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Tasks completed so far.
    pub fn completed_tasks(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }
}

impl Drop for HostPagoda {
    fn drop(&mut self) {
        self.wait_all();
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One executor: scan the own column first (cache-warm, contention-free
/// in the common case), then steal round-robin — Pagoda's per-MTB
/// scheduling with idle-warp stealing replaced by idle-thread stealing.
fn worker_loop(own_col: usize, shared: &Shared) {
    let mut backoff = 0u32;
    loop {
        if let Some(job) = shared.table.try_claim(own_col) {
            backoff = 0;
            let result = catch_unwind(AssertUnwindSafe(job));
            if result.is_err() {
                shared.panicked.fetch_add(1, Ordering::Relaxed);
            }
            // Counted before `completed` is published, so a waiter that
            // saw the completion also sees the counter.
            shared.count(Counter::TasksFreed);
            shared.completed.fetch_add(1, Ordering::Release);
            shared.done_cv.notify_all();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Nothing claimable: spin briefly, then park until a spawn.
        backoff += 1;
        if backoff < 16 {
            std::hint::spin_loop();
        } else {
            let mut guard = shared.idle_lock.lock();
            if !shared.table.any_ready() && !shared.shutdown.load(Ordering::Acquire) {
                shared
                    .work_cv
                    .wait_for(&mut guard, std::time::Duration::from_millis(1));
            }
            backoff = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_tasks() {
        let rt = HostPagoda::new(4, 8);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..10_000 {
            let c = Arc::clone(&count);
            rt.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_all();
        assert_eq!(count.load(Ordering::Relaxed), 10_000);
        assert_eq!(rt.panicked_tasks(), 0);
    }

    #[test]
    fn submit_is_spawn() {
        let rt = HostPagoda::new(2, 4);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let c = Arc::clone(&count);
            rt.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_all();
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn obs_counters_match_native_counters() {
        // Eight workers and four spawners on empty jobs: every counter
        // bump races every other one, and none may be lost.
        const SPAWNERS: u64 = 4;
        const JOBS: u64 = 25_000;
        let (obs, rec) = Obs::recording();
        let rt = HostPagoda::with_obs(8, 32, obs);
        std::thread::scope(|s| {
            for _ in 0..SPAWNERS {
                s.spawn(|| (0..JOBS).for_each(|_| drop(rt.spawn(|| {}))));
            }
        });
        rt.wait_all();
        let buf = rec.snapshot();
        assert_eq!(buf.counter(Counter::TasksSpawned), SPAWNERS * JOBS);
        assert_eq!(buf.counter(Counter::TasksFreed), rt.completed_tasks());
        assert_eq!(rt.completed_tasks(), SPAWNERS * JOBS);
    }

    #[test]
    fn wait_on_single_task() {
        let rt = HostPagoda::new(2, 4);
        let flag = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&flag);
        let h = rt.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            f.store(true, Ordering::Release);
        });
        rt.wait(&h);
        assert!(flag.load(Ordering::Acquire));
        assert!(h.is_done());
    }

    #[test]
    fn tasks_actually_run_in_parallel() {
        use std::time::{Duration, Instant};
        let rt = HostPagoda::new(4, 16);
        let t0 = Instant::now();
        for _ in 0..8 {
            rt.spawn(|| std::thread::sleep(Duration::from_millis(50)));
        }
        rt.wait_all();
        let elapsed = t0.elapsed();
        // 8 x 50 ms over 4 workers = ~100 ms; serial would be 400 ms.
        assert!(elapsed < Duration::from_millis(320), "took {elapsed:?}");
    }

    #[test]
    fn panics_are_contained() {
        let rt = HostPagoda::new(2, 4);
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let c = Arc::clone(&count);
            rt.spawn(move || {
                if i % 10 == 0 {
                    panic!("task {i} blew up");
                }
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_all();
        assert_eq!(rt.panicked_tasks(), 10);
        assert_eq!(count.load(Ordering::Relaxed), 90);
    }

    #[test]
    fn full_table_throttles_but_never_loses_tasks() {
        // 1 worker, 1 slot: the spawner must repeatedly wait for the slot.
        let rt = HostPagoda::new(1, 1);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..500 {
            let c = Arc::clone(&count);
            rt.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_all();
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn drop_waits_for_outstanding_tasks() {
        let count = Arc::new(AtomicUsize::new(0));
        {
            let rt = HostPagoda::new(3, 8);
            for _ in 0..200 {
                let c = Arc::clone(&count);
                rt.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No wait_all: Drop must flush.
        }
        assert_eq!(count.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn narrow_task_flood_from_multiple_spawners() {
        let rt = Arc::new(HostPagoda::new(4, 32));
        let count = Arc::new(AtomicUsize::new(0));
        let spawners: Vec<_> = (0..4)
            .map(|_| {
                let rt = Arc::clone(&rt);
                let count = Arc::clone(&count);
                std::thread::spawn(move || {
                    for _ in 0..2_500 {
                        let c = Arc::clone(&count);
                        rt.spawn(move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for s in spawners {
            s.join().unwrap();
        }
        rt.wait_all();
        assert_eq!(count.load(Ordering::Relaxed), 10_000);
    }
}
