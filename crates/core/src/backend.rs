//! The [`Backend`] trait: the one task-execution surface every Pagoda
//! executor exposes.
//!
//! The serving loop (`pagoda-serve`), the examples, and the benches were
//! originally written against [`PagodaRuntime`]; the fleet manager
//! (`pagoda-cluster`) then grew a near-duplicate API and a `ServeBackend`
//! adapter to look like one. This trait replaces both: a single runtime
//! and an N-device fleet implement the same narrow surface — non-blocking
//! `submit`, `capacity` probe, completion `check`/`wait`, clock control,
//! `sync` — and everything above them is generic over `B: Backend`. The
//! paper's *blocking* `taskSpawn` is the one provided method,
//! [`Backend::spawn_blocking`], written once over that surface.
//!
//! Task keys are plain `u64`s: a single runtime uses its `TaskId` values,
//! a cluster uses fleet-unique keys that never collide across devices.
//! All simulated time is the backend's own clock ([`Backend::now`]);
//! implementations must be deterministic for the
//! records-are-byte-identical contract to hold.

use desim::{Dur, EngineStats, SimTime};
use pagoda_obs::Obs;

use crate::trace::TaskTrace;
use crate::{Capacity, PagodaError, PagodaRuntime, SubmitError, TaskDesc, TaskError, TaskId};

/// The executor surface behind the serving loop, the examples, and the
/// benches. Implemented by `PagodaRuntime` (one simulated device) and by
/// `pagoda-cluster`'s `ClusterHandle` (an N-device fleet).
pub trait Backend {
    /// Non-blocking spawn of `desc` on behalf of `tenant` (a routing
    /// hint; a single runtime ignores it). Returns a backend-unique task
    /// key, or hands the descriptor back via [`SubmitError::Full`].
    fn submit(&mut self, tenant: u32, desc: TaskDesc) -> Result<u64, SubmitError>;

    /// The paper's blocking `taskSpawn` (Table 1, §4.2.2) over
    /// [`Backend::submit`]: on a full table, refresh the host view with
    /// the lazy aggregate copy-back ([`Backend::sync`]) and, if that
    /// freed nothing, idle one [`Backend::wait_timeout`] slice; retry
    /// with the descriptor handed back. Returns once the task is
    /// spawned, or with the [`TaskError`] of a descriptor that never can
    /// be — before any simulated time is spent.
    ///
    /// # Panics
    /// After 100 000 000 retries: a backend that never frees an entry
    /// would otherwise spin forever.
    fn spawn_blocking(&mut self, tenant: u32, mut desc: TaskDesc) -> Result<u64, TaskError> {
        let mut iterations = 0u64;
        loop {
            match self.submit(tenant, desc) {
                Ok(key) => return Ok(key),
                Err(SubmitError::Full(back)) => {
                    self.sync();
                    if !self.capacity().has_room() {
                        let t = self.now() + self.wait_timeout();
                        self.advance_to(t);
                    }
                    desc = back;
                }
                Err(SubmitError::Invalid(e)) => return Err(e),
            }
            iterations += 1;
            assert!(iterations < 100_000_000, "blocking spawn livelocked");
        }
    }

    /// Admission headroom in the backend's current view.
    fn capacity(&self) -> Capacity;

    /// Non-blocking completion check: refreshes the host view and reports
    /// whether `key` has finished. Errors on keys this backend never
    /// issued, or on tasks lost to a device failure.
    fn check(&mut self, key: u64) -> Result<bool, PagodaError>;

    /// Blocks (in simulated time) until `key` completes, returning the
    /// instant its output landed in host memory. Errors on unknown or
    /// lost tasks.
    fn wait(&mut self, key: u64) -> Result<SimTime, PagodaError>;

    /// Whether the completion of `key` has been observed host-side.
    /// Unlike [`Backend::check`] this neither syncs nor costs simulated
    /// time — it reads the current host view.
    ///
    /// # Panics
    /// May panic if `key` was not issued by this backend.
    fn observed_done(&self, key: u64) -> bool;

    /// When `key`'s output landed in host memory; `None` until its
    /// completion has been observed.
    fn completion_time(&self, key: u64) -> Option<SimTime>;

    /// Appends to `out` the keys whose completion — done, or lost to a
    /// device failure — became host-visible since the previous call, each
    /// exactly once: what the copy-backs in between changed, so a caller
    /// with thousands of tasks in flight need not ask
    /// [`Backend::observed_done`] of each one every round. `pending`
    /// yields the keys the caller still waits for.
    ///
    /// Defaulted so that wrappers and foreign backends written before the
    /// method existed keep working: the default *is* the poll, over
    /// `pending`. A backend that records completions as they happen
    /// overrides it and ignores `pending`; its keys arrive in observation
    /// order, and may include keys the caller never submitted (tasks put
    /// on the backend by someone else), so callers look each key up and
    /// skip strangers. Such a backend starts recording at the first call,
    /// which hands over nothing — call once before the first `submit`
    /// whose completion you want reported. A caller that never calls this
    /// costs the backend nothing.
    fn drain_completed(&mut self, pending: &mut dyn Iterator<Item = u64>, out: &mut Vec<u64>) {
        out.extend(pending.filter(|&key| self.observed_done(key)));
    }

    /// The backend's current clock.
    fn now(&self) -> SimTime;

    /// Idles the backend to `t` (no-op if in the past), co-simulating
    /// whatever it owns up to that instant.
    fn advance_to(&mut self, t: SimTime);

    /// Refreshes the host view of completions (the §4.2.2 aggregate
    /// copy-back, fleet-wide for a cluster). Costs simulated time.
    fn sync(&mut self);

    /// The polling slice loops idle for when blocked on capacity.
    fn wait_timeout(&self) -> Dur;

    /// Mean fraction of device warp slots doing useful work so far.
    fn warp_occupancy(&mut self) -> f64;

    /// Runtime-level timelines of spawned tasks, in spawn order. May be
    /// empty for backends whose task keys do not map to one runtime's
    /// trace ids (a cluster exports per-device timelines via `pagoda-obs`
    /// instead).
    ///
    /// This returns a collected `Vec` only because `benchmark/`'s
    /// `TimedBackend` implements the trait (ROADMAP 1(b)); no in-tree
    /// caller outside tests reads it. On one runtime,
    /// [`PagodaRuntime::traces`] reads the same timelines in place.
    fn traces(&self) -> Vec<TaskTrace>;

    /// Attaches an observability sink; events from here on flow to it.
    fn attach_obs(&mut self, obs: Obs);

    /// Per-engine determinism fingerprints, one per simulated device in
    /// a stable order: two runs of the same configuration must produce
    /// identical vectors. Checkers and exploration harnesses fold
    /// these into their replay fingerprints. Defaults to empty for
    /// backends without engines to fingerprint.
    fn engine_stats(&self) -> Vec<EngineStats> {
        Vec::new()
    }

    /// Number of simulated devices behind this backend (profiling group
    /// cardinality). A single runtime is one device; clusters override.
    fn num_devices(&self) -> u32 {
        1
    }
}

impl Backend for PagodaRuntime {
    fn submit(&mut self, _tenant: u32, desc: TaskDesc) -> Result<u64, SubmitError> {
        PagodaRuntime::submit(self, desc).map(|id| id.0)
    }

    fn capacity(&self) -> Capacity {
        PagodaRuntime::capacity(self)
    }

    fn check(&mut self, key: u64) -> Result<bool, PagodaError> {
        PagodaRuntime::check(self, TaskId(key))
    }

    fn wait(&mut self, key: u64) -> Result<SimTime, PagodaError> {
        PagodaRuntime::wait(self, TaskId(key))?;
        Ok(self
            .trace(TaskId(key))?
            .output_done
            .expect("invariant: wait returned, so the output landed"))
    }

    fn observed_done(&self, key: u64) -> bool {
        PagodaRuntime::observed_done(self, TaskId(key))
            .expect("invariant: callers only pass keys this runtime issued")
    }

    fn completion_time(&self, key: u64) -> Option<SimTime> {
        self.trace(TaskId(key))
            .expect("invariant: callers only pass keys this runtime issued")
            .output_done
    }

    fn drain_completed(&mut self, _pending: &mut dyn Iterator<Item = u64>, out: &mut Vec<u64>) {
        out.extend(self.drain_observed().map(|id| id.0));
    }

    fn now(&self) -> SimTime {
        self.host_now()
    }

    fn advance_to(&mut self, t: SimTime) {
        PagodaRuntime::advance_to(self, t);
    }

    fn sync(&mut self) {
        self.sync_table();
    }

    fn wait_timeout(&self) -> Dur {
        self.config().wait_timeout
    }

    fn warp_occupancy(&mut self) -> f64 {
        self.report().avg_running_occupancy
    }

    fn traces(&self) -> Vec<TaskTrace> {
        PagodaRuntime::traces(self).collect()
    }

    fn attach_obs(&mut self, obs: Obs) {
        PagodaRuntime::attach_obs(self, obs);
    }

    fn engine_stats(&self) -> Vec<EngineStats> {
        vec![PagodaRuntime::engine_stats(self)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;

    #[test]
    fn runtime_backend_round_trips_a_task() {
        let mut rt = PagodaRuntime::titan_x();
        let b: &mut dyn Backend = &mut rt;
        assert!(b.capacity().has_room());
        let key = b
            .submit(0, TaskDesc::uniform(64, WarpWork::compute(10_000, 8.0)))
            .expect("empty table accepts");
        assert!(!b.observed_done(key));
        assert_eq!(b.completion_time(key), None);
        let mut guard = 0;
        while !b.check(key).expect("key was issued") {
            let t = b.now() + b.wait_timeout();
            b.advance_to(t);
            guard += 1;
            assert!(guard < 10_000, "task never completed");
        }
        let done = b.completion_time(key).expect("observed done has a time");
        assert!(done <= b.now());
        // The trait's collected copy is the runtime's in-place readout.
        let collected = b.traces();
        assert_eq!(collected.len(), 1);
        assert_eq!(collected, rt.traces().collect::<Vec<_>>());
    }

    #[test]
    fn runtime_backend_wait_returns_completion_instant() {
        let mut rt = PagodaRuntime::titan_x();
        let b: &mut dyn Backend = &mut rt;
        let key = b
            .submit(0, TaskDesc::uniform(64, WarpWork::compute(10_000, 8.0)))
            .expect("empty table accepts");
        let done = Backend::wait(b, key).expect("key was issued");
        assert_eq!(b.completion_time(key), Some(done));
        assert!(done <= b.now());
        assert!(matches!(
            b.check(u64::MAX),
            Err(PagodaError::UnknownTask { .. })
        ));
    }

    /// A 48-entry runtime with every entry taken by `task`, and its
    /// fill-time clock. `wait_timeout` is far from the 20 us default, so
    /// a loop that hard-coded that would read a different clock.
    fn full_runtime(task: &TaskDesc) -> (PagodaRuntime, SimTime) {
        let cfg = crate::PagodaConfig::builder()
            .rows_per_column(1)
            .wait_timeout(Dur::from_us(70))
            .build()
            .expect("valid config");
        let mut rt = PagodaRuntime::new(cfg);
        while rt.capacity().has_room() {
            rt.submit(task.clone()).expect("room in the CPU view");
        }
        assert!(matches!(rt.submit(task.clone()), Err(SubmitError::Full(_))));
        let filled = rt.host_now();
        (rt, filled)
    }

    #[test]
    fn spawn_blocking_on_a_full_table_syncs_then_idles_whole_timeouts() {
        // ~1 ms tasks: the table stays full across many 70 us slices.
        let task = TaskDesc::uniform(64, WarpWork::compute(4_000_000, 8.0));
        let (mut rt, filled) = full_runtime(&task);
        let key = Backend::spawn_blocking(&mut rt, 0, task.clone()).expect("valid task");

        // The idiom by hand on a twin: a sync per round, one whole
        // timeout per round that leaves the view full.
        let (mut twin, twin_filled) = full_runtime(&task);
        assert_eq!(twin_filled, filled);
        let mut slices = 0;
        loop {
            twin.sync_table();
            if twin.capacity().has_room() {
                break;
            }
            twin.advance_to(twin.host_now() + Dur::from_us(70));
            slices += 1;
        }
        let want = twin.submit(task).expect("the sync freed an entry");
        assert!(slices >= 2, "the table drained after {slices} slice(s)");
        assert_eq!(key, want.0);
        assert_eq!(rt.host_now(), twin.host_now());
    }

    #[test]
    fn spawn_blocking_does_not_idle_when_the_sync_frees_an_entry() {
        let task = TaskDesc::uniform(64, WarpWork::compute(10_000, 8.0));
        let (mut rt, filled) = full_runtime(&task);
        // Every task finishes on the device; the CPU's view, refreshed
        // only by copy-backs, still reads full.
        rt.advance_to(filled + Dur::from_us(2_000));
        assert!(!rt.capacity().has_room());
        let before = rt.host_now();
        rt.spawn_blocking(task).expect("valid task");
        assert!(
            rt.host_now() - before < Dur::from_us(70),
            "one copy-back and one spawn, no timeout: {:?}",
            rt.host_now() - before
        );
        assert!(rt.capacity().has_room());
    }

    #[test]
    fn spawn_blocking_returns_an_invalid_task_without_spending_time() {
        let task = TaskDesc::uniform(64, WarpWork::compute(120_000, 8.0));
        let mut bad = task.clone();
        bad.num_tbs = 3; // blocks.len() still 1
        let (mut full, filled) = full_runtime(&task);
        for rt in [&mut PagodaRuntime::titan_x(), &mut full] {
            let before = rt.host_now();
            assert_eq!(
                Backend::spawn_blocking(rt, 0, bad.clone()),
                Err(TaskError::ShapeMismatch)
            );
            assert_eq!(rt.host_now(), before);
        }
        assert_eq!(full.host_now(), filled);
    }
}
