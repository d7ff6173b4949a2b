//! [`ProfRecorder`]: critical-path profiling as an observability tee,
//! same shape as `pagoda-check`'s `CheckRecorder`.
//!
//! Every event is forwarded verbatim to an inner [`MemRecorder`], so
//! the buffered stream is byte-identical to what a plain recorder would
//! capture — attaching the profiler never perturbs the determinism
//! fingerprint.
//!
//! Hot-path discipline: the profiler does **no** per-event work of its
//! own. The tee already has to keep the full stream (that is what a tee
//! is), and every input the phase model needs — lifecycle events,
//! marks, routes, tenant tags — is in that buffer, so cuts are derived
//! once at [`ProfRecorder::report`] time via
//! [`ProfReport::from_buffer`] instead of being maintained under a
//! mutex on the record path. And because nothing observes the events
//! in flight, [`ProfRecorder::recording`] hands out the *statically
//! dispatched* mem-backed [`Obs`] handle (`Obs::with_mem`) rather than
//! routing through `dyn Recorder`: recording with profiling on is the
//! mem capture path, instruction for instruction, which is what keeps
//! the `obs_overhead` prof gate honest.

use std::collections::BTreeSet;
use std::sync::Arc;

use pagoda_obs::{
    Counter, DeviceSample, MemRecorder, MtbSample, Obs, ObsBuffer, Recorder, SmmSample, SyncMark,
    TaskEvent, TaskMark, TaskRoute, TenantTag,
};

use crate::report::ProfReport;

/// A [`Recorder`] that buffers the stream like a plain recorder and
/// derives per-task phase cuts from it on demand.
#[derive(Debug)]
pub struct ProfRecorder {
    inner: Arc<MemRecorder>,
}

impl ProfRecorder {
    /// A profiling recorder plus the [`Obs`] handle to attach.
    ///
    /// The handle records into the shared buffer with static dispatch
    /// (the profiler itself is not on the record path), so attaching it
    /// costs exactly what [`Obs::recording`] costs.
    pub fn recording() -> (Obs, Arc<ProfRecorder>) {
        let inner = Arc::new(MemRecorder::new());
        let rec = Arc::new(ProfRecorder {
            inner: inner.clone(),
        });
        (Obs::with_mem(inner), rec)
    }

    /// The buffered stream, exactly as a plain recorder would hold it.
    pub fn snapshot(&self) -> ObsBuffer {
        self.inner.snapshot()
    }

    /// Aggregates everything profiled so far into a [`ProfReport`].
    /// Incomplete tasks (never `freed`) are excluded.
    pub fn report(&self) -> ProfReport {
        ProfReport::from_buffer(&self.snapshot())
    }

    /// Number of distinct tasks with at least one recorded cut
    /// (lifecycle event or mark), complete or not.
    pub fn tracked_tasks(&self) -> usize {
        let buf = self.snapshot();
        let mut seen: BTreeSet<u64> = buf.tasks.iter().map(|ev| ev.task).collect();
        seen.extend(buf.marks.iter().map(|m| m.task));
        seen.len()
    }
}

impl Recorder for ProfRecorder {
    fn task(&self, ev: TaskEvent) {
        self.inner.task(ev);
    }

    fn tenant(&self, tag: TenantTag) {
        self.inner.tenant(tag);
    }

    fn mark(&self, m: TaskMark) {
        self.inner.mark(m);
    }

    fn route(&self, r: TaskRoute) {
        self.inner.route(r);
    }

    fn smm(&self, s: SmmSample) {
        self.inner.smm(s);
    }

    fn mtb(&self, s: MtbSample) {
        self.inner.mtb(s);
    }

    fn device(&self, s: DeviceSample) {
        self.inner.device(s);
    }

    fn sync_mark(&self, m: SyncMark) {
        self.inner.sync_mark(m);
    }

    fn count(&self, c: Counter, delta: u64) {
        self.inner.count(c, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagoda_obs::{MarkKind, TaskState};

    fn drive_task(obs: &Obs, i: u64, t0: u64) {
        obs.mark(t0, i, MarkKind::Arrived);
        obs.mark(t0 + 20, i, MarkKind::Admitted);
        obs.task(t0 + 30, i, TaskState::Spawned);
        obs.task(t0 + 100, i, TaskState::Enqueued);
        obs.task(t0 + 150, i, TaskState::Placed);
        obs.task(t0 + 160, i, TaskState::Running);
        obs.task(t0 + 500, i, TaskState::Freed);
        obs.mark(t0 + 540, i, MarkKind::Observed);
        obs.tenant(i, (i % 2) as u32);
    }

    #[test]
    fn tee_preserves_the_buffered_stream() {
        let (plain, plain_rec) = Obs::recording();
        let (prof, prof_rec) = ProfRecorder::recording();
        for obs in [&plain, &prof] {
            drive_task(obs, 0, 100);
            obs.count(Counter::TasksSpawned, 1);
        }
        assert_eq!(
            plain_rec.snapshot().to_json(),
            prof_rec.snapshot().to_json()
        );
    }

    #[test]
    fn report_is_the_buffer_decomposed() {
        let (obs, rec) = ProfRecorder::recording();
        for i in 0..8 {
            drive_task(&obs, i, i * 1_000);
        }
        assert_eq!(rec.report(), ProfReport::from_buffer(&rec.snapshot()));
        assert_eq!(rec.report().total().tasks, 8);
        assert_eq!(rec.tracked_tasks(), 8);
    }

    #[test]
    fn phase_decomposition_sums_to_sojourn_per_group() {
        let (obs, rec) = ProfRecorder::recording();
        for i in 0..5 {
            drive_task(&obs, i, i * 777);
        }
        let r = rec.report();
        for g in &r.groups {
            let sum: u64 = g.phases.iter().map(|h| h.sum()).sum();
            assert_eq!(sum, g.sojourn.sum(), "group {}", g.label);
        }
    }
}
