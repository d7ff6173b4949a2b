//! [`CheckRecorder`]: the online checker as an observability tee.
//!
//! Implements [`Recorder`] so it drops into any `attach_obs` site: each
//! event is validated by a [`CheckCore`] and then forwarded verbatim to
//! an inner [`MemRecorder`], so the buffered stream is byte-identical
//! to what a plain recorder would have captured — attaching the checker
//! never perturbs the determinism fingerprint it is checking.

use std::sync::{Arc, Mutex};

use pagoda_obs::{
    Counter, DeviceSample, MtbSample, Obs, ObsBuffer, Recorder, SmmSample, SyncMark, TaskEvent,
    TaskMark, TaskRoute, TenantTag,
};

use crate::invariants::{CheckCore, CheckLimits, Violation};

/// A [`Recorder`] that checks every event against the invariant catalog
/// and tees it into an inner [`pagoda_obs::MemRecorder`].
#[derive(Debug)]
pub struct CheckRecorder {
    inner: pagoda_obs::MemRecorder,
    core: Mutex<CheckCore>,
}

impl CheckRecorder {
    /// A checking recorder plus the [`Obs`] handle to attach. Pass
    /// [`CheckLimits`] to enable the capacity invariants.
    pub fn recording(limits: Option<CheckLimits>) -> (Obs, Arc<CheckRecorder>) {
        let rec = Arc::new(CheckRecorder {
            inner: pagoda_obs::MemRecorder::new(),
            core: Mutex::new(CheckCore::new(limits)),
        });
        (Obs::new(rec.clone()), rec)
    }

    fn core(&self) -> std::sync::MutexGuard<'_, CheckCore> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The buffered stream, exactly as a plain recorder would hold it.
    pub fn snapshot(&self) -> ObsBuffer {
        self.inner.snapshot()
    }

    /// Runs the end-of-run conservation checks and returns every
    /// violation found over the whole stream. Call after the run
    /// completes (e.g. after `wait_all`).
    pub fn finish(&self) -> Vec<Violation> {
        let mut core = self.core();
        core.finish();
        core.violations().to_vec()
    }

    /// Violations found so far, without the end-of-run checks.
    pub fn violations(&self) -> Vec<Violation> {
        self.core().violations().to_vec()
    }

    /// Violations beyond the reporting cap, counted but not stored.
    pub fn dropped(&self) -> u64 {
        self.core().dropped()
    }

    /// Whether the stream has been clean so far.
    pub fn is_clean(&self) -> bool {
        self.core().is_clean()
    }
}

impl Recorder for CheckRecorder {
    fn task(&self, ev: TaskEvent) {
        self.core().on_task(ev);
        self.inner.task(ev);
    }

    fn tenant(&self, tag: TenantTag) {
        self.inner.tenant(tag);
    }

    fn mark(&self, m: TaskMark) {
        self.core().on_mark(m);
        self.inner.mark(m);
    }

    fn route(&self, r: TaskRoute) {
        self.inner.route(r);
    }

    fn smm(&self, s: SmmSample) {
        self.core().on_smm(s);
        self.inner.smm(s);
    }

    fn mtb(&self, s: MtbSample) {
        self.core().on_mtb(s);
        self.inner.mtb(s);
    }

    fn device(&self, s: DeviceSample) {
        self.core().on_device(s);
        self.inner.device(s);
    }

    fn sync_mark(&self, m: SyncMark) {
        self.core().on_sync_mark(m);
        self.inner.sync_mark(m);
    }

    fn count(&self, c: Counter, delta: u64) {
        self.core().on_count(c, delta);
        self.inner.count(c, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagoda_obs::TaskState;

    #[test]
    fn tee_preserves_the_buffered_stream() {
        let (plain, plain_rec) = Obs::recording();
        let (checked, check_rec) = CheckRecorder::recording(None);
        for obs in [&plain, &checked] {
            obs.task(1, 0, TaskState::Spawned);
            obs.task(9, 0, TaskState::Freed);
            obs.count(Counter::TasksSpawned, 1);
            obs.sync_mark(9, pagoda_obs::SyncKind::Sync);
        }
        assert_eq!(
            plain_rec.snapshot().to_json(),
            check_rec.snapshot().to_json()
        );
        assert!(check_rec.finish().is_empty());
    }

    #[test]
    fn violations_surface_through_the_obs_handle() {
        let (obs, rec) = CheckRecorder::recording(None);
        obs.task(5, 42, TaskState::Running); // never spawned
        assert!(!rec.is_clean());
        assert_eq!(rec.violations().len(), 1);
    }
}
