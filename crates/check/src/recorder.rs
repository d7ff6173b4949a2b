//! [`CheckRecorder`]: the online checker as an observability tee.
//!
//! Implements [`Recorder`] so it drops into any `attach_obs` site: each
//! event is validated by a [`CheckCore`] and then forwarded verbatim to
//! an inner [`pagoda_obs::MemRecorder`], so the buffered stream is
//! byte-identical to what a plain recorder would have captured —
//! attaching the checker never perturbs the determinism fingerprint it
//! is checking.
//!
//! The checker sits *in* the stream rather than folding over the
//! snapshot afterwards because the merge-order, causality and staging
//! invariants depend on how events of different kinds interleave, and
//! [`ObsBuffer`] keeps one `Vec` per kind.

use std::sync::{Arc, Mutex};

use pagoda_obs::{Counter, Event, Obs, ObsBuffer, Recorder};

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
    fn event(&self, ev: Event) {
        self.core().feed(&ev);
        self.inner.event(ev);
    }

    fn count(&self, c: Counter, delta: u64) {
        self.core().on_count(c, delta);
        self.inner.count(c, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagoda_obs::{
        DeviceSample, MarkKind, MtbSample, SmmSample, SyncKind, SyncMark, TaskEvent, TaskMark,
        TaskRoute, TaskState, TenantTag,
    };

    /// Replays `ev` through the `Obs` method an instrumented crate would
    /// call. The match is exhaustive on purpose: a new [`Event`] variant
    /// stops this compiling until it is added here and to `one_of_each`.
    fn drive(obs: &Obs, ev: Event) {
        match ev {
            Event::Task(TaskEvent { at_ps, task, state }) => obs.task(at_ps, task, state),
            Event::Tenant(TenantTag { task, tenant }) => obs.tenant(task, tenant),
            Event::Smm(s) => obs.smm(s),
            Event::Mtb(s) => obs.mtb(s),
            Event::Device(s) => obs.device(s),
            Event::Sync(SyncMark { at_ps, kind }) => obs.sync_mark(at_ps, kind),
            Event::Mark(TaskMark { at_ps, task, kind }) => obs.mark(at_ps, task, kind),
            Event::Route(TaskRoute { task, device }) => obs.route(task, device),
        }
    }

    fn one_of_each() -> [Event; 9] {
        let task = |at_ps, state| {
            Event::Task(TaskEvent {
                at_ps,
                task: 0,
                state,
            })
        };
        [
            task(1, TaskState::Spawned),
            Event::Tenant(TenantTag { task: 0, tenant: 3 }),
            Event::Route(TaskRoute { task: 0, device: 1 }),
            Event::Mark(TaskMark {
                at_ps: 0,
                task: 0,
                kind: MarkKind::Arrived,
            }),
            Event::Smm(SmmSample {
                at_ps: 2,
                sm: 0,
                resident_warps: 4,
                running_warps: 2,
                free_regs: 100,
                free_smem: 200,
                free_tb_slots: 1,
            }),
            Event::Mtb(MtbSample {
                at_ps: 3,
                mtb: 1,
                free_warp_slots: 30,
                free_smem: 1024,
                used_entries: 1,
            }),
            Event::Device(DeviceSample {
                at_ps: 4,
                device: 1,
                known_free: 10,
                outstanding: 0,
                alive: true,
            }),
            Event::Sync(SyncMark {
                at_ps: 9,
                kind: SyncKind::Sync,
            }),
            task(9, TaskState::Freed),
        ]
    }

    #[test]
    fn tee_preserves_the_buffered_stream() {
        let (plain, plain_rec) = Obs::recording();
        let (checked, check_rec) = CheckRecorder::recording(None);
        for obs in [&plain, &checked] {
            for ev in one_of_each() {
                drive(obs, ev);
            }
            obs.count(Counter::TasksSpawned, 1);
        }
        let json = check_rec.snapshot().to_json();
        assert_eq!(plain_rec.snapshot().to_json(), json);
        // An empty stream serializes as `[]`: every kind reached the
        // buffer, so the two sides did not agree by both dropping one.
        assert!(!json.contains("[]"), "a stream is empty: {json}");
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
