//! The invariant catalog: what the checker validates on every event,
//! and [`check`], which folds it over a recorded run.
//!
//! Each invariant restates a contract the rest of the workspace relies
//! on informally. The checker sees only the observability log — task
//! lifecycle events, resource samples, device samples, sync marks in
//! emission order, then the counter totals — so every rule here is
//! phrased over that log, never over runtime internals:
//!
//! 1. **Lifecycle order** — a task's states strictly advance along
//!    spawned → enqueued → placed → running → freed, at instants that
//!    never decrease; no event names a task before its `Spawned`.
//! 2. **Conservation** — at end of run, every spawned task reached a
//!    terminal `Freed` (completion and loss both free the entry), and
//!    every device's final sample shows zero outstanding tasks.
//! 3. **SMM capacity** — per-SMM samples never exceed the device spec:
//!    resident warps, free registers/shared memory, TB slots.
//! 4. **MTB capacity** — per-MTB samples never exceed the MasterKernel
//!    shape: 31 executor-warp slots, the buddy-pool bytes, the
//!    TaskTable column depth.
//! 5. **Dead devices stay dead** — a device sampled `alive = false`
//!    never reports outstanding work and never comes back.
//! 6. **Merge order** — within one fleet sync batch, completions apply
//!    in non-decreasing fleet time (the `(instant, device, key)` sorted
//!    merge).
//! 7. **Fleet causality** — inside a regular sync batch, no completion
//!    is fleet-visible past the batch's fleet instant (the
//!    causal-harvest gate). Kill-harvest batches are exempt: a dying
//!    device's local clock legitimately ran ahead.
//! 8. **Staging accounting** — at end of run, staged transfers do not
//!    exceed off-home placements (a transfer is only ever charged for an
//!    off-home placement).
//! 9. **Phase decomposition** — at end of run, every completed task's
//!    `pagoda-prof` phase decomposition sums exactly to its sojourn
//!    (the telescoping contract the profiler's attribution rests on),
//!    recomputed here from the checker's own cut timeline.

use std::collections::BTreeMap;
use std::fmt;

use pagoda_core::warptable::EXECUTORS_PER_MTB;
use pagoda_core::PagodaConfig;
use pagoda_obs::{
    Counter, DeviceSample, Event, MtbSample, Recording, SmmSample, SyncKind, SyncMark, TaskEvent,
    TaskMark, TaskState,
};
use pagoda_prof::{decompose, Cuts};

/// Resource ceilings the capacity invariants compare samples against,
/// derived once from the runtime configuration of the (uniform) devices
/// under check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckLimits {
    /// Warps an SMM can hold resident (the device spec in
    /// [`PagodaConfig`]).
    pub max_warps_per_sm: u32,
    /// Register-file registers per SMM.
    pub regs_per_sm: u64,
    /// Shared-memory bytes per SMM.
    pub smem_per_sm: u64,
    /// Threadblock slots per SMM.
    pub max_tbs_per_sm: u32,
    /// Executor-warp slots per MTB WarpTable (31: one warp schedules).
    pub mtb_warp_slots: u32,
    /// Bytes of each MTB's buddy shared-memory pool.
    pub mtb_pool_bytes: u64,
    /// TaskTable entries per MTB column.
    pub rows_per_column: u32,
}

impl CheckLimits {
    /// Ceilings for devices built from `cfg`.
    pub fn of(cfg: &PagodaConfig) -> Self {
        let spec = &cfg.device.spec;
        CheckLimits {
            max_warps_per_sm: spec.max_warps_per_sm,
            regs_per_sm: u64::from(spec.regs_per_sm),
            smem_per_sm: u64::from(spec.smem_per_sm),
            max_tbs_per_sm: spec.max_tbs_per_sm,
            mtb_warp_slots: EXECUTORS_PER_MTB as u32,
            mtb_pool_bytes: u64::from(cfg.mtb_pool_bytes()),
            rows_per_column: cfg.rows_per_column,
        }
    }
}

/// One invariant violation, with enough context to act on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A task's lifecycle went backwards (or repeated a state).
    LifecycleOrder {
        /// The task.
        task: u64,
        /// State it was last seen in.
        from: TaskState,
        /// State the offending event claims.
        to: TaskState,
        /// Instant of the offending event, picoseconds.
        at_ps: u64,
    },
    /// A task reached a state at an instant before its previous one.
    LifecycleTime {
        /// The task.
        task: u64,
        /// The state the offending event claims.
        state: TaskState,
        /// Instant of the offending event, picoseconds.
        at_ps: u64,
        /// Instant of the task's previous state, picoseconds.
        prev_ps: u64,
    },
    /// An event named a task never seen `Spawned`.
    UnknownTask {
        /// The task.
        task: u64,
        /// The state the event claims.
        state: TaskState,
        /// Instant of the offending event, picoseconds.
        at_ps: u64,
    },
    /// An SMM sample exceeds a device-spec ceiling.
    SmmOverCapacity {
        /// SMM index.
        sm: u32,
        /// Which field overflowed.
        field: &'static str,
        /// Observed value.
        value: u64,
        /// The ceiling.
        limit: u64,
        /// Sample instant, picoseconds.
        at_ps: u64,
    },
    /// An MTB sample exceeds a MasterKernel-shape ceiling.
    MtbOverCapacity {
        /// MTB index.
        mtb: u32,
        /// Which field overflowed.
        field: &'static str,
        /// Observed value.
        value: u64,
        /// The ceiling.
        limit: u64,
        /// Sample instant, picoseconds.
        at_ps: u64,
    },
    /// A dead device reported in-flight tasks.
    DeadDeviceActivity {
        /// Device index.
        device: u32,
        /// Outstanding tasks it claimed.
        outstanding: u32,
        /// Sample instant, picoseconds.
        at_ps: u64,
    },
    /// A device sampled dead later sampled alive.
    DeviceResurrected {
        /// Device index.
        device: u32,
        /// Sample instant, picoseconds.
        at_ps: u64,
    },
    /// Completions within one sync batch regressed in fleet time — the
    /// sorted-merge contract broke.
    MergeOrder {
        /// Task whose completion regressed.
        task: u64,
        /// Its completion instant, picoseconds.
        at_ps: u64,
        /// The later instant already applied in this batch.
        prev_ps: u64,
    },
    /// A completion became fleet-visible past its sync point — the
    /// causal-harvest gate broke.
    CausalityBreach {
        /// The task.
        task: u64,
        /// Its completion instant, picoseconds.
        at_ps: u64,
        /// The batch's fleet instant, picoseconds.
        mark_ps: u64,
    },
    /// Staged transfers overtook off-home placements.
    StagingOverCharge {
        /// Staged-transfer count.
        staged: u64,
        /// Off-home placement count.
        off_affinity: u64,
    },
    /// End of run: spawned tasks never reached a terminal `Freed`.
    ConservationLeak {
        /// Tasks seen `Spawned`.
        spawned: u64,
        /// Tasks seen `Freed`.
        terminal: u64,
        /// An example leaked task.
        example: u64,
    },
    /// End of run: a device's final sample still holds in-flight tasks.
    DeviceOutstandingLeak {
        /// Device index.
        device: u32,
        /// Outstanding tasks in its final sample.
        outstanding: u32,
    },
    /// End of run: a completed task's phase decomposition does not sum
    /// to its sojourn — the profiler's telescoping contract broke.
    PhaseSumMismatch {
        /// The task.
        task: u64,
        /// Sum of the seven phase durations, picoseconds.
        phase_sum_ps: u64,
        /// The sojourn the phases must partition, picoseconds.
        sojourn_ps: u64,
    },
    /// A QoS scheduler broke its ordering contract (reported by
    /// [`QosCheck`](crate::QosCheck)).
    QosOrder {
        /// Policy name.
        policy: &'static str,
        /// What the contract demanded next.
        expected: u64,
        /// What the scheduler produced.
        got: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LifecycleOrder {
                task,
                from,
                to,
                at_ps,
            } => write!(
                f,
                "task {task} lifecycle went {} -> {} at {at_ps} ps",
                from.name(),
                to.name()
            ),
            Violation::LifecycleTime {
                task,
                state,
                at_ps,
                prev_ps,
            } => write!(
                f,
                "task {task} reached {} at {at_ps} ps, before its previous state at {prev_ps} ps",
                state.name()
            ),
            Violation::UnknownTask { task, state, at_ps } => write!(
                f,
                "task {task} reached {} at {at_ps} ps without being spawned",
                state.name()
            ),
            Violation::SmmOverCapacity {
                sm,
                field,
                value,
                limit,
                at_ps,
            } => write!(
                f,
                "smm {sm} {field} = {value} exceeds limit {limit} at {at_ps} ps"
            ),
            Violation::MtbOverCapacity {
                mtb,
                field,
                value,
                limit,
                at_ps,
            } => write!(
                f,
                "mtb {mtb} {field} = {value} exceeds limit {limit} at {at_ps} ps"
            ),
            Violation::DeadDeviceActivity {
                device,
                outstanding,
                at_ps,
            } => write!(
                f,
                "dead device {device} reports {outstanding} outstanding task(s) at {at_ps} ps"
            ),
            Violation::DeviceResurrected { device, at_ps } => {
                write!(f, "dead device {device} came back alive at {at_ps} ps")
            }
            Violation::MergeOrder {
                task,
                at_ps,
                prev_ps,
            } => write!(
                f,
                "completion of task {task} at {at_ps} ps applied after one at {prev_ps} ps \
                 in the same sync batch (merge unsorted)"
            ),
            Violation::CausalityBreach {
                task,
                at_ps,
                mark_ps,
            } => write!(
                f,
                "task {task} completed at {at_ps} ps, past its sync point {mark_ps} ps \
                 (causal-harvest gate broken)"
            ),
            Violation::StagingOverCharge {
                staged,
                off_affinity,
            } => write!(
                f,
                "staged transfers ({staged}) exceed off-home placements ({off_affinity})"
            ),
            Violation::ConservationLeak {
                spawned,
                terminal,
                example,
            } => write!(
                f,
                "conservation: {spawned} task(s) spawned but only {terminal} freed \
                 (e.g. task {example} never terminal)"
            ),
            Violation::DeviceOutstandingLeak {
                device,
                outstanding,
            } => write!(
                f,
                "device {device} ended the run with {outstanding} task(s) outstanding"
            ),
            Violation::PhaseSumMismatch {
                task,
                phase_sum_ps,
                sojourn_ps,
            } => write!(
                f,
                "task {task} phase decomposition sums to {phase_sum_ps} ps, \
                 sojourn is {sojourn_ps} ps"
            ),
            Violation::QosOrder {
                policy,
                expected,
                got,
            } => write!(
                f,
                "{policy} scheduler popped seq {got}, contract demanded seq {expected}"
            ),
        }
    }
}

/// Keep at most this many violations; a broken run can flood millions of
/// identical reports, and the first few localize the bug.
pub const MAX_VIOLATIONS: usize = 64;

/// The invariant state machine. Feed it a run's events in emission
/// order, then its staging totals, then call [`CheckCore::finish`] for
/// the end-of-run conservation checks — [`check`] does all three.
#[derive(Debug)]
pub(crate) struct CheckCore {
    limits: Option<CheckLimits>,
    /// task → last lifecycle state seen, and its instant.
    task_state: BTreeMap<u64, (TaskState, u64)>,
    /// task → phase-cut timeline, rebuilt from lifecycle events and
    /// marks for the end-of-run decomposition check (invariant 9).
    cuts: BTreeMap<u64, Cuts>,
    spawned: u64,
    terminal: u64,
    /// device → (alive, outstanding) from its latest sample.
    device_last: BTreeMap<u32, (bool, u32)>,
    /// The current sync batch, if any mark has been seen.
    batch: Option<SyncMark>,
    /// Latest `Freed` instant applied in the current batch.
    batch_freed: Option<u64>,
    violations: Vec<Violation>,
    dropped: u64,
}

impl CheckCore {
    /// A fresh checker. Pass [`CheckLimits`] to enable the capacity
    /// invariants; without them only stream-shape invariants run (a
    /// fleet of non-uniform devices has no single ceiling set).
    pub fn new(limits: Option<CheckLimits>) -> Self {
        CheckCore {
            limits,
            task_state: BTreeMap::new(),
            cuts: BTreeMap::new(),
            spawned: 0,
            terminal: 0,
            device_last: BTreeMap::new(),
            batch: None,
            batch_freed: None,
            violations: Vec::new(),
            dropped: 0,
        }
    }

    fn flag(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.dropped += 1;
        }
    }

    /// Routes one stream event to the invariants that watch its kind.
    /// Tenant tags and routes carry nothing any invariant reads.
    pub fn feed(&mut self, ev: &Event) {
        match *ev {
            Event::Task(e) => self.on_task(e),
            Event::Mark(m) => self.on_mark(m),
            Event::Smm(s) => self.on_smm(s),
            Event::Mtb(s) => self.on_mtb(s),
            Event::Device(s) => self.on_device(s),
            Event::Sync(m) => self.on_sync_mark(m),
            Event::Tenant(_) | Event::Route(_) => {}
        }
    }

    /// Invariant 1 (lifecycle), 6 (merge order), 7 (causality); also
    /// feeds the cut timeline for invariant 9.
    fn on_task(&mut self, ev: TaskEvent) {
        self.cuts
            .entry(ev.task)
            .or_default()
            .note_state(ev.state, ev.at_ps);
        match self.task_state.get(&ev.task).copied() {
            None => {
                if ev.state == TaskState::Spawned {
                    self.spawned += 1;
                } else {
                    self.flag(Violation::UnknownTask {
                        task: ev.task,
                        state: ev.state,
                        at_ps: ev.at_ps,
                    });
                    // The state is adopted anyway (below) so one missing
                    // Spawned does not cascade into a violation per later
                    // event.
                }
            }
            Some((prev, prev_ps)) => {
                if ev.state <= prev {
                    self.flag(Violation::LifecycleOrder {
                        task: ev.task,
                        from: prev,
                        to: ev.state,
                        at_ps: ev.at_ps,
                    });
                }
                if ev.at_ps < prev_ps {
                    self.flag(Violation::LifecycleTime {
                        task: ev.task,
                        state: ev.state,
                        at_ps: ev.at_ps,
                        prev_ps,
                    });
                }
            }
        }
        self.task_state.insert(ev.task, (ev.state, ev.at_ps));
        if ev.state == TaskState::Freed {
            self.terminal += 1;
            if let Some(mark) = self.batch {
                if mark.kind == SyncKind::Sync {
                    if ev.at_ps > mark.at_ps {
                        self.flag(Violation::CausalityBreach {
                            task: ev.task,
                            at_ps: ev.at_ps,
                            mark_ps: mark.at_ps,
                        });
                    }
                    if let Some(prev) = self.batch_freed {
                        if ev.at_ps < prev {
                            self.flag(Violation::MergeOrder {
                                task: ev.task,
                                at_ps: ev.at_ps,
                                prev_ps: prev,
                            });
                        }
                    }
                }
                self.batch_freed = Some(ev.at_ps.max(self.batch_freed.unwrap_or(0)));
            }
        }
    }

    /// Feeds arrival/admission/observation marks into the cut timeline
    /// for the end-of-run decomposition check (invariant 9).
    fn on_mark(&mut self, m: TaskMark) {
        self.cuts
            .entry(m.task)
            .or_default()
            .note_mark(m.kind, m.at_ps);
    }

    /// Invariant 3 (SMM capacity).
    fn on_smm(&mut self, s: SmmSample) {
        let Some(l) = self.limits else { return };
        let checks: [(&'static str, u64, u64); 5] = [
            (
                "resident_warps",
                u64::from(s.resident_warps),
                u64::from(l.max_warps_per_sm),
            ),
            (
                "running_warps",
                u64::from(s.running_warps),
                u64::from(s.resident_warps),
            ),
            ("free_regs", s.free_regs, l.regs_per_sm),
            ("free_smem", s.free_smem, l.smem_per_sm),
            (
                "free_tb_slots",
                u64::from(s.free_tb_slots),
                u64::from(l.max_tbs_per_sm),
            ),
        ];
        for (field, value, limit) in checks {
            if value > limit {
                self.flag(Violation::SmmOverCapacity {
                    sm: s.sm,
                    field,
                    value,
                    limit,
                    at_ps: s.at_ps,
                });
            }
        }
    }

    /// Invariant 4 (MTB capacity).
    fn on_mtb(&mut self, s: MtbSample) {
        let Some(l) = self.limits else { return };
        let checks: [(&'static str, u64, u64); 3] = [
            (
                "free_warp_slots",
                u64::from(s.free_warp_slots),
                u64::from(l.mtb_warp_slots),
            ),
            ("free_smem", s.free_smem, l.mtb_pool_bytes),
            (
                "used_entries",
                u64::from(s.used_entries),
                u64::from(l.rows_per_column),
            ),
        ];
        for (field, value, limit) in checks {
            if value > limit {
                self.flag(Violation::MtbOverCapacity {
                    mtb: s.mtb,
                    field,
                    value,
                    limit,
                    at_ps: s.at_ps,
                });
            }
        }
    }

    /// Invariant 5 (dead devices stay dead and idle).
    fn on_device(&mut self, s: DeviceSample) {
        if let Some((was_alive, _)) = self.device_last.get(&s.device) {
            if !was_alive && s.alive {
                self.flag(Violation::DeviceResurrected {
                    device: s.device,
                    at_ps: s.at_ps,
                });
            }
        }
        if !s.alive && s.outstanding > 0 {
            self.flag(Violation::DeadDeviceActivity {
                device: s.device,
                outstanding: s.outstanding,
                at_ps: s.at_ps,
            });
        }
        self.device_last.insert(s.device, (s.alive, s.outstanding));
    }

    /// Opens a new sync batch (invariants 6 and 7 reset their window).
    fn on_sync_mark(&mut self, m: SyncMark) {
        self.batch = Some(m);
        self.batch_freed = None;
    }

    /// Invariant 8 (staging accounting), on the run's final totals of
    /// [`Counter::ClusterStagedTransfers`] and
    /// [`Counter::ClusterOffAffinity`].
    pub fn check_staging(&mut self, staged: u64, off_affinity: u64) {
        if staged > off_affinity {
            self.flag(Violation::StagingOverCharge {
                staged,
                off_affinity,
            });
        }
    }

    /// Invariant 2 (conservation), checked once the run is over: every
    /// spawned task must have reached `Freed`, and every device's final
    /// sample must show zero outstanding tasks.
    pub fn finish(&mut self) {
        if self.terminal < self.spawned {
            let example = self
                .task_state
                .iter()
                .find(|(_, &(st, _))| st != TaskState::Freed)
                .map_or(u64::MAX, |(&t, _)| t);
            self.flag(Violation::ConservationLeak {
                spawned: self.spawned,
                terminal: self.terminal,
                example,
            });
        }
        let leaks: Vec<(u32, u32)> = self
            .device_last
            .iter()
            .filter(|(_, &(_, outstanding))| outstanding > 0)
            .map(|(&d, &(_, o))| (d, o))
            .collect();
        for (device, outstanding) in leaks {
            self.flag(Violation::DeviceOutstandingLeak {
                device,
                outstanding,
            });
        }
        // Invariant 9: every completed task's phase decomposition must
        // partition its sojourn exactly (the telescoping contract all
        // pagoda-prof attribution rests on).
        let mismatches: Vec<Violation> = self
            .cuts
            .iter()
            .filter(|(_, c)| c.complete())
            .filter_map(|(&task, c)| {
                let d = decompose(c)?;
                let phase_sum_ps: u64 = d.phases.iter().sum();
                (phase_sum_ps != d.sojourn_ps).then_some(Violation::PhaseSumMismatch {
                    task,
                    phase_sum_ps,
                    sojourn_ps: d.sojourn_ps,
                })
            })
            .collect();
        for v in mismatches {
            self.flag(v);
        }
    }
}

/// Checks a recorded run once it is over: feeds every event of `rec` to
/// the per-event checks in emission order, hands invariant 8 the final
/// counter totals, and runs the end-of-run checks. Returns the
/// violations (at most [`MAX_VIOLATIONS`]) and how many more were
/// counted past that cap.
pub fn check(rec: &Recording, limits: Option<CheckLimits>) -> (Vec<Violation>, u64) {
    let mut core = CheckCore::new(limits);
    for ev in rec.events() {
        core.feed(&ev);
    }
    core.check_staging(
        rec.counter(Counter::ClusterStagedTransfers),
        rec.counter(Counter::ClusterOffAffinity),
    );
    core.finish();
    (core.violations, core.dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ps: u64, task: u64, state: TaskState) -> TaskEvent {
        TaskEvent { at_ps, task, state }
    }

    #[test]
    fn clean_lifecycle_passes() {
        let mut c = CheckCore::new(None);
        for (t, s) in [
            (0, TaskState::Spawned),
            (1, TaskState::Spawned),
            (0, TaskState::Enqueued),
            (0, TaskState::Running),
            (0, TaskState::Freed),
            (1, TaskState::Freed),
        ] {
            c.on_task(ev(t * 10, t, s));
        }
        c.finish();
        assert!(c.violations.is_empty(), "{:?}", c.violations);
    }

    #[test]
    fn marks_feed_cuts_and_phase_sums_reconcile() {
        use pagoda_obs::MarkKind;
        let mut c = CheckCore::new(None);
        c.on_mark(TaskMark {
            at_ps: 5,
            task: 0,
            kind: MarkKind::Arrived,
        });
        c.on_mark(TaskMark {
            at_ps: 8,
            task: 0,
            kind: MarkKind::Admitted,
        });
        for (at, s) in [
            (10, TaskState::Spawned),
            (20, TaskState::Enqueued),
            (35, TaskState::Running),
            (60, TaskState::Freed),
        ] {
            c.on_task(ev(at, 0, s));
        }
        c.on_mark(TaskMark {
            at_ps: 70,
            task: 0,
            kind: MarkKind::Observed,
        });
        c.finish();
        assert!(c.violations.is_empty(), "{:?}", c.violations);
        let d = decompose(&c.cuts[&0]).expect("task completed");
        assert_eq!(d.sojourn_ps, 65); // arrival (5) → observed (70)
        assert_eq!(d.phases.iter().sum::<u64>(), 65);
    }

    #[test]
    fn backwards_lifecycle_is_flagged() {
        let mut c = CheckCore::new(None);
        c.on_task(ev(0, 7, TaskState::Spawned));
        c.on_task(ev(1, 7, TaskState::Running));
        c.on_task(ev(2, 7, TaskState::Enqueued));
        assert!(matches!(
            c.violations[0],
            Violation::LifecycleOrder { task: 7, .. }
        ));
    }

    #[test]
    fn a_state_before_its_predecessor_in_time_is_flagged() {
        let mut c = CheckCore::new(None);
        c.on_task(ev(10, 7, TaskState::Spawned));
        c.on_task(ev(10, 7, TaskState::Enqueued)); // same instant: fine
        c.on_task(ev(4, 7, TaskState::Placed));
        c.on_task(ev(20, 7, TaskState::Freed));
        assert_eq!(
            c.violations,
            vec![Violation::LifecycleTime {
                task: 7,
                state: TaskState::Placed,
                at_ps: 4,
                prev_ps: 10
            }]
        );
    }

    #[test]
    fn event_before_spawn_is_flagged_once() {
        let mut c = CheckCore::new(None);
        c.on_task(ev(5, 3, TaskState::Running));
        c.on_task(ev(9, 3, TaskState::Freed));
        assert_eq!(c.violations.len(), 1);
        assert!(matches!(
            c.violations[0],
            Violation::UnknownTask { task: 3, .. }
        ));
    }

    #[test]
    fn conservation_leak_is_flagged_at_finish() {
        let mut c = CheckCore::new(None);
        c.on_task(ev(0, 0, TaskState::Spawned));
        c.on_task(ev(0, 1, TaskState::Spawned));
        c.on_task(ev(5, 0, TaskState::Freed));
        assert!(c.violations.is_empty());
        c.finish();
        assert!(matches!(
            c.violations[0],
            Violation::ConservationLeak {
                spawned: 2,
                terminal: 1,
                example: 1
            }
        ));
    }

    #[test]
    fn merge_regression_within_sync_batch_is_flagged() {
        let mut c = CheckCore::new(None);
        c.on_task(ev(0, 0, TaskState::Spawned));
        c.on_task(ev(0, 1, TaskState::Spawned));
        c.on_sync_mark(SyncMark {
            at_ps: 100,
            kind: SyncKind::Sync,
        });
        c.on_task(ev(90, 0, TaskState::Freed));
        c.on_task(ev(40, 1, TaskState::Freed)); // regressed
        assert!(matches!(
            c.violations[0],
            Violation::MergeOrder {
                task: 1,
                at_ps: 40,
                prev_ps: 90
            }
        ));
    }

    #[test]
    fn kill_harvest_batch_is_exempt_from_merge_and_causality() {
        let mut c = CheckCore::new(None);
        c.on_task(ev(0, 0, TaskState::Spawned));
        c.on_task(ev(0, 1, TaskState::Spawned));
        c.on_sync_mark(SyncMark {
            at_ps: 100,
            kind: SyncKind::KillHarvest,
        });
        c.on_task(ev(250, 0, TaskState::Freed)); // past the mark: fine
        c.on_task(ev(100, 1, TaskState::Freed)); // regression: fine
        c.finish();
        assert!(c.violations.is_empty(), "{:?}", c.violations);
    }

    #[test]
    fn future_completion_in_sync_batch_breaches_causality() {
        let mut c = CheckCore::new(None);
        c.on_task(ev(0, 0, TaskState::Spawned));
        c.on_sync_mark(SyncMark {
            at_ps: 100,
            kind: SyncKind::Sync,
        });
        c.on_task(ev(130, 0, TaskState::Freed));
        assert!(matches!(
            c.violations[0],
            Violation::CausalityBreach {
                task: 0,
                at_ps: 130,
                mark_ps: 100
            }
        ));
    }

    #[test]
    fn staging_may_trail_but_never_exceed_off_affinity() {
        let mut c = CheckCore::new(None);
        c.check_staging(1, 2);
        c.check_staging(2, 2);
        assert!(c.violations.is_empty());
        c.check_staging(3, 2);
        assert!(matches!(
            c.violations[0],
            Violation::StagingOverCharge {
                staged: 3,
                off_affinity: 2
            }
        ));
    }

    #[test]
    fn the_checker_reads_the_order_across_streams() {
        // Both runs hold the same task events and the same sync marks;
        // only the batch task 0's `Freed` lands in differs. A fold over
        // one stream at a time cannot tell them apart.
        let run = |freed_in_first_batch: bool| {
            let (obs, rec) = pagoda_obs::Obs::recording();
            obs.task(0, 0, TaskState::Spawned);
            obs.sync_mark(100, SyncKind::Sync);
            if freed_in_first_batch {
                obs.task(150, 0, TaskState::Freed);
            }
            obs.sync_mark(200, SyncKind::Sync);
            if !freed_in_first_batch {
                obs.task(150, 0, TaskState::Freed);
            }
            rec
        };
        let (late, early) = (run(false), run(true));
        assert_eq!(late.snapshot(), early.snapshot());
        assert_eq!(check(&late, None), (vec![], 0));
        let breach = Violation::CausalityBreach {
            task: 0,
            at_ps: 150,
            mark_ps: 100,
        };
        assert_eq!(check(&early, None), (vec![breach], 0));
    }

    #[test]
    fn dead_device_with_outstanding_is_flagged() {
        let mut c = CheckCore::new(None);
        let s = |at_ps, alive, outstanding| DeviceSample {
            at_ps,
            device: 1,
            known_free: 0,
            outstanding,
            alive,
        };
        c.on_device(s(10, true, 3));
        c.on_device(s(20, false, 0));
        assert!(c.violations.is_empty());
        c.on_device(s(30, false, 2));
        assert!(matches!(
            c.violations[0],
            Violation::DeadDeviceActivity {
                device: 1,
                outstanding: 2,
                ..
            }
        ));
        c.on_device(s(40, true, 0));
        assert!(matches!(
            c.violations[1],
            Violation::DeviceResurrected { device: 1, .. }
        ));
    }

    #[test]
    fn capacity_limits_bound_samples() {
        let cfg = PagodaConfig::default();
        let l = CheckLimits::of(&cfg);
        assert_eq!(l.mtb_warp_slots, 31);
        assert_eq!(l.rows_per_column, 32);
        let mut c = CheckCore::new(Some(l));
        c.on_mtb(MtbSample {
            at_ps: 5,
            mtb: 0,
            free_warp_slots: 31,
            free_smem: l.mtb_pool_bytes,
            used_entries: 32,
        });
        assert!(c.violations.is_empty());
        c.on_mtb(MtbSample {
            at_ps: 6,
            mtb: 0,
            free_warp_slots: 32, // one more slot than the WarpTable has
            free_smem: 0,
            used_entries: 0,
        });
        assert!(matches!(
            c.violations[0],
            Violation::MtbOverCapacity {
                field: "free_warp_slots",
                ..
            }
        ));
        c.on_smm(SmmSample {
            at_ps: 7,
            sm: 2,
            resident_warps: l.max_warps_per_sm + 1,
            running_warps: 0,
            free_regs: 0,
            free_smem: 0,
            free_tb_slots: 0,
        });
        assert!(matches!(
            c.violations[1],
            Violation::SmmOverCapacity {
                sm: 2,
                field: "resident_warps",
                ..
            }
        ));
    }

    #[test]
    fn violation_cap_counts_overflow() {
        let mut c = CheckCore::new(None);
        for t in 0..(MAX_VIOLATIONS as u64 + 10) {
            c.on_task(ev(0, t, TaskState::Freed)); // all unknown tasks
        }
        assert_eq!(c.violations.len(), MAX_VIOLATIONS);
        assert_eq!(c.dropped, 10);
    }
}
