//! The event taxonomy: everything a [`Recorder`](crate::Recorder) can
//! receive — an [`Event`] or a [`Counter`] bump. Three shapes, matched
//! to how the paper argues its claims:
//!
//! * [`TaskEvent`] — one per task *state change*, following the paper's
//!   lifecycle (spawned → enqueued → placed → running → freed). Latency
//!   figures (Figs. 5-7, 10) are differences between these instants.
//! * [`SmmSample`] / [`MtbSample`] — resource snapshots taken at
//!   state-change events only (never on a timer): resident warps, free
//!   registers/shared memory, TB slots. These make the Fig. 8
//!   warp-vs-TB-granularity crossover visible as a timeline.
//! * [`Counter`] — monotonic tallies (PCIe transactions, TaskTable polls,
//!   admission decisions, scheduler actions, engine events).
//!
//! Timestamps are raw picoseconds (`at_ps`) rather than `desim::SimTime`
//! so the event structs serialize with the vendored serde derive and the
//! crate stays dependency-free.

use serde::{Deserialize, Serialize};

/// Task lifecycle states, in order. Mirrors the TaskTable protocol: the
/// host spawns an entry, the entry becomes visible on the device
/// (enqueued), a scheduler warp places it, executor warps run it, and the
/// entry is freed at warp granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TaskState {
    /// Host-side `submit` accepted the descriptor and issued the entry copy.
    Spawned,
    /// The entry became visible to the device-side TaskTable column.
    Enqueued,
    /// A scheduler warp finished placement (resources reserved).
    Placed,
    /// The first executor warp started running task work.
    Running,
    /// The entry was freed (task complete, resources recycled).
    Freed,
}

impl TaskState {
    /// All states, lifecycle order.
    pub const ALL: [TaskState; 5] = [
        TaskState::Spawned,
        TaskState::Enqueued,
        TaskState::Placed,
        TaskState::Running,
        TaskState::Freed,
    ];

    /// Stable lowercase name (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            TaskState::Spawned => "spawned",
            TaskState::Enqueued => "enqueued",
            TaskState::Placed => "placed",
            TaskState::Running => "running",
            TaskState::Freed => "freed",
        }
    }
}

/// One task lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskEvent {
    /// Simulation instant, picoseconds.
    pub at_ps: u64,
    /// Runtime-assigned task id.
    pub task: u64,
    /// The state entered at `at_ps`.
    pub state: TaskState,
}

/// Associates a task with a tenant (serving layer); exporters group task
/// spans into one track per tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantTag {
    /// Runtime-assigned task id.
    pub task: u64,
    /// Tenant index within the serving configuration.
    pub tenant: u32,
}

/// Per-SMM resource snapshot, taken when the SMM's residency changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmmSample {
    /// Simulation instant, picoseconds.
    pub at_ps: u64,
    /// SMM index.
    pub sm: u32,
    /// Warps currently resident (native kernels + MasterKernel warps).
    pub resident_warps: u32,
    /// Warps currently executing work (for a Pagoda run, residency is
    /// flat at 100 % — this is where per-SMM activity shows).
    pub running_warps: u32,
    /// Register-file registers not reserved by resident work.
    pub free_regs: u64,
    /// Shared-memory bytes not reserved by resident work.
    pub free_smem: u64,
    /// Threadblock slots not occupied.
    pub free_tb_slots: u32,
}

/// Per-MTB (MasterKernel threadblock) snapshot, taken when a scheduler
/// warp changes its column's occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MtbSample {
    /// Simulation instant, picoseconds.
    pub at_ps: u64,
    /// MTB index (two per SMM).
    pub mtb: u32,
    /// Executor-warp slots free in the WarpTable (of 31).
    pub free_warp_slots: u32,
    /// Bytes free in the MTB's buddy shared-memory pool.
    pub free_smem: u64,
    /// TaskTable entries of this MTB's column not in `Free` state.
    pub used_entries: u32,
}

/// Per-device fleet snapshot, taken by a cluster layer when a device's
/// outstanding-task count or liveness changes. `device` indexes the
/// fleet, not an SMM — one simulated GPU per sample stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceSample {
    /// Simulation instant (fleet clock), picoseconds.
    pub at_ps: u64,
    /// Device index within the fleet.
    pub device: u32,
    /// TaskTable entries free in the fleet manager's view of the device.
    pub known_free: u32,
    /// Cluster tasks in flight on the device.
    pub outstanding: u32,
    /// Whether the device is serving (false once killed).
    pub alive: bool,
}

/// Serving-layer cut points on a task's timeline that the lifecycle
/// states do not carry: when the client's request arrived, when
/// admission pushed it into the QoS queue, and when the host observed
/// its completion. Together with [`TaskState`] these are the eight cut
/// points `pagoda-prof` decomposes a sojourn into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MarkKind {
    /// The client offered the task (sojourn time starts here).
    Arrived,
    /// Admission accepted it into the QoS queue.
    Admitted,
    /// The host observed the completed output (sojourn time ends here).
    Observed,
}

impl MarkKind {
    /// All marks, timeline order.
    pub const ALL: [MarkKind; 3] = [MarkKind::Arrived, MarkKind::Admitted, MarkKind::Observed];

    /// Stable lowercase name (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            MarkKind::Arrived => "arrived",
            MarkKind::Admitted => "admitted",
            MarkKind::Observed => "observed",
        }
    }
}

/// One serving-layer timeline mark. Marks are emitted retroactively —
/// the serving loop learns a task's key only at spawn, so `at_ps` may
/// precede earlier-recorded events; consumers index by `(task, kind)`,
/// never by stream position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskMark {
    /// Simulation instant, picoseconds.
    pub at_ps: u64,
    /// Backend-unique task key.
    pub task: u64,
    /// Which cut point this is.
    pub kind: MarkKind,
}

/// Attributes a task to the fleet device it was placed on (cluster
/// layer). Re-emitted on resubmission after a device failure; the last
/// route wins for per-device attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskRoute {
    /// Backend-unique task key.
    pub task: u64,
    /// Device index within the fleet.
    pub device: u32,
}

/// Why a fleet-level sync mark was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncKind {
    /// A regular fleet synchronization point: every completion applied
    /// after this mark (until the next one) must map to a fleet instant
    /// at or before the mark — the causal-harvest gate.
    Sync,
    /// The final harvest of a killed device. Completions applied here may
    /// legitimately map *past* the mark (the device's local clock ran
    /// ahead of the fleet before it died), so causality checkers exempt
    /// this batch.
    KillHarvest,
}

/// A fleet synchronization point: the fleet clock at which a batch of
/// cross-device effects (completions, losses) is about to be applied.
/// Emitted by cluster-layer drivers so invariant checkers can validate
/// the causal-harvest gate and the sorted-merge contract from the
/// ordered log without reaching into the fleet's internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncMark {
    /// Fleet clock at the sync point, picoseconds.
    pub at_ps: u64,
    /// What kind of sync point this is.
    pub kind: SyncKind,
}

/// Everything a [`Recorder`](crate::Recorder) can receive besides
/// counters: the one currency between an [`Obs`](crate::Obs) handle and
/// its sinks. Not `Serialize` — [`ObsBuffer`](crate::ObsBuffer), with
/// one `Vec` per variant, is the wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A task changed lifecycle state.
    Task(TaskEvent),
    /// A task was attributed to a tenant (serving layer).
    Tenant(TenantTag),
    /// An SMM's resource residency changed.
    Smm(SmmSample),
    /// An MTB's column/WarpTable/smem-pool occupancy changed.
    Mtb(MtbSample),
    /// A fleet device's outstanding-task count or liveness changed.
    Device(DeviceSample),
    /// A fleet driver reached a synchronization point (cluster layer).
    Sync(SyncMark),
    /// A serving-layer timeline mark (arrival / admission / observed
    /// completion) was attributed to a task.
    Mark(TaskMark),
    /// A task was routed to a fleet device (cluster layer).
    Route(TaskRoute),
}

/// Monotonic counters. Each increments by an arbitrary delta; recorders
/// accumulate totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Counter {
    /// Host→device DMA transactions issued.
    PcieH2dTransactions,
    /// Device→host DMA transactions issued.
    PcieD2hTransactions,
    /// Host→device payload bytes.
    PcieH2dBytes,
    /// Device→host payload bytes.
    PcieD2hBytes,
    /// Host-side polls of individual TaskTable entries.
    TaskTablePolls,
    /// Bulk TaskTable copy-backs (lazy aggregate, §4.2.2).
    TaskTableCopybacks,
    /// Serving-layer admissions.
    AdmissionAdmitted,
    /// Serving-layer sheds (queue full).
    AdmissionShed,
    /// Scheduler-warp actions begun (chain update / placement / step).
    SchedulerDecisions,
    /// Ready-chain updates applied (Algorithm 1, lines 5-13).
    ChainUpdates,
    /// Placement pipeline steps (barrier / smem / warp placement).
    PlacementSteps,
    /// Events popped from a `desim` engine.
    EngineEvents,
    /// Tasks accepted by `submit`/spawn.
    TasksSpawned,
    /// Tasks whose TaskTable entry was freed.
    TasksFreed,
    /// Native kernel launches (baselines).
    KernelLaunches,
    /// Cluster-layer task placements (every routed submit).
    ClusterPlacements,
    /// Placements that landed off the tenant's home device set (paid the
    /// modeled inter-device staging transfer).
    ClusterOffAffinity,
    /// Tasks resubmitted to another device after their device died.
    ClusterResubmits,
    /// Inter-device staging transfers actually charged (off-home
    /// placements that really crossed devices — a resubmit landing back
    /// on the device that already holds the task's data pays nothing).
    ClusterStagedTransfers,
    /// Tasks lost to a device failure (reported failed, not resubmitted).
    ClusterTasksLost,
    /// Device kill faults applied.
    ClusterDeviceKills,
    /// Device slowdown faults applied.
    ClusterDeviceSlowdowns,
}

impl Counter {
    /// All counters, declaration order. `Counter as usize` indexes this.
    pub const ALL: [Counter; 22] = [
        Counter::PcieH2dTransactions,
        Counter::PcieD2hTransactions,
        Counter::PcieH2dBytes,
        Counter::PcieD2hBytes,
        Counter::TaskTablePolls,
        Counter::TaskTableCopybacks,
        Counter::AdmissionAdmitted,
        Counter::AdmissionShed,
        Counter::SchedulerDecisions,
        Counter::ChainUpdates,
        Counter::PlacementSteps,
        Counter::EngineEvents,
        Counter::TasksSpawned,
        Counter::TasksFreed,
        Counter::KernelLaunches,
        Counter::ClusterPlacements,
        Counter::ClusterOffAffinity,
        Counter::ClusterResubmits,
        Counter::ClusterStagedTransfers,
        Counter::ClusterTasksLost,
        Counter::ClusterDeviceKills,
        Counter::ClusterDeviceSlowdowns,
    ];

    /// Stable snake_case name (used as JSON/CSV keys).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PcieH2dTransactions => "pcie_h2d_transactions",
            Counter::PcieD2hTransactions => "pcie_d2h_transactions",
            Counter::PcieH2dBytes => "pcie_h2d_bytes",
            Counter::PcieD2hBytes => "pcie_d2h_bytes",
            Counter::TaskTablePolls => "tasktable_polls",
            Counter::TaskTableCopybacks => "tasktable_copybacks",
            Counter::AdmissionAdmitted => "admission_admitted",
            Counter::AdmissionShed => "admission_shed",
            Counter::SchedulerDecisions => "scheduler_decisions",
            Counter::ChainUpdates => "chain_updates",
            Counter::PlacementSteps => "placement_steps",
            Counter::EngineEvents => "engine_events",
            Counter::TasksSpawned => "tasks_spawned",
            Counter::TasksFreed => "tasks_freed",
            Counter::KernelLaunches => "kernel_launches",
            Counter::ClusterPlacements => "cluster_placements",
            Counter::ClusterOffAffinity => "cluster_off_affinity",
            Counter::ClusterResubmits => "cluster_resubmits",
            Counter::ClusterStagedTransfers => "cluster_staged_transfers",
            Counter::ClusterTasksLost => "cluster_tasks_lost",
            Counter::ClusterDeviceKills => "cluster_device_kills",
            Counter::ClusterDeviceSlowdowns => "cluster_device_slowdowns",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_all_matches_discriminants() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} out of order in ALL");
        }
    }

    #[test]
    fn task_states_are_ordered() {
        let mut prev = None;
        for s in TaskState::ALL {
            if let Some(p) = prev {
                assert!(p < s);
            }
            prev = Some(s);
        }
    }

    #[test]
    fn events_serialize() {
        let ev = TaskEvent {
            at_ps: 1,
            task: 2,
            state: TaskState::Placed,
        };
        assert_eq!(
            serde_json::to_string(&ev).unwrap(),
            r#"{"at_ps":1,"task":2,"state":"Placed"}"#
        );
    }
}
