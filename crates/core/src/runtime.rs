//! The Pagoda runtime: host API, task spawning, and the MasterKernel.
//!
//! [`PagodaRuntime`] co-simulates three timelines against one clock:
//!
//! * the **host CPU** executing the user's program (spawn loops, `wait`
//!   polling, TaskTable copy-backs) — modelled by `host_now`, which only
//!   moves forward as API calls consume CPU time or block;
//! * the **PCIe bus** carrying task inputs, TaskTable entries, flush
//!   writes, copy-backs, and task outputs — the [`pcie::PcieBus`] model;
//! * the **GPU** running the MasterKernel — scheduler-warp actions and
//!   executor-warp task work are *real work assigned to real warps* of a
//!   persistent kernel in the [`gpu_sim::GpuDevice`], so every scheduling
//!   cycle Pagoda spends contends with task execution for SMM issue slots,
//!   exactly as on hardware.
//!
//! The public API mirrors the paper's Table 1 behind one spawn entry
//! point: [`PagodaRuntime::submit`] (with [`PagodaRuntime::capacity`] as
//! its headroom probe), plus [`PagodaRuntime::wait`],
//! [`PagodaRuntime::check`], [`PagodaRuntime::wait_all`]. The GPU-side API
//! (`getTid`, `syncBlock`, `getSMPtr`) appears structurally: a task's
//! [`TaskDesc::blocks`] encode per-warp work and barriers, and
//! shared-memory requests are granted from the MTB's buddy-managed slice.
//!
//! Fallible calls return [`PagodaError`]/[`SubmitError`] values; the
//! runtime panics only on *internal invariant* violations (messages name
//! the invariant). Attach a [`pagoda_obs::Recorder`] via
//! [`PagodaRuntime::attach_obs`] to capture task lifecycle spans, per-MTB
//! occupancy timelines, and counters across the host, bus, and device
//! layers.

use desim::{Dur, SimTime};
use gpu_sim::{GpuDevice, GroupId, Notify, Segment};
use pagoda_obs::{Counter, MtbSample, Obs, TaskState};
use pcie::{Direction, PcieBus, StreamId};

use crate::backend::Backend;
use crate::config::PagodaConfig;
use crate::errors::{Capacity, PagodaError, SubmitError};
use crate::mtb::{Action, JobPhase, MtbState, PlacementJob};
use crate::table::{set_rows, EntryIndex, EntryState, Ready, TaskId, TaskTableSide};
use crate::task::{TaskDesc, TaskError};
use crate::trace::TaskTrace;
use crate::warptable::Slot;

/// Tag prefix for scheduler-warp action completions.
const TAG_SCHED: u64 = 1 << 40;
/// Tag prefix for executor-warp task completions.
const TAG_EXEC: u64 = 2 << 40;
const TAG_KIND_MASK: u64 = 3 << 40;
const TAG_PAYLOAD_MASK: u64 = (1 << 40) - 1;

/// The GPU side reached for an entry's [`Resident`] outside the span the
/// CPU's claim and the task's last warp bound.
const NO_PARAMS: &str = "invariant: a scheduled entry holds its task's parameters";

// The calibration no experiment varies; the knobs one does vary are
// `PagodaConfig`'s.

/// Bytes of one TaskTable entry as copied over PCIe (parameters, kernel
/// pointer, shape, flags).
const ENTRY_BYTES: u64 = 192;
/// Bytes of the flag-only host write used by the final-task flush.
const FLAG_WRITE_BYTES: u64 = 8;
/// Host CPU work per `taskSpawn` call (find entry, marshal arguments,
/// enqueue the copy).
const SPAWN_CPU_COST: Dur = Dur::from_ns(1200);
/// Scheduler-warp cycles to scan the column and pick up one action.
/// Added to every action.
const SCHED_SCAN_CYCLES: u64 = 120;
/// Cycles to allocate a named barrier ID.
const BARRIER_ALLOC_CYCLES: u64 = 60;
/// CPI of scheduler-warp bookkeeping code (shared-memory resident tables,
/// some divergence).
const SCHED_CPI: f64 = 2.0;
/// Extra cycles appended to every executor warp for the completion
/// epilogue (Algorithm 1, lines 34-43: dealloc marking, doneCtr, flag
/// clears).
const EXEC_EPILOGUE_CYCLES: u64 = 80;

/// Host-event payloads staged for PCIe visibility instants.
#[derive(Debug, Clone, Copy)]
enum HostEv {
    /// A spawned entry's H2D copy became visible in device memory.
    EntryVisible {
        e: EntryIndex,
        st: EntryState,
        task: TaskId,
    },
    /// The final-task flush write became visible.
    FlushWriteVisible { e: EntryIndex },
}

/// One threadblock of a resident task.
#[derive(Debug, Clone, Default)]
struct TbProgress {
    /// Executor-warp completions so far.
    warps_done: u32,
    /// Barrier group, if the task synchronizes.
    group: Option<GroupId>,
}

/// An instant a task may not have reached yet, in the 8 bytes of a
/// [`SimTime`] (an `Option<SimTime>` is 16): [`SimTime::MAX`] stands for
/// "not yet", and no simulated clock gets there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp(SimTime);

impl Stamp {
    const UNSET: Stamp = Stamp(SimTime::MAX);

    fn at(t: SimTime) -> Stamp {
        debug_assert!(t != SimTime::MAX, "the sentinel instant was reached");
        Stamp(t)
    }

    fn get(self) -> Option<SimTime> {
        (self != Stamp::UNSET).then_some(self.0)
    }
}

/// What the MasterKernel needs of a task while it holds a TaskTable
/// entry — the entry's parameter fields in the paper (§4.2, field 6) and
/// the scheduling progress kept beside them. One per entry in
/// [`PagodaRuntime::resident`], reused in place by the entry's tenants as
/// the paper's entry is: a finished task keeps none of it but the
/// capacity of `tbs`.
#[derive(Debug, Default)]
struct Resident {
    /// `Some` from the CPU's claim of the entry to the task's last warp.
    desc: Option<TaskDesc>,
    /// Executor-warp completions so far.
    warps_done: u32,
    /// Per-threadblock progress, reset when the entry starts scheduling.
    tbs: Vec<TbProgress>,
}

/// Bookkeeping for one spawned task. Every spawned task keeps one for
/// `trace()`, so its size is the runtime's footprint per task.
#[derive(Debug)]
struct TaskRecord {
    entry: EntryIndex,
    /// Host time of the `submit` call.
    spawn_time: SimTime,
    /// When the last warp finished on the GPU.
    gpu_done: Stamp,
    /// When the output D2H copy completes (== `gpu_done` if no output).
    output_done: Stamp,
    /// When the first warp started executing (scheduling-latency metric).
    first_start: Stamp,
    /// When the entry's H2D copy became visible on the device.
    entry_visible: Stamp,
    /// When the entry was marked (Scheduling, sched) by chain or flush.
    schedulable: Stamp,
    /// The CPU has observed completion via a copy-back.
    observed_done: bool,
}

const _: () = assert!(std::mem::size_of::<TaskRecord>() <= 64);

/// End-of-run measurements, the quantities the paper's figures plot —
/// this runtime's and every baseline runner's (`baselines` re-exports
/// it), so a figure compares them field for field.
#[derive(Debug, Clone, Copy)]
pub struct RunSummary {
    /// Host time when the workload finished (copies included) — the
    /// "execution time" of Figs. 5, 6, 9, 11.
    pub makespan: Dur,
    /// Instant the last task finished computing on the GPU — the
    /// "compute time" of Figs. 7, 8 and Table 5.
    pub compute_done: SimTime,
    /// Tasks completed.
    pub tasks: u64,
    /// Mean spawn→GPU-completion latency — Fig. 10's metric.
    pub mean_task_latency: Dur,
    /// Mean fraction of device warp slots doing useful work (0 for CPU
    /// runs).
    pub avg_running_occupancy: f64,
    /// Host→device channel busy time (Table 3's copy-share numerator).
    pub h2d_busy: Dur,
    /// Device→host channel busy time.
    pub d2h_busy: Dur,
    /// Average per-SMM busy time (≥1 warp running) — the profiler-style
    /// "kernel time" Table 3's copy share is measured against.
    pub gpu_busy: Dur,
}

impl RunSummary {
    /// Speedup of this run over `other` on end-to-end time.
    pub fn speedup_over(&self, other: &RunSummary) -> f64 {
        other.makespan.as_secs_f64() / self.makespan.as_secs_f64()
    }

    /// Speedup of this run over `other` on compute time only.
    pub fn compute_speedup_over(&self, other: &RunSummary) -> f64 {
        other.compute_done.as_secs_f64() / self.compute_done.as_secs_f64()
    }

    /// Fraction of profiler-visible activity spent moving data over PCIe:
    /// `memcpy_time / (memcpy_time + kernel_time)`, the way Table 3's
    /// "% time spent in data copy" is measured with nvprof.
    pub fn copy_share(&self) -> f64 {
        let copies = self.h2d_busy.as_ps() + self.d2h_busy.as_ps();
        copies as f64 / (copies + self.gpu_busy.as_ps()).max(1) as f64
    }
}

/// The runtime. Create one per workload run; drive it with the Table 1
/// API; read a [`RunSummary`] at the end.
#[derive(Debug)]
pub struct PagodaRuntime {
    cfg: PagodaConfig,
    device: GpuDevice,
    bus: PcieBus,
    h2d: StreamId,
    d2h: StreamId,
    gpu_table: TaskTableSide,
    cpu_table: TaskTableSide,
    mtbs: Vec<MtbState>,
    tasks: Vec<TaskRecord>,
    /// GPU-side occupant of each entry (col-major, `col*rows + row`).
    occupant: Vec<Option<TaskId>>,
    /// CPU-side belief of each entry's occupant.
    cpu_occupant: Vec<Option<TaskId>>,
    /// Each entry's task parameters and progress while a task holds it.
    resident: Vec<Resident>,
    /// Entry's spawn H2D copy still in flight.
    spawn_inflight: Vec<bool>,
    /// Per entry: the entry of the task spawned right after its tenant
    /// with the chain open — the one row whose chain bit the tenant's
    /// state decides, and whose column a settle wakes. Set at that spawn,
    /// taken when the tenant chain-settles, and cleared when the CPU sees
    /// the entry freed — so a link never outlives the claim it was made
    /// under, whether or not a settle came to take it.
    succ_entry: Vec<Option<EntryIndex>>,
    last_spawned: Option<TaskId>,
    /// The current spawn chain has an unflushed tail.
    chain_open: bool,
    host_now: SimTime,
    spawn_cursor: u32,
    /// Host events awaiting their visibility instant; the slot index is
    /// the device timer's tag. Delivered slots wait in `staged_free`.
    staged: Vec<Option<HostEv>>,
    staged_free: Vec<usize>,
    /// The notification batch in hand, lent to the device every step.
    batch: Vec<Notify>,
    /// Staged events delivered so far, for the slab's accounting test.
    #[cfg(test)]
    staged_delivered: u64,
    /// Rows `decide` (`[0]`) and the row walk it replaced (`[1]`) have
    /// looked at.
    #[cfg(test)]
    row_probes: [std::cell::Cell<u64>; 2],
    /// Spawned tasks whose completion the CPU has not observed yet —
    /// what `wait_all` waits on, kept so no poll re-scans `tasks`.
    unobserved: u64,
    /// Tasks whose completion the CPU observed since the last
    /// [`PagodaRuntime::drain_observed`], in observation order. `None`
    /// until the first drain, so a caller that never drains keeps no log.
    observed_log: Option<Vec<TaskId>>,
    /// Latest `output_done` over every finished task.
    last_output: SimTime,
    /// What [`PagodaRuntime::report`] would otherwise scan `tasks` for,
    /// kept as each task's last warp finishes: how many have, the sum of
    /// their spawn→GPU-completion latencies, and the latest `gpu_done`.
    completed: u64,
    lat_sum_ps: u64,
    compute_done: SimTime,
    obs: Obs,
}

impl PagodaRuntime {
    /// Boots the runtime: launches the MasterKernel (2 MTBs per SMM at
    /// 100 % occupancy) and builds the mirrored TaskTable.
    ///
    /// # Panics
    /// Panics if the MasterKernel cannot occupy the device, which
    /// [`PagodaConfig::validate`] rejects.
    pub fn new(cfg: PagodaConfig) -> Self {
        let mut device = GpuDevice::new(cfg.device.clone());
        let smem_slice = cfg.mtb_pool_bytes();
        let tbs = device
            .launch_persistent(cfg.master_kernel_shape())
            .expect("invariant: a validated config's MasterKernel fits the device");
        let mtbs: Vec<MtbState> = tbs
            .into_iter()
            .map(|tb| {
                let sched = tb.warps[0];
                let execs = tb.warps[1..].to_vec();
                MtbState::new(tb.sm, sched, execs, smem_slice)
            })
            .collect();
        let mut bus = PcieBus::new(cfg.pcie.clone());
        let h2d = bus.create_stream();
        let d2h = bus.create_stream();
        let cols = cfg.num_mtbs();
        let rows = cfg.rows_per_column;
        let entries = (cols * rows) as usize;
        PagodaRuntime {
            device,
            bus,
            h2d,
            d2h,
            gpu_table: TaskTableSide::new(cols, rows),
            cpu_table: TaskTableSide::new(cols, rows),
            mtbs,
            tasks: Vec::new(),
            occupant: vec![None; entries],
            cpu_occupant: vec![None; entries],
            resident: (0..entries).map(|_| Resident::default()).collect(),
            spawn_inflight: vec![false; entries],
            succ_entry: vec![None; entries],
            last_spawned: None,
            chain_open: false,
            host_now: SimTime::ZERO,
            spawn_cursor: 0,
            staged: Vec::new(),
            staged_free: Vec::new(),
            batch: Vec::new(),
            #[cfg(test)]
            staged_delivered: 0,
            #[cfg(test)]
            row_probes: Default::default(),
            unobserved: 0,
            observed_log: None,
            last_output: SimTime::ZERO,
            completed: 0,
            lat_sum_ps: 0,
            compute_done: SimTime::ZERO,
            obs: Obs::off(),
            cfg,
        }
    }

    /// Attaches an observability sink to every layer this runtime drives:
    /// the runtime itself (task lifecycle spans, TaskTable counters, MTB
    /// occupancy samples), the device (per-SMM residency samples, engine
    /// events), and the bus (PCIe transaction/byte counters). Pass
    /// [`Obs::off`] to detach.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.device.attach_obs(obs.clone());
        self.bus.attach_obs(obs.clone());
        self.obs = obs;
    }

    /// A runtime on the paper's Titan X with default calibration.
    pub fn titan_x() -> Self {
        Self::new(PagodaConfig::default())
    }

    /// Current host-thread time.
    pub fn host_now(&self) -> SimTime {
        self.host_now
    }

    // ==================================================================
    // Table 1 API — CPU side
    // ==================================================================

    /// `taskSpawn`: submits a task without blocking. Copies the task's
    /// input and its TaskTable entry to the GPU asynchronously and returns
    /// a task ID. Spawns only if the CPU's current view of the TaskTable
    /// has a free entry, otherwise hands the description back immediately
    /// with [`SubmitError::Full`].
    ///
    /// A full table costs *no* simulated host time — the caller decides
    /// whether to pay for a [`PagodaRuntime::sync_table`] refresh, shed
    /// the task, or try again later. This is the hook an admission
    /// controller in front of the runtime builds on; the paper's blocking
    /// spawn is [`PagodaRuntime::spawn_blocking`].
    pub fn submit(&mut self, desc: TaskDesc) -> Result<TaskId, SubmitError> {
        self.validate_for_device(&desc)?;
        let Some(entry) = self.find_free_entry() else {
            return Err(SubmitError::Full(desc));
        };
        self.host_advance(SPAWN_CPU_COST);
        Ok(self.spawn_at(entry, desc))
    }

    /// `taskSpawn` as the paper has it: blocks (in simulated time) until
    /// the task is spawned. [`Backend::spawn_blocking`] with this
    /// runtime's [`TaskId`]s.
    ///
    /// # Errors
    /// The [`TaskError`] of a description that can never spawn; no
    /// simulated time is spent on it.
    pub fn spawn_blocking(&mut self, desc: TaskDesc) -> Result<TaskId, TaskError> {
        Backend::spawn_blocking(self, 0, desc).map(TaskId)
    }

    /// TaskTable headroom in the CPU's current view: how many consecutive
    /// [`PagodaRuntime::submit`] calls are guaranteed to succeed before
    /// the next table refresh. The GPU may have freed more (the CPU only
    /// learns via copy-backs; §4.2.2's lazy updates).
    pub fn capacity(&self) -> Capacity {
        Capacity {
            known_free: self.cpu_table.free_entries() as u32,
            total: self.cfg.total_entries(),
        }
    }

    /// Refreshes the CPU's view of the TaskTable: flushes the spawn
    /// chain's tail if needed, then performs the aggregate D2H copy-back
    /// of §4.2.2. Costs the simulated bus time of both transfers and
    /// marks tasks whose entries the GPU freed as observably done.
    pub fn sync_table(&mut self) {
        self.flush_last();
        self.copyback_all();
    }

    /// Advances the simulated host clock to `t` (no-op if in the past),
    /// co-simulating the device up to that instant. Lets an external
    /// driver (e.g. a serving layer's discrete-event loop) idle the host
    /// until its next event.
    pub fn advance_to(&mut self, t: SimTime) {
        self.host_advance_to(t);
    }

    /// Whether the CPU has already observed `t`'s completion via a
    /// copy-back. Free, unlike [`PagodaRuntime::check`] — it reads host
    /// state and never touches the bus.
    ///
    /// # Errors
    /// [`PagodaError::UnknownTask`] if this runtime never issued `t`.
    pub fn observed_done(&self, t: TaskId) -> Result<bool, PagodaError> {
        Ok(self.tasks[self.tix(t)?].observed_done)
    }

    /// Hands over the tasks whose completion the CPU observed since the
    /// previous call, each exactly once, in observation order — what a
    /// copy-back changed, so a caller need not ask
    /// [`PagodaRuntime::observed_done`] of everything it has in flight.
    /// The first call starts the log and hands over nothing: make it
    /// before the first `submit` whose completion should be reported.
    pub fn drain_observed(&mut self) -> std::vec::Drain<'_, TaskId> {
        self.observed_log.get_or_insert_with(Vec::new).drain(..)
    }

    /// The configuration this runtime was booted with.
    pub fn config(&self) -> &PagodaConfig {
        &self.cfg
    }

    /// Shape/resource validation against this device (not just the
    /// generic MTB bounds `TaskDesc::validate` enforces).
    fn validate_for_device(&self, desc: &TaskDesc) -> Result<(), TaskError> {
        desc.validate()?;
        if desc.smem_per_tb > self.mtbs[0].buddy.pool_bytes() {
            // Smaller machines (K40) manage a smaller per-MTB slice than
            // the generic 32 KB upper bound `validate` enforces.
            return Err(TaskError::SmemTooLarge {
                requested: desc.smem_per_tb,
            });
        }
        Ok(())
    }

    /// The claim-and-copy spawn body behind [`PagodaRuntime::submit`];
    /// `entry` must be free in the CPU view.
    fn spawn_at(&mut self, entry: EntryIndex, desc: TaskDesc) -> TaskId {
        let id = TaskId(TaskId::FIRST.0 + self.tasks.len() as u64);

        let ready = match (self.chain_open, self.last_spawned) {
            (true, Some(prev)) => {
                // An open chain's tail cannot have run, so `prev` still
                // holds its entry in both views.
                let pe = self.eidx(self.tasks[(prev.0 - TaskId::FIRST.0) as usize].entry);
                debug_assert_eq!(self.cpu_occupant[pe], Some(prev));
                self.succ_entry[pe] = Some(entry);
                Ready::Ref(prev)
            }
            _ => Ready::Copied,
        };
        self.chain_open = true;
        self.cpu_table.cpu_claim(entry, ready);
        let ei = self.eidx(entry);
        debug_assert_eq!(self.succ_entry[ei], None, "a link outlived its entry");
        self.cpu_occupant[ei] = Some(id);
        self.spawn_inflight[ei] = true;

        // One transaction per spawn: the TaskTable entry embeds the task
        // inputs (paper §4.2, entry field 6), so parameters and data travel
        // together — "in the steady-state, we achieve 1 cudamemcopy per
        // task table entry" (§4.2.1).
        let tr = self.bus.transfer(
            self.host_now,
            self.h2d,
            Direction::HostToDevice,
            ENTRY_BYTES + desc.input_bytes,
        );
        self.stage(
            tr.complete,
            HostEv::EntryVisible {
                e: entry,
                st: EntryState {
                    ready,
                    sched: false,
                },
                task: id,
            },
        );

        let r = &mut self.resident[ei];
        r.desc = Some(desc);
        r.warps_done = 0;
        self.tasks.push(TaskRecord {
            entry,
            spawn_time: self.host_now,
            gpu_done: Stamp::UNSET,
            output_done: Stamp::UNSET,
            first_start: Stamp::UNSET,
            entry_visible: Stamp::UNSET,
            schedulable: Stamp::UNSET,
            observed_done: false,
        });
        self.unobserved += 1;
        self.last_spawned = Some(id);
        self.obs.count(Counter::TasksSpawned, 1);
        self.obs
            .task(self.host_now.as_ps(), id.0, TaskState::Spawned);
        id
    }

    /// `check`: non-blocking completion query (costs one TaskTable-entry
    /// copy-back, since completion is only observable from device memory).
    ///
    /// # Errors
    /// [`PagodaError::UnknownTask`] if this runtime never issued `t`.
    pub fn check(&mut self, t: TaskId) -> Result<bool, PagodaError> {
        self.tix(t)?;
        if self.rec(t).observed_done {
            return Ok(true);
        }
        self.flush_last();
        let e = self.rec(t).entry;
        self.copyback_entry(e);
        Ok(self.rec(t).observed_done)
    }

    /// `wait`: blocks (simulated) until task `t` completes and its output
    /// copy has landed in host memory.
    ///
    /// # Errors
    /// [`PagodaError::UnknownTask`] if this runtime never issued `t`.
    pub fn wait(&mut self, t: TaskId) -> Result<(), PagodaError> {
        self.tix(t)?;
        self.flush_last();
        let mut iterations = 0u64;
        while !self.rec(t).observed_done {
            self.host_advance(self.cfg.wait_timeout);
            let e = self.rec(t).entry;
            self.copyback_entry(e);
            self.flush_last();
            iterations += 1;
            assert!(iterations < 100_000_000, "wait({t:?}) livelocked");
        }
        let out = self
            .rec(t)
            .output_done
            .get()
            .expect("invariant: observed_done task has an output_done time");
        if out > self.host_now {
            self.host_advance_to(out);
        }
        Ok(())
    }

    /// `waitAll`: blocks until every spawned task completes, using bulk
    /// copy-backs.
    pub fn wait_all(&mut self) {
        self.flush_last();
        let mut iterations = 0u64;
        while self.unobserved > 0 {
            self.host_advance(self.cfg.wait_timeout);
            self.copyback_all();
            self.flush_last();
            iterations += 1;
            assert!(iterations < 100_000_000, "wait_all livelocked");
        }
        if self.last_output > self.host_now {
            self.host_advance_to(self.last_output);
        }
    }

    /// The device event-engine's counters (scheduled/delivered/...):
    /// the denominator of any events-per-host-second reading and a
    /// cheap determinism fingerprint (identical runs deliver identical
    /// event counts).
    pub fn engine_stats(&self) -> desim::EngineStats {
        self.device.engine_stats()
    }

    /// Measurements for the run so far. Call after [`PagodaRuntime::wait_all`].
    pub fn report(&mut self) -> RunSummary {
        let n = self.tasks.len().max(1) as u64;
        RunSummary {
            makespan: self.host_now - SimTime::ZERO,
            compute_done: self.compute_done,
            tasks: self.completed,
            mean_task_latency: Dur::from_ps(self.lat_sum_ps / n),
            avg_running_occupancy: self.device.avg_running_occupancy(),
            h2d_busy: self.bus.stats(Direction::HostToDevice).busy,
            d2h_busy: self.bus.stats(Direction::DeviceToHost).busy,
            gpu_busy: self.device.avg_sm_busy(),
        }
    }

    /// Spawn→GPU-completion latency of one task. `None` until the task
    /// completes (or if `t` was never issued by this runtime).
    pub fn task_latency(&self, t: TaskId) -> Option<Dur> {
        let r = self.tasks.get(t.0.checked_sub(TaskId::FIRST.0)? as usize)?;
        r.gpu_done.get().map(|d| d - r.spawn_time)
    }

    /// The recorded timeline of one task (see [`crate::trace`]).
    ///
    /// # Errors
    /// [`PagodaError::UnknownTask`] if this runtime never issued `t`.
    pub fn trace(&self, t: TaskId) -> Result<TaskTrace, PagodaError> {
        Ok(self.trace_at(self.tix(t)?))
    }

    fn trace_at(&self, tix: usize) -> TaskTrace {
        let r = &self.tasks[tix];
        TaskTrace {
            task: TaskId(TaskId::FIRST.0 + tix as u64),
            column: r.entry.col,
            spawned: r.spawn_time,
            entry_visible: r.entry_visible.get(),
            schedulable: r.schedulable.get(),
            first_exec: r.first_start.get(),
            gpu_done: r.gpu_done.get(),
            output_done: r.output_done.get(),
        }
    }

    /// Timelines of every spawned task, in spawn order: the `i`-th item
    /// is [`PagodaRuntime::trace`] of the `i`-th task, built from its
    /// record as it is read, so reading every timeline copies none of
    /// them (DESIGN.md §15, "A per-task readout is a view"). Collect it
    /// to index or reread.
    pub fn traces(&self) -> impl ExactSizeIterator<Item = TaskTrace> + '_ {
        (0..self.tasks.len()).map(|i| self.trace_at(i))
    }

    /// Number of tasks spawned so far.
    pub fn spawned(&self) -> u64 {
        self.tasks.len() as u64
    }

    // ==================================================================
    // Host internals
    // ==================================================================

    /// Bounds-checks a caller-supplied [`TaskId`] and resolves it to an
    /// index into `tasks`.
    fn tix(&self, t: TaskId) -> Result<usize, PagodaError> {
        t.0.checked_sub(TaskId::FIRST.0)
            .map(|i| i as usize)
            .filter(|&i| i < self.tasks.len())
            .ok_or(PagodaError::UnknownTask {
                task: t,
                spawned: self.tasks.len() as u64,
            })
    }

    /// Internal lookup for ids the runtime itself issued; unlike
    /// [`Self::tix`] an out-of-range id here is an invariant violation.
    fn rec(&mut self, t: TaskId) -> &mut TaskRecord {
        &mut self.tasks[(t.0 - TaskId::FIRST.0) as usize]
    }

    fn eidx(&self, e: EntryIndex) -> usize {
        (e.col * self.cfg.rows_per_column + e.row) as usize
    }

    /// The parameters of the task holding entry `e`.
    fn desc(&self, e: EntryIndex) -> &TaskDesc {
        self.resident[self.eidx(e)].desc.as_ref().expect(NO_PARAMS)
    }

    /// Advances the host clock by `d`, co-simulating the device.
    fn host_advance(&mut self, d: Dur) {
        self.host_advance_to(self.host_now.max(self.device.now()) + d);
    }

    fn host_advance_to(&mut self, t: SimTime) {
        self.host_now = self.host_now.max(t);
        self.pump();
    }

    /// Processes every device event up to `host_now`.
    fn pump(&mut self) {
        while let Some(time) = self
            .device
            .step_bounded_into(self.host_now, &mut self.batch)
        {
            // By index: `on_notify` needs all of `self`, and never
            // touches `batch`.
            for i in 0..self.batch.len() {
                self.on_notify(time, self.batch[i]);
            }
        }
    }

    fn stage(&mut self, at: SimTime, ev: HostEv) {
        let slot = match self.staged_free.pop() {
            Some(slot) => {
                self.staged[slot] = Some(ev);
                slot
            }
            None => {
                self.staged.push(Some(ev));
                self.staged.len() - 1
            }
        };
        self.device.schedule_host(at, slot as u64);
    }

    /// One non-blocking pass of the round-robin column scan; claims
    /// nothing, just locates a CPU-side free entry and advances the
    /// cursor past its column.
    ///
    /// Consecutive spawns round-robin across *columns* so the load (and
    /// the ready chain's links) spreads over all 48 MTB schedulers; piling
    /// a burst into one column would serialize the whole pipeline behind
    /// that single MTB's executor capacity.
    fn find_free_entry(&mut self) -> Option<EntryIndex> {
        let cols = self.cpu_table.cols();
        (0..cols).find_map(|k| {
            let col = (self.spawn_cursor + k) % cols;
            let row = self.cpu_table.first_free_row(col)?;
            self.spawn_cursor = (col + 1) % cols;
            Some(EntryIndex { col, row })
        })
    }

    /// Bulk D2H copy-back of the whole TaskTable; merges freed entries
    /// into the CPU view. The CPU learns nothing from a copy-back but
    /// which entries the GPU freed, so only rows free on the GPU side and
    /// held on the CPU side are merged — 64 rows per word, in the
    /// column-major row order a walk of every entry would take.
    fn copyback_all(&mut self) {
        self.obs.count(Counter::TaskTableCopybacks, 1);
        let bytes = u64::from(self.cfg.total_entries()) * ENTRY_BYTES;
        let tr = self
            .bus
            .transfer(self.host_now, self.d2h, Direction::DeviceToHost, bytes);
        self.host_advance_to(tr.complete);
        #[cfg(test)]
        let (expected, mut merged) = (self.merge_by_walk(), Vec::new());
        for col in 0..self.gpu_table.cols() {
            for word in 0..self.gpu_table.words_per_col() {
                let freed =
                    self.gpu_table.free_word(col, word) & !self.cpu_table.free_word(col, word);
                for row in set_rows(word, freed) {
                    let e = EntryIndex { col, row };
                    self.merge_entry(e);
                    #[cfg(test)]
                    if self.cpu_table.get(e).ready == Ready::Free {
                        merged.push(e);
                    }
                }
            }
        }
        #[cfg(test)]
        assert_eq!(
            merged, expected,
            "the free masks merged other rows than the walk"
        );
    }

    /// The copy-back oracle: the entries a [`Self::merge_entry`] of every
    /// entry, column-major, would free in the CPU view.
    #[cfg(test)]
    fn merge_by_walk(&self) -> Vec<EntryIndex> {
        let (cols, rows) = (self.gpu_table.cols(), self.gpu_table.rows());
        (0..cols)
            .flat_map(|col| (0..rows).map(move |row| EntryIndex { col, row }))
            .filter(|&e| {
                self.cpu_table.get(e).ready != Ready::Free
                    && !self.spawn_inflight[self.eidx(e)]
                    && self.gpu_table.get(e).ready == Ready::Free
            })
            .collect()
    }

    /// Copy-back of a single entry (the `wait` timeout path).
    fn copyback_entry(&mut self, e: EntryIndex) {
        self.obs.count(Counter::TaskTablePolls, 1);
        let tr = self.bus.transfer(
            self.host_now,
            self.d2h,
            Direction::DeviceToHost,
            ENTRY_BYTES,
        );
        self.host_advance_to(tr.complete);
        self.merge_entry(e);
    }

    /// Applies one snapshot entry to the CPU view: the CPU only learns
    /// about *freed* entries (every other state is GPU-internal). The
    /// in-flight guard prevents a snapshot older than our own H2D copy
    /// from releasing an entry we just claimed.
    fn merge_entry(&mut self, e: EntryIndex) {
        let ei = self.eidx(e);
        if self.cpu_table.get(e).ready == Ready::Free || self.spawn_inflight[ei] {
            return;
        }
        if self.gpu_table.get(e).ready == Ready::Free {
            self.cpu_table.set(e, EntryState::default());
            self.succ_entry[ei] = None;
            if let Some(t) = self.cpu_occupant[ei].take() {
                self.rec(t).observed_done = true;
                self.unobserved -= 1;
                if let Some(log) = &mut self.observed_log {
                    log.push(t);
                }
            }
        }
    }

    /// The final-task flush of §4.2.2: if no further task will arrive to
    /// advance the pipeline, read the last entry back; if it sits at
    /// `(Copied, 0)`, write `(Scheduling, sched=1)` to the GPU.
    fn flush_last(&mut self) {
        if !self.chain_open {
            return;
        }
        let Some(lt) = self.last_spawned else {
            return;
        };
        let e = self.tasks[(lt.0 - TaskId::FIRST.0) as usize].entry;
        self.obs.count(Counter::TaskTablePolls, 1);
        let tr = self.bus.transfer(
            self.host_now,
            self.d2h,
            Direction::DeviceToHost,
            ENTRY_BYTES,
        );
        self.host_advance_to(tr.complete);
        if self.spawn_inflight[self.eidx(e)] {
            // The entry's own H2D copy has not landed: the D2H read-back
            // returned stale contents. Retry on the caller's next timeout.
            return;
        }
        match self.gpu_table.get(e).ready {
            Ready::Copied if self.occupant[self.eidx(e)] == Some(lt) => {
                let trw = self.bus.transfer(
                    self.host_now,
                    self.h2d,
                    Direction::HostToDevice,
                    FLAG_WRITE_BYTES,
                );
                self.stage(trw.complete, HostEv::FlushWriteVisible { e });
                self.chain_open = false;
            }
            Ready::Ref(_) => {
                // Chain processing still pending on the GPU; the caller's
                // timeout loop will retry.
            }
            _ => {
                // Already advanced past Copied (an earlier flush write
                // landed, or the task ran): nothing to do.
                self.chain_open = false;
            }
        }
    }

    // ==================================================================
    // Event dispatch
    // ==================================================================

    fn on_notify(&mut self, time: SimTime, n: Notify) {
        match n {
            Notify::Host(tag) => {
                let slot = tag as usize;
                let ev = self.staged[slot].take().expect("unknown staged event");
                self.staged_free.push(slot);
                #[cfg(test)]
                {
                    self.staged_delivered += 1;
                }
                match ev {
                    HostEv::EntryVisible { e, st, task } => self.entry_visible(e, st, task),
                    HostEv::FlushWriteVisible { e } => self.flush_visible(e),
                }
            }
            Notify::WarpDone { tag, .. } => match tag & TAG_KIND_MASK {
                TAG_SCHED => {
                    let mi = (tag & TAG_PAYLOAD_MASK) as usize;
                    self.sched_action_done(time, mi);
                }
                TAG_EXEC => {
                    let p = tag & TAG_PAYLOAD_MASK;
                    let mi = (p / 64) as usize;
                    let slot = (p % 64) as usize;
                    self.executor_done(time, mi, slot);
                }
                _ => unreachable!("unknown warp tag {tag:#x}"),
            },
            Notify::KernelDone { .. } => {
                unreachable!("Pagoda launches no native kernels")
            }
        }
    }

    fn entry_visible(&mut self, e: EntryIndex, st: EntryState, task: TaskId) {
        assert_eq!(
            self.gpu_table.get(e).ready,
            Ready::Free,
            "entry copy landed on a non-free GPU entry"
        );
        self.gpu_table.set(e, st);
        let ei = self.eidx(e);
        // A reference may land on a `Copied` predecessor, and a `Copied`
        // task may land after its successor's reference.
        self.refresh_chain(e);
        if let Some(se) = self.succ_entry[ei] {
            self.refresh_chain(se);
        }
        self.occupant[ei] = Some(task);
        self.spawn_inflight[ei] = false;
        let now = self.device.now();
        self.rec(task).entry_visible = Stamp::at(now);
        self.obs.task(now.as_ps(), task.0, TaskState::Enqueued);
        self.sample_mtb(now, e.col as usize);
        self.poke(e.col as usize);
    }

    fn flush_visible(&mut self, e: EntryIndex) {
        // Argued in flush_last: between the read-back and this write's
        // visibility, only this flush can touch a Copied tail entry.
        assert_eq!(
            self.gpu_table.get(e).ready,
            Ready::Copied,
            "flush write raced the scheduler"
        );
        self.gpu_table.chain_mark_schedulable(e);
        let ei = self.eidx(e);
        if let Some(se) = self.succ_entry[ei] {
            self.refresh_chain(se);
        }
        let now = self.device.now();
        if let Some(t) = self.occupant[ei] {
            self.rec(t).schedulable = Stamp::at(now);
        }
        self.poke(e.col as usize);
    }

    /// Whether a row in state `st` can chain-update now (Algorithm 1's
    /// chain test): it holds `Ref(prev)` and `prev`'s entry is `Copied`.
    fn chain_ready(&self, st: EntryState) -> bool {
        let Ready::Ref(prev) = st.ready else {
            return false;
        };
        let pe = self.tasks[(prev.0 - TaskId::FIRST.0) as usize].entry;
        self.gpu_table.get(pe).ready == Ready::Copied
    }

    /// Sets row `e`'s chain bit to [`Self::chain_ready`]. Called, before
    /// any scheduler can look, wherever the answer may change: on a row
    /// whose reference lands, and on the successor of an entry that
    /// becomes or stops being `Copied`. A settling row needs no call: the
    /// write clears its bit.
    fn refresh_chain(&mut self, e: EntryIndex) {
        let on = self.chain_ready(self.gpu_table.get(e));
        self.gpu_table.set_chain(e, on);
    }

    // ==================================================================
    // MTB scheduler-warp state machine
    // ==================================================================

    /// Wakes MTB `mi`'s scheduler warp if it is idle.
    fn poke(&mut self, mi: usize) {
        if !self.mtbs[mi].busy {
            self.begin_action(mi);
        }
    }

    /// Picks the scheduler's next action and charges its cycles on the
    /// scheduler warp. Idle (no action possible) costs nothing — the real
    /// polling loop spins on shared-memory flags at negligible bandwidth.
    fn begin_action(&mut self, mi: usize) {
        debug_assert!(!self.mtbs[mi].busy);
        #[cfg(test)]
        let probes = self.row_probes[0].get();
        let decision = self.decide(mi);
        #[cfg(test)]
        {
            assert!(
                self.row_probes[0].get() - probes <= 1,
                "decide looked past its first row"
            );
            assert_eq!(
                decision,
                self.decide_by_scan(mi),
                "masks disagree with the row walk"
            );
            let col = self.gpu_table.column(mi as u32);
            let want = col.filter(|&(_, st)| st.sched || self.chain_ready(st));
            assert!(
                self.gpu_table.actionable(mi as u32).eq(want),
                "chain bits disagree with chain_ready in column {mi}"
            );
        }
        let Some((action, cycles)) = decision else {
            return;
        };
        self.obs.count(Counter::SchedulerDecisions, 1);
        let m = &mut self.mtbs[mi];
        m.busy = true;
        m.action = Some(action);
        let total_cycles = cycles + SCHED_SCAN_CYCLES;
        self.device.assign_warp_parts(
            m.sched_warp,
            &[Segment::Compute(total_cycles * 32)],
            None,
            SCHED_CPI,
            TAG_SCHED | mi as u64,
        );
    }

    fn sched_action_done(&mut self, time: SimTime, mi: usize) {
        let m = &mut self.mtbs[mi];
        m.busy = false;
        let action = m.action.take().expect("SCHED_DONE without action");
        self.apply_action(time, mi, action);
        // `apply_action` may already have re-armed this scheduler through a
        // self-poke (e.g. a chain update whose predecessor shares the MTB).
        self.poke(mi);
    }

    /// The scheduler warp's next action: the open job's next step if there
    /// is one, else the first actionable row of its column. A row is
    /// actionable with `sched` set or a reference that can chain-update,
    /// and the table's masks hand over exactly those, in row order: the
    /// first row handed over is the decision.
    fn decide(&self, mi: usize) -> Option<(Action, u64)> {
        let rows = self.gpu_table.actionable(mi as u32);
        #[cfg(test)]
        let rows = rows.inspect(|_| self.row_probes[0].set(self.row_probes[0].get() + 1));
        self.decide_over(mi, rows)
    }

    /// [`Self::decide`] by the row walk the masks replaced.
    #[cfg(test)]
    fn decide_by_scan(&self, mi: usize) -> Option<(Action, u64)> {
        let rows = self.gpu_table.column(mi as u32);
        let rows = rows.inspect(|_| self.row_probes[1].set(self.row_probes[1].get() + 1));
        self.decide_over(mi, rows)
    }

    fn decide_over(
        &self,
        mi: usize,
        rows: impl Iterator<Item = (EntryIndex, EntryState)>,
    ) -> Option<(Action, u64)> {
        let c = &self.cfg;
        if let Some(job) = &self.mtbs[mi].job {
            let m = &self.mtbs[mi];
            return match job.phase {
                JobPhase::NeedBarrier => {
                    (m.barriers.available() > 0).then_some((Action::JobStep, BARRIER_ALLOC_CYCLES))
                }
                JobPhase::NeedSmem => {
                    let size = self.desc(job.entry).smem_per_tb;
                    (m.buddy.has_pending_deallocs() || m.buddy.can_alloc(size))
                        .then_some((Action::JobStep, c.smem_alloc_cycles))
                }
                JobPhase::Placing => {
                    let free = m.warp_table.free_count() as u64;
                    let d = self.desc(job.entry);
                    let unit = if job.per_tb {
                        u64::from(d.warps_per_tb())
                    } else {
                        u64::from(d.total_warps())
                    };
                    let remaining = unit - u64::from(job.placed_in_unit);
                    (free > 0).then(|| {
                        (
                            Action::JobStep,
                            c.psched_cycles_base + c.psched_cycles_per_warp * free.min(remaining),
                        )
                    })
                }
            };
        }
        // Column scan (Algorithm 1's row loop): first actionable row wins.
        for (e, st) in rows {
            if st.sched {
                return Some((Action::StartEntry { entry: e }, 0));
            }
            if self.chain_ready(st) {
                return Some((Action::ChainUpdate { cur: e }, c.chain_update_cycles));
            }
        }
        None
    }

    fn apply_action(&mut self, time: SimTime, mi: usize, action: Action) {
        match action {
            Action::ChainUpdate { cur } => self.apply_chain_update(cur),
            Action::StartEntry { entry } => self.apply_start_entry(entry),
            Action::JobStep => self.apply_job_step(time, mi),
        }
    }

    fn apply_chain_update(&mut self, cur: EntryIndex) {
        let Ready::Ref(prev) = self.gpu_table.get(cur).ready else {
            return; // settled already (stale decision)
        };
        let pe = self.tasks[(prev.0 - TaskId::FIRST.0) as usize].entry;
        if self.gpu_table.get(pe).ready != Ready::Copied {
            return; // predecessor not settled yet; retried on its wakeup
        }
        // `pe` leaves Copied: its one waiter is `cur`, whose bit the
        // settle clears.
        self.gpu_table.chain_mark_schedulable(pe);
        self.gpu_table.chain_settle(cur);
        // `cur` just became Copied: its own successor (if it has arrived)
        // can now chain-update in its column.
        let ci = self.eidx(cur);
        assert!(self.occupant[ci].is_some(), "settling unoccupied entry");
        let succ = self.succ_entry[ci].take();
        if let Some(se) = succ {
            self.refresh_chain(se);
        }
        self.obs.count(Counter::ChainUpdates, 1);
        let now = self.device.now();
        self.rec(prev).schedulable = Stamp::at(now);
        self.poke(pe.col as usize);
        if let Some(se) = succ {
            self.poke(se.col as usize);
        }
    }

    fn apply_start_entry(&mut self, entry: EntryIndex) {
        let st = self.gpu_table.get(entry);
        assert!(st.sched, "StartEntry on entry without sched flag");
        self.gpu_table.clear_sched(entry);
        let task = self.occupant[self.eidx(entry)].expect("sched flag on unoccupied entry");
        self.obs
            .task(self.device.now().as_ps(), task.0, TaskState::Placed);
        let ei = self.eidx(entry);
        let r = &mut self.resident[ei];
        let d = r.desc.as_ref().expect(NO_PARAMS);
        r.tbs.clear();
        // Exactly: amortized growth would round a one-threadblock task up
        // to four slots, in every entry of the table, for good.
        r.tbs.reserve_exact(d.num_tbs as usize);
        r.tbs.resize(d.num_tbs as usize, TbProgress::default());
        let per_tb = d.per_tb_scheduling();
        let phase = initial_phase(d.sync, d.smem_per_tb);
        let mi = entry.col as usize;
        let m = &mut self.mtbs[mi];
        assert!(
            m.job.is_none(),
            "Algorithm 1 schedules entries sequentially"
        );
        m.job = Some(PlacementJob {
            entry,
            task,
            per_tb,
            next_tb: 0,
            phase,
            cur_bar: None,
            cur_smem: None,
            placed_in_unit: 0,
        });
    }

    fn apply_job_step(&mut self, time: SimTime, mi: usize) {
        self.obs.count(Counter::PlacementSteps, 1);
        let mut job = self.mtbs[mi].job.take().expect("JobStep without job");
        let ei = self.eidx(job.entry);
        let (sync, smem, warps_per_tb, num_tbs) = {
            let d = self.desc(job.entry);
            (d.sync, d.smem_per_tb, d.warps_per_tb(), d.num_tbs)
        };
        match job.phase {
            JobPhase::NeedBarrier => {
                if let Some(b) = self.mtbs[mi].barriers.alloc() {
                    job.cur_bar = Some(b);
                    job.phase = if smem > 0 {
                        JobPhase::NeedSmem
                    } else {
                        JobPhase::Placing
                    };
                }
            }
            JobPhase::NeedSmem => {
                // Algorithm 1 line 22: drain deferred frees, then try.
                self.mtbs[mi].buddy.dealloc_marked();
                if let Ok(n) = self.mtbs[mi].buddy.alloc(smem) {
                    job.cur_smem = Some(n);
                    job.phase = JobPhase::Placing;
                }
            }
            JobPhase::Placing => {
                let unit_total = if job.per_tb {
                    warps_per_tb
                } else {
                    warps_per_tb * num_tbs
                };
                while job.placed_in_unit < unit_total {
                    let Some(slot) = self.mtbs[mi].warp_table.find_free() else {
                        break;
                    };
                    let (tb, w) = if job.per_tb {
                        (job.next_tb, job.placed_in_unit)
                    } else {
                        (
                            job.placed_in_unit / warps_per_tb,
                            job.placed_in_unit % warps_per_tb,
                        )
                    };
                    let sdata = Slot {
                        warp_id: tb * warps_per_tb + w,
                        e_num: job.entry,
                        tb_index: tb,
                        sm_index: job.cur_smem,
                        bar_id: job.cur_bar,
                    };
                    self.mtbs[mi].warp_table.dispatch(slot, sdata);
                    if sync {
                        // Dispatch together once the barrier group is whole.
                        self.mtbs[mi].reserved.push(slot);
                    } else {
                        self.assign_exec(time, mi, slot, job.task, tb, w);
                    }
                    job.placed_in_unit += 1;
                }
                if job.placed_in_unit == unit_total {
                    if sync {
                        let tb = job.next_tb;
                        let m = &mut self.mtbs[mi];
                        m.handles.clear();
                        m.handles
                            .extend(m.reserved.iter().map(|&s| m.exec_warps[s]));
                        let g = self.device.create_group(&m.handles);
                        self.resident[ei].tbs[tb as usize].group = Some(g);
                        for w in 0..self.mtbs[mi].reserved.len() {
                            let slot = self.mtbs[mi].reserved[w];
                            self.assign_exec(time, mi, slot, job.task, tb, w as u32);
                        }
                        self.mtbs[mi].reserved.clear();
                    }
                    if job.per_tb {
                        job.next_tb += 1;
                        if job.next_tb == num_tbs {
                            self.mtbs[mi].job = None;
                            self.sample_mtb(time, mi);
                            return;
                        }
                        job.placed_in_unit = 0;
                        job.cur_bar = None;
                        job.cur_smem = None;
                        job.phase = initial_phase(sync, smem);
                    } else {
                        self.mtbs[mi].job = None;
                        self.sample_mtb(time, mi);
                        return;
                    }
                }
            }
        }
        self.mtbs[mi].job = Some(job);
        self.sample_mtb(time, mi);
    }

    /// Dispatches one executor warp: builds its work (task kernel segments
    /// plus the completion epilogue of Algorithm 1 lines 34-43) and assigns
    /// it in the device.
    fn assign_exec(
        &mut self,
        time: SimTime,
        mi: usize,
        slot: usize,
        task: TaskId,
        tb: u32,
        w: u32,
    ) {
        let r = &mut self.tasks[(task.0 - TaskId::FIRST.0) as usize];
        if r.first_start == Stamp::UNSET {
            r.first_start = Stamp::at(time);
            self.obs.task(time.as_ps(), task.0, TaskState::Running);
        }
        let entry = r.entry;
        let desc = self.resident[self.eidx(entry)].desc.as_ref();
        let work = &desc.expect(NO_PARAMS).blocks[tb as usize].warps()[w as usize];
        self.device.assign_warp_parts(
            self.mtbs[mi].exec_warps[slot],
            &work.segments,
            Some(Segment::Compute(EXEC_EPILOGUE_CYCLES * 32)),
            work.cpi,
            TAG_EXEC | (mi as u64 * 64 + slot as u64),
        );
    }

    fn executor_done(&mut self, time: SimTime, mi: usize, slot: usize) {
        let s = self.mtbs[mi].warp_table.complete(slot);
        let ei = self.eidx(s.e_num);
        let task = self.occupant[ei].expect("executor finished for unoccupied entry");
        let tix = (task.0 - TaskId::FIRST.0) as usize;
        let r = &mut self.resident[ei];
        let d = r.desc.as_ref().expect(NO_PARAMS);
        let (warps_per_tb, total_warps, out_bytes) =
            (d.warps_per_tb(), d.total_warps(), d.output_bytes);
        let tb = &mut r.tbs[s.tb_index as usize];
        tb.warps_done += 1;
        let tb_complete = tb.warps_done == warps_per_tb;
        let group = if tb_complete { tb.group.take() } else { None };
        r.warps_done += 1;
        let task_complete = r.warps_done == total_warps;
        if tb_complete {
            // Last warp of the threadblock (Algorithm 1, lines 35-39).
            if let Some(n) = s.sm_index {
                self.mtbs[mi].buddy.mark_for_dealloc(n);
            }
            if let Some(b) = s.bar_id {
                self.mtbs[mi].barriers.release(b);
            }
            if let Some(g) = group {
                self.device.release_group(g);
            }
        }
        if task_complete {
            // Lines 41-42: free the TaskTable entry.
            self.gpu_table.complete(s.e_num);
            self.occupant[ei] = None;
            self.resident[ei].desc = None;
            self.obs.count(Counter::TasksFreed, 1);
            self.obs.task(time.as_ps(), task.0, TaskState::Freed);
            let r = &mut self.tasks[tix];
            r.gpu_done = Stamp::at(time);
            self.completed += 1;
            self.lat_sum_ps += (time - r.spawn_time).as_ps();
            self.compute_done = self.compute_done.max(time);
            let out = if out_bytes > 0 {
                self.bus
                    .transfer(time, self.d2h, Direction::DeviceToHost, out_bytes)
                    .complete
            } else {
                time
            };
            r.output_done = Stamp::at(out);
            self.last_output = self.last_output.max(out);
        }
        // A slot freed, shared memory possibly marked, a barrier possibly
        // recycled: all reasons the scheduler warp may now make progress.
        self.sample_mtb(time, mi);
        self.poke(mi);
    }

    /// Emits one [`MtbSample`] for MTB `mi` if a recorder is attached;
    /// called at the state-change events that move its occupancy (entry
    /// arrivals, placement steps, executor completions).
    fn sample_mtb(&self, at: SimTime, mi: usize) {
        if !self.obs.enabled() {
            return;
        }
        let m = &self.mtbs[mi];
        let used = self.gpu_table.used_in_col(mi as u32);
        self.obs.mtb(MtbSample {
            at_ps: at.as_ps(),
            mtb: mi as u32,
            free_warp_slots: m.warp_table.free_count() as u32,
            free_smem: u64::from(m.buddy.pool_bytes() - m.buddy.allocated_bytes()),
            used_entries: used,
        });
    }
}

fn initial_phase(sync: bool, smem: u32) -> JobPhase {
    if sync {
        JobPhase::NeedBarrier
    } else if smem > 0 {
        JobPhase::NeedSmem
    } else {
        JobPhase::Placing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;
    use proptest::prelude::*;

    fn tiny_task() -> TaskDesc {
        TaskDesc::uniform(32, WarpWork::compute(10_000, 2.0))
    }

    #[test]
    fn submit_fills_table_then_reports_full() {
        let mut rt = PagodaRuntime::titan_x();
        let total = rt.config().total_entries();
        assert_eq!(rt.capacity().known_free, total);
        assert_eq!(rt.capacity().total, total);

        let mut ids = Vec::new();
        for i in 0..total {
            assert_eq!(rt.capacity().known_free, total - i);
            ids.push(rt.submit(tiny_task()).expect("free entry available"));
        }
        assert!(!rt.capacity().has_room());

        // Table full in the CPU view: the probe declines without blocking
        // and without consuming simulated time, handing the desc back.
        let before = rt.host_now();
        match rt.submit(tiny_task()) {
            Err(SubmitError::Full(desc)) => assert_eq!(desc.threads_per_tb, 32),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(rt.host_now(), before);

        // A sync (plus timeout-paced retries while the GPU drains) must
        // eventually reveal freed entries, unblocking the probe.
        let mut iterations = 0;
        loop {
            rt.sync_table();
            if rt.capacity().has_room() {
                break;
            }
            rt.advance_to(rt.host_now() + rt.config().wait_timeout);
            iterations += 1;
            assert!(iterations < 100_000, "table never drained");
        }
        rt.submit(tiny_task()).expect("capacity after sync");
        rt.wait_all();
        assert_eq!(rt.report().tasks, u64::from(total) + 1);
    }

    #[test]
    fn submit_rejects_invalid_desc() {
        let mut rt = PagodaRuntime::titan_x();
        let mut bad = tiny_task();
        bad.num_tbs = 3; // blocks.len() still 1
        match rt.submit(bad) {
            Err(SubmitError::Invalid(TaskError::ShapeMismatch)) => {}
            other => panic!("expected Invalid(ShapeMismatch), got {other:?}"),
        }
    }

    #[test]
    fn observed_done_tracks_copybacks_only() {
        let mut rt = PagodaRuntime::titan_x();
        let t = rt.submit(tiny_task()).unwrap();
        assert!(!rt.observed_done(t).unwrap());
        rt.wait(t).unwrap();
        assert!(rt.observed_done(t).unwrap());
    }

    #[test]
    fn a_run_that_never_drains_keeps_no_observed_log() {
        let mut rt = PagodaRuntime::titan_x();
        for _ in 0..200 {
            rt.submit(tiny_task()).unwrap();
        }
        rt.wait_all();
        assert_eq!(rt.unobserved, 0);
        assert!(rt.observed_log.is_none());
    }

    #[test]
    fn draining_every_round_hands_each_task_over_exactly_once() {
        // 48 entries against 300 tasks: the table refills many times.
        let cfg = PagodaConfig::builder().rows_per_column(1).build().unwrap();
        let mut rt = PagodaRuntime::new(cfg);
        assert_eq!(rt.drain_observed().count(), 0, "the first call only arms");
        let mut spawned = Vec::new();
        let mut handed = Vec::new();
        while handed.len() < 300 {
            while spawned.len() < 300 {
                match rt.submit(tiny_task()) {
                    Ok(id) => spawned.push(id),
                    Err(_) => break,
                }
            }
            rt.sync_table();
            let round: Vec<TaskId> = rt.drain_observed().collect();
            assert_eq!(rt.drain_observed().count(), 0, "a drain empties the log");
            handed.extend(round);
            // The log and the poll it replaces agree after every round.
            let polled = spawned
                .iter()
                .filter(|&&id| rt.observed_done(id).unwrap())
                .count();
            assert_eq!(handed.len(), polled);
            rt.advance_to(rt.host_now() + rt.config().wait_timeout);
        }
        assert!(handed.iter().all(|&id| rt.observed_done(id).unwrap()));
        handed.sort_unstable();
        assert_eq!(handed, spawned);
    }

    /// `traces()` yields exactly `trace()` of every spawned task, in
    /// spawn order, and says how many up front.
    fn traces_match_trace(rt: &PagodaRuntime) {
        let traces = rt.traces();
        assert_eq!(traces.len() as u64, rt.spawned());
        let mut read = 0;
        for (i, tr) in traces.enumerate() {
            let id = TaskId(TaskId::FIRST.0 + i as u64);
            assert_eq!(tr, rt.trace(id).unwrap());
            read += 1;
        }
        assert_eq!(read, rt.spawned());
    }

    #[test]
    fn traces_read_in_lockstep_with_trace() {
        let mut rt = PagodaRuntime::titan_x();
        for _ in 0..2_000 {
            rt.spawn_blocking(tiny_task()).unwrap();
        }
        // Mid-run: the last spawns' outputs have not landed yet.
        assert!(rt.traces().any(|tr| tr.output_done.is_none()));
        traces_match_trace(&rt);
        rt.wait_all();
        assert!(rt.traces().all(|tr| tr.output_done.is_some()));
        traces_match_trace(&rt);
    }

    /// The counters `wait_all` polls and the integers `report` reads,
    /// against the scans of `tasks` they replaced.
    fn poll_counters_match_scans(rt: &PagodaRuntime) -> Result<(), TestCaseError> {
        let unobserved = rt.tasks.iter().filter(|r| !r.observed_done).count();
        prop_assert_eq!(rt.unobserved, unobserved as u64);
        let last = rt.tasks.iter().filter_map(|r| r.output_done.get()).max();
        prop_assert_eq!(rt.last_output, last.unwrap_or(SimTime::ZERO));
        let done = || {
            rt.tasks
                .iter()
                .filter_map(|r| r.gpu_done.get().map(|d| (d, d - r.spawn_time)))
        };
        prop_assert_eq!(rt.completed, done().count() as u64);
        prop_assert_eq!(
            rt.lat_sum_ps,
            done().map(|(_, lat)| lat.as_ps()).sum::<u64>()
        );
        let compute_done = done().map(|(d, _)| d).max();
        prop_assert_eq!(rt.compute_done, compute_done.unwrap_or(SimTime::ZERO));
        staged_slab_is_exact(rt)?;
        // A link is made under its predecessor's claim of the entry and
        // does not outlive it.
        for (ei, link) in rt.succ_entry.iter().enumerate() {
            prop_assert!(
                link.is_none() || rt.cpu_occupant[ei].is_some(),
                "entry {} is free in the CPU view and still links to {:?}",
                ei,
                link
            );
        }
        Ok(())
    }

    /// The live `staged` slots are the host events scheduled and not yet
    /// delivered — every one rides an H2D transaction (a spawn's entry
    /// copy, a flush write) and nothing else does — and every other slot
    /// is on the free list exactly once.
    fn staged_slab_is_exact(rt: &PagodaRuntime) -> Result<(), TestCaseError> {
        let live = rt.staged.iter().flatten().count();
        let scheduled = rt.bus.stats(Direction::HostToDevice).transactions;
        prop_assert_eq!(live as u64, scheduled - rt.staged_delivered);
        let mut free = rt.staged_free.clone();
        free.sort_unstable();
        free.dedup();
        prop_assert_eq!(free.len(), rt.staged_free.len(), "a slot was freed twice");
        prop_assert!(free.iter().all(|&slot| rt.staged[slot].is_none()));
        prop_assert_eq!(
            live + free.len(),
            rt.staged.len(),
            "a delivered slot leaked"
        );
        let mut copies = 0;
        for ev in rt.staged.iter().flatten() {
            match *ev {
                HostEv::EntryVisible { e, task, .. } => {
                    copies += 1;
                    prop_assert!(rt.spawn_inflight[rt.eidx(e)]);
                    prop_assert_eq!(rt.cpu_occupant[rt.eidx(e)], Some(task));
                }
                HostEv::FlushWriteVisible { e } => {
                    prop_assert_eq!(rt.gpu_table.get(e).ready, Ready::Copied);
                }
            }
        }
        prop_assert_eq!(copies, rt.spawn_inflight.iter().filter(|&&f| f).count());
        Ok(())
    }

    /// One task of the three scheduling kinds: plain (whole-task `pSched`),
    /// shared-memory (per threadblock, `NeedSmem`; two 16 KB blocks fill an
    /// MTB's slice) and synchronizing (`NeedBarrier`, grouped dispatch).
    fn mixed_task(arg: usize) -> TaskDesc {
        let mut t = match arg % 4 {
            0 => {
                let mut t = TaskDesc::uniform(64, WarpWork::compute(10_000, 2.0));
                t.num_tbs = 3;
                t.blocks = vec![t.blocks[0].clone(); 3].into();
                t.smem_per_tb = 16 * 1024;
                t
            }
            1 => TaskDesc::uniform(96, WarpWork::phased(12_000, 3, 2.0)),
            _ => tiny_task(),
        };
        t.output_bytes = (arg as u64 % 3) * 4096;
        t
    }

    /// Drives a runtime of `num_sms` SMMs (two TaskTable columns each) and
    /// `rows` rows per column through `ops` — submit (into a full table
    /// too), sync, check, wait, wait_all, advance — calling `each` after
    /// every one and after the final drain.
    fn interleave(
        num_sms: u32,
        rows: u32,
        ops: Vec<(u8, usize)>,
        mut each: impl FnMut(&PagodaRuntime) -> Result<(), TestCaseError>,
    ) -> Result<(), TestCaseError> {
        let mut cfg = PagodaConfig::builder()
            .rows_per_column(rows)
            .build()
            .unwrap();
        cfg.device.spec.num_sms = num_sms;
        let mut rt = PagodaRuntime::new(cfg);
        let mut ids = Vec::new();
        for (op, arg) in ops {
            let spawned = ids.get(arg % ids.len().max(1)).copied();
            match (op, spawned) {
                (0..=2, _) => {
                    if let Ok(id) = rt.submit(mixed_task(arg)) {
                        ids.push(id);
                    }
                }
                (3, _) => rt.sync_table(),
                (4, Some(id)) => drop(rt.check(id).unwrap()),
                (5, Some(id)) => rt.wait(id).unwrap(),
                (6, _) => rt.wait_all(),
                _ => rt.advance_to(rt.host_now() + Dur::from_us(arg as u64 % 40)),
            }
            each(&rt)?;
        }
        rt.wait_all();
        each(&rt)?;
        prop_assert_eq!(rt.unobserved, 0);
        prop_assert_eq!(rt.report().tasks, ids.len() as u64);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
        #[test]
        fn poll_counters_survive_any_interleaving(
            ops in prop::collection::vec((0u8..7, 0usize..1000), 1..120),
        ) {
            // 48 entries, so `submit` also runs into a full table.
            interleave(24, 1, ops, poll_counters_match_scans)?;
        }

        /// `begin_action` (under `cfg(test)`) holds every mask-driven
        /// `decide` to `decide_by_scan`; this drives it through column
        /// heights on both sides of the 64-row word boundary, with barrier
        /// and shared-memory waits open on the MTBs. One SMM is two
        /// columns, so the opening burst of submits climbs up to 200 rows
        /// (or fills the table) and leaves chain links all along a column.
        #[test]
        fn lockstep_decide_matches_row_scan(
            rows in 0usize..6,
            ops in prop::collection::vec((0u8..7, 0usize..1000), 1..120),
            burst in 1usize..400,
        ) {
            let ops = std::iter::repeat_n((0u8, burst), burst).chain(ops).collect();
            interleave(1, [1, 2, 32, 64, 65, 130][rows], ops, |_| Ok(()))?;
        }

        /// The same lockstep — plus `begin_action`'s checks that the chain
        /// bits are exactly `chain_ready` and that `decide` reads one row —
        /// under a deep backlog: bursts of up to 300 submits into a 1–2-SMM
        /// device of 32–130 rows per column, a few microseconds apart, so
        /// `Ref` rows queue behind schedulers busy placing earlier work.
        #[test]
        fn lockstep_decide_under_deep_backlog(
            sms in 1u32..3,
            rows in 32u32..131,
            bursts in prop::collection::vec((1usize..300, 0usize..40), 1..6),
        ) {
            let ops = bursts
                .into_iter()
                .flat_map(|(n, gap)| (0..n).map(move |i| (0u8, n + i)).chain([(7u8, gap)]))
                .collect();
            interleave(sms, rows, ops, |_| Ok(()))?;
        }
    }

    #[test]
    fn decide_reads_one_row_per_decision_under_a_deep_backlog() {
        // One SMM, two 130-row columns, 2 000 tasks spawned back to back:
        // the columns stay deep in `Ref` rows waiting on predecessors.
        let mut cfg = PagodaConfig::builder()
            .rows_per_column(130)
            .build()
            .unwrap();
        cfg.device.spec.num_sms = 1;
        let mut rt = PagodaRuntime::new(cfg);
        let (obs, rec) = Obs::recording();
        rt.attach_obs(obs);
        for i in 0..2_000 {
            rt.spawn_blocking(mixed_task(i)).unwrap();
        }
        rt.wait_all();
        let decisions = rec.counter(Counter::SchedulerDecisions);
        let (masks, walk) = (rt.row_probes[0].get(), rt.row_probes[1].get());
        assert!(
            masks > 0 && masks <= decisions,
            "{masks} rows read for {decisions} decisions"
        );
        assert!(
            walk > 10 * masks,
            "the row walk read {walk} rows where the masks read {masks}: no backlog formed"
        );
    }

    #[test]
    fn succ_links_do_not_outlive_their_entry() {
        // A sync every five spawns closes the chain, so every fifth task
        // heads a new one: its link is made by its successor's spawn and no
        // chain update ever takes it. Keyed by task in a map, those links
        // (and the link of every task that settled before its successor
        // arrived) stayed for the runtime's life, one per chain.
        let cfg = PagodaConfig::builder().rows_per_column(1).build().unwrap();
        let mut rt = PagodaRuntime::new(cfg);
        // Links whose predecessor has already left the GPU's table: no
        // settle can take them any more.
        let mut orphaned = 0;
        for i in 0..10_000 {
            rt.spawn_blocking(tiny_task()).unwrap();
            if i % 5 == 4 {
                let links = rt.succ_entry.iter().zip(&rt.occupant);
                orphaned += links.filter(|(l, o)| l.is_some() && o.is_none()).count();
                rt.sync_table();
            }
        }
        assert!(
            orphaned > 1_000,
            "{orphaned} orphaned links: the run does not reach the leak"
        );
        rt.wait_all();
        assert_eq!(rt.report().tasks, 10_000);
        assert_eq!(rt.succ_entry, vec![None; 48]);
        assert_eq!(rt.staged.iter().flatten().count(), 0);
        // The slab is as long as the most events ever pending at once: an
        // entry copy per entry and a flush write.
        assert!(
            rt.staged.len() <= 48 + 1,
            "{} staged slots",
            rt.staged.len()
        );
    }

    #[test]
    fn barrier_group_slots_are_recycled() {
        // 10 000 synchronizing tasks through one runtime: the device holds
        // as many group slots as were ever live at once (at most the
        // executors of its 48 MTBs paired off), not one per task.
        let mut rt = PagodaRuntime::titan_x();
        for _ in 0..10_000 {
            rt.spawn_blocking(TaskDesc::uniform(64, WarpWork::phased(2_000, 2, 2.0)))
                .unwrap();
        }
        rt.wait_all();
        assert_eq!(rt.report().tasks, 10_000);
        let slots = rt.device.group_slots();
        assert!((1..=48 * 15).contains(&slots), "{slots} group slots");
    }

    #[test]
    fn wait_all_with_nothing_to_wait_for_is_free() {
        let idle = |rt: &PagodaRuntime| {
            let bus = |d| rt.bus.stats(d).transactions;
            (
                rt.host_now(),
                bus(Direction::HostToDevice),
                bus(Direction::DeviceToHost),
            )
        };
        // Nothing spawned: the flush early-outs, no copy-back is issued.
        let mut rt = PagodaRuntime::titan_x();
        rt.wait_all();
        assert_eq!(idle(&rt), (SimTime::ZERO, 0, 0));
        // Everything already observed: the same.
        rt.submit(tiny_task()).unwrap();
        rt.wait_all();
        let before = idle(&rt);
        rt.wait_all();
        assert_eq!(idle(&rt), before);
    }

    #[test]
    fn unknown_task_ids_error_instead_of_panicking() {
        let mut rt = PagodaRuntime::titan_x();
        let bogus = TaskId(TaskId::FIRST.0 + 7);
        match rt.wait(bogus) {
            Err(PagodaError::UnknownTask { task, spawned }) => {
                assert_eq!(task, bogus);
                assert_eq!(spawned, 0);
            }
            other => panic!("expected UnknownTask, got {other:?}"),
        }
        assert!(rt.check(bogus).is_err());
        assert!(rt.observed_done(bogus).is_err());
        assert!(rt.trace(bogus).is_err());
        assert_eq!(rt.task_latency(bogus), None);
        // Pre-FIRST ids (checked_sub underflow) must also be rejected.
        assert!(rt.trace(TaskId(0)).is_err());
    }

    #[test]
    fn obs_records_full_lifecycle_and_counters() {
        let mut rt = PagodaRuntime::titan_x();
        let (obs, rec) = Obs::recording();
        rt.attach_obs(obs);
        let t = rt.submit(tiny_task()).unwrap();
        rt.wait(t).unwrap();
        let buf = rec.snapshot();

        let tl = buf.task_timeline(t.0);
        let mut prev = 0u64;
        for (i, at) in tl.iter().enumerate() {
            let at = at.unwrap_or_else(|| panic!("missing lifecycle state #{i}"));
            assert!(at >= prev, "lifecycle timestamps out of order");
            prev = at;
        }
        assert_eq!(buf.counter(Counter::TasksSpawned), 1);
        assert_eq!(buf.counter(Counter::TasksFreed), 1);
        assert!(buf.counter(Counter::SchedulerDecisions) > 0);
        assert!(buf.counter(Counter::PcieH2dTransactions) > 0);
        assert!(buf.counter(Counter::TaskTablePolls) > 0);
        assert!(buf.counter(Counter::EngineEvents) > 0);
        assert!(!buf.mtb.is_empty(), "expected MTB occupancy samples");
        assert!(!buf.smm.is_empty(), "expected SMM residency samples");
        // The spawned task's lifecycle maps onto the recorded trace.
        let tr = rt.trace(t).unwrap();
        assert_eq!(tl[0], Some(tr.spawned.as_ps()));
        assert_eq!(tl[3], tr.first_exec.map(|x| x.as_ps()));
        assert_eq!(tl[4], tr.gpu_done.map(|x| x.as_ps()));

        // Detaching stops recording.
        rt.attach_obs(Obs::off());
        rt.submit(tiny_task()).unwrap();
        assert_eq!(rec.snapshot().counter(Counter::TasksSpawned), 1);
    }
}
