//! The GPU device: resource accounting, the hardware threadblock
//! dispatcher, kernel-launch machinery, and the event loop.
//!
//! Two execution paths coexist, mirroring the paper's world:
//!
//! * **Native kernels** ([`GpuDevice::launch_kernel`]): the hardware work
//!   distributor places threadblocks on SMMs subject to warp-slot, thread,
//!   TB-slot, register, and shared-memory limits, with at most
//!   `spec.num_hw_queues` kernels in flight (the HyperQ cap). Resources
//!   are freed at *threadblock* granularity — a new TB cannot launch until a
//!   whole resident TB retires (paper §6.4) — unless
//!   [`DeviceConfig::free_warps_individually`] is set (an ablation of
//!   Pagoda's warp-level freeing applied to the hardware path). A placed
//!   TB runs each run of identical warps
//!   ([`BlockWork::runs`](crate::work::BlockWork::runs)) as one execution
//!   context ([`ExecState::create_warps`]), in the slots and buffers a
//!   retired TB left, so placement allocates nothing once warm.
//!
//! * **Persistent kernels** ([`GpuDevice::launch_persistent`]): the
//!   MasterKernel path. Threadblocks are placed once and never retire; their
//!   warps start idle and receive work dynamically via
//!   [`GpuDevice::assign_warp`] — this is how Pagoda's executor warps run
//!   task work and how its scheduler warps are charged for scheduling
//!   cycles.
//!
//! The device is driven by [`GpuDevice::step_bounded_into`], which
//! delivers batches of [`Notify`] events to the owning runtime in
//! deterministic order.

use std::collections::VecDeque;
use std::rc::Rc;

use desim::{Dur, Engine, EventKey, SimTime};
use gpu_arch::{GpuSpec, LaunchError, TaskShape};
use pagoda_obs::{Counter, Obs, SmmSample};

use crate::exec::{ExecState, GroupId, WarpHandle};
use crate::work::{Kernel, Segment, WarpWork};

/// Tag bit marking device-internal (native-TB) warp assignments. External
/// tags passed to [`GpuDevice::assign_warp`] must stay below this.
const NATIVE_BIT: u64 = 1 << 63;

/// Externally visible simulation events, delivered by
/// [`GpuDevice::step_bounded_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notify {
    /// A warp finished an assignment made with [`GpuDevice::assign_warp`].
    WarpDone {
        /// The warp that completed.
        warp: WarpHandle,
        /// The tag given at assignment.
        tag: u64,
    },
    /// A native kernel's last threadblock retired.
    KernelDone {
        /// The tag given to [`GpuDevice::launch_kernel`].
        tag: u64,
    },
    /// A host-scheduled timer ([`GpuDevice::schedule_host`]).
    Host(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    SmWake { sm: u32 },
    LaunchIssued { kid: u32 },
    Drain,
    Host(u64),
}

/// Device configuration: the machine plus front-end behaviour knobs.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// The hardware. Its `num_hw_queues` is the concurrent-kernel cap
    /// (HyperQ: 32).
    pub spec: GpuSpec,
    /// Serialized per-kernel launch processing cost in the grid management
    /// unit (driver + front-end). With tens of thousands of one-task
    /// kernels this is a first-order cost for the HyperQ baseline.
    pub launch_issue_cost: Dur,
    /// Free a native TB's warp slots as each warp retires instead of when
    /// the whole TB retires. Hardware does not do this; Pagoda does. Used
    /// by the §6.4 ablation.
    pub free_warps_individually: bool,
}

impl DeviceConfig {
    /// Default configuration for a given machine.
    pub fn new(spec: GpuSpec) -> Self {
        DeviceConfig {
            spec,
            // Driver + grid-management-unit processing per kernel launch.
            // Measured end-to-end launch overheads on Maxwell-era CUDA sit
            // at 3-10 µs; narrow-task workloads hit the pipelined floor.
            launch_issue_cost: Dur::from_ns(3000),
            free_warps_individually: false,
        }
    }

    /// The paper's evaluation device.
    pub fn titan_x() -> Self {
        Self::new(GpuSpec::titan_x())
    }
}

/// Per-SMM free-resource counters.
#[derive(Debug, Clone, Copy)]
struct SmRes {
    warps: u32,
    threads: u32,
    tbs: u32,
    regs: u32,
    smem: u32,
}

/// Cached per-TB resource footprint of a kernel.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    warps: u32,
    threads: u32,
    regs: u32,
    smem: u32,
}

impl Footprint {
    /// Whether `self` needs at least as much of every resource as `other`.
    fn covers(&self, other: &Footprint) -> bool {
        self.warps >= other.warps
            && self.threads >= other.threads
            && self.regs >= other.regs
            && self.smem >= other.smem
    }
}

#[derive(Debug)]
struct KernelCtx {
    kernel: Rc<Kernel>,
    tag: u64,
    foot: Footprint,
    /// `kernel.num_tbs()`, kept beside the progress counters so a
    /// placement sweep reads no kernel.
    num_tbs: u32,
    next_tb: u32,
    retired_tbs: u32,
}

#[derive(Debug)]
struct TbCtx {
    kid: u32,
    sm: u32,
    /// One execution context per run of identical warps
    /// ([`BlockWork::runs`](crate::work::BlockWork::runs)). Empty while
    /// the slot waits in `free_tbs`; its capacity is kept for the next
    /// tenant.
    warps: Vec<WarpHandle>,
    group: GroupId,
    done_warps: u32,
    /// Warp slots already returned via individual freeing.
    warps_prefreed: u32,
    /// Threads already returned via individual freeing.
    threads_prefreed: u32,
    /// Registers already returned via individual freeing.
    regs_prefreed: u32,
    retired: bool,
}

/// A set of SMM indices, one bit each, visited in ascending order.
#[derive(Debug, Default)]
struct SmSet(Vec<u64>);

impl SmSet {
    fn new(num_sms: u32) -> Self {
        SmSet(vec![0; num_sms.div_ceil(64) as usize])
    }

    fn insert(&mut self, sm: u32) {
        self.0[(sm / 64) as usize] |= 1 << (sm % 64);
    }

    /// Calls `f` on each member in ascending order, emptying the set.
    fn drain(&mut self, mut f: impl FnMut(u32)) {
        for (i, word) in self.0.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                f(i as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

/// A placed persistent threadblock (one Pagoda MTB).
#[derive(Debug, Clone)]
pub struct PersistentTb {
    /// The SMM it resides on.
    pub sm: u32,
    /// Its warps, in warp-index order; all start idle.
    pub warps: Vec<WarpHandle>,
}

/// The simulated GPU.
#[derive(Debug)]
pub struct GpuDevice {
    cfg: DeviceConfig,
    engine: Engine<Ev>,
    exec: ExecState,
    sm_res: Vec<SmRes>,
    kernels: Vec<KernelCtx>,
    /// Slots of `kernels` whose kernel is done, reused last-done-first:
    /// a launch allocates nothing once as many kernels as it needs have
    /// been in flight at once.
    free_kernels: Vec<u32>,
    tbs: Vec<TbCtx>,
    /// Retired slots of `tbs`, reused last-retired-first: a placement
    /// allocates nothing once as many threadblocks as it needs have been
    /// resident at once.
    free_tbs: Vec<u32>,
    /// Active (placing/executing) kernel ids in launch order.
    active: Vec<u32>,
    /// Issued kernels waiting for a free concurrency slot.
    waiting: VecDeque<u32>,
    /// A footprint no SMM could take at the last failed placement, until
    /// resources are next returned: free resources only shrink until
    /// then, so no footprint that covers it fits either, and a sweep over
    /// a full device's active kernels skips their scans.
    unplaceable: Option<Footprint>,
    /// Launch front-end serialization point.
    next_launch_free: SimTime,
    drain_pending: bool,
    /// The single armed next-completion prediction per SMM. Re-aimed in
    /// place on running-set changes ([`Engine::reschedule`]), cleared at
    /// delivery, cancelled outright when the SMM empties — the event
    /// queue never carries superseded predictions.
    sm_wake: Vec<Option<EventKey>>,
    /// Scratch for [`GpuDevice::settle`]: the SMMs whose running set
    /// changed, one bit per SMM. All clear between calls.
    dirty: SmSet,
    /// Scratch for [`GpuDevice::settle`]: the completion batch in hand,
    /// traded with the execution engine's queue so neither is re-grown.
    /// Empty between calls.
    finished: Vec<(WarpHandle, u64)>,
    obs: Obs,
    /// `obs.enabled()` at attach: whether each delivered engine event
    /// bumps [`Counter::EngineEvents`].
    count_events: bool,
}

impl GpuDevice {
    /// Creates a device.
    pub fn new(cfg: DeviceConfig) -> Self {
        let spec = &cfg.spec;
        let sm_res = (0..spec.num_sms)
            .map(|_| SmRes {
                warps: spec.max_warps_per_sm,
                threads: spec.max_threads_per_sm,
                tbs: spec.max_tbs_per_sm,
                regs: spec.regs_per_sm,
                smem: spec.smem_per_sm,
            })
            .collect();
        let exec = ExecState::new(spec);
        let sm_wake = vec![None; spec.num_sms as usize];
        let dirty = SmSet::new(spec.num_sms);
        GpuDevice {
            cfg,
            engine: Engine::new(),
            exec,
            sm_res,
            kernels: Vec::new(),
            free_kernels: Vec::new(),
            tbs: Vec::new(),
            free_tbs: Vec::new(),
            active: Vec::new(),
            waiting: VecDeque::new(),
            unplaceable: None,
            next_launch_free: SimTime::ZERO,
            drain_pending: false,
            sm_wake,
            dirty,
            finished: Vec::new(),
            obs: Obs::off(),
            count_events: false,
        }
    }

    /// Attaches an observability handle. A recorder that retains events
    /// counts every delivered engine event; launch/placement/retire/
    /// assignment paths emit per-SMM resource samples at each residency
    /// change.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.count_events = obs.enabled();
        self.obs = obs;
    }

    /// A Titan X with default front-end parameters.
    pub fn titan_x() -> Self {
        Self::new(DeviceConfig::titan_x())
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Whether nothing on the device can happen any more: no event before
    /// [`SimTime::MAX`], where a warp whose work outlasts the clock has
    /// its completion predicted. Only a host action — an assignment, a
    /// launch, a timer — can change that.
    pub fn is_idle(&self) -> bool {
        self.engine.peek_time().is_none_or(|t| t == SimTime::MAX)
    }

    /// The machine description.
    pub fn spec(&self) -> &GpuSpec {
        &self.cfg.spec
    }

    // ------------------------------------------------------------------
    // Native kernel path
    // ------------------------------------------------------------------

    /// Launches a native kernel. The launch front-end serializes launches
    /// (`launch_issue_cost` each); once issued, the kernel waits for a
    /// concurrency slot and its TBs are then placed as resources permit.
    /// Completion is announced via [`Notify::KernelDone`] with `tag`. The
    /// device shares `kernel`'s work lists; it copies none of them.
    pub fn launch_kernel(&mut self, kernel: Rc<Kernel>, tag: u64) -> Result<(), LaunchError> {
        let shape = kernel.native_shape();
        self.cfg.spec.occupancy_of(&shape)?; // also proves ≥1 TB fits
        let foot = self.footprint(&shape);
        let k = KernelCtx {
            num_tbs: kernel.num_tbs(),
            kernel,
            tag,
            foot,
            next_tb: 0,
            retired_tbs: 0,
        };
        let kid = match self.free_kernels.pop() {
            Some(kid) => {
                self.kernels[kid as usize] = k;
                kid
            }
            None => {
                self.kernels.push(k);
                self.kernels.len() as u32 - 1
            }
        };
        self.obs.count(Counter::KernelLaunches, 1);
        let issue_at = self.now().max(self.next_launch_free) + self.cfg.launch_issue_cost;
        self.next_launch_free = issue_at;
        self.engine.schedule(issue_at, Ev::LaunchIssued { kid });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Persistent (MasterKernel) path
    // ------------------------------------------------------------------

    /// Places every threadblock of a persistent kernel immediately. Fails
    /// if the full grid cannot be resident at once (a persistent kernel
    /// must own its resources for its lifetime).
    ///
    /// Returned TBs never retire; their warps are idle until given work via
    /// [`GpuDevice::assign_warp`].
    pub fn launch_persistent(
        &mut self,
        shape: TaskShape,
    ) -> Result<Vec<PersistentTb>, LaunchError> {
        self.cfg.spec.validate(&shape)?;
        let foot = self.footprint(&shape);
        // Feasibility check before mutating anything.
        {
            let mut free: Vec<SmRes> = self.sm_res.clone();
            for placed in 0..shape.num_tbs {
                let Some(sm) = Self::pick_sm(&free, &foot) else {
                    return Err(LaunchError::GridNotResident {
                        num_tbs: shape.num_tbs,
                        placed,
                    });
                };
                Self::take(&mut free[sm], &foot);
            }
        }
        let now = self.now();
        let mut out = Vec::with_capacity(shape.num_tbs as usize);
        for _ in 0..shape.num_tbs {
            let sm = Self::pick_sm(&self.sm_res, &foot).expect("checked above") as u32;
            Self::take(&mut self.sm_res[sm as usize], &foot);
            let warps = (0..shape.warps_per_tb())
                .map(|_| self.exec.create_warp(sm))
                .collect::<Vec<_>>();
            self.sample_sm(now, sm);
            out.push(PersistentTb { sm, warps });
        }
        Ok(out)
    }

    /// Assigns work to an idle (persistent-kernel) warp. Completion is
    /// announced via [`Notify::WarpDone`] with `tag`.
    ///
    /// # Panics
    /// Panics if `tag` has the reserved top bit set, the warp is retired,
    /// or it already has work.
    pub fn assign_warp(&mut self, w: WarpHandle, work: WarpWork, tag: u64) {
        self.assign_warp_parts(w, &work.segments, None, work.cpi, tag);
    }

    /// [`GpuDevice::assign_warp`] of the work `segments` then `tail` at
    /// `cpi`, borrowed (see [`ExecState::assign_parts`]): how the
    /// MasterKernel hands an executor warp a task's kernel plus its
    /// completion epilogue without building a [`WarpWork`] per warp.
    ///
    /// # Panics
    /// As [`GpuDevice::assign_warp`], and if `cpi` is below 1.
    pub fn assign_warp_parts(
        &mut self,
        w: WarpHandle,
        segments: &[Segment],
        tail: Option<Segment>,
        cpi: f64,
        tag: u64,
    ) {
        assert_eq!(tag & NATIVE_BIT, 0, "tag uses reserved bit");
        let now = self.now();
        let sm = self.exec.warp_sm(w);
        self.exec.advance_sm(sm, now);
        self.exec.assign_parts(now, w, segments, tail, cpi, tag);
        self.reschedule_sm(sm, now);
        self.request_drain();
        self.sample_sm(now, sm);
    }

    /// Creates a barrier group over persistent warps (a Pagoda task
    /// sub-threadblock). All members must be on one SMM.
    pub fn create_group(&mut self, members: &[WarpHandle]) -> GroupId {
        self.exec.create_group(members)
    }

    /// Releases a barrier group once all members finished.
    pub fn release_group(&mut self, g: GroupId) {
        self.exec.release_group(g);
    }

    /// Barrier-group slots the engine holds (see
    /// [`ExecState::group_slots`]): a footprint reading, bounded by the
    /// groups live at once however many were created.
    pub fn group_slots(&self) -> usize {
        self.exec.group_slots()
    }

    // ------------------------------------------------------------------
    // Host timers
    // ------------------------------------------------------------------

    /// Schedules [`Notify::Host`]`(tag)` at absolute time `at`. A host
    /// timer cannot be cancelled: whoever keys state by `tag` is promised
    /// its delivery.
    pub fn schedule_host(&mut self, at: SimTime, tag: u64) {
        self.engine.schedule(at, Ev::Host(tag));
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Advances the simulation to the next instant, no later than `bound`,
    /// at which something externally visible happens, and returns it:
    /// `out` is cleared, then holds that instant's notifications. Returns
    /// `None`, processing nothing past `bound`, when no such instant
    /// exists; `SimTime::MAX` runs until [`GpuDevice::is_idle`] (an event
    /// at `SimTime::MAX` itself is never delivered). A host-side runtime
    /// passes its own clock so the device never runs ahead of the host
    /// instant being modelled.
    ///
    /// A caller that passes the same buffer every time allocates nothing
    /// per delivery. (The buffer cannot be lent out by the device instead:
    /// whoever handles a notification needs the device mutably — to
    /// assign a warp, to schedule a timer — while still reading the
    /// batch.)
    pub fn step_bounded_into(&mut self, bound: SimTime, out: &mut Vec<Notify>) -> Option<SimTime> {
        out.clear();
        let bound = bound.min(SimTime::from_ps(u64::MAX - 1));
        while self.engine.peek_time().is_some_and(|t| t <= bound) {
            let (t, ev) = self.engine.pop().expect("peeked");
            if self.count_events {
                self.obs.count(Counter::EngineEvents, 1);
            }
            match ev {
                Ev::Host(tag) => out.push(Notify::Host(tag)),
                Ev::Drain => {
                    self.drain_pending = false;
                    self.settle(t, out);
                }
                Ev::LaunchIssued { kid } => {
                    self.waiting.push_back(kid);
                    self.settle(t, out);
                }
                Ev::SmWake { sm } => {
                    // This SMM's one armed prediction just fired; a new
                    // one is armed below iff work remains.
                    self.sm_wake[sm as usize] = None;
                    self.exec.advance_sm(sm, t);
                    self.exec.process_completions(sm, t);
                    self.settle(t, out);
                    self.reschedule_sm(sm, t);
                }
            }
            if !out.is_empty() {
                return Some(t);
            }
        }
        None
    }

    /// Runs until quiescent, handing `f` each instant's notifications.
    /// Each batch is `f`'s to keep, so this allocates one per delivery;
    /// a hot loop keeps its own buffer and calls
    /// [`GpuDevice::step_bounded_into`] instead.
    pub fn run<F: FnMut(&mut GpuDevice, SimTime, Vec<Notify>)>(&mut self, mut f: F) {
        let mut batch = Vec::new();
        while let Some(t) = self.step_bounded_into(SimTime::MAX, &mut batch) {
            f(self, t, std::mem::take(&mut batch));
        }
    }

    /// Average busy time per SMM over `[0, now]`: the profiler-style
    /// aggregate kernel time.
    pub fn avg_sm_busy(&self) -> Dur {
        Dur::from_ps(self.exec.total_stats().busy_ps / u64::from(self.cfg.spec.num_sms))
    }

    /// Average *running* occupancy over `[0, now]`: mean fraction of the
    /// device's warp slots doing useful work.
    pub fn avg_running_occupancy(&self) -> f64 {
        let now = self.now().as_ps();
        if now == 0 {
            return 0.0;
        }
        let running_warp_ps = self.exec.total_stats().running_warp_ps;
        running_warp_ps / (self.cfg.spec.max_resident_warps() as f64 * now as f64)
    }

    /// Event-engine counters (scheduled/delivered/cancelled), the
    /// denominator for events per host second.
    pub fn engine_stats(&self) -> desim::EngineStats {
        self.engine.stats()
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Emits a per-SMM resource sample if a recorder is attached. Called
    /// at residency state changes only, never on a timer.
    fn sample_sm(&self, now: SimTime, sm: u32) {
        if !self.obs.enabled() {
            return;
        }
        let r = &self.sm_res[sm as usize];
        self.obs.smm(SmmSample {
            at_ps: now.as_ps(),
            sm,
            resident_warps: self.cfg.spec.max_warps_per_sm - r.warps,
            running_warps: self.exec.sm_running(sm),
            free_regs: u64::from(r.regs),
            free_smem: u64::from(r.smem),
            free_tb_slots: r.tbs,
        });
    }

    fn footprint(&self, shape: &TaskShape) -> Footprint {
        Footprint {
            warps: shape.warps_per_tb(),
            threads: shape.threads_per_tb,
            regs: self.cfg.spec.regs_per_tb(shape),
            smem: self.cfg.spec.smem_per_tb(shape),
        }
    }

    fn pick_sm(res: &[SmRes], f: &Footprint) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, r) in res.iter().enumerate() {
            if r.warps >= f.warps
                && r.threads >= f.threads
                && r.tbs >= 1
                && r.regs >= f.regs
                && r.smem >= f.smem
            {
                best = match best {
                    Some(b) if res[b].warps >= r.warps => Some(b),
                    _ => Some(i),
                };
            }
        }
        best
    }

    fn take(r: &mut SmRes, f: &Footprint) {
        r.warps -= f.warps;
        r.threads -= f.threads;
        r.tbs -= 1;
        r.regs -= f.regs;
        r.smem -= f.smem;
    }

    fn give(r: &mut SmRes, f: &Footprint, pre: (u32, u32, u32)) {
        let (warps_freed, threads_freed, regs_freed) = pre;
        r.warps += f.warps - warps_freed;
        r.threads += f.threads - threads_freed;
        r.tbs += 1;
        r.regs += f.regs - regs_freed;
        r.smem += f.smem;
    }

    fn request_drain(&mut self) {
        if !self.drain_pending {
            self.drain_pending = true;
            self.engine.schedule_now(Ev::Drain);
        }
    }

    /// Re-aims SMM `sm`'s single armed completion prediction at the
    /// current earliest completion. A re-aim takes a fresh engine
    /// sequence number (see [`Engine::reschedule`]), so same-instant
    /// delivery order is exactly what cancel-plus-schedule would give.
    fn reschedule_sm(&mut self, sm: u32, now: SimTime) {
        match self.exec.next_completion(sm, now) {
            Some(t) => {
                if let Some(key) = self.sm_wake[sm as usize] {
                    if self.engine.reschedule(key, t) {
                        return;
                    }
                }
                let key = self.engine.schedule(t, Ev::SmWake { sm });
                self.sm_wake[sm as usize] = Some(key);
            }
            None => {
                if let Some(key) = self.sm_wake[sm as usize].take() {
                    self.engine.cancel(key);
                }
            }
        }
    }

    /// Promotes waiting kernels, places TBs, and drains finished-warp
    /// events, iterating to a fixed point. `out` receives external
    /// notifications. Touched SMMs get their wake events re-predicted.
    fn settle(&mut self, now: SimTime, out: &mut Vec<Notify>) {
        // Nothing to promote, place or report — every `Drain` of a device
        // that runs only a persistent kernel. No SMM can be dirty either.
        if self.active.is_empty() && self.waiting.is_empty() && !self.exec.has_finished() {
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        loop {
            while self.active.len() < self.cfg.spec.num_hw_queues as usize {
                match self.waiting.pop_front() {
                    Some(kid) => self.active.push(kid),
                    None => break,
                }
            }
            let placed = self.try_place(now, &mut dirty);
            self.exec.swap_finished(&mut self.finished);
            if !placed && self.finished.is_empty() {
                break;
            }
            for i in 0..self.finished.len() {
                let (w, tag) = self.finished[i];
                self.one_finished(now, w, tag, out, &mut dirty);
            }
            self.finished.clear();
        }
        dirty.drain(|sm| self.reschedule_sm(sm, now));
        self.dirty = dirty;
    }

    /// One placement sweep over active kernels. Returns whether any TB was
    /// placed.
    fn try_place(&mut self, now: SimTime, dirty: &mut SmSet) -> bool {
        let mut placed = false;
        for idx in 0..self.active.len() {
            let kid = self.active[idx];
            loop {
                let (foot, tb_index, total) = {
                    let k = &self.kernels[kid as usize];
                    (k.foot, k.next_tb, k.num_tbs)
                };
                if tb_index >= total || self.unplaceable.is_some_and(|u| foot.covers(&u)) {
                    break;
                }
                let Some(sm) = Self::pick_sm(&self.sm_res, &foot) else {
                    self.unplaceable = Some(foot);
                    break;
                };
                self.place_tb(now, kid, sm as u32);
                dirty.insert(sm as u32);
                placed = true;
            }
        }
        placed
    }

    fn place_tb(&mut self, now: SimTime, kid: u32, sm: u32) {
        let (foot, tb_index) = {
            let k = &mut self.kernels[kid as usize];
            let i = k.next_tb;
            k.next_tb += 1;
            (k.foot, i)
        };
        Self::take(&mut self.sm_res[sm as usize], &foot);
        let GpuDevice {
            exec,
            kernels,
            tbs,
            free_tbs,
            ..
        } = self;
        let block = &kernels[kid as usize].kernel.blocks[tb_index as usize];
        // Each run of identical warps is one context, created in warp
        // order: its warps are as old, relative to every other warp, as
        // warp-by-warp creation would have made them.
        let slot = free_tbs.pop();
        let mut warps =
            slot.map_or_else(Vec::new, |id| std::mem::take(&mut tbs[id as usize].warps));
        warps.extend(block.runs().map(|(_, k)| exec.create_warps(sm, k)));
        let tb = TbCtx {
            kid,
            sm,
            group: exec.create_group(&warps),
            warps,
            done_warps: 0,
            warps_prefreed: 0,
            threads_prefreed: 0,
            regs_prefreed: 0,
            retired: false,
        };
        let tb_id = match slot {
            Some(id) => {
                tbs[id as usize] = tb;
                id as usize
            }
            None => {
                tbs.push(tb);
                tbs.len() - 1
            }
        };
        exec.advance_sm(sm, now);
        let tag = NATIVE_BIT | tb_id as u64;
        for (&w, (work, _)) in tbs[tb_id].warps.iter().zip(block.runs()) {
            exec.assign_parts(now, w, &work.segments, None, work.cpi, tag);
        }
        self.sample_sm(now, sm);
    }

    fn one_finished(
        &mut self,
        now: SimTime,
        warp: WarpHandle,
        tag: u64,
        out: &mut Vec<Notify>,
        dirty: &mut SmSet,
    ) {
        if tag & NATIVE_BIT == 0 {
            self.sample_sm(now, self.exec.warp_sm(warp));
            out.push(Notify::WarpDone { warp, tag });
            return;
        }
        let tb_id = (tag & !NATIVE_BIT) as usize;
        let tb = &mut self.tbs[tb_id];
        tb.done_warps += 1;
        let foot = self.kernels[tb.kid as usize].foot;
        let (done, total) = (tb.done_warps, foot.warps);
        if self.cfg.free_warps_individually && done < total {
            // Pagoda-style early release (§6.4 ablation): the warp slot and
            // its threads return to the pool before the TB retires, so a
            // queued TB can launch while this one's stragglers run. Regs,
            // shared memory, and the TB slot still wait for full retire.
            let tb_sm = tb.sm as usize;
            let threads = (foot.threads - tb.threads_prefreed).min(32);
            let regs = (foot.regs / foot.warps).min(foot.regs - tb.regs_prefreed);
            tb.warps_prefreed += 1;
            tb.threads_prefreed += threads;
            tb.regs_prefreed += regs;
            self.sm_res[tb_sm].warps += 1;
            self.sm_res[tb_sm].threads += threads;
            self.sm_res[tb_sm].regs += regs;
            self.unplaceable = None;
            dirty.insert(tb_sm as u32);
            self.sample_sm(now, tb_sm as u32);
        }
        if done == total {
            self.retire_tb(now, tb_id, out, dirty);
        }
    }

    fn retire_tb(&mut self, now: SimTime, tb_id: usize, out: &mut Vec<Notify>, dirty: &mut SmSet) {
        let tb = &mut self.tbs[tb_id];
        assert!(!tb.retired, "double TB retire");
        tb.retired = true;
        let (kid, sm) = (tb.kid, tb.sm);
        let pre = (tb.warps_prefreed, tb.threads_prefreed, tb.regs_prefreed);
        let foot = self.kernels[kid as usize].foot;
        Self::give(&mut self.sm_res[sm as usize], &foot, pre);
        self.unplaceable = None;
        self.exec.release_group(tb.group);
        for w in tb.warps.drain(..) {
            self.exec.retire_warp(w);
        }
        self.free_tbs.push(tb_id as u32);
        dirty.insert(sm);
        self.sample_sm(now, sm);
        let k = &mut self.kernels[kid as usize];
        k.retired_tbs += 1;
        if k.retired_tbs == k.num_tbs {
            out.push(Notify::KernelDone { tag: k.tag });
            self.active.retain(|&a| a != kid);
            self.free_kernels.push(kid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{BlockWork, WarpWork};

    fn quiet_cfg() -> DeviceConfig {
        let mut c = DeviceConfig::titan_x();
        c.launch_issue_cost = Dur::from_ps(0);
        c
    }

    fn shape(threads: u32, tbs: u32) -> TaskShape {
        TaskShape {
            threads_per_tb: threads,
            num_tbs: tbs,
            regs_per_thread: 32,
            smem_per_tb: 0,
        }
    }

    /// A kernel of `tbs` threadblocks of `threads` threads, every warp
    /// running `work`.
    fn uniform(threads: u32, tbs: u32, work: WarpWork) -> Rc<Kernel> {
        let sync = work.barrier_count() > 0;
        let block = BlockWork::uniform(threads.div_ceil(32), work);
        Kernel::new(threads, 0, sync, vec![block; tbs as usize]).unwrap()
    }

    /// Drains the device, returning every notification with its instant.
    fn drain(dev: &mut GpuDevice) -> Vec<(SimTime, Notify)> {
        let (mut seen, mut batch) = (Vec::new(), Vec::new());
        while let Some(t) = dev.step_bounded_into(SimTime::MAX, &mut batch) {
            seen.extend(batch.iter().map(|&n| (t, n)));
        }
        seen
    }

    /// Drains the device, returning kernel completions as (tag, time).
    fn run_all(dev: &mut GpuDevice) -> Vec<(u64, SimTime)> {
        drain(dev)
            .into_iter()
            .filter_map(|(t, n)| match n {
                Notify::KernelDone { tag } => Some((tag, t)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_kernel_runs_to_completion() {
        let mut dev = GpuDevice::new(quiet_cfg());
        // 1 TB x 1 warp, 32000 ti @ CPI 4 -> 4 us.
        let k = uniform(32, 1, WarpWork::compute(32_000, 4.0));
        dev.launch_kernel(k, 1).unwrap();
        let done = run_all(&mut dev);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 1);
        assert!((done[0].1.as_us_f64() - 4.0).abs() < 0.01, "{}", done[0].1);
    }

    #[test]
    fn launch_cost_serializes_front_end() {
        let mut cfg = quiet_cfg();
        cfg.launch_issue_cost = Dur::from_us(2);
        let mut dev = GpuDevice::new(cfg);
        for i in 0..4 {
            let k = uniform(32, 1, WarpWork::compute(0, 1.0));
            dev.launch_kernel(k, i).unwrap();
        }
        let done = run_all(&mut dev);
        assert_eq!(done.len(), 4);
        // Zero work: completion at issue time = 2, 4, 6, 8 us.
        let times: Vec<f64> = done.iter().map(|(_, t)| t.as_us_f64()).collect();
        assert_eq!(times, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn concurrency_cap_enforced() {
        // 33 one-TB kernels of 64 warps... each kernel occupies 2048
        // threads = 1 full SM's thread budget? Use 1024-thread TBs: 32
        // warps. 24 SMs hold 48 such TBs, so resources allow all 33; the
        // HyperQ cap (set to 2) must serialize instead.
        let mut cfg = quiet_cfg();
        cfg.spec.num_hw_queues = 2;
        let mut dev = GpuDevice::new(cfg);
        for i in 0..4 {
            let k = uniform(1024, 1, WarpWork::compute(32_000, 1.0));
            dev.launch_kernel(k, i).unwrap();
        }
        let done = run_all(&mut dev);
        assert_eq!(done.len(), 4);
        // Each kernel: 32 warps on an SM, issue-bound? 32 warps*32 lanes =
        // 1024 = 8x the 128 lanes -> per-warp rate 128e9/32 = 4e9;
        // 32000/4e9 = 8us. First two finish at 8us, next two at 16us.
        let t: Vec<f64> = done.iter().map(|(_, t)| t.as_us_f64()).collect();
        assert!(
            (t[0] - 8.0).abs() < 0.1 && (t[1] - 8.0).abs() < 0.1,
            "{t:?}"
        );
        assert!(
            (t[2] - 16.0).abs() < 0.1 && (t[3] - 16.0).abs() < 0.1,
            "{t:?}"
        );
    }

    #[test]
    fn tb_granularity_blocks_new_tb_until_whole_tb_retires() {
        // SM capacity trick: kernel A has TBs of 1024 threads with one
        // short warp and 31 long warps... verify that a second TB cannot
        // start until the whole first TB ends when resources are exhausted.
        let mut cfg = quiet_cfg();
        cfg.spec.num_sms = 1; // single-SM device for determinism
        let mut dev = GpuDevice::new(cfg);
        // Each TB: 32 warps (1024 threads). SM holds 2 TBs (2048 threads).
        // 3 TBs total: third must wait for a full TB retire.
        let mut warps = vec![WarpWork::compute(32_000, 1.0); 31];
        warps.push(WarpWork::compute(320_000, 1.0)); // one straggler warp
        let block = BlockWork::new(warps);
        let k = Kernel::new(1024, 0, false, vec![block; 3]).unwrap();
        dev.launch_kernel(k, 7).unwrap();
        let done = run_all(&mut dev);
        assert_eq!(done.len(), 1);
        // Straggler dominates; with TB-granularity the third TB starts only
        // after a full TB (straggler included) retires.
        // Phase 1: TBs 0,1 resident (64 warps). Short warps finish, then
        // stragglers run. Completion must be strictly later than the
        // straggler-only bound of one TB.
        let t_end = done[0].1;
        assert!(t_end.as_us_f64() > 20.0, "end {}us", t_end.as_us_f64());
    }

    #[test]
    fn warp_granularity_frees_slots_earlier() {
        let mk = |free_individually: bool| {
            let mut cfg = quiet_cfg();
            cfg.spec.num_sms = 1;
            cfg.free_warps_individually = free_individually;
            let mut dev = GpuDevice::new(cfg);
            // TBs of 64 warps? max per TB is 32 warps. Use 32-warp TBs with
            // one straggler each; 4 TBs; SM fits 2 at a time by threads.
            let mut warps = vec![WarpWork::compute(3_200, 1.0); 31];
            warps.push(WarpWork::compute(3_200_000, 1.0));
            let block = BlockWork::new(warps);
            let k = Kernel::new(1024, 0, false, vec![block; 4]).unwrap();
            dev.launch_kernel(k, 1).unwrap();
            let done = run_all(&mut dev);
            done[0].1
        };
        let tb_gran = mk(false);
        let warp_gran = mk(true);
        // Early warp freeing can only help (more issue share for
        // stragglers? no—slots don't change rate; but TB placement is
        // warp-slot limited? threads still held). With thread limits held,
        // times are equal; assert no regression.
        assert!(warp_gran <= tb_gran);
    }

    #[test]
    fn persistent_kernel_occupies_and_executes_assigned_work() {
        let mut dev = GpuDevice::new(quiet_cfg());
        // The MasterKernel shape: 48 TBs x 1024 threads, 32 KB smem.
        let mk = TaskShape {
            threads_per_tb: 1024,
            num_tbs: 48,
            regs_per_thread: 32,
            smem_per_tb: 32 * 1024,
        };
        let tbs = dev.launch_persistent(mk).unwrap();
        assert_eq!(tbs.len(), 48);
        // Two MTBs per SMM.
        let mut per_sm = vec![0; 24];
        for tb in &tbs {
            per_sm[tb.sm as usize] += 1;
        }
        assert!(per_sm.iter().all(|&c| c == 2), "{per_sm:?}");

        // Assign work to one executor warp and watch it complete.
        let w = tbs[0].warps[1];
        dev.assign_warp(w, WarpWork::compute(32_000, 4.0), 42);
        let seen = drain(&mut dev);
        assert_eq!(seen.len(), 1);
        assert!(matches!(seen[0].1, Notify::WarpDone { tag: 42, .. }));
        assert!((seen[0].0.as_us_f64() - 4.0).abs() < 0.01);
    }

    #[test]
    fn persistent_grid_that_cannot_fit_fails() {
        let mut dev = GpuDevice::new(quiet_cfg());
        let mk = TaskShape {
            threads_per_tb: 1024,
            num_tbs: 49, // one more than fits
            regs_per_thread: 32,
            smem_per_tb: 32 * 1024,
        };
        assert_eq!(
            dev.launch_persistent(mk).unwrap_err(),
            LaunchError::GridNotResident {
                num_tbs: 49,
                placed: 48
            }
        );
    }

    #[test]
    fn warp_bound_persistent_grid_says_so() {
        // One SMM, no shared memory at all: three 1024-thread TBs want 96
        // warp slots and the SMM has 64. The error names the grid, not a
        // shared-memory capacity of zero.
        let mut cfg = quiet_cfg();
        cfg.spec.num_sms = 1;
        let mut dev = GpuDevice::new(cfg);
        let err = dev.launch_persistent(shape(1024, 3)).unwrap_err();
        assert_eq!(
            err,
            LaunchError::GridNotResident {
                num_tbs: 3,
                placed: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "persistent grid of 3 threadblocks does not fit resident: 2 placed before the device filled"
        );
        // Nothing was taken: the two that fit still fit.
        assert_eq!(dev.launch_persistent(shape(1024, 2)).unwrap().len(), 2);
    }

    #[test]
    fn native_and_persistent_share_the_machine() {
        let mut dev = GpuDevice::new(quiet_cfg());
        // Persistent kernel takes half of each SM (1 TB of 32 warps per SM).
        let mk = TaskShape {
            threads_per_tb: 1024,
            num_tbs: 24,
            regs_per_thread: 32,
            smem_per_tb: 0,
        };
        dev.launch_persistent(mk).unwrap();
        // Native kernel of 24 TBs fits in the other half.
        let k = uniform(1024, 24, WarpWork::compute(32_000, 1.0));
        dev.launch_kernel(k, 5).unwrap();
        let done = run_all(&mut dev);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn host_timers_fire_in_order() {
        let mut dev = GpuDevice::titan_x();
        dev.schedule_host(SimTime::from_us(10), 1);
        dev.schedule_host(SimTime::from_us(5), 2);
        dev.schedule_host(SimTime::from_us(1), 3);
        let seen: Vec<Notify> = drain(&mut dev).into_iter().map(|(_, n)| n).collect();
        assert_eq!(seen, [3, 2, 1].map(Notify::Host));
    }

    #[test]
    fn invalid_kernel_rejected() {
        let mut dev = GpuDevice::titan_x();
        // Well formed, but one block wants more shared memory than an SMM.
        let block = BlockWork::uniform(2, WarpWork::compute(1, 1.0));
        let k = Kernel::new(64, 100 * 1024, false, [block]).unwrap();
        assert!(matches!(
            dev.launch_kernel(k, 0),
            Err(LaunchError::SmemPerBlockTooLarge { .. })
        ));
        // Zero threads and zero blocks are the device's to refuse.
        let none = Vec::<BlockWork>::new;
        let empty = Kernel::new(0, 0, false, none()).unwrap();
        assert!(matches!(
            dev.launch_kernel(empty, 0),
            Err(LaunchError::BadBlockSize { .. })
        ));
        let gridless = Kernel::new(64, 0, false, none()).unwrap();
        assert_eq!(dev.launch_kernel(gridless, 0), Err(LaunchError::EmptyGrid));
    }

    #[test]
    fn obs_samples_residency_and_counts_deliveries() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let mut dev = GpuDevice::new(quiet_cfg());
        let (obs, rec) = Obs::recording();
        dev.attach_obs(obs);
        let k = uniform(256, 2, WarpWork::compute(32_000, 4.0));
        dev.launch_kernel(Rc::clone(&k), 9).unwrap();
        run_all(&mut dev);
        let buf = rec.snapshot();
        assert_eq!(buf.counter(Counter::KernelLaunches), 1);
        // Recorded from boot: one count per delivered engine event.
        let delivered = dev.engine_stats().delivered;
        assert!(delivered > 0);
        assert_eq!(buf.counter(Counter::EngineEvents), delivered);
        // One sample per TB place + one per TB retire.
        assert_eq!(buf.smm.len(), 4);
        let placed = &buf.smm[0];
        assert_eq!(placed.resident_warps, 8, "256 threads = 8 warps");
        assert_eq!(placed.free_tb_slots, dev.spec().max_tbs_per_sm - 1);
        let retired = buf.smm.last().unwrap();
        assert_eq!(retired.resident_warps, 0);
        assert_eq!(retired.running_warps, 0);

        // Detached, the device stops counting.
        dev.attach_obs(Obs::off());
        dev.launch_kernel(Rc::clone(&k), 9).unwrap();
        run_all(&mut dev);
        assert!(dev.engine_stats().delivered > delivered);
        assert_eq!(rec.snapshot().counter(Counter::EngineEvents), delivered);

        // A counters-only recorder (`retains()` false, as `benchmark/`'s
        // `Counters`) gets the counters but no engine events.
        #[derive(Default)]
        struct Counters([AtomicU64; Counter::ALL.len()]);
        impl pagoda_obs::Recorder for Counters {
            fn count(&self, c: Counter, delta: u64) {
                self.0[c as usize].fetch_add(delta, Ordering::Relaxed);
            }
            fn retains(&self) -> bool {
                false
            }
        }
        let counters = std::sync::Arc::new(Counters::default());
        dev.attach_obs(Obs::new(counters.clone()));
        dev.launch_kernel(k, 9).unwrap();
        run_all(&mut dev);
        let read = |c: Counter| counters.0[c as usize].load(Ordering::Relaxed);
        assert_eq!(read(Counter::KernelLaunches), 1);
        assert_eq!(read(Counter::EngineEvents), 0);
    }

    #[test]
    fn many_narrow_kernels_fill_device_breadth_first() {
        // 48 kernels x 1 TB x 8 warps: all fit simultaneously (8*48=384
        // warps over 1536 slots); with cap 48 they run concurrently and all
        // finish at the single-task time.
        let mut cfg = quiet_cfg();
        cfg.spec.num_hw_queues = 48;
        let mut dev = GpuDevice::new(cfg);
        for i in 0..48 {
            let k = uniform(256, 1, WarpWork::compute(32_000, 4.0));
            dev.launch_kernel(k, i).unwrap();
        }
        let done = run_all(&mut dev);
        assert_eq!(done.len(), 48);
        let last = done.last().unwrap().1;
        assert!(
            (last.as_us_f64() - 4.0).abs() < 0.05,
            "{}",
            last.as_us_f64()
        );
    }

    #[test]
    fn run_delivers_what_a_step_bounded_into_loop_delivers() {
        // Persistent warps handed new work as they finish, native kernels
        // launched from host timers, and each kernel's end arming the next
        // timer: every kind of notification, several per instant.
        fn boot() -> GpuDevice {
            let mut dev = GpuDevice::new(quiet_cfg());
            let tbs = dev.launch_persistent(shape(128, 2)).unwrap();
            for (i, &w) in tbs.iter().flat_map(|tb| &tb.warps).enumerate() {
                dev.assign_warp(w, WarpWork::compute(4_000, 2.0), i as u64);
            }
            dev.schedule_host(SimTime::ZERO, 0);
            dev.schedule_host(SimTime::from_us(1), 1);
            dev
        }
        fn react(dev: &mut GpuDevice, t: SimTime, batch: &[Notify]) {
            for &n in batch {
                match n {
                    Notify::WarpDone { warp, tag } if tag < 64 => {
                        let work = WarpWork::compute(1_000 * (tag % 5 + 1), 2.0);
                        dev.assign_warp(warp, work, tag + 8);
                    }
                    Notify::Host(tag) => {
                        let work = WarpWork::compute(2_000 * (tag % 3 + 1), 4.0);
                        dev.launch_kernel(uniform(64, 2, work), tag).unwrap();
                    }
                    Notify::KernelDone { tag } if tag < 12 => {
                        dev.schedule_host(t + Dur::from_ns(500), tag + 2);
                    }
                    _ => {}
                }
            }
        }

        let mut by_run = boot();
        let mut via_run = Vec::new();
        by_run.run(|dev, t, batch| {
            react(dev, t, &batch);
            via_run.push((t, batch));
        });

        let mut by_loop = boot();
        let (mut via_loop, mut batch) = (Vec::new(), Vec::new());
        while let Some(t) = by_loop.step_bounded_into(SimTime::MAX, &mut batch) {
            react(&mut by_loop, t, &batch);
            via_loop.push((t, batch.clone()));
        }

        assert_eq!(via_run, via_loop);
        assert_eq!(by_run.engine_stats(), by_loop.engine_stats());
        let kinds =
            |f: fn(&Notify) -> bool| via_run.iter().flat_map(|(_, b)| b).filter(|n| f(n)).count();
        assert_eq!(kinds(|n| matches!(n, Notify::KernelDone { .. })), 14);
        assert_eq!(kinds(|n| matches!(n, Notify::Host(_))), 14);
        assert!(kinds(|n| matches!(n, Notify::WarpDone { .. })) > 64);
        assert!(
            via_run.iter().any(|(_, b)| b.len() > 1),
            "no instant carried two notifications"
        );
    }

    #[test]
    fn placed_blocks_reuse_what_retired_ones_held() {
        // One SMM holds two 32-warp blocks at a time. Each block is one
        // run, so one context; 100 kernels of 3 blocks reuse two
        // threadblock slots and two contexts throughout.
        let mut cfg = quiet_cfg();
        cfg.spec.num_sms = 1;
        let mut dev = GpuDevice::new(cfg);
        for i in 0..100 {
            let k = uniform(1024, 3, WarpWork::phased(3_200 * (1 + i % 3), 2, 1.0));
            dev.launch_kernel(k, i).unwrap();
        }
        assert_eq!(run_all(&mut dev).len(), 100);
        assert_eq!((dev.tbs.len(), dev.exec.warp_slots()), (2, 2));
        assert_eq!(dev.group_slots(), 2);
    }

    #[test]
    fn kernels_launched_one_after_another_reuse_one_slot() {
        // Each kernel's end launches the next: one kernel is ever in
        // flight, so one context serves all ten.
        let mut dev = GpuDevice::new(quiet_cfg());
        let work = || WarpWork::compute(4_000, 2.0);
        dev.launch_kernel(uniform(64, 2, work()), 0).unwrap();
        let (mut done, mut batch) = (Vec::new(), Vec::new());
        while dev.step_bounded_into(SimTime::MAX, &mut batch).is_some() {
            for &n in &batch {
                if let Notify::KernelDone { tag } = n {
                    done.push(tag);
                    if tag < 9 {
                        dev.launch_kernel(uniform(64, 2, work()), tag + 1).unwrap();
                    }
                }
            }
        }
        assert_eq!(done, (0..10).collect::<Vec<_>>());
        assert_eq!(dev.kernels.len(), 1);
    }

    /// A warp whose work outlasts the clock has its completion predicted
    /// at `SimTime::MAX`, which is never delivered: a run to
    /// `SimTime::MAX` ends idle beside it, the kernel unfinished, while
    /// a short kernel beside it still completes.
    #[test]
    fn work_past_the_end_of_the_clock_leaves_the_device_idle() {
        let mut dev = GpuDevice::new(quiet_cfg());
        assert!(dev.is_idle());
        let huge = uniform(64, 1, WarpWork::compute(u64::MAX / 2, 1.0));
        dev.launch_kernel(huge, 1).unwrap();
        dev.launch_kernel(uniform(32, 1, WarpWork::compute(32_000, 4.0)), 2)
            .unwrap();
        assert!(!dev.is_idle());
        assert_eq!(run_all(&mut dev).len(), 1);
        assert!(dev.is_idle());
        assert!(dev.now() < SimTime::MAX);
    }

    #[test]
    fn avg_sm_busy_is_busy_time_per_smm() {
        let mut cfg = quiet_cfg();
        cfg.spec.num_sms = 4;
        let mut dev = GpuDevice::new(cfg);
        // One warp, 4 us, on one SMM of four: 1 us each on average.
        let k = uniform(32, 1, WarpWork::compute(32_000, 4.0));
        dev.launch_kernel(k, 1).unwrap();
        assert_eq!(run_all(&mut dev), [(1, SimTime::from_us(4))]);
        assert_eq!(dev.avg_sm_busy(), Dur::from_us(1));
    }
}
