//! [`ClusterHandle`]: N simulated Pagoda devices behind one fleet clock.
//!
//! Each device is a full [`PagodaRuntime`] — own GPU, own PCIe link, own
//! 48×32 TaskTable — constructed from its slot in
//! [`ClusterConfig::devices`]. The fleet manager owns a single *fleet*
//! clock: [`advance_to`](Backend::advance_to) steps every live device to the
//! target instant (a per-device [`ClockMap`] translates fleet time into
//! device-local time, so a slowed device simply receives less simulated
//! time per step and a killed device receives none). Devices never
//! interact while they advance; cross-device effects — completions,
//! resubmissions, placement decisions — are applied only at sync
//! points, where they are merged in `(fleet instant, device, key)`
//! order, the fleet-level analogue of the simulation engine's
//! `(time, seq)` tie-break, so clocks, traces, reports, and
//! observability streams are a pure function of the configuration.
//!
//! The fleet drives each member runtime through the same [`Backend`]
//! it implements. Task identity: the fleet issues its own dense `u64`
//! keys (a member runtime's keys collide across devices). Completion is
//! harvested on [`sync`](Backend::sync) via each device's §4.2.2
//! aggregate copy-back: the fleet reads what it freed from the runtime's
//! [`drain_completed`](Backend::drain_completed), finds each task by the
//! entry it held ([`PagodaRuntime::entry_of`]), and maps its device-local
//! [`completion_time`](Backend::completion_time) back to fleet time
//! through the device's clock history.
//! Until then a task's payload — fleet key, tenant, descriptor, attempts —
//! lives with the device it runs on, in a table the device's TaskTable
//! bounds; a kill strands exactly that table. Once the host has seen a
//! task finish, the fleet keeps only its outcome.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use desim::{ClockMap, Dur, EngineStats, SimTime};
use pagoda_core::trace::TaskTrace;
use pagoda_core::{
    Backend, Capacity, ConfigError, PagodaError, PagodaRuntime, SubmitError, TaskDesc, TaskId,
};
use pagoda_obs::{Counter, DeviceSample, Obs, SyncKind, TaskState};
use pcie::{Direction, PcieConfig};

/// Bytes of tenant state staged onto a device before a task placed off
/// its tenant's home set can spawn there.
const XFER_BYTES: u64 = 4096;

/// The staging transfer's time on the fleet interconnect, a link priced
/// as the paper's PCIe 3.0 x16.
fn staging_time() -> Dur {
    PcieConfig::default().transfer_time(Direction::HostToDevice, XFER_BYTES)
}

use crate::config::{ClusterConfig, FaultKind, FaultSpec, RetryPolicy};
use crate::mutation::Mutation;
use crate::placement::{DeviceView, Placer};

/// Where a cluster task currently is in its fleet-level lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Spawned on a device, completion not yet observed.
    InFlight,
    /// Stranded by a device kill, awaiting resubmission.
    Queued,
    /// Output observed in host memory.
    Done,
    /// Given up on after a device failure.
    Lost,
}

/// All the fleet keeps of a key: where the task is, or how it ended.
#[derive(Debug, Clone, Copy)]
enum Status {
    InFlight { device: usize },
    Queued,
    Done { at: SimTime },
    Lost { at: SimTime, attempts: u32 },
}

// What every key ever issued costs the fleet for the rest of the run.
const _: () = assert!(std::mem::size_of::<Status>() <= 16);

/// What a task the host has not seen finish needs for a resubmission.
#[derive(Debug)]
struct Payload {
    key: u64,
    tenant: u32,
    attempts: u32,
    desc: TaskDesc,
}

struct Device {
    rt: PagodaRuntime,
    id: u32,
    clock: ClockMap,
    alive: bool,
    /// The tasks spawned here whose completion the host has not seen, by
    /// the TaskTable entry each holds ([`PagodaRuntime::entry_of`]). The
    /// harvest takes each out as the runtime hands its key over; a kill
    /// strands what is left.
    unseen: Vec<Option<Payload>>,
    /// Completions observed host-side that the fleet clock may not have
    /// reached yet: a min-heap on `(output instant, key, runtime key)`,
    /// the instant on the device's own clock. Its fleet instant is read at
    /// the gate ([`Device::pop_due`]), so a rate change leaves the heap as
    /// it is.
    gated: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    completed: u64,
    /// Last `(known_free, outstanding, alive)` tuple emitted to the
    /// device track; samples are change-detected so every sync can
    /// probe every device without flooding the recorder.
    last_sample: Option<(u32, u32, bool)>,
    /// Completions [`Device::observe`] has read from the runtime's log.
    #[cfg(test)]
    read: u64,
}

/// A completion ready to apply: `(fleet instant, device, key, runtime
/// key)`.
type Due = (SimTime, usize, u64, u64);

impl Device {
    /// Cluster tasks in flight on the device as the fleet sees them:
    /// spawned and not delivered yet — unobserved, or observed but still
    /// behind the harvest gate. A dead device has none: its kill
    /// delivered or stranded every one.
    fn outstanding(&self) -> u32 {
        if self.alive {
            (self.rt.spawned() - self.completed) as u32
        } else {
            0
        }
    }

    fn view(&self) -> DeviceView {
        DeviceView {
            alive: self.alive,
            known_free: self.rt.capacity().known_free,
            outstanding: self.outstanding(),
        }
    }

    /// Emits a [`DeviceSample`] at fleet instant `at` if the device's
    /// observable tuple changed since the last emission (or `force`).
    fn sample(&mut self, at: SimTime, obs: &Obs, force: bool) {
        if !obs.enabled() {
            return;
        }
        let tuple = (
            if self.alive {
                self.rt.capacity().known_free
            } else {
                0
            },
            self.outstanding(),
            self.alive,
        );
        if !force && self.last_sample == Some(tuple) {
            return;
        }
        self.last_sample = Some(tuple);
        obs.device(DeviceSample {
            at_ps: at.as_ps(),
            device: self.id,
            known_free: tuple.0,
            outstanding: tuple.1,
            alive: tuple.2,
        });
    }

    /// Moves every task the last copy-back revealed as done — the keys
    /// the runtime hands over, read into the scratch `drained` — into
    /// `gated`, at its device-local output instant.
    fn observe(&mut self, drained: &mut Vec<u64>) {
        #[cfg(test)]
        let before = self.gated.len();
        let Device {
            rt, unseen, gated, ..
        } = self;
        rt.drain_completed(&mut std::iter::empty(), drained);
        for id in drained.drain(..) {
            let entry = rt.entry_of(id).expect("invariant: the runtime issued it");
            let out = rt
                .completion_time(id)
                .expect("an observed task has an output time");
            let task = unseen[entry]
                .take()
                .expect("invariant: the fleet holds every task its devices run");
            gated.push(Reverse((out, task.key, id)));
        }
        #[cfg(test)]
        {
            self.read += (self.gated.len() - before) as u64;
        }
    }

    /// Appends to `due`, as device `device`'s, the observed completions
    /// the fleet may see at `fleet_now`, each at its fleet instant.
    ///
    /// With `gate` set, a completion only counts once the fleet clock
    /// has reached its fleet instant, mapped through the clock as it is
    /// now. Device clocks legitimately run ahead of the fleet clock
    /// (spawn costs, per-round copyback costs), and for a *slowed* device
    /// that head start is cheap local time that maps far into the fleet
    /// future — without the gate, the fleet would observe those
    /// completions early and a slowdown would cost nothing. The mapping
    /// never decreases, whatever rate changes came, so the completions
    /// due are a prefix of the heap. Kill-harvest passes `gate = false`:
    /// it reads the device's final local state, whenever that ran to.
    ///
    /// A drained gate keeps no more capacity than the TaskTable holds: a
    /// batch whose completions all waited behind it grew it to about the
    /// batch.
    fn pop_due(&mut self, device: usize, fleet_now: SimTime, gate: bool, due: &mut Vec<Due>) {
        while let Some(&Reverse((out, key, id))) = self.gated.peek() {
            let at = self.clock.fleet_of(out);
            if gate && at > fleet_now {
                break;
            }
            self.gated.pop();
            due.push((at, device, key, id));
        }
        if self.gated.is_empty() {
            self.gated.shrink_to(self.unseen.len());
        }
    }
}

/// Per-device slice of a [`FleetReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceReport {
    /// Device id: its fleet index.
    pub device: u32,
    /// Whether the device was still serving at report time.
    pub alive: bool,
    /// Cluster tasks spawned onto it (resubmissions count again).
    pub spawned: u64,
    /// Cluster tasks whose completion it delivered.
    pub completed: u64,
    /// Mean fraction of its warp slots doing task work while tasks ran.
    pub avg_running_occupancy: f64,
}

/// Aggregate outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One entry per device, fleet order.
    pub devices: Vec<DeviceReport>,
    /// Fleet clock at report time.
    pub makespan: SimTime,
    /// Tasks completed fleet-wide.
    pub completed: u64,
    /// Routed submits that succeeded (resubmissions included).
    pub placements: u64,
    /// Placements that landed off the tenant's home set.
    pub off_affinity: u64,
    /// Transfers that staged tenant state across the interconnect: one
    /// per off-home placement, resubmissions included, so this equals
    /// [`off_affinity`].
    ///
    /// [`off_affinity`]: FleetReport::off_affinity
    pub staging_transfers: u64,
    /// Tasks re-spawned on a surviving device after a kill.
    pub resubmits: u64,
    /// Tasks lost to device failures.
    pub tasks_lost: u64,
    /// Kill faults applied.
    pub kills: u64,
    /// Slowdown faults applied.
    pub slowdowns: u64,
    /// Spawn-weighted mean of per-device running occupancy.
    pub avg_warp_occupancy: f64,
}

/// A fleet of simulated Pagoda devices with routed placement and
/// failover. Its task API is [`Backend`], with fleet-unique `u64` task
/// keys, so anything written against one runtime (the serving loop, the
/// benches) drives a fleet unchanged; the inherent methods are what only
/// a fleet has. Through that API a task lost to a device failure
/// "completes" at its loss instant (a served task's sojourn ends there);
/// the `cluster_tasks_lost` counter and [`FleetReport::tasks_lost`]
/// record the failure.
pub struct ClusterHandle {
    devices: Vec<Device>,
    placer: Placer,
    /// Scratch for [`route`](ClusterHandle::route): the placement
    /// policy's view of the fleet, refilled per routed task.
    views: Vec<DeviceView>,
    /// Scratch for a sync point: the completions it harvested, sorted
    /// into merge order and applied.
    due: Vec<Due>,
    /// Scratch for a harvest: the keys one device's runtime handed over.
    drained: Vec<u64>,
    retry: RetryPolicy,
    faults: Vec<FaultSpec>,
    next_fault: usize,
    fleet_now: SimTime,
    /// One per key issued, indexed by key.
    statuses: Vec<Status>,
    /// Tasks a kill stranded, awaiting resubmission in FIFO order.
    pending: VecDeque<Payload>,
    unresolved: u64,
    /// Keys that turned [`Status::Done`] or [`Status::Lost`] since the
    /// last [`drain_completed`](Backend::drain_completed), in the order
    /// they did.
    /// `None` until the first drain, so a caller that never drains (a
    /// batch driver on `wait_all`) keeps no log.
    completed_log: Option<Vec<u64>>,
    wait_timeout: Dur,
    obs: Obs,
    mutation: Option<Mutation>,
    off_affinity: u64,
    staged: u64,
    resubmits: u64,
    lost: u64,
    kills: u64,
    slowdowns: u64,
}

impl ClusterHandle {
    /// Builds the fleet: validates the configuration
    /// ([`ClusterConfig::validate`]) and instantiates one
    /// [`PagodaRuntime`] per device.
    ///
    /// # Errors
    /// Any [`ConfigError`] from validation — [`ConfigError::NoDevices`],
    /// [`ConfigError::FleetDevice`], [`ConfigError::BadFault`].
    pub fn new(cfg: ClusterConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut faults = cfg.faults.clone();
        faults.sort_by_key(|f| f.at); // stable: same-instant faults keep config order
        let wait_timeout = cfg
            .devices
            .iter()
            .map(|c| c.wait_timeout)
            .min()
            .expect("fleet is non-empty");
        let devices = cfg
            .devices
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut rt = PagodaRuntime::new(c.clone());
                // Armed before the first spawn: every harvest reads it.
                rt.drain_completed(&mut std::iter::empty(), &mut Vec::new());
                Device {
                    rt,
                    id: i as u32,
                    clock: ClockMap::identity(),
                    alive: true,
                    unseen: (0..c.total_entries()).map(|_| None).collect(),
                    gated: BinaryHeap::new(),
                    completed: 0,
                    last_sample: None,
                    #[cfg(test)]
                    read: 0,
                }
            })
            .collect();
        Ok(ClusterHandle {
            devices,
            placer: Placer::new(cfg.placement, cfg.seed, cfg.affinity_spread),
            views: Vec::new(),
            due: Vec::new(),
            drained: Vec::new(),
            retry: cfg.retry,
            faults,
            next_fault: 0,
            fleet_now: SimTime::ZERO,
            statuses: Vec::new(),
            pending: VecDeque::new(),
            unresolved: 0,
            completed_log: None,
            wait_timeout,
            obs: Obs::off(),
            mutation: None,
            off_affinity: 0,
            staged: 0,
            resubmits: 0,
            lost: 0,
            kills: 0,
            slowdowns: 0,
        })
    }

    /// Seeds one deliberate bug ([`Mutation`]) into the fleet's merge /
    /// accounting paths. Test-only instrumentation for validating
    /// invariant checkers — never set by configuration. See the
    /// [`mutation`](crate::mutation) module.
    pub fn inject_mutation(&mut self, m: Mutation) {
        self.mutation = Some(m);
    }

    /// Placement + staging charge + device-local spawn, returning the
    /// device, the task's key on its runtime and whether the device is
    /// off `tenant`'s home set.
    ///
    /// The capacity pre-check matters: the staging transfer must only be
    /// charged when the spawn actually lands. Without it, a placement
    /// that comes back [`SubmitError::Full`] would leave the target's
    /// clock advanced, and every retry of the same task would re-charge
    /// the same transfer.
    fn route(&mut self, tenant: u32, desc: TaskDesc) -> Result<(usize, u64, bool), SubmitError> {
        self.views.clear();
        self.views.extend(self.devices.iter().map(Device::view));
        let Some(device) = self.placer.place(tenant, &self.views) else {
            return Err(SubmitError::Full(desc));
        };
        let off_home = !self.placer.is_home(tenant, device, self.devices.len());
        let d = &mut self.devices[device];
        if !d.rt.capacity().has_room() {
            return Err(SubmitError::Full(desc));
        }
        if off_home {
            // Tenant state is staged onto the target before the spawn
            // can land; modeled as a one-hop transfer on the fleet
            // interconnect, serialized on the target device's timeline.
            let at = d.rt.now() + staging_time();
            d.rt.advance_to(at);
        }
        let id = d.rt.submit(tenant, desc)?;
        Ok((device, id, off_home))
    }

    /// Bookkeeping shared by first spawns and resubmissions: `task` now
    /// runs on `device` as `id`.
    fn commit_spawn(
        &mut self,
        mut task: Payload,
        device: usize,
        id: u64,
        off_home: bool,
        resubmit: bool,
    ) {
        let key = task.key;
        let status = Status::InFlight { device };
        self.obs.count(Counter::ClusterPlacements, 1);
        if off_home {
            self.off_affinity += 1;
            self.obs.count(Counter::ClusterOffAffinity, 1);
            let delta = if self.mutation == Some(Mutation::DoubleChargeStaging) {
                2
            } else {
                1
            };
            self.staged += delta;
            self.obs.count(Counter::ClusterStagedTransfers, delta);
        }
        if resubmit {
            task.attempts += 1;
            self.statuses[key as usize] = status;
            self.resubmits += 1;
            self.obs.count(Counter::ClusterResubmits, 1);
        } else {
            self.statuses.push(status);
            self.unresolved += 1;
            self.obs
                .task(self.fleet_now.as_ps(), key, TaskState::Spawned);
            self.obs.tenant(key, task.tenant);
        }
        // Both first spawns and resubmissions: profiling charges the
        // task to the device that finally ran it (last route wins).
        self.obs.route(key, device as u32);
        let d = &mut self.devices[device];
        let entry = d.rt.entry_of(id).expect("invariant: just spawned");
        let held = d.unseen[entry].replace(task);
        debug_assert!(held.is_none(), "the harvest took entry {entry}'s last task");
        d.sample(self.fleet_now, &self.obs, false);
    }

    /// Phase 1 of [`sync`](Backend::sync): per-device copy-back +
    /// completion harvest into `due`.
    fn sync_devices(&mut self, gate: bool) {
        for i in 0..self.devices.len() {
            if self.devices[i].alive {
                self.harvest(i, self.fleet_now, gate);
            }
        }
    }

    /// One device's share of a sync point at fleet instant `at`: the
    /// §4.2.2 aggregate copy-back, a change-detected sample, and the
    /// completions now visible appended to `due` (see
    /// [`pop_due`](Device::pop_due) for `gate`), held under test to the
    /// full rescan of [`ClusterHandle::scan_finished`].
    fn harvest(&mut self, device: usize, at: SimTime, gate: bool) {
        let d = &mut self.devices[device];
        d.rt.sync();
        d.sample(at, &self.obs, false);
        #[cfg(test)]
        let (rescan, from) = (self.scan_finished(device, at, gate), self.due.len());
        let d = &mut self.devices[device];
        d.observe(&mut self.drained);
        d.pop_due(device, at, gate, &mut self.due);
        #[cfg(test)]
        {
            let mut due: Vec<(SimTime, u64)> = self.due[from..]
                .iter()
                .map(|&(t, _, key, _)| (t, key))
                .collect();
            due.sort_unstable();
            assert_eq!(
                due, rescan,
                "the logged harvest diverged from the full rescan on device {device}"
            );
        }
    }

    /// The harvest oracle, read before the harvest reads the runtime's
    /// log: every task the device holds — unseen or gated, exactly the
    /// keys the fleet's statuses place in flight there — probed for
    /// completion and mapped through the clock afresh. Returned in
    /// `(fleet instant, key)` order.
    #[cfg(test)]
    fn scan_finished(&self, device: usize, fleet_now: SimTime, gate: bool) -> Vec<(SimTime, u64)> {
        let d = &self.devices[device];
        // An entry's task is the last one spawned into it.
        let mut occupant = vec![None; d.unseen.len()];
        for id in (0..d.rt.spawned()).map(|i| TaskId::FIRST.0 + i) {
            occupant[d.rt.entry_of(id).expect("issued id")] = Some(id);
        }
        let held: Vec<(u64, u64)> = (d.unseen.iter().zip(occupant))
            .filter_map(|(task, id)| Some((id?, task.as_ref()?.key)))
            .chain(d.gated.iter().map(|&Reverse((_, key, id))| (id, key)))
            .collect();
        let placed_here = (0..self.statuses.len() as u64)
            .filter(|&key| self.device_of(key) == Some(device))
            .count();
        assert_eq!(held.len(), placed_here, "device {device}");
        assert!(held
            .iter()
            .all(|&(_, key)| self.device_of(key) == Some(device)));
        let mut finished: Vec<(SimTime, u64)> = held
            .into_iter()
            .filter(|&(id, _)| d.rt.observed_done(id))
            .map(|(id, key)| {
                let out = d.rt.trace(id).expect("fleet-issued id").output_done;
                (d.clock.fleet_of(out.expect("observed done")), key)
            })
            .filter(|&(at, _)| !gate || at <= fleet_now)
            .collect();
        finished.sort_unstable();
        finished
    }

    /// Phase 2 of [`sync`](Backend::sync): applies the harvested
    /// completions in `(at, device, key)` order — the fleet-level
    /// tie-break, the same shape as the engine's `(time, seq)` ordering —
    /// and empties `due`.
    fn apply_completions(&mut self) {
        let mut due = std::mem::take(&mut self.due);
        if self.mutation != Some(Mutation::SkipMergeSort) {
            due.sort_unstable();
        }
        for (at, device, key, id) in due.drain(..) {
            self.devices[device].completed += 1;
            self.resolve(key, Status::Done { at });
            // Replay the winning attempt's device timeline under the
            // fleet key (the runtime tracked it under its own key):
            // without these cuts, fleet-level profiling would collapse
            // staging, MTB wait, and SMM wait into one opaque span.
            // The device's instants are local: map them as `at` was.
            if self.obs.enabled() {
                let d = &self.devices[device];
                if let Ok(tr) = d.rt.trace(id) {
                    for (t, st) in [
                        (tr.entry_visible, TaskState::Enqueued),
                        (tr.schedulable, TaskState::Placed),
                        (tr.first_exec, TaskState::Running),
                    ] {
                        if let Some(t) = t {
                            self.obs.task(d.clock.fleet_of(t).as_ps(), key, st);
                        }
                    }
                }
            }
            self.obs.task(at.as_ps(), key, TaskState::Freed);
        }
        self.due = due;
    }

    /// Change-detected post-merge device samples, fleet order.
    fn sample_all(&mut self) {
        let obs = self.obs.clone();
        let now = self.fleet_now;
        for d in &mut self.devices {
            d.sample(now, &obs, false);
        }
    }

    /// Re-places queued (stranded) tasks onto surviving devices, FIFO.
    /// Stops at the first task that finds no room; if no device is left
    /// alive, the whole queue is lost.
    fn drain_pending(&mut self) {
        if !self.devices.iter().any(|d| d.alive) {
            while let Some(task) = self.pending.pop_front() {
                self.mark_lost(task.key, self.fleet_now, task.attempts);
            }
            return;
        }
        while let Some(task) = self.pending.front() {
            match self.route(task.tenant, task.desc.clone()) {
                Ok((device, id, off_home)) => {
                    let task = self.pending.pop_front().expect("routed from the front");
                    self.commit_spawn(task, device, id, off_home, true);
                }
                Err(SubmitError::Full(_)) => break,
                Err(e) => unreachable!("descriptor spawned once, cannot be invalid now: {e}"),
            }
        }
    }

    /// The one place a task leaves the unresolved set: `status` is
    /// [`Status::Done`] or [`Status::Lost`], and final.
    fn resolve(&mut self, key: u64, status: Status) {
        self.statuses[key as usize] = status;
        self.unresolved -= 1;
        if let Some(log) = &mut self.completed_log {
            log.push(key);
        }
    }

    fn mark_lost(&mut self, key: u64, at: SimTime, attempts: u32) {
        self.resolve(key, Status::Lost { at, attempts });
        self.lost += 1;
        self.obs.count(Counter::ClusterTasksLost, 1);
        self.obs.task(at.as_ps(), key, TaskState::Freed);
    }

    /// The fleet's driver: each live device advances alone to its local
    /// image of fleet instant `t`. Nothing observable to the host changes
    /// while a device advances (known-free counts and completions move
    /// only at a copy-back), so no sample is taken here.
    fn step_devices(&mut self, t: SimTime) {
        if t <= self.fleet_now {
            return;
        }
        for d in self.devices.iter_mut().filter(|d| d.alive) {
            d.rt.advance_to(d.clock.local_of(t));
        }
        self.fleet_now = t;
    }

    fn apply_fault(&mut self, f: &FaultSpec, at: SimTime) {
        let obs = self.obs.clone();
        match f.kind {
            FaultKind::Slow { factor } => {
                if !self.devices[f.device].alive {
                    return;
                }
                self.devices[f.device].clock.set_rate(at, 1.0 / factor);
                self.slowdowns += 1;
                self.obs.count(Counter::ClusterDeviceSlowdowns, 1);
                // Forced: the observable tuple is unchanged by a
                // slowdown, but the instant belongs on the track.
                self.devices[f.device].sample(at, &obs, true);
            }
            FaultKind::Kill => {
                if !self.devices[f.device].alive {
                    return;
                }
                // Last harvest: completions already in host memory (or
                // observable via one final copy-back) survive the kill.
                // The mark tells causality checkers this batch is
                // exempt from the harvest gate: the device's local
                // clock may have run past the kill instant.
                self.obs.sync_mark(at.as_ps(), SyncKind::KillHarvest);
                self.harvest(f.device, at, false);
                self.apply_completions();
                self.devices[f.device].alive = false;
                self.kills += 1;
                self.obs.count(Counter::ClusterDeviceKills, 1);
                // The ungated harvest emptied `gated`: what is stranded is
                // exactly what the host never saw finish, in key order.
                let unseen = std::mem::take(&mut self.devices[f.device].unseen);
                let mut stranded: Vec<Payload> = unseen.into_iter().flatten().collect();
                stranded.sort_unstable_by_key(|task| task.key);
                let mut dropped_one = false;
                for task in stranded {
                    let (key, attempts) = (task.key, task.attempts);
                    let retry = match self.retry {
                        RetryPolicy::Fail => false,
                        RetryPolicy::Resubmit { max_attempts } => attempts < max_attempts,
                    };
                    if retry {
                        if self.mutation == Some(Mutation::DropResubmit) && !dropped_one {
                            // Seeded bug: the task vanishes — no queue
                            // entry, no loss record, no Freed event.
                            // `unresolved` still drops, as on a loss, so
                            // no wait is left polling for it; only
                            // end-of-run conservation can see the hole.
                            dropped_one = true;
                            self.resolve(key, Status::Lost { at, attempts });
                            continue;
                        }
                        self.statuses[key as usize] = Status::Queued;
                        self.pending.push_back(task);
                    } else {
                        self.mark_lost(key, at, attempts);
                    }
                }
                self.devices[f.device].sample(at, &obs, true);
                self.drain_pending();
            }
        }
    }

    /// Task `key`'s status, or [`PagodaError::UnknownTask`] for a key
    /// this fleet never issued.
    fn task(&self, key: u64) -> Result<Status, PagodaError> {
        let spawned = self.statuses.len() as u64;
        let task = TaskId(key);
        self.statuses
            .get(key as usize)
            .copied()
            .ok_or(PagodaError::UnknownTask { task, spawned })
    }

    /// How issued task `key` ended — its completion instant, or the
    /// [`PagodaError::TaskLost`] of a task given up on — or `None` while
    /// it is in flight or queued.
    fn outcome(&self, key: u64) -> Option<Result<SimTime, PagodaError>> {
        match self.statuses[key as usize] {
            Status::Done { at } => Some(Ok(at)),
            Status::Lost { attempts, .. } => Some(Err(PagodaError::TaskLost {
                task: TaskId(key),
                attempts,
            })),
            Status::InFlight { .. } | Status::Queued => None,
        }
    }

    /// Where task `key` is in its lifecycle.
    ///
    /// # Errors
    /// [`PagodaError::UnknownTask`] for a key this fleet never issued.
    pub fn status(&self, key: u64) -> Result<TaskStatus, PagodaError> {
        Ok(match self.task(key)? {
            Status::InFlight { .. } => TaskStatus::InFlight,
            Status::Queued => TaskStatus::Queued,
            Status::Done { .. } => TaskStatus::Done,
            Status::Lost { .. } => TaskStatus::Lost,
        })
    }

    /// Fleet index of the device `key` is currently in flight on
    /// (`None` once done, lost, or while queued for resubmission).
    pub fn device_of(&self, key: u64) -> Option<usize> {
        match self.statuses.get(key as usize)? {
            &Status::InFlight { device } => Some(device),
            _ => None,
        }
    }

    /// Runs the fleet until every issued task is done or lost.
    ///
    /// # Panics
    /// Where a device's own [`sync`](Backend::sync) does, on a task that
    /// can never finish there.
    pub fn wait_all(&mut self) {
        self.poll_until(|fleet| fleet.unresolved == 0);
    }

    /// The fleet's one blocking loop, behind [`ClusterHandle::wait_all`]
    /// and [`Backend::wait`]: sync, then idle the fleet by its polling
    /// slice, until `done`. A stall stops it in the stalled device's
    /// `sync`: every unresolved task is queued for resubmission or
    /// outstanding on a live device, so the fleet itself cannot stall.
    fn poll_until(&mut self, done: impl Fn(&Self) -> bool) {
        while !done(self) {
            self.sync();
            if !done(self) {
                self.advance_to(self.fleet_now + self.wait_timeout);
            }
        }
    }

    /// Aggregates the run so far.
    pub fn report(&mut self) -> FleetReport {
        let mut devices = Vec::with_capacity(self.devices.len());
        // Every routed submit spawned on some device: the spawns are the
        // placements, and weigh each device's occupancy.
        let mut occ_weighted = 0.0;
        let mut placements = 0u64;
        for d in self.devices.iter_mut() {
            let occ = d.rt.report().avg_running_occupancy;
            let spawned = d.rt.spawned();
            if spawned > 0 {
                occ_weighted += occ * spawned as f64;
                placements += spawned;
            }
            devices.push(DeviceReport {
                device: d.id,
                alive: d.alive,
                spawned,
                completed: d.completed,
                avg_running_occupancy: occ,
            });
        }
        FleetReport {
            devices,
            makespan: self.fleet_now,
            completed: self.statuses.len() as u64 - self.lost - self.unresolved,
            placements,
            off_affinity: self.off_affinity,
            staging_transfers: self.staged,
            resubmits: self.resubmits,
            tasks_lost: self.lost,
            kills: self.kills,
            slowdowns: self.slowdowns,
            avg_warp_occupancy: if placements > 0 {
                occ_weighted / placements as f64
            } else {
                0.0
            },
        }
    }
}

impl Backend for ClusterHandle {
    /// Routes one task: asks the placement policy for a device, charges
    /// the staging transfer if the choice is off `tenant`'s home set,
    /// and spawns through that device's non-blocking submit. Returns the
    /// fleet-unique task key.
    ///
    /// On a fleet with every device dead the task has nowhere to run,
    /// now or later: it is recorded and resolved [`TaskStatus::Lost`] at
    /// the fleet clock, as a sync loses its resubmission queue then.
    ///
    /// # Errors
    /// [`SubmitError::Full`] hands the descriptor back when the chosen
    /// device has no known-free entry — call [`sync`](Backend::sync) and
    /// [`advance_to`](Backend::advance_to), then retry, exactly as with a
    /// single runtime. A Full return charges nothing — no device clock
    /// moves. Task-shape errors propagate unchanged.
    fn submit(&mut self, tenant: u32, desc: TaskDesc) -> Result<u64, SubmitError> {
        let key = self.statuses.len() as u64;
        let task = Payload {
            key,
            tenant,
            attempts: 1,
            desc: desc.clone(),
        };
        match self.route(tenant, desc) {
            Ok((device, id, off_home)) => self.commit_spawn(task, device, id, off_home, false),
            Err(SubmitError::Full(desc)) if !self.devices.iter().any(|d| d.alive) => {
                desc.validate()?;
                self.statuses.push(Status::Queued);
                self.unresolved += 1;
                self.obs
                    .task(self.fleet_now.as_ps(), key, TaskState::Spawned);
                self.obs.tenant(key, tenant);
                // The loss is a fleet effect applied at the fleet clock:
                // under its own sync mark, as a sync's losses are.
                self.obs.sync_mark(self.fleet_now.as_ps(), SyncKind::Sync);
                self.mark_lost(key, self.fleet_now, 1);
            }
            Err(e) => return Err(e),
        }
        Ok(key)
    }

    /// Fleet-wide admission headroom: the sum over *live* devices of
    /// their host-side known-free entry counts. A kill shrinks `total`.
    fn capacity(&self) -> Capacity {
        let mut known_free = 0;
        let mut total = 0;
        for d in &self.devices {
            if d.alive {
                let c = d.rt.capacity();
                known_free += c.known_free;
                total += c.total;
            }
        }
        Capacity { known_free, total }
    }

    fn check(&mut self, key: u64) -> Result<bool, PagodaError> {
        self.task(key)?;
        self.sync();
        self.outcome(key).transpose().map(|done| done.is_some())
    }

    /// The single-runtime `wait` loop, fleet-wide: sync, then idle the
    /// fleet by its polling slice, until `key` is done or lost.
    fn wait(&mut self, key: u64) -> Result<SimTime, PagodaError> {
        self.task(key)?;
        self.poll_until(|fleet| fleet.outcome(key).is_some());
        self.outcome(key).expect("polled until resolved")
    }

    fn observed_done(&self, key: u64) -> bool {
        matches!(
            self.statuses.get(key as usize),
            Some(Status::Done { .. } | Status::Lost { .. })
        )
    }

    /// Fleet instant at which `key`'s output landed in host memory;
    /// `None` until then (for a lost task, the instant it was given up).
    fn completion_time(&self, key: u64) -> Option<SimTime> {
        match self.statuses.get(key as usize)? {
            &(Status::Done { at } | Status::Lost { at, .. }) => Some(at),
            _ => None,
        }
    }

    /// Keys in the order the fleet resolved them, `pending` unread.
    fn drain_completed(&mut self, _pending: &mut dyn Iterator<Item = u64>, out: &mut Vec<u64>) {
        out.append(self.completed_log.get_or_insert_with(Vec::new));
    }

    fn now(&self) -> SimTime {
        self.fleet_now
    }

    /// Advances the fleet clock to `t` (no-op if in the past), stepping
    /// every live device there and applying any scheduled faults whose
    /// instant is reached on the way.
    fn advance_to(&mut self, t: SimTime) {
        while self.next_fault < self.faults.len() && self.faults[self.next_fault].at <= t {
            let f = self.faults[self.next_fault];
            self.next_fault += 1;
            let at = f.at.max(self.fleet_now);
            self.step_devices(at);
            self.apply_fault(&f, at);
        }
        self.step_devices(t);
    }

    /// Refreshes the fleet's completion view: one §4.2.2 aggregate
    /// copy-back per live device, a deterministic merge of every
    /// completion observed, then a drain of the resubmission queue onto
    /// devices with room, in the merge order the module doc sets out.
    /// Costs simulated time on each device, like a single runtime's
    /// sync; a device whose task can never finish panics in its own.
    fn sync(&mut self) {
        // The mark precedes the batch: everything applied before the
        // next mark belongs to this sync point, and (gate honored) maps
        // to a fleet instant at or before it.
        self.obs.sync_mark(self.fleet_now.as_ps(), SyncKind::Sync);
        let gate = self.mutation != Some(Mutation::SkipCausalGate);
        self.sync_devices(gate);
        self.apply_completions();
        self.sample_all();
        self.drain_pending();
    }

    fn wait_timeout(&self) -> Dur {
        self.wait_timeout
    }

    fn warp_occupancy(&mut self) -> f64 {
        self.report().avg_warp_occupancy
    }

    fn traces(&self) -> Vec<TaskTrace> {
        // Fleet keys do not map to one runtime's trace ids; per-device
        // timelines are exported through `pagoda-obs` instead.
        Vec::new()
    }

    /// Records fleet-level events (task spans keyed by cluster task key,
    /// per-device [`DeviceSample`] tracks, `cluster_*` counters) to
    /// `obs`. The member runtimes are deliberately *not* attached: their
    /// device-local task ids would collide across the fleet.
    fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// One per device, fleet order.
    fn engine_stats(&self) -> Vec<EngineStats> {
        self.devices
            .iter()
            .flat_map(|d| d.rt.engine_stats())
            .collect()
    }

    /// Number of devices configured (dead ones included).
    fn num_devices(&self) -> u32 {
        self.devices.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::placement::Placement;
    use gpu_sim::WarpWork;

    /// ~90 us of device time — long enough that a fault scheduled a few
    /// microseconds in lands while work is still in flight.
    fn task() -> TaskDesc {
        TaskDesc::uniform(64, WarpWork::compute(200_000, 8.0))
    }

    /// Spawns `n` copies of `task()`, blocking while the fleet is full.
    fn submit_batch(fleet: &mut ClusterHandle, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| fleet.spawn_blocking(0, task()).unwrap())
            .collect()
    }

    fn run_batch(mut fleet: ClusterHandle, n: usize) -> (Vec<u64>, ClusterHandle) {
        let keys = submit_batch(&mut fleet, n);
        fleet.wait_all();
        (keys, fleet)
    }

    #[test]
    fn uniform_fleet_completes_and_spreads() {
        let fleet = ClusterHandle::new(ClusterConfig::uniform(4)).unwrap();
        let (keys, mut fleet) = run_batch(fleet, 64);
        for k in keys {
            assert_eq!(fleet.status(k).unwrap(), TaskStatus::Done);
            assert!(fleet.completion_time(k).is_some());
        }
        let rep = fleet.report();
        assert_eq!(rep.completed, 64);
        assert_eq!(rep.tasks_lost, 0);
        assert_eq!(rep.placements, 64);
        for d in &rep.devices {
            assert!(d.spawned > 0, "device {} got nothing", d.device);
            assert_eq!(d.spawned, d.completed);
        }
    }

    fn kill_device_0_at_5us(retry: RetryPolicy) -> ClusterConfig {
        let mut cfg = ClusterConfig::uniform(2);
        cfg.retry = retry;
        cfg.faults = vec![FaultSpec {
            at: SimTime::from_us(5),
            device: 0,
            kind: FaultKind::Kill,
        }];
        cfg
    }

    #[test]
    fn kill_with_fail_policy_loses_in_flight_and_shrinks_capacity() {
        let mut fleet = ClusterHandle::new(kill_device_0_at_5us(RetryPolicy::Fail)).unwrap();
        let full = fleet.capacity().total;
        let keys: Vec<u64> = (0..32).map(|_| fleet.submit(0, task()).unwrap()).collect();
        fleet.wait_all();
        assert_eq!(fleet.capacity().total, full / 2, "kill halves admission");
        let rep = fleet.report();
        assert_eq!(rep.kills, 1);
        assert!(rep.tasks_lost > 0, "in-flight work on device 0 was lost");
        assert_eq!(rep.completed + rep.tasks_lost, 32);
        let lost: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| fleet.status(k).unwrap() == TaskStatus::Lost)
            .collect();
        assert_eq!(lost.len() as u64, rep.tasks_lost);
        let err = fleet.wait(lost[0]).unwrap_err();
        assert!(matches!(err, PagodaError::TaskLost { .. }));
    }

    #[test]
    fn kill_with_resubmit_policy_loses_nothing() {
        let cfg = kill_device_0_at_5us(RetryPolicy::Resubmit { max_attempts: 3 });
        let fleet = ClusterHandle::new(cfg).unwrap();
        let (keys, mut fleet) = run_batch(fleet, 32);
        for k in keys {
            assert_eq!(fleet.status(k).unwrap(), TaskStatus::Done);
        }
        let rep = fleet.report();
        assert_eq!(rep.tasks_lost, 0);
        assert!(rep.resubmits > 0, "stranded tasks were re-placed");
        assert_eq!(rep.completed, 32);
        assert!(!rep.devices[0].alive);
        assert_eq!(
            rep.devices[0].completed + rep.devices[1].completed,
            32,
            "everything lands despite the kill"
        );
    }

    #[test]
    fn a_fleet_with_every_device_dead_loses_a_spawn_at_once() {
        let mut cfg = kill_device_0_at_5us(RetryPolicy::Resubmit { max_attempts: 3 });
        cfg.faults.push(FaultSpec {
            at: SimTime::from_us(5),
            device: 1,
            kind: FaultKind::Kill,
        });
        let mut fleet = ClusterHandle::new(cfg).unwrap();
        let (obs, rec) = Obs::recording();
        fleet.attach_obs(obs);
        let before = submit_batch(&mut fleet, 32);
        fleet.advance_to(SimTime::from_us(10));
        assert_eq!(fleet.report().kills, 2);
        // A dead fleet has no table to fill: each blocking spawn
        // returns at once, its task lost.
        let after = submit_batch(&mut fleet, 8);
        for &k in &after {
            assert_eq!(fleet.status(k).unwrap(), TaskStatus::Lost);
            assert_eq!(fleet.completion_time(k), Some(SimTime::from_us(10)));
        }
        let bad = TaskDesc::uniform(993, WarpWork::compute(200_000, 8.0));
        assert_eq!(
            fleet.spawn_blocking(0, bad),
            Err(pagoda_core::TaskError::TooManyThreadsPerTb { requested: 993 }),
            "a dead fleet still rejects a task no MTB can hold"
        );
        fleet.wait_all();
        let rep = fleet.report();
        assert_eq!(rep.completed + rep.tasks_lost, 40);
        // Each lost spawn leaves the log a whole lifecycle, as any loss does.
        let buf = rec.snapshot();
        for k in before.into_iter().chain(after) {
            let tl = buf.task_timeline(k);
            assert!(tl[0].is_some() && tl[4].is_some(), "task {k}: {tl:?}");
        }
        assert_eq!(buf.counter(Counter::ClusterTasksLost), rep.tasks_lost);
    }

    #[test]
    fn slowdown_stretches_makespan() {
        // Long tasks (~500 us device time) so completion genuinely needs
        // fleet time beyond the submit burst's host-clock run-ahead.
        let run = |faults: Vec<FaultSpec>| {
            let mut cfg = ClusterConfig::uniform(2);
            cfg.faults = faults;
            let mut fleet = ClusterHandle::new(cfg).unwrap();
            for _ in 0..8 {
                fleet
                    .submit(0, TaskDesc::uniform(64, WarpWork::compute(2_000_000, 8.0)))
                    .expect("empty fleet has room");
            }
            fleet.wait_all();
            (fleet.report().makespan, fleet.report().slowdowns)
        };
        let (healthy, s0) = run(vec![]);
        let (degraded, s1) = run(vec![FaultSpec {
            at: SimTime::from_us(2),
            device: 0,
            kind: FaultKind::Slow { factor: 8.0 },
        }]);
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert!(
            degraded > healthy,
            "slowdown must cost fleet time: {degraded:?} vs {healthy:?}"
        );
    }

    #[test]
    fn a_slowed_device_replays_its_tasks_in_fleet_time() {
        let mut cfg = ClusterConfig::uniform(2);
        cfg.faults = vec![FaultSpec {
            at: SimTime::from_us(5),
            device: 1,
            kind: FaultKind::Slow { factor: 8.0 },
        }];
        let mut fleet = ClusterHandle::new(cfg).unwrap();
        let (obs, rec) = Obs::recording();
        fleet.attach_obs(obs);
        // Idled past the slowdown, device 1's clock lags the fleet's by far.
        fleet.advance_to(SimTime::from_us(2_000));
        let keys = submit_batch(&mut fleet, 2_000);
        fleet.wait_all();
        assert!(fleet.report().devices.iter().all(|d| d.completed > 0));
        // Each task's lifecycle, in emission order, never goes back in time.
        let mut last = vec![0; keys.len()];
        let mut backwards = Vec::new();
        for ev in &rec.snapshot().tasks {
            let seen = &mut last[ev.task as usize];
            if ev.at_ps < *seen {
                backwards.push((ev.task, ev.state, ev.at_ps, *seen));
            }
            *seen = ev.at_ps.max(*seen);
        }
        assert!(
            backwards.is_empty(),
            "{} instants before their predecessor, e.g. {:?}",
            backwards.len(),
            &backwards[..backwards.len().min(3)]
        );
    }

    #[test]
    fn off_affinity_pays_and_counts() {
        let mut cfg = ClusterConfig::uniform(4);
        cfg.placement = Placement::TenantAffinity;
        cfg.affinity_spread = 1;
        for c in &mut cfg.devices {
            c.rows_per_column = 1; // 48 entries per device: small enough to flood
        }
        let mut fleet = ClusterHandle::new(cfg).unwrap();
        // Tenant 2's home is device 2; flood it past one column's room
        // so placement spills to non-home devices.
        let mut spilled = 0;
        for _ in 0..96 {
            let k = fleet.spawn_blocking(2, task()).unwrap();
            if fleet.device_of(k) != Some(2) {
                spilled += 1;
            }
        }
        fleet.wait_all();
        let rep = fleet.report();
        assert!(rep.off_affinity > 0, "flooded tenant must spill off-home");
        assert_eq!(rep.off_affinity, spilled);
        // With no kills, every off-home spawn genuinely crossed devices.
        assert_eq!(rep.staging_transfers, rep.off_affinity);
    }

    #[test]
    fn full_submit_charges_no_device_time() {
        let mut cfg = ClusterConfig::uniform(2);
        cfg.placement = Placement::TenantAffinity;
        cfg.affinity_spread = 1;
        for c in &mut cfg.devices {
            c.rows_per_column = 1;
        }
        let mut fleet = ClusterHandle::new(cfg).unwrap();
        // Flood the whole fleet for one tenant until nothing has room.
        let mut guard = 0;
        loop {
            match fleet.submit(0, task()) {
                Ok(_) => {}
                Err(SubmitError::Full(_)) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
            guard += 1;
            assert!(guard < 10_000, "fleet never filled");
        }
        let before: Vec<_> = fleet.devices.iter().map(|d| d.rt.now()).collect();
        // A rejected placement must not advance any device's clock —
        // otherwise every retry of the same descriptor re-charges the
        // staging transfer it never used.
        for _ in 0..3 {
            assert!(matches!(fleet.submit(0, task()), Err(SubmitError::Full(_))));
        }
        let after: Vec<_> = fleet.devices.iter().map(|d| d.rt.now()).collect();
        assert_eq!(before, after, "Full submits must charge nothing");
    }

    #[test]
    fn same_config_same_fingerprint() {
        let build = || {
            let mut cfg = ClusterConfig::uniform(3);
            cfg.placement = Placement::PowerOfTwo;
            cfg.seed = 99;
            cfg.faults = vec![FaultSpec {
                at: SimTime::from_us(10),
                device: 1,
                kind: FaultKind::Kill,
            }];
            ClusterHandle::new(cfg).unwrap()
        };
        let (keys_a, mut a) = run_batch(build(), 40);
        let (keys_b, mut b) = run_batch(build(), 40);
        assert_eq!(a.engine_stats(), b.engine_stats());
        let times_a: Vec<_> = keys_a.iter().map(|&k| a.completion_time(k)).collect();
        let times_b: Vec<_> = keys_b.iter().map(|&k| b.completion_time(k)).collect();
        assert_eq!(times_a, times_b);
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn obs_records_device_tracks_and_fleet_counters() {
        let (obs, rec) = Obs::recording();
        let mut cfg = ClusterConfig::uniform(2);
        cfg.faults = vec![FaultSpec {
            at: SimTime::from_us(5),
            device: 1,
            kind: FaultKind::Kill,
        }];
        let mut fleet = ClusterHandle::new(cfg).unwrap();
        fleet.attach_obs(obs);
        for _ in 0..16 {
            fleet.submit(0, task()).unwrap();
        }
        fleet.wait_all();
        let rep = fleet.report();
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::ClusterPlacements), rep.placements);
        assert_eq!(snap.counter(Counter::ClusterDeviceKills), 1);
        assert_eq!(snap.counter(Counter::ClusterResubmits), rep.resubmits);
        assert_eq!(
            snap.counter(Counter::ClusterStagedTransfers),
            rep.staging_transfers
        );
        assert!(
            snap.devices.iter().any(|s| s.device == 1 && !s.alive),
            "kill must be visible on the device track"
        );
        assert!(snap.devices.iter().any(|s| s.device == 0 && s.alive));
        // Every task got a Spawned and a Freed span edge under its key.
        for key in 0..16u64 {
            let tl = snap.task_timeline(key);
            assert!(tl[0].is_some(), "task {key} has no Spawned event");
            assert!(tl[4].is_some(), "task {key} has no Freed event");
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        assert!(matches!(
            ClusterHandle::new(ClusterConfig::uniform(0)),
            Err(ConfigError::NoDevices)
        ));
        let mut cfg = ClusterConfig::uniform(2);
        cfg.faults = vec![FaultSpec {
            at: SimTime::ZERO,
            device: 5,
            kind: FaultKind::Kill,
        }];
        assert!(matches!(
            ClusterHandle::new(cfg),
            Err(ConfigError::BadFault { .. })
        ));
        let mut cfg = ClusterConfig::uniform(2);
        cfg.faults = vec![FaultSpec {
            at: SimTime::ZERO,
            device: 0,
            kind: FaultKind::Slow { factor: 0.5 },
        }];
        assert!(matches!(
            ClusterHandle::new(cfg),
            Err(ConfigError::BadFault { .. })
        ));
    }

    #[test]
    fn serve_on_drives_the_fleet_backend() {
        use pagoda_serve::{serve_on, Outcome, Policy, ServeConfig, TenantSpec};
        use workloads::Bench;

        let video = TenantSpec::new("video", Bench::Dct, 4.0e5);
        let crypto = TenantSpec::new("crypto", Bench::Des3, 8.0e5);
        let mut cfg = ServeConfig::new(vec![video, crypto], Policy::Fifo);
        cfg.tasks_per_tenant = 24;
        let mut fleet = ClusterHandle::new(ClusterConfig::uniform(2)).unwrap();
        let out = serve_on(&cfg, &mut fleet).unwrap();
        let rep = fleet.report();
        let offered: u64 = out.report.tenants.iter().map(|t| t.offered).sum();
        assert_eq!(offered, 48);
        assert_eq!(rep.completed, rep.placements - rep.resubmits);
        assert!(rep.completed > 0);
        assert_eq!(rep.tasks_lost, 0);
        let mut done = 0;
        for r in &out.records {
            match r.outcome {
                Outcome::Done => {
                    done += 1;
                    let (spawn, end) = (r.spawn_us.unwrap(), r.done_us.unwrap());
                    assert!(spawn <= end, "task {} done before spawn", r.seq);
                }
                Outcome::Shed => assert!(r.spawn_us.is_none() && r.done_us.is_none()),
                Outcome::Expired => {}
            }
        }
        assert_eq!(done, rep.completed);
    }

    #[test]
    fn a_run_that_never_drains_keeps_no_completion_log() {
        let fleet = ClusterHandle::new(kill_device_0_at_5us(RetryPolicy::Fail)).unwrap();
        let (_, mut fleet) = run_batch(fleet, 64);
        let rep = fleet.report();
        assert!(rep.completed > 0 && rep.tasks_lost > 0);
        assert!(fleet.completed_log.is_none());
    }

    #[test]
    fn spawn_blocking_idles_the_devices_wait_timeout_not_the_default() {
        // 5 ms against ~0.5 ms tasks: one slice outlasts the whole batch,
        // where 20 us slices would have retried inside the first task.
        let timeout = Dur::from_us(5_000);
        let mut cfg = ClusterConfig::uniform(2);
        for c in &mut cfg.devices {
            c.rows_per_column = 1;
            c.wait_timeout = timeout;
        }
        let mut fleet = ClusterHandle::new(cfg).unwrap();
        let long = || TaskDesc::uniform(64, WarpWork::compute(2_000_000, 8.0));
        while fleet.capacity().has_room() {
            fleet.submit(0, long()).unwrap();
        }
        let before = fleet.now();
        let key = fleet.spawn_blocking(0, long()).unwrap();
        let idled = fleet.now() - before;
        assert!(
            timeout <= idled && idled < timeout + timeout,
            "idled {idled:?}"
        );
        assert_eq!(key, u64::from(fleet.capacity().total));
    }

    /// What [`Backend::drain_completed`] hands over now.
    fn drain(fleet: &mut ClusterHandle) -> Vec<u64> {
        let mut out = Vec::new();
        fleet.drain_completed(&mut std::iter::empty(), &mut out);
        out
    }

    #[test]
    fn draining_every_round_hands_each_key_over_exactly_once_lost_ones_included() {
        let mut fleet = ClusterHandle::new(kill_device_0_at_5us(RetryPolicy::Fail)).unwrap();
        assert_eq!(drain(&mut fleet).len(), 0, "the first call only arms");
        let keys: Vec<u64> = (0..64).map(|_| fleet.submit(0, task()).unwrap()).collect();
        let mut handed = Vec::new();
        while fleet.unresolved > 0 {
            fleet.sync();
            handed.extend(drain(&mut fleet));
            assert_eq!(drain(&mut fleet).len(), 0, "a drain empties the log");
            // The log and the poll it replaces agree after every round.
            let polled = keys.iter().filter(|&&k| fleet.observed_done(k)).count();
            assert_eq!(handed.len(), polled);
            let t = fleet.now() + fleet.wait_timeout;
            fleet.advance_to(t);
            handed.extend(drain(&mut fleet)); // the kill resolves tasks too
        }
        let lost = |k: &u64| fleet.status(*k).unwrap() == TaskStatus::Lost;
        assert!(handed.iter().any(lost), "the kill lost nothing");
        handed.sort_unstable();
        assert_eq!(handed, keys);
    }

    #[test]
    fn serve_on_ignores_completions_of_tasks_it_did_not_submit() {
        use pagoda_serve::{serve_on, Policy, ServeConfig, TenantSpec};
        use workloads::Bench;

        let mut fleet = ClusterHandle::new(ClusterConfig::uniform(2)).unwrap();
        // Someone else armed the log and has tasks on the fleet: their
        // keys are handed to `serve_on` along with its own.
        drain(&mut fleet);
        let foreign: Vec<u64> = (0..8).map(|_| fleet.submit(0, task()).unwrap()).collect();
        let mut cfg = ServeConfig::new(
            vec![TenantSpec::new("crypto", Bench::Des3, 8.0e5)],
            Policy::Fifo,
        );
        cfg.tasks_per_tenant = 48;
        let out = serve_on(&cfg, &mut fleet).unwrap();
        assert_eq!(out.report.tenants[0].completed, 48);
        assert_eq!(out.records.len(), 48);
        let resolved_meanwhile = |k: &u64| fleet.status(*k).unwrap() == TaskStatus::Done;
        assert!(foreign.iter().all(resolved_meanwhile));
    }

    /// `run_batch` with the drain spelled out, so `after_sync` can look
    /// at the fleet behind every sync of it. Every harvest on the way is
    /// checked against the full-rescan oracle by `ClusterHandle::harvest`.
    fn drive(
        cfg: ClusterConfig,
        n: usize,
        mut after_sync: impl FnMut(&ClusterHandle),
    ) -> ClusterHandle {
        let mut fleet = ClusterHandle::new(cfg).unwrap();
        submit_batch(&mut fleet, n);
        while fleet.unresolved > 0 {
            fleet.sync();
            after_sync(&fleet);
            let t = fleet.now() + fleet.wait_timeout;
            fleet.advance_to(t);
        }
        fleet
    }

    /// A dry run's first sync that leaves device 0 holding completions
    /// gated at least 2 us into the fleet's future: its fleet instant and
    /// the keys gated there.
    fn first_far_gate() -> (SimTime, Vec<u64>) {
        let mut found = None;
        drive(ClusterConfig::uniform(2), 256, |f| {
            let d = &f.devices[0];
            let far = d.gated.peek().is_some_and(|&Reverse((out, _, _))| {
                d.clock.fleet_of(out) > f.fleet_now + Dur::from_us(2)
            });
            if found.is_none() && far {
                let keys: Vec<u64> = d.gated.iter().map(|&Reverse((_, k, _))| k).collect();
                found = Some((f.fleet_now, keys));
            }
        });
        found.expect("device clocks run ahead of the fleet clock")
    }

    #[test]
    fn slowdown_rekeys_completions_already_gated() {
        let (t, gated_keys) = first_far_gate();
        let healthy = drive(ClusterConfig::uniform(2), 256, |_| {});

        // The simulation is deterministic up to the fault, so a slowdown
        // 1 us after that sync lands while those completions are gated.
        let mut cfg = ClusterConfig::uniform(2);
        cfg.faults = vec![FaultSpec {
            at: t + Dur::from_us(1),
            device: 0,
            kind: FaultKind::Slow { factor: 4.0 },
        }];
        let slowed = drive(cfg, 256, |_| {});
        for key in gated_keys {
            assert!(
                slowed.completion_time(key) > healthy.completion_time(key),
                "task {key}: a gate key cached before the slowdown survived it"
            );
        }
    }

    #[test]
    fn stacked_slowdowns_then_a_kill_hold_every_harvest_to_the_rescan() {
        // Two rate changes land on device 0 while completions wait in its
        // gate, and a kill harvests what is left. `harvest` holds every
        // sync's and the kill's completions to `scan_finished`, which maps
        // each through the clock as it is then.
        let (t, _) = first_far_gate();
        let mut cfg = ClusterConfig::uniform(2);
        let fault = |after_us, kind| FaultSpec {
            at: t + Dur::from_us(after_us),
            device: 0,
            kind,
        };
        cfg.faults = vec![
            fault(1, FaultKind::Slow { factor: 4.0 }),
            fault(2, FaultKind::Slow { factor: 2.0 }),
            fault(100, FaultKind::Kill),
        ];
        let kill = t + Dur::from_us(100);
        // Syncs after both slowdowns that left a completion gated, and
        // how many the last sync before the kill left there for it.
        let (mut gated_while_slowed, mut left_for_kill) = (0, 0);
        let mut fleet = drive(cfg, 256, |f| {
            let gated = f.devices[0].gated.len();
            if f.fleet_now > t + Dur::from_us(2) && f.fleet_now < kill {
                gated_while_slowed += usize::from(gated > 0);
                left_for_kill = gated;
            }
        });
        assert!(
            gated_while_slowed > 0,
            "the slowed gate never held a completion"
        );
        assert!(left_for_kill > 0, "the kill found its gate empty");
        let rep = fleet.report();
        assert_eq!((rep.slowdowns, rep.kills), (2, 1));
        assert_eq!(rep.completed, 256);
    }

    #[test]
    fn two_set_harvest_matches_full_rescan_under_mixed_faults() {
        for placement in [
            Placement::RoundRobin,
            Placement::LeastOutstanding,
            Placement::PowerOfTwo,
        ] {
            let mut cfg = ClusterConfig::uniform(3);
            cfg.placement = placement;
            cfg.retry = RetryPolicy::Resubmit { max_attempts: 3 };
            for c in &mut cfg.devices {
                c.rows_per_column = 2; // small tables: many syncs, deep gated sets
            }
            let fault = |us, device, kind| FaultSpec {
                at: SimTime::from_us(us),
                device,
                kind,
            };
            cfg.faults = vec![
                fault(30, 0, FaultKind::Slow { factor: 6.0 }),
                fault(90, 1, FaultKind::Kill),
                fault(150, 2, FaultKind::Slow { factor: 2.0 }),
                fault(400, 0, FaultKind::Kill),
            ];
            let mut max_gated = 0;
            let mut fleet = drive(cfg, 600, |f| {
                max_gated = max_gated.max(f.devices.iter().map(|d| d.gated.len()).max().unwrap());
            });
            let rep = fleet.report();
            assert_eq!((rep.kills, rep.slowdowns), (2, 2), "{placement:?}");
            assert!(
                rep.resubmits > 0,
                "{placement:?}: the kills stranded nothing"
            );
            assert!(max_gated > 0, "{placement:?}: no completion was ever gated");
            assert_eq!(rep.completed, 600, "{placement:?}");
            for d in &fleet.devices {
                assert_eq!(d.outstanding(), 0, "{placement:?}: device {}", d.id);
            }
        }
    }

    #[test]
    fn each_completion_is_read_from_a_runtime_log_once() {
        for retry in [
            None,
            Some(RetryPolicy::Fail),
            Some(RetryPolicy::Resubmit { max_attempts: 3 }),
        ] {
            let cfg = retry.map_or_else(|| ClusterConfig::uniform(2), kill_device_0_at_5us);
            let mut fleet = drive(cfg, 2_000, |_| {});
            let rep = fleet.report();
            assert_eq!(rep.kills, u64::from(retry.is_some()), "{retry:?}");
            assert_eq!(rep.completed + rep.tasks_lost, 2_000, "{retry:?}");
            let read: u64 = fleet.devices.iter().map(|d| d.read).sum();
            assert_eq!(read, rep.completed, "{retry:?}");
        }
    }
}
