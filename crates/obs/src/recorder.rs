//! The [`Recorder`] sink trait, the cloneable [`Obs`] handle threaded
//! through every instrumented crate, and [`Recording`], the handle on
//! the in-memory log a recorded run keeps for export and checking.
//!
//! Hot-path contract: a disabled handle (`Obs::off()`) is a single
//! `Option` discriminant test per instrumentation site — no event is
//! constructed and no allocation happens.
//!
//! Mem-mode hot path: a run is simulated on one thread, so its log has
//! one owner — an `Rc<RefCell<_>>` shared by the run's `Obs` clones, with
//! no lock and no atomic. The log keeps one chunked append-only
//! [`Events`] stream per event kind, one more of one-byte stream tags
//! that remembers how the streams interleaved, and the counters as a
//! plain array. Recording an event is a `RefCell` flag check plus two
//! appends into preallocated chunks; bumping a counter is one add.
//! Nothing on the recording path allocates a `String` or touches a map —
//! counter names are interned `&'static str`s materialized only at
//! [`Recording::snapshot`]. What this costs over a fully disabled run is
//! `obs.mem_overhead_pct` in `benchmark/`.
//!
//! Read-out shares, it does not copy: a snapshot's streams are clones of
//! the log's, which share every sealed chunk with the log and copy only
//! each stream's open chunk (at most [`CHUNK`](crate::stream::CHUNK)
//! events). Sealed chunks are never written again, so recording on
//! after a snapshot leaves the snapshot as it was; the chunks are
//! `Arc`-shared, so an [`ObsBuffer`] is `Send + Sync` while the log
//! itself stays single-threaded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use serde::Serialize;

use crate::events::{
    Counter, DeviceSample, Event, MarkKind, MtbSample, SmmSample, SyncKind, SyncMark, TaskEvent,
    TaskMark, TaskRoute, TaskState, TenantTag,
};
use crate::stream::Events;

/// A sink for observability events, attached with [`Obs::new`]. All
/// methods take `&self` (the sink is shared behind an `Arc` by every
/// clone of the handle) and default to no-ops so recorders implement
/// only what they care about. Every non-counter occurrence arrives
/// through [`Recorder::event`], so a sink that handles `event` and
/// `count` cannot miss a kind added later.
pub trait Recorder {
    /// Something happened: a lifecycle transition, a resource sample, a
    /// serving mark, a routing, a sync point.
    fn event(&self, ev: Event) {
        let _ = ev;
    }

    /// A counter advanced by `delta`.
    fn count(&self, c: Counter, delta: u64) {
        let _ = (c, delta);
    }

    /// Whether this recorder retains the events it receives. Returning
    /// `false` (a counters-only recorder) makes [`Obs::enabled`] report
    /// `false`, so instrumentation skips *computing* expensive samples
    /// (per-SMM/MTB scans) while pre-built events and counters are
    /// still dispatched.
    fn retains(&self) -> bool {
        true
    }
}

/// Everything a [`Recording`] captured, one [`Events`] stream per event
/// kind, each in emission order, sharing its sealed chunks with the log
/// it was taken from. Byte-identical across identical seeded runs — the
/// determinism test serializes two of these and compares strings; each
/// stream serializes as the JSON array a `Vec` of its events would.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ObsBuffer {
    /// Task lifecycle events.
    pub tasks: Events<TaskEvent>,
    /// Task→tenant attributions.
    pub tenants: Events<TenantTag>,
    /// Per-SMM resource samples.
    pub smm: Events<SmmSample>,
    /// Per-MTB occupancy samples.
    pub mtb: Events<MtbSample>,
    /// Per-fleet-device samples (cluster layer).
    pub devices: Events<DeviceSample>,
    /// Fleet synchronization points (cluster layer), emission order.
    pub syncs: Events<SyncMark>,
    /// Serving-layer timeline marks, emission order (which may differ
    /// from `at_ps` order: marks are emitted retroactively at spawn).
    pub marks: Events<TaskMark>,
    /// Task→device routings (cluster layer), emission order.
    pub routes: Events<TaskRoute>,
    /// Final counter totals, keyed by the interned [`Counter::name`]
    /// (`&'static str` — building a snapshot allocates no key strings).
    /// Every counter is present (zeros included) so the layout is
    /// run-independent, and the JSON encoding is byte-identical to the
    /// owned-key layout it replaced.
    pub counters: BTreeMap<&'static str, u64>,
}

impl ObsBuffer {
    /// Serializes the whole buffer as one JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("vendored serde_json encoder is infallible")
    }

    /// Counter total by enum (0 if never incremented).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.name()).copied().unwrap_or(0)
    }

    /// The instants at which `task` entered each state, lifecycle order.
    /// `None` for states never reached.
    pub fn task_timeline(&self, task: u64) -> [Option<u64>; 5] {
        let mut tl = [None; 5];
        for ev in self.tasks.iter().filter(|e| e.task == task) {
            let slot = &mut tl[ev.state as usize];
            if slot.is_none() {
                *slot = Some(ev.at_ps);
            }
        }
        tl
    }
}

/// Which stream of the [`Log`] an event went to; one byte per event.
#[derive(Clone, Copy)]
enum Stream {
    Task,
    Tenant,
    Smm,
    Mtb,
    Device,
    Sync,
    Mark,
    Route,
}

impl Stream {
    #[inline(always)]
    fn of(ev: &Event) -> Self {
        match ev {
            Event::Task(_) => Stream::Task,
            Event::Tenant(_) => Stream::Tenant,
            Event::Smm(_) => Stream::Smm,
            Event::Mtb(_) => Stream::Mtb,
            Event::Device(_) => Stream::Device,
            Event::Sync(_) => Stream::Sync,
            Event::Mark(_) => Stream::Mark,
            Event::Route(_) => Stream::Route,
        }
    }
}

/// One recorded run: each kind in its own [`Events`] stream (16–40 B an
/// event rather than the 48 B of an [`Event`]), the order the streams
/// interleaved in, and the counter totals.
#[derive(Default)]
struct Log {
    tasks: Events<TaskEvent>,
    tenants: Events<TenantTag>,
    smm: Events<SmmSample>,
    mtb: Events<MtbSample>,
    devices: Events<DeviceSample>,
    syncs: Events<SyncMark>,
    marks: Events<TaskMark>,
    routes: Events<TaskRoute>,
    /// The stream of every event, emission order.
    order: Events<Stream>,
    counts: [u64; Counter::ALL.len()],
}

impl Log {
    // `inline(always)`: every `Obs` method builds its variant at the call
    // site, so inlining folds both matches away and each instrumentation
    // site is a direct push into its own stream. With a plain `#[inline]`
    // the mem-recording overhead read higher in 10 of 10 alternating
    // pairs (medians 9.0 % vs 6.8 %).
    #[inline(always)]
    fn event(&mut self, ev: Event) {
        self.order.push(Stream::of(&ev));
        match ev {
            Event::Task(e) => self.tasks.push(e),
            Event::Tenant(t) => self.tenants.push(t),
            Event::Smm(s) => self.smm.push(s),
            Event::Mtb(s) => self.mtb.push(s),
            Event::Device(s) => self.devices.push(s),
            Event::Sync(m) => self.syncs.push(m),
            Event::Mark(m) => self.marks.push(m),
            Event::Route(r) => self.routes.push(r),
        }
    }

    #[inline]
    fn count(&mut self, c: Counter, delta: u64) {
        self.counts[c as usize] += delta;
    }
}

/// The read side of a recorded run, from [`Obs::recording`]. It shares
/// the log with every clone of the run's [`Obs`]; read it once the run
/// is over.
pub struct Recording {
    log: Rc<RefCell<Log>>,
}

impl Recording {
    /// The log so far, as one [`Events`] clone per stream: an `Arc` bump
    /// per sealed chunk and a copy of at most one open chunk each.
    /// Counters materialize as a sorted name→total map with all counters
    /// present.
    pub fn snapshot(&self) -> ObsBuffer {
        let log = self.log.borrow();
        ObsBuffer {
            tasks: log.tasks.clone(),
            tenants: log.tenants.clone(),
            smm: log.smm.clone(),
            mtb: log.mtb.clone(),
            devices: log.devices.clone(),
            syncs: log.syncs.clone(),
            marks: log.marks.clone(),
            routes: log.routes.clone(),
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), log.counts[c as usize]))
                .collect(),
        }
    }

    /// Every event, in the order the run emitted them across all streams
    /// — what a checker of cross-stream invariants folds over. Reads the
    /// log in place, copying nothing out: the `at`th tag names the stream
    /// the next event sits in, and `next` holds each stream's read
    /// position. The log stays borrowed until the iterator is dropped.
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        let log = self.log.borrow();
        let mut next = [0; 8];
        // Every tag has its event: `Log::event` appends both or neither.
        (0..).map_while(move |at| {
            let s = *log.order.get(at)?;
            let i = next[s as usize];
            next[s as usize] += 1;
            Some(match s {
                Stream::Task => Event::Task(log.tasks[i]),
                Stream::Tenant => Event::Tenant(log.tenants[i]),
                Stream::Smm => Event::Smm(log.smm[i]),
                Stream::Mtb => Event::Mtb(log.mtb[i]),
                Stream::Device => Event::Device(log.devices[i]),
                Stream::Sync => Event::Sync(log.syncs[i]),
                Stream::Mark => Event::Mark(log.marks[i]),
                Stream::Route => Event::Route(log.routes[i]),
            })
        })
    }

    /// Counter total so far.
    pub fn counter(&self, c: Counter) -> u64 {
        self.log.borrow().counts[c as usize]
    }
}

/// The sink behind an enabled [`Obs`] handle. The log — the one sink on
/// the measured hot path — gets its own variant so every event call is
/// statically dispatched and the stream push inlines into the
/// instrumentation site; anything else goes through the trait object.
/// [`Obs::recording`] produces the fast variant, [`Obs::new`] the
/// general one.
#[derive(Clone)]
enum Sink {
    Mem(Rc<RefCell<Log>>),
    Dyn(Arc<dyn Recorder + Send + Sync>),
}

impl Sink {
    #[inline]
    fn retains(&self) -> bool {
        match self {
            Sink::Mem(_) => true,
            Sink::Dyn(r) => r.retains(),
        }
    }
}

/// Forwards one recorder call to whichever sink variant is live, with
/// static dispatch (and inlining) on the log arm.
macro_rules! emit {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {
        match &$self.rec {
            None => {}
            Some(Sink::Mem(m)) => m.borrow_mut().$method($($arg),*),
            Some(Sink::Dyn(r)) => r.$method($($arg),*),
        }
    };
}

/// The handle instrumented code holds. `Obs::off()` (the default) makes
/// every method a single branch; `Obs::recording()` appends to a log and
/// `Obs::new(...)` forwards to a shared [`Recorder`]. Cloning is cheap
/// (a reference-count bump), which is how one log observes the runtime,
/// the device, and the bus at once.
#[derive(Clone, Default)]
pub struct Obs {
    rec: Option<Sink>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.rec.is_some())
            .finish()
    }
}

impl Obs {
    /// The disabled handle: every instrumentation site reduces to one
    /// `Option` discriminant test.
    pub fn off() -> Self {
        Obs { rec: None }
    }

    /// A handle forwarding to `rec` through dynamic dispatch. To keep
    /// the events themselves, use [`Obs::recording`].
    pub fn new(rec: Arc<dyn Recorder + Send + Sync>) -> Self {
        Obs {
            rec: Some(Sink::Dyn(rec)),
        }
    }

    /// A handle appending to a fresh log with static dispatch — the fast
    /// path — plus the [`Recording`] to read the log with afterwards.
    /// The usual way to record a run:
    ///
    /// ```
    /// let (obs, rec) = pagoda_obs::Obs::recording();
    /// obs.count(pagoda_obs::Counter::TasksSpawned, 1);
    /// assert_eq!(rec.snapshot().counter(pagoda_obs::Counter::TasksSpawned), 1);
    /// ```
    pub fn recording() -> (Obs, Recording) {
        let log = Rc::new(RefCell::new(Log::default()));
        let obs = Obs {
            rec: Some(Sink::Mem(log.clone())),
        };
        (obs, Recording { log })
    }

    /// Whether a recorder that retains data is attached. Instrumented
    /// code uses this to skip *computing* expensive sample fields, not
    /// just emitting them — so it is `false` both with no recorder and
    /// with one whose `retains()` is `false`.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.as_ref().is_some_and(|r| r.retains())
    }

    /// Records a task lifecycle transition.
    #[inline]
    pub fn task(&self, at_ps: u64, task: u64, state: TaskState) {
        emit!(self.event(Event::Task(TaskEvent { at_ps, task, state })));
    }

    /// Attributes `task` to `tenant`.
    #[inline]
    pub fn tenant(&self, task: u64, tenant: u32) {
        emit!(self.event(Event::Tenant(TenantTag { task, tenant })));
    }

    /// Records a per-SMM resource sample.
    #[inline]
    pub fn smm(&self, s: SmmSample) {
        emit!(self.event(Event::Smm(s)));
    }

    /// Records a per-MTB occupancy sample.
    #[inline]
    pub fn mtb(&self, s: MtbSample) {
        emit!(self.event(Event::Mtb(s)));
    }

    /// Records a per-fleet-device sample.
    #[inline]
    pub fn device(&self, s: DeviceSample) {
        emit!(self.event(Event::Device(s)));
    }

    /// Records a fleet synchronization point.
    #[inline]
    pub fn sync_mark(&self, at_ps: u64, kind: SyncKind) {
        emit!(self.event(Event::Sync(SyncMark { at_ps, kind })));
    }

    /// Records a serving-layer timeline mark for `task`.
    #[inline]
    pub fn mark(&self, at_ps: u64, task: u64, kind: MarkKind) {
        emit!(self.event(Event::Mark(TaskMark { at_ps, task, kind })));
    }

    /// Records that `task` was routed to fleet `device`.
    #[inline]
    pub fn route(&self, task: u64, device: u32) {
        emit!(self.event(Event::Route(TaskRoute { task, device })));
    }

    /// Advances counter `c` by `delta`.
    #[inline]
    pub fn count(&self, c: Counter, delta: u64) {
        emit!(self.count(c, delta));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::CHUNK;

    #[test]
    fn off_handle_is_inert() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        obs.task(1, 2, TaskState::Spawned);
        obs.count(Counter::EngineEvents, 10);
        // Nothing to observe — the point is it doesn't panic or allocate.
    }

    #[test]
    fn mem_recorder_buffers_in_order() {
        let (obs, rec) = Obs::recording();
        obs.task(10, 0, TaskState::Spawned);
        obs.task(20, 0, TaskState::Enqueued);
        obs.tenant(0, 3);
        obs.count(Counter::TasksSpawned, 1);
        obs.count(Counter::TasksSpawned, 2);
        let buf = rec.snapshot();
        assert_eq!(buf.tasks.len(), 2);
        assert_eq!(buf.tasks[0].state, TaskState::Spawned);
        assert_eq!(buf.tenants, vec![TenantTag { task: 0, tenant: 3 }]);
        assert_eq!(buf.counter(Counter::TasksSpawned), 3);
        assert_eq!(rec.counter(Counter::TasksSpawned), 3);
        assert_eq!(buf.counter(Counter::AdmissionShed), 0);
        assert_eq!(buf.counters.len(), Counter::ALL.len());
    }

    #[test]
    fn streams_preserve_order_across_chunk_spill() {
        // More events than one chunk holds: order and count must survive
        // the spill into later chunks, in the snapshot and in the ordered
        // walk — also when the open chunk is exactly full.
        for n in [CHUNK * 2 + 37, CHUNK * 2] {
            let (obs, rec) = Obs::recording();
            for i in 0..n as u64 {
                obs.task(i, i, TaskState::Spawned);
            }
            let buf = rec.snapshot();
            assert_eq!(buf.tasks.len(), n);
            assert!(buf
                .tasks
                .iter()
                .enumerate()
                .all(|(i, e)| e.at_ps == i as u64));
            assert!(rec.events().eq(buf.tasks.iter().map(|&e| Event::Task(e))));
        }
    }

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
    fn the_log_replays_every_variant_in_emission_order() {
        let (obs, rec) = Obs::recording();
        for ev in one_of_each() {
            drive(&obs, ev);
        }
        assert_eq!(rec.events().collect::<Vec<_>>(), one_of_each());
        // An empty stream serializes as `[]`: every kind reached its
        // stream, not just the ordered log.
        let json = rec.snapshot().to_json();
        assert!(!json.contains("[]"), "a stream is empty: {json}");
    }

    #[test]
    fn task_timeline_takes_first_instance() {
        let (obs, rec) = Obs::recording();
        obs.task(10, 7, TaskState::Spawned);
        obs.task(30, 7, TaskState::Running);
        obs.task(35, 7, TaskState::Running); // duplicate: first wins
        let tl = rec.snapshot().task_timeline(7);
        assert_eq!(tl[TaskState::Spawned as usize], Some(10));
        assert_eq!(tl[TaskState::Enqueued as usize], None);
        assert_eq!(tl[TaskState::Running as usize], Some(30));
    }

    #[test]
    fn marks_and_routes_buffer_in_order() {
        let (obs, rec) = Obs::recording();
        obs.mark(100, 7, MarkKind::Arrived);
        obs.mark(130, 7, MarkKind::Admitted);
        obs.mark(900, 7, MarkKind::Observed);
        obs.mark(950, 7, MarkKind::Observed); // duplicate: retained too
        obs.route(7, 2);
        obs.route(7, 3); // resubmission: both retained, last wins downstream
        let buf = rec.snapshot();
        assert_eq!(buf.marks.len(), 4);
        assert_eq!(buf.routes.len(), 2);
        assert_eq!(buf.routes[1].device, 3);
    }

    #[test]
    fn device_samples_buffer_in_order() {
        use crate::events::DeviceSample;
        let (obs, rec) = Obs::recording();
        for i in 0..3u32 {
            obs.device(DeviceSample {
                at_ps: u64::from(i) * 5,
                device: i,
                known_free: 10,
                outstanding: i,
                alive: true,
            });
        }
        let buf = rec.snapshot();
        assert_eq!(buf.devices.len(), 3);
        assert_eq!(buf.devices[2].device, 2);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let run = || {
            let (obs, rec) = Obs::recording();
            for t in 0..5u64 {
                obs.task(t * 10, t, TaskState::Spawned);
                obs.count(Counter::TasksSpawned, 1);
            }
            rec.snapshot().to_json()
        };
        assert_eq!(run(), run());
    }
}
