//! The [`Recorder`] sink trait, the cloneable [`Obs`] handle threaded
//! through every instrumented crate, and the stock recorder,
//! [`MemRecorder`] (buffers everything for export).
//!
//! Hot-path contract: a disabled handle (`Obs::off()`) is a single
//! `Option` discriminant test per instrumentation site — no event is
//! constructed, no allocation happens, nothing is locked.
//!
//! Mem-mode hot path: [`MemRecorder`] keeps one chunked append-only ring
//! per stream behind its own spinlock, and counters in a fixed array of
//! relaxed atomics. Recording an event is one uncontended atomic swap
//! plus an in-place append into a preallocated chunk; bumping a counter
//! is a plain load/store pair with no locked read-modify-write at all.
//! Nothing on the recording path allocates a `String` or touches a map —
//! counter names are interned `&'static str`s materialized only at
//! [`MemRecorder::snapshot`] (copy-on-export). What this costs over a
//! fully disabled run is `obs.mem_overhead_pct` in `benchmark/`.

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use serde::Serialize;

use crate::events::{
    Counter, DeviceSample, Event, MarkKind, MtbSample, SmmSample, SyncKind, SyncMark, TaskEvent,
    TaskMark, TaskRoute, TaskState, TenantTag,
};

/// A sink for observability events. All methods take `&self` (recorders
/// are shared behind an `Arc` across the host runtime, the device model,
/// and the bus) and default to no-ops so recorders implement only what
/// they care about. Every non-counter occurrence arrives through
/// [`Recorder::event`], so a tee that forwards `event` and `count`
/// cannot drop a kind added later.
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

/// Everything a [`MemRecorder`] captured, in arrival order. Byte-identical
/// across identical seeded runs — the determinism test serializes two of
/// these and compares strings.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ObsBuffer {
    /// Task lifecycle events.
    pub tasks: Vec<TaskEvent>,
    /// Task→tenant attributions.
    pub tenants: Vec<TenantTag>,
    /// Per-SMM resource samples.
    pub smm: Vec<SmmSample>,
    /// Per-MTB occupancy samples.
    pub mtb: Vec<MtbSample>,
    /// Per-fleet-device samples (cluster layer).
    pub devices: Vec<DeviceSample>,
    /// Fleet synchronization points (cluster layer), emission order.
    pub syncs: Vec<SyncMark>,
    /// Serving-layer timeline marks, emission order (which may differ
    /// from `at_ps` order: marks are emitted retroactively at spawn).
    pub marks: Vec<TaskMark>,
    /// Task→device routings (cluster layer), emission order.
    pub routes: Vec<TaskRoute>,
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

/// Events per ring chunk. Chunks are allocated whole and never grow, so
/// an append never relocates previously recorded events and the
/// amortized copy cost of `Vec` doubling never lands on the hot path.
const CHUNK: usize = 4096;

/// Append-only chunked storage for one event stream. A structure-of-
/// arrays ring at the stream level: each stream keeps its own ring, and
/// within a ring events sit contiguously inside fixed-size chunks. The
/// open chunk is a direct field so the append fast path is one length
/// compare plus a `Vec::push` into reserved capacity — spilling a full
/// chunk into `full` is the only slow branch and runs once per `CHUNK`
/// events.
struct Ring<T> {
    /// Spilled chunks, each exactly `CHUNK` long.
    full: Vec<Vec<T>>,
    /// The open chunk, capacity `CHUNK`; never reallocates.
    last: Vec<T>,
}

impl<T: Copy> Ring<T> {
    fn new() -> Self {
        Ring {
            full: Vec::new(),
            last: Vec::with_capacity(CHUNK),
        }
    }

    #[inline]
    fn push(&mut self, v: T) {
        if self.last.len() == CHUNK {
            self.spill();
        }
        self.last.push(v);
    }

    #[cold]
    fn spill(&mut self) {
        let c = std::mem::replace(&mut self.last, Vec::with_capacity(CHUNK));
        self.full.push(c);
    }

    fn len(&self) -> usize {
        self.full.len() * CHUNK + self.last.len()
    }

    /// Flattens into one contiguous `Vec` (copy-on-export).
    fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for c in &self.full {
            out.extend_from_slice(c);
        }
        out.extend_from_slice(&self.last);
        out
    }
}

impl<T: Copy> Default for Ring<T> {
    fn default() -> Self {
        Ring::new()
    }
}

/// A minimal test-and-set spinlock guarding one event stream.
///
/// Every driver writes a given recorder from one thread at a time, so
/// the lock is effectively uncontended and held for a few nanoseconds
/// per append. An uncontended `std::sync::Mutex` costs ~3× more per
/// acquire on this path — the difference is most of the mem-recorder
/// overhead.
struct Spin<T> {
    locked: AtomicBool,
    cell: UnsafeCell<T>,
}

// SAFETY: `lock` hands out at most one `&mut T` at a time (the guard
// owns the flag until drop), so `Spin<T>` is as thread-safe as a mutex
// over `T`.
unsafe impl<T: Send> Sync for Spin<T> {}

impl<T: Default> Default for Spin<T> {
    fn default() -> Self {
        Spin {
            locked: AtomicBool::new(false),
            cell: UnsafeCell::new(T::default()),
        }
    }
}

impl<T> Spin<T> {
    #[inline]
    fn lock(&self) -> SpinGuard<'_, T> {
        // swap (a single unconditional atomic exchange) beats a
        // compare-exchange loop on the uncontended fast path.
        if self.locked.swap(true, Ordering::Acquire) {
            self.contended();
        }
        SpinGuard { lock: self }
    }

    #[cold]
    fn contended(&self) {
        while self.locked.swap(true, Ordering::Acquire) {
            std::hint::spin_loop();
        }
    }
}

/// Exclusive access to a [`Spin`]'s contents; releases on drop (also
/// during unwinding, so a panicking consumer cannot wedge the lock).
struct SpinGuard<'a, T> {
    lock: &'a Spin<T>,
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the flag, so access is exclusive.
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the flag, so access is exclusive.
        unsafe { &mut *self.lock.cell.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

/// A recorder that buffers every event in memory. Each stream has its
/// own [`Ring`] behind its own spinlock and counters are relaxed atomics,
/// so recording never allocates per event and counter bumps never lock.
/// `snapshot()` yields an [`ObsBuffer`] for export.
#[derive(Default)]
pub struct MemRecorder {
    tasks: Spin<Ring<TaskEvent>>,
    tenants: Spin<Ring<TenantTag>>,
    smm: Spin<Ring<SmmSample>>,
    mtb: Spin<Ring<MtbSample>>,
    devices: Spin<Ring<DeviceSample>>,
    syncs: Spin<Ring<SyncMark>>,
    marks: Spin<Ring<TaskMark>>,
    routes: Spin<Ring<TaskRoute>>,
    counts: [AtomicU64; Counter::ALL.len()],
}

impl MemRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the current buffers out. Counters materialize as a sorted
    /// name→total map with all counters present. Streams are copied one
    /// at a time; concurrent recording between stream copies lands in
    /// the next snapshot (drivers snapshot at quiescent points).
    pub fn snapshot(&self) -> ObsBuffer {
        let mut counters = BTreeMap::new();
        for c in Counter::ALL {
            counters.insert(c.name(), self.counts[c as usize].load(Ordering::Relaxed));
        }
        ObsBuffer {
            tasks: self.tasks.lock().to_vec(),
            tenants: self.tenants.lock().to_vec(),
            smm: self.smm.lock().to_vec(),
            mtb: self.mtb.lock().to_vec(),
            devices: self.devices.lock().to_vec(),
            syncs: self.syncs.lock().to_vec(),
            marks: self.marks.lock().to_vec(),
            routes: self.routes.lock().to_vec(),
            counters,
        }
    }
}

impl fmt::Debug for MemRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemRecorder")
            .field("tasks", &self.tasks.lock().len())
            .field("smm", &self.smm.lock().len())
            .field("mtb", &self.mtb.lock().len())
            .finish()
    }
}

impl Recorder for MemRecorder {
    // `inline(always)`: every `Obs` method builds its variant at the call
    // site, so inlining folds the match away and each instrumentation
    // site is a direct push into its own ring. With a plain `#[inline]`
    // the mem-recording overhead read higher in 10 of 10 alternating
    // pairs (medians 9.0 % vs 6.8 %).
    #[inline(always)]
    fn event(&self, ev: Event) {
        match ev {
            Event::Task(e) => self.tasks.lock().push(e),
            Event::Tenant(t) => self.tenants.lock().push(t),
            Event::Smm(s) => self.smm.lock().push(s),
            Event::Mtb(s) => self.mtb.lock().push(s),
            Event::Device(s) => self.devices.lock().push(s),
            Event::Sync(m) => self.syncs.lock().push(m),
            Event::Mark(m) => self.marks.lock().push(m),
            Event::Route(r) => self.routes.lock().push(r),
        }
    }

    #[inline]
    fn count(&self, c: Counter, delta: u64) {
        // Load + store instead of `fetch_add`: a relaxed RMW is still a
        // full locked instruction on x86 (~20 cycles), and counters fire
        // tens of thousands of times per run. Every driver writes a
        // recorder from one thread at a time, so the non-atomic update
        // never loses an increment in practice; under genuinely
        // concurrent counting it would, which snapshot consumers must
        // not rely on.
        let slot = &self.counts[c as usize];
        slot.store(slot.load(Ordering::Relaxed) + delta, Ordering::Relaxed);
    }
}

/// The sink behind an enabled [`Obs`] handle. [`MemRecorder`] — the one
/// recorder on the measured hot path — gets its own variant so every
/// event call is statically dispatched and the ring push inlines into
/// the instrumentation site; anything else goes through the trait
/// object. [`Obs::recording`] produces the fast variant, [`Obs::new`]
/// the general one.
#[derive(Clone)]
enum Sink {
    Mem(Arc<MemRecorder>),
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
/// static dispatch (and inlining) on the [`MemRecorder`] arm.
macro_rules! emit {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {
        match &$self.rec {
            None => {}
            Some(Sink::Mem(m)) => m.$method($($arg),*),
            Some(Sink::Dyn(r)) => r.$method($($arg),*),
        }
    };
}

/// The handle instrumented code holds. `Obs::off()` (the default) makes
/// every method a single branch; `Obs::new(...)` forwards to a shared
/// [`Recorder`]. Cloning is cheap (an `Option<Arc>` copy), which is how
/// one recorder observes the runtime, the device, and the bus at once.
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

    /// A handle forwarding to `rec` through dynamic dispatch. For a
    /// [`MemRecorder`] prefer [`Obs::recording`], which keeps the
    /// concrete type and records measurably faster.
    pub fn new(rec: Arc<dyn Recorder + Send + Sync>) -> Self {
        Obs {
            rec: Some(Sink::Dyn(rec)),
        }
    }

    /// A handle backed by a fresh [`MemRecorder`] with static dispatch —
    /// the fast path — plus the recorder for later `snapshot()`. The
    /// usual way to record a run:
    ///
    /// ```
    /// let (obs, rec) = pagoda_obs::Obs::recording();
    /// obs.count(pagoda_obs::Counter::TasksSpawned, 1);
    /// assert_eq!(rec.snapshot().counter(pagoda_obs::Counter::TasksSpawned), 1);
    /// ```
    pub fn recording() -> (Obs, Arc<MemRecorder>) {
        let rec = Arc::new(MemRecorder::new());
        let obs = Obs {
            rec: Some(Sink::Mem(rec.clone())),
        };
        (obs, rec)
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
        assert_eq!(buf.counter(Counter::AdmissionShed), 0);
        assert_eq!(buf.counters.len(), Counter::ALL.len());
    }

    #[test]
    fn ring_preserves_order_across_chunk_spill() {
        // More events than one chunk holds: order and count must survive
        // the spill into later chunks.
        let (obs, rec) = Obs::recording();
        let n = (CHUNK * 2 + 37) as u64;
        for i in 0..n {
            obs.task(i, i, TaskState::Spawned);
        }
        let buf = rec.snapshot();
        assert_eq!(buf.tasks.len(), n as usize);
        assert!(buf
            .tasks
            .iter()
            .enumerate()
            .all(|(i, e)| e.at_ps == i as u64));
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
