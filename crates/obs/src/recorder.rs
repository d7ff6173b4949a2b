//! The [`Recorder`] sink trait, the cloneable [`Obs`] handle threaded
//! through every instrumented crate, and the two stock recorders:
//! [`NullRecorder`] (measures dispatch overhead) and [`MemRecorder`]
//! (buffers everything for export).
//!
//! Hot-path contract: a disabled handle (`Obs::off()`) is a single
//! `Option` discriminant test per instrumentation site — no event is
//! constructed, no allocation happens, nothing is locked. That is what
//! the `obs_overhead` bench gates at ≤5 %.
//!
//! Mem-mode hot path: [`MemRecorder`] keeps one chunked append-only ring
//! per stream behind its own spinlock, and counters in a fixed array of
//! relaxed atomics. Recording an event is one uncontended atomic swap
//! plus an in-place append into a preallocated chunk; bumping a counter
//! is a plain load/store pair with no locked read-modify-write at all.
//! Nothing on the recording path allocates a `String` or touches a map —
//! counter names are interned `&'static str`s materialized only at
//! [`MemRecorder::snapshot`] (copy-on-export). The `hotpath` bench gates
//! this at ≤12 % over a fully disabled run.

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use serde::Serialize;

use crate::events::{
    Counter, DeviceSample, MarkKind, MtbSample, SmmSample, SyncKind, SyncMark, TaskEvent, TaskMark,
    TaskRoute, TaskState, TenantTag,
};

/// A sink for observability events. All methods take `&self` (recorders
/// are shared behind an `Arc` across the host runtime, the device model,
/// and the bus) and default to no-ops so recorders implement only what
/// they care about.
pub trait Recorder {
    /// A task changed lifecycle state.
    fn task(&self, ev: TaskEvent) {
        let _ = ev;
    }

    /// A task was attributed to a tenant (serving layer).
    fn tenant(&self, tag: TenantTag) {
        let _ = tag;
    }

    /// An SMM's resource residency changed.
    fn smm(&self, s: SmmSample) {
        let _ = s;
    }

    /// An MTB's column/WarpTable/smem-pool occupancy changed.
    fn mtb(&self, s: MtbSample) {
        let _ = s;
    }

    /// A fleet device's outstanding-task count or liveness changed.
    fn device(&self, s: DeviceSample) {
        let _ = s;
    }

    /// A fleet driver reached a synchronization point (cluster layer).
    fn sync_mark(&self, m: SyncMark) {
        let _ = m;
    }

    /// A serving-layer timeline mark (arrival / admission / observed
    /// completion) was attributed to a task.
    fn mark(&self, m: TaskMark) {
        let _ = m;
    }

    /// A task was routed to a fleet device (cluster layer).
    fn route(&self, r: TaskRoute) {
        let _ = r;
    }

    /// A counter advanced by `delta`.
    fn count(&self, c: Counter, delta: u64) {
        let _ = (c, delta);
    }

    /// Whether this recorder retains what it receives. Returning `false`
    /// (the [`NullRecorder`]) makes [`Obs::enabled`] report `false`, so
    /// instrumentation skips *computing* expensive samples (per-SMM/MTB
    /// scans) while pre-built events and counters still exercise the
    /// dispatch path.
    fn retains(&self) -> bool {
        true
    }
}

/// A recorder that receives and drops everything. Exists to measure the
/// cost of *dispatch* (event construction + virtual call) separately
/// from the cost of *buffering*: it reports `retains() == false`, so
/// gated sample computation is skipped exactly as with [`Obs::off`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn retains(&self) -> bool {
        false
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

    /// The instants of `task`'s serving-layer marks, [`MarkKind::ALL`]
    /// order. `None` for marks never emitted (first emission wins).
    pub fn task_marks(&self, task: u64) -> [Option<u64>; 3] {
        let mut tl = [None; 3];
        for m in self.marks.iter().filter(|m| m.task == task) {
            let slot = &mut tl[m.kind as usize];
            if slot.is_none() {
                *slot = Some(m.at_ps);
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

    fn clear(&mut self) {
        self.full.clear();
        self.last.clear();
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
/// per append. An uncontended `std::sync::Mutex`
/// costs ~3× more per acquire on this path — the difference is most of
/// the mem-recorder overhead the `hotpath` bench gates.
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
/// own [`Ring`] behind its own mutex and counters are relaxed atomics,
/// so recording never allocates per event and counter bumps never lock.
/// `snapshot()` yields an [`ObsBuffer`] for export; `reset()` clears
/// between runs so one recorder can observe a sweep.
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

    /// Discards everything recorded so far.
    pub fn reset(&self) {
        self.tasks.lock().clear();
        self.tenants.lock().clear();
        self.smm.lock().clear();
        self.mtb.lock().clear();
        self.devices.lock().clear();
        self.syncs.lock().clear();
        self.marks.lock().clear();
        self.routes.lock().clear();
        for a in &self.counts {
            a.store(0, Ordering::Relaxed);
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
    #[inline]
    fn task(&self, ev: TaskEvent) {
        self.tasks.lock().push(ev);
    }

    #[inline]
    fn tenant(&self, tag: TenantTag) {
        self.tenants.lock().push(tag);
    }

    #[inline]
    fn smm(&self, s: SmmSample) {
        self.smm.lock().push(s);
    }

    #[inline]
    fn mtb(&self, s: MtbSample) {
        self.mtb.lock().push(s);
    }

    #[inline]
    fn device(&self, s: DeviceSample) {
        self.devices.lock().push(s);
    }

    #[inline]
    fn sync_mark(&self, m: SyncMark) {
        self.syncs.lock().push(m);
    }

    #[inline]
    fn mark(&self, m: TaskMark) {
        self.marks.lock().push(m);
    }

    #[inline]
    fn route(&self, r: TaskRoute) {
        self.routes.lock().push(r);
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
/// object. [`Obs::recording`] and [`Obs::with_mem`] produce the fast
/// variant, [`Obs::new`] the general one.
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

/// Forwards one event method to whichever sink variant is live, with
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
    /// [`MemRecorder`] prefer [`Obs::recording`] or [`Obs::with_mem`],
    /// which keep the concrete type and record measurably faster.
    pub fn new(rec: Arc<dyn Recorder + Send + Sync>) -> Self {
        Obs {
            rec: Some(Sink::Dyn(rec)),
        }
    }

    /// A handle recording into `rec` with static dispatch — the fast
    /// path the `hotpath` bench measures.
    pub fn with_mem(rec: Arc<MemRecorder>) -> Self {
        Obs {
            rec: Some(Sink::Mem(rec)),
        }
    }

    /// A handle backed by a fresh [`MemRecorder`], plus the recorder for
    /// later `snapshot()`. The usual way to record a run:
    ///
    /// ```
    /// let (obs, rec) = pagoda_obs::Obs::recording();
    /// obs.count(pagoda_obs::Counter::TasksSpawned, 1);
    /// assert_eq!(rec.snapshot().counter(pagoda_obs::Counter::TasksSpawned), 1);
    /// ```
    pub fn recording() -> (Obs, Arc<MemRecorder>) {
        let rec = Arc::new(MemRecorder::new());
        (Obs::with_mem(rec.clone()), rec)
    }

    /// Whether a recorder that retains data is attached. Instrumented
    /// code uses this to skip *computing* expensive sample fields, not
    /// just emitting them — so it is `false` both with no recorder and
    /// with a [`NullRecorder`] (`retains() == false`).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.as_ref().is_some_and(|r| r.retains())
    }

    /// Records a task lifecycle transition.
    #[inline]
    pub fn task(&self, at_ps: u64, task: u64, state: TaskState) {
        emit!(self.task(TaskEvent { at_ps, task, state }));
    }

    /// Attributes `task` to `tenant`.
    #[inline]
    pub fn tenant(&self, task: u64, tenant: u32) {
        emit!(self.tenant(TenantTag { task, tenant }));
    }

    /// Records a per-SMM resource sample.
    #[inline]
    pub fn smm(&self, s: SmmSample) {
        emit!(self.smm(s));
    }

    /// Records a per-MTB occupancy sample.
    #[inline]
    pub fn mtb(&self, s: MtbSample) {
        emit!(self.mtb(s));
    }

    /// Records a per-fleet-device sample.
    #[inline]
    pub fn device(&self, s: DeviceSample) {
        emit!(self.device(s));
    }

    /// Records a fleet synchronization point.
    #[inline]
    pub fn sync_mark(&self, at_ps: u64, kind: SyncKind) {
        emit!(self.sync_mark(SyncMark { at_ps, kind }));
    }

    /// Records a serving-layer timeline mark for `task`.
    #[inline]
    pub fn mark(&self, at_ps: u64, task: u64, kind: MarkKind) {
        emit!(self.mark(TaskMark { at_ps, task, kind }));
    }

    /// Records that `task` was routed to fleet `device`.
    #[inline]
    pub fn route(&self, task: u64, device: u32) {
        emit!(self.route(TaskRoute { task, device }));
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
    fn null_recorder_dispatches_but_reports_disabled() {
        let obs = Obs::new(Arc::new(NullRecorder));
        // Dispatch works (and drops everything)…
        obs.task(1, 2, TaskState::Spawned);
        obs.count(Counter::EngineEvents, 10);
        // …but gated sample computation is skipped, like Obs::off().
        assert!(!obs.enabled());
        let (mem, _) = Obs::recording();
        assert!(mem.enabled());
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
        obs.mark(950, 7, MarkKind::Observed); // duplicate: first wins
        obs.route(7, 2);
        obs.route(7, 3); // resubmission: both retained, last wins downstream
        let buf = rec.snapshot();
        assert_eq!(buf.marks.len(), 4);
        assert_eq!(buf.task_marks(7), [Some(100), Some(130), Some(900)]);
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
    fn reset_clears() {
        let (obs, rec) = Obs::recording();
        obs.task(1, 1, TaskState::Spawned);
        obs.count(Counter::TasksSpawned, 4);
        rec.reset();
        let buf = rec.snapshot();
        assert!(buf.tasks.is_empty());
        assert_eq!(buf.counter(Counter::TasksSpawned), 0);
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
