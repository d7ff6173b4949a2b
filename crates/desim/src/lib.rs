//! Deterministic discrete-event simulation engine.
//!
//! This crate is the temporal substrate for the Pagoda reproduction. Every
//! other component — the PCIe bus model, the GPU device simulator, the
//! Pagoda runtime, the baseline runtimes — advances time exclusively through
//! an [`Engine`], which maintains a picosecond-resolution virtual clock and a
//! priority queue of pending events.
//!
//! # Design
//!
//! The engine is generic over the event payload type `E`. Components do not
//! register callbacks; instead the *owner* of the simulation (e.g. the GPU
//! device model) pops `(time, event)` pairs in nondecreasing time order and
//! dispatches on the payload. This keeps all mutable state in one place and
//! sidesteps the borrow gymnastics of callback-style DES designs, at no cost
//! in expressiveness.
//!
//! Determinism guarantees:
//!
//! * Events scheduled for the same instant are delivered in the order they
//!   were scheduled (a monotone sequence number breaks ties).
//! * No wall-clock time, OS entropy, or thread scheduling influences event
//!   order; two runs of the same program produce identical traces.
//!
//! # Queue implementation
//!
//! The queue is an **indexed 4-ary heap**: a compact `Vec<u32>` of slot ids
//! ordered by `(time, seq)`, over a slab of slots that each remember their
//! current heap position. The [`EventKey`] returned at scheduling time names
//! a slot plus a generation, so [`Engine::cancel`] is a true O(log n)
//! *removal* — no tombstones, no dead weight riding in the heap until its
//! timestamp comes up — and [`Engine::reschedule`] re-aims a pending event
//! in place. This matters because the GPU warp engine re-predicts an SMM's
//! next warp completion on every resident-warp-set change: under the earlier
//! lazy-deletion design each re-prediction left a cancelled entry behind,
//! and heaps grew with churn instead of with live events. A 4-ary layout
//! (rather than binary) halves the tree depth, trading slightly wider
//! sift-down comparisons for fewer cache-missing levels — the right trade
//! for the small-but-hot queues this workspace runs. A sift carries the
//! moving entry in a **hole**: its `(time, seq)` key is read once, as one
//! `u128`, the entries it passes shift into the hole with one heap write
//! and one back-pointer write each, and it is placed once at the end —
//! the comparisons a swap per level would make, in the same order, with
//! half the stores. [`EngineStats`] counts comparisons and live
//! high-water so the effect is observable.

#![forbid(unsafe_code)]

mod sync;
mod time;

pub use sync::ClockMap;
pub use time::{Dur, SimTime};

/// Opaque handle to a scheduled event, usable to cancel or reschedule it.
///
/// Keys are unique for the lifetime of an [`Engine`]; a key from one engine
/// must not be used with another (cancellation would silently target the
/// wrong event if slot generations collide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

impl EventKey {
    fn new(slot: u32, gen: u32) -> Self {
        EventKey((u64::from(gen) << 32) | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab entry. Lives in the heap while pending; freed slots chain into
/// a free list through `pos` and bump `gen` so stale keys can never alias
/// a recycled slot.
#[derive(Debug)]
struct Slot<E> {
    /// Incremented every time the slot is freed; the high half of the key.
    gen: u32,
    /// Heap position while pending; next-free link (or `NIL`) while free.
    pos: u32,
    at: SimTime,
    /// Monotone tie-break: same-instant events deliver in schedule order.
    seq: u64,
    /// `Some` while pending; taken at delivery, dropped at cancellation.
    event: Option<E>,
}

const NIL: u32 = u32::MAX;

/// Heap arity. See the crate docs for why 4.
const ARITY: usize = 4;

/// Counters describing a finished (or in-progress) simulation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Events delivered through [`Engine::pop`].
    pub delivered: u64,
    /// Events scheduled over the engine's lifetime.
    pub scheduled: u64,
    /// Events cancelled (removed) before delivery.
    pub cancelled: u64,
    /// Pending events re-aimed in place via [`Engine::reschedule`].
    pub rescheduled: u64,
    /// High-water mark of the pending-event queue (live events only —
    /// the queue holds no cancelled entries).
    pub max_queue_len: usize,
    /// `(time, seq)` key comparisons spent maintaining the heap. Divide
    /// by `delivered` for the comparisons-per-pop figure of merit.
    pub comparisons: u64,
}

impl EngineStats {
    /// Heap comparisons amortized over delivered events — the
    /// queue-efficiency figure (`desim.comparisons_per_pop` in
    /// `benchmark/`).
    pub fn comparisons_per_pop(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.comparisons as f64 / self.delivered as f64
        }
    }
}

/// A deterministic discrete-event simulator clock and event queue.
///
/// See the [crate docs](crate) for the overall design. Typical driving loop:
///
/// ```
/// use desim::{Engine, SimTime, Dur};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut eng = Engine::new();
/// eng.schedule_in(Dur::from_ns(5), Ev::Pong);
/// eng.schedule_in(Dur::from_ns(2), Ev::Ping);
///
/// let (t1, e1) = eng.pop().unwrap();
/// assert_eq!((t1, e1), (SimTime::from_ns(2), Ev::Ping));
/// let (t2, e2) = eng.pop().unwrap();
/// assert_eq!((t2, e2), (SimTime::from_ns(5), Ev::Pong));
/// assert!(eng.pop().is_none());
/// ```
pub struct Engine<E> {
    now: SimTime,
    /// Slot ids ordered as a 4-ary min-heap on `(at, seq)`.
    heap: Vec<u32>,
    /// Slab backing the heap; holds every slot ever allocated.
    slots: Vec<Slot<E>>,
    /// Head of the freed-slot list threaded through `Slot::pos`.
    free_head: u32,
    next_seq: u64,
    stats: EngineStats,
    /// Sift by swapping (the reference the hole sifts are held to).
    #[cfg(test)]
    sift_by_swap: bool,
}

impl<E: std::fmt::Debug> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("queue_len", &self.heap.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            heap: Vec::new(),
            slots: Vec::new(),
            free_head: NIL,
            next_seq: 0,
            stats: EngineStats::default(),
            #[cfg(test)]
            sift_by_swap: false,
        }
    }

    /// Current virtual time. Advances only inside [`Engine::pop`].
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (`at < self.now()`); delivering events
    /// out of time order would corrupt every model built on the engine.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc(at, seq, event);
        let key = EventKey::new(slot, self.slots[slot as usize].gen);
        let pos = self.heap.len();
        self.heap.push(slot);
        self.slots[slot as usize].pos = pos as u32;
        self.sift_up(pos);
        self.stats.scheduled += 1;
        self.stats.max_queue_len = self.stats.max_queue_len.max(self.heap.len());
        key
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Dur, event: E) -> EventKey {
        self.schedule(self.now + delay, event)
    }

    /// Schedules `event` at the current instant, after all events already
    /// scheduled for this instant.
    pub fn schedule_now(&mut self, event: E) -> EventKey {
        self.schedule(self.now, event)
    }

    /// Cancels a pending event, removing it from the queue outright.
    /// Returns `true` only if the event had been scheduled and not yet
    /// delivered or cancelled. O(log n).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let Some(slot) = self.live_slot(key) else {
            return false; // unknown, already delivered, or already cancelled
        };
        let pos = self.slots[slot as usize].pos as usize;
        self.remove_at(pos);
        self.free(slot);
        self.stats.cancelled += 1;
        true
    }

    /// Re-aims a pending event at a new time, in place: the event keeps
    /// its key and payload but moves to `at`, taking a **fresh** sequence
    /// number — a rescheduled event orders after everything already
    /// scheduled for the same instant, exactly as if it had been
    /// cancelled and rescheduled, without the allocation or the second
    /// key. Returns `false` (and changes nothing, consuming no sequence
    /// number) if the key is unknown, delivered, or cancelled.
    ///
    /// # Panics
    /// Panics if `at` is in the past, like [`Engine::schedule`].
    pub fn reschedule(&mut self, key: EventKey, at: SimTime) -> bool {
        let Some(slot) = self.live_slot(key) else {
            return false;
        };
        assert!(
            at >= self.now,
            "rescheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = &mut self.slots[slot as usize];
        s.at = at;
        s.seq = seq;
        let pos = s.pos as usize;
        // A fresh seq can only order the entry later among equals, but
        // the new time can move it either way: re-sift both directions.
        let up = self.sift_up(pos);
        if up == pos {
            self.sift_down(pos);
        }
        self.stats.rescheduled += 1;
        true
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when no events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let &slot = self.heap.first()?;
        self.remove_at(0);
        let s = &mut self.slots[slot as usize];
        let at = s.at;
        let event = s.event.take().expect("pending slot holds an event");
        debug_assert!(at >= self.now, "event queue went backwards");
        self.free(slot);
        self.now = at;
        self.stats.delivered += 1;
        Some((at, event))
    }

    /// Timestamp of the next pending event without delivering it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&s| self.slots[s as usize].at)
    }

    /// True when no deliverable events remain.
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events. Cancelled events are removed outright,
    /// so this is exact.
    pub fn queue_len(&self) -> usize {
        self.heap.len()
    }

    /// Lifetime counters for this engine.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Advances the clock to `t` without delivering events.
    ///
    /// # Panics
    /// Panics if a pending event is scheduled before `t` (skipping it would
    /// break causality) or if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "advance_to into the past");
        if let Some(next) = self.peek_time() {
            assert!(
                next >= t,
                "advance_to({t:?}) would skip a pending event at {next:?}"
            );
        }
        self.now = t;
    }

    /// Resolves a key to its slot id iff the slot is still pending and
    /// the generations match (i.e. the key is not stale).
    fn live_slot(&self, key: EventKey) -> Option<u32> {
        let slot = key.slot();
        let s = self.slots.get(slot as usize)?;
        (s.gen == key.gen() && s.event.is_some()).then_some(slot)
    }

    /// Takes a slot from the free list or grows the slab.
    fn alloc(&mut self, at: SimTime, seq: u64, event: E) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            self.free_head = s.pos;
            s.at = at;
            s.seq = seq;
            s.event = Some(event);
            slot
        } else {
            self.slots.push(Slot {
                gen: 0,
                pos: NIL,
                at,
                seq,
                event: Some(event),
            });
            (self.slots.len() - 1) as u32
        }
    }

    /// Returns a slot to the free list, invalidating outstanding keys.
    fn free(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.event = None;
        s.gen = s.gen.wrapping_add(1);
        s.pos = self.free_head;
        self.free_head = slot;
    }

    /// Slot `slot`'s `(at, seq)` as one integer: `u128` order is the
    /// lexicographic order of the pair.
    #[inline]
    fn key(&self, slot: u32) -> u128 {
        let s = &self.slots[slot as usize];
        (u128::from(s.at.as_ps()) << 64) | u128::from(s.seq)
    }

    /// Writes `slot` into heap position `pos`, back-pointer included.
    #[inline]
    fn place(&mut self, pos: usize, slot: u32) {
        self.heap[pos] = slot;
        self.slots[slot as usize].pos = pos as u32;
    }

    /// Removes the heap entry at `pos`, filling the hole with the last
    /// entry and re-sifting it. Does not touch the removed slot itself.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        if pos == last {
            self.heap.pop();
            return;
        }
        let moved = self.heap[last];
        self.place(pos, moved);
        self.heap.pop();
        let up = self.sift_up(pos);
        if up == pos {
            self.sift_down(pos);
        }
    }

    /// Restores the heap property upward from `pos`; returns the entry's
    /// final position. One comparison per level looked at, as a swap per
    /// level would make.
    fn sift_up(&mut self, mut pos: usize) -> usize {
        #[cfg(test)]
        if self.sift_by_swap {
            return self.sift_up_by_swap(pos);
        }
        let moving = self.heap[pos];
        let key = self.key(moving);
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            let above = self.heap[parent];
            self.stats.comparisons += 1;
            if key >= self.key(above) {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, moving);
        pos
    }

    /// Restores the heap property downward from `pos`. Each level costs
    /// one comparison per child beyond the first to find the least, and
    /// one of the least against the moving entry.
    fn sift_down(&mut self, mut pos: usize) {
        #[cfg(test)]
        if self.sift_by_swap {
            return self.sift_down_by_swap(pos);
        }
        let len = self.heap.len();
        let moving = self.heap[pos];
        let key = self.key(moving);
        loop {
            let first = ARITY * pos + 1;
            if first >= len {
                break;
            }
            let end = (first + ARITY).min(len);
            let mut best = first;
            let mut best_key = self.key(self.heap[first]);
            for child in first + 1..end {
                let k = self.key(self.heap[child]);
                if k < best_key {
                    (best, best_key) = (child, k);
                }
            }
            self.stats.comparisons += (end - first) as u64;
            if best_key >= key {
                break;
            }
            self.place(pos, self.heap[best]);
            pos = best;
        }
        self.place(pos, moving);
    }
}

/// The sifts as they were before the hole: one `swap` per level, every
/// comparison through `before`. Kept as the reference the lockstep test
/// holds the hole sifts to — same heap, same back-pointers, same
/// [`EngineStats::comparisons`] after every operation.
#[cfg(test)]
impl<E> Engine<E> {
    /// Whether slot `a` orders strictly before slot `b`.
    fn before(&mut self, a: u32, b: u32) -> bool {
        self.stats.comparisons += 1;
        let sa = &self.slots[a as usize];
        let sb = &self.slots[b as usize];
        (sa.at, sa.seq) < (sb.at, sb.seq)
    }

    fn sift_up_by_swap(&mut self, mut pos: usize) -> usize {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if !self.before(self.heap[pos], self.heap[parent]) {
                break;
            }
            self.swap(pos, parent);
            pos = parent;
        }
        pos
    }

    fn sift_down_by_swap(&mut self, mut pos: usize) {
        loop {
            let first = ARITY * pos + 1;
            if first >= self.heap.len() {
                return;
            }
            let end = (first + ARITY).min(self.heap.len());
            let mut best = first;
            for child in first + 1..end {
                if self.before(self.heap[child], self.heap[best]) {
                    best = child;
                }
            }
            if !self.before(self.heap[best], self.heap[pos]) {
                return;
            }
            self.swap(pos, best);
            pos = best;
        }
    }

    /// Swaps two heap entries, keeping their slots' back-pointers exact.
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slots[self.heap[a] as usize].pos = a as u32;
        self.slots[self.heap[b] as usize].pos = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Ev {
        A,
        B,
        C,
    }

    #[test]
    fn delivers_in_time_order() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_ns(30), Ev::C);
        e.schedule(SimTime::from_ns(10), Ev::A);
        e.schedule(SimTime::from_ns(20), Ev::B);
        assert_eq!(e.pop(), Some((SimTime::from_ns(10), Ev::A)));
        assert_eq!(e.pop(), Some((SimTime::from_ns(20), Ev::B)));
        assert_eq!(e.pop(), Some((SimTime::from_ns(30), Ev::C)));
        assert_eq!(e.pop(), None);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut e = Engine::new();
        let t = SimTime::from_ns(5);
        e.schedule(t, Ev::A);
        e.schedule(t, Ev::B);
        e.schedule(t, Ev::C);
        assert_eq!(e.pop().unwrap().1, Ev::A);
        assert_eq!(e.pop().unwrap().1, Ev::B);
        assert_eq!(e.pop().unwrap().1, Ev::C);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_ns(7), Ev::A);
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime::from_ns(7));
    }

    #[test]
    fn cancel_suppresses_delivery() {
        let mut e = Engine::new();
        let k = e.schedule(SimTime::from_ns(1), Ev::A);
        e.schedule(SimTime::from_ns(2), Ev::B);
        assert!(e.cancel(k));
        assert!(!e.cancel(k), "double cancel reports false");
        assert_eq!(e.pop(), Some((SimTime::from_ns(2), Ev::B)));
        assert_eq!(e.pop(), None);
        assert_eq!(e.stats().cancelled, 1);
    }

    #[test]
    fn cancel_unknown_key_is_false() {
        let mut e: Engine<Ev> = Engine::new();
        assert!(!e.cancel(EventKey(42)));
    }

    #[test]
    fn cancel_removes_from_queue_immediately() {
        let mut e = Engine::new();
        let keys: Vec<_> = (0..100u64)
            .map(|i| e.schedule(SimTime::from_ns(i), Ev::A))
            .collect();
        for k in &keys[1..] {
            e.cancel(*k);
        }
        assert_eq!(e.queue_len(), 1, "cancelled events leave no dead weight");
        assert_eq!(e.pop(), Some((SimTime::ZERO, Ev::A)));
    }

    #[test]
    fn stale_key_cannot_alias_a_recycled_slot() {
        let mut e = Engine::new();
        let k1 = e.schedule(SimTime::from_ns(1), Ev::A);
        e.cancel(k1);
        // The freed slot is recycled for the next schedule; the stale
        // key must not cancel or reschedule the new occupant.
        let _k2 = e.schedule(SimTime::from_ns(2), Ev::B);
        assert!(!e.cancel(k1));
        assert!(!e.reschedule(k1, SimTime::from_ns(9)));
        assert_eq!(e.pop(), Some((SimTime::from_ns(2), Ev::B)));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut e = Engine::new();
        let k = e.schedule(SimTime::from_ns(1), Ev::A);
        e.schedule(SimTime::from_ns(9), Ev::B);
        e.cancel(k);
        assert_eq!(e.peek_time(), Some(SimTime::from_ns(9)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_ns(10), Ev::A);
        e.pop();
        e.schedule(SimTime::from_ns(5), Ev::B);
    }

    #[test]
    fn schedule_now_runs_after_existing_same_instant_events() {
        let mut e = Engine::new();
        e.schedule(SimTime::ZERO, Ev::A);
        e.schedule_now(Ev::B);
        assert_eq!(e.pop().unwrap().1, Ev::A);
        assert_eq!(e.pop().unwrap().1, Ev::B);
    }

    #[test]
    fn reschedule_moves_delivery() {
        let mut e = Engine::new();
        let k = e.schedule(SimTime::from_ns(10), Ev::A);
        e.schedule(SimTime::from_ns(20), Ev::B);
        assert!(e.reschedule(k, SimTime::from_ns(30)));
        assert_eq!(e.pop(), Some((SimTime::from_ns(20), Ev::B)));
        assert_eq!(e.pop(), Some((SimTime::from_ns(30), Ev::A)));
        assert_eq!(e.stats().rescheduled, 1);
    }

    #[test]
    fn reschedule_orders_after_same_instant_events() {
        // A rescheduled event takes a fresh seq: re-aiming A onto B's
        // instant delivers B first, exactly as cancel + schedule would.
        let mut e = Engine::new();
        let k = e.schedule(SimTime::from_ns(5), Ev::A);
        e.schedule(SimTime::from_ns(7), Ev::B);
        assert!(e.reschedule(k, SimTime::from_ns(7)));
        assert_eq!(e.pop().unwrap().1, Ev::B);
        assert_eq!(e.pop().unwrap().1, Ev::A);
    }

    #[test]
    fn reschedule_dead_key_is_false() {
        let mut e = Engine::new();
        let k = e.schedule(SimTime::from_ns(1), Ev::A);
        e.pop();
        assert!(!e.reschedule(k, SimTime::from_ns(5)), "delivered");
        let k2 = e.schedule(SimTime::from_ns(2), Ev::B);
        e.cancel(k2);
        assert!(!e.reschedule(k2, SimTime::from_ns(5)), "cancelled");
        assert_eq!(e.stats().rescheduled, 0);
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut e: Engine<Ev> = Engine::new();
        e.advance_to(SimTime::from_us(3));
        assert_eq!(e.now(), SimTime::from_us(3));
    }

    #[test]
    #[should_panic(expected = "skip a pending event")]
    fn advance_past_pending_event_panics() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_ns(5), Ev::A);
        e.advance_to(SimTime::from_ns(6));
    }

    #[test]
    fn stats_track_counts() {
        let mut e = Engine::new();
        for i in 0..10u64 {
            e.schedule(SimTime::from_ns(i), Ev::A);
        }
        let k = e.schedule(SimTime::from_ns(100), Ev::B);
        e.cancel(k);
        while e.pop().is_some() {}
        let s = e.stats();
        assert_eq!(s.scheduled, 11);
        assert_eq!(s.delivered, 10);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.max_queue_len, 11);
        assert!(s.comparisons > 0);
        assert!(s.comparisons_per_pop() > 0.0);
    }

    /// Exhaustive-ish churn over a few hundred ops: the slab free list,
    /// generation bumps, and back-pointers must stay consistent under
    /// interleaved schedule/cancel/reschedule/pop.
    #[test]
    fn slab_survives_interleaved_churn() {
        let mut e = Engine::new();
        let mut keys = Vec::new();
        let mut x = 7u64;
        for step in 0..600u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = e.now() + Dur::from_ps(1 + (x >> 33) % 1000);
            match step % 5 {
                0 | 1 => keys.push(e.schedule(at, Ev::A)),
                2 => {
                    if let Some(k) = keys.pop() {
                        e.cancel(k);
                    }
                }
                3 => {
                    if let Some(k) = keys.last() {
                        e.reschedule(*k, at);
                    }
                }
                _ => {
                    e.pop();
                }
            }
            // The live count is exactly the heap length, and every live
            // slot's back-pointer must point at its heap entry.
            for (i, &slot) in e.heap.iter().enumerate() {
                assert_eq!(e.slots[slot as usize].pos as usize, i);
                assert!(e.slots[slot as usize].event.is_some());
            }
        }
        while e.pop().is_some() {}
        assert!(e.is_idle());
    }

    /// Two engines side by side, one sifting through a hole and one by
    /// swapping: the same heap, back-pointers, free list and counters.
    fn in_lockstep(hole: &Engine<u32>, swap: &Engine<u32>) -> Result<(), TestCaseError> {
        prop_assert_eq!(hole.stats(), swap.stats());
        // First difference only: at depth 1500 the arrays are pages long.
        prop_assert_eq!(hole.heap.len(), swap.heap.len());
        let heap_diff = (0..hole.heap.len()).find(|&i| hole.heap[i] != swap.heap[i]);
        prop_assert_eq!(heap_diff, None, "heap arrays differ at this position");
        prop_assert_eq!(hole.slots.len(), swap.slots.len());
        let pos_diff = (0..hole.slots.len()).find(|&i| hole.slots[i].pos != swap.slots[i].pos);
        prop_assert_eq!(pos_diff, None, "this slot's back-pointer differs");
        Ok(())
    }

    proptest! {
        /// The hole sifts against the swap sifts they replaced, through any
        /// mix of schedule / schedule_now / cancel / reschedule / pop, on
        /// queues that start just under and just over one, two and three
        /// full levels of the 4-ary heap (4, 16, 64) and the 1500-deep
        /// queue of the paper-scale run. `EngineStats` carries
        /// `comparisons`, so a sift that looks at one child more or fewer
        /// fails here by count.
        #[test]
        fn lockstep_hole_sifts_match_swap_sifts(
            depth in 0usize..8,
            ops in prop::collection::vec((0u8..8, 0u64..2000, 0usize..4096), 1..400),
        ) {
            let mut hole: Engine<u32> = Engine::new();
            let mut swap: Engine<u32> = Engine::new();
            swap.sift_by_swap = true;
            let mut keys = Vec::new();
            let mut next = 0u32;
            // A scrambled prefill, so the heap is not already sorted.
            for i in 0..[2u64, 6, 13, 19, 61, 67, 1490, 1510][depth] {
                let at = SimTime::from_ps(i.wrapping_mul(2654435761) % 1900);
                let k = hole.schedule(at, next);
                prop_assert_eq!(k, swap.schedule(at, next));
                keys.push(k);
                next += 1;
                in_lockstep(&hole, &swap)?;
            }
            for (op, dt, pick) in ops {
                let at = hole.now() + Dur::from_ps(dt);
                let key = (!keys.is_empty()).then(|| pick % keys.len());
                match (op, key) {
                    (0 | 1, _) | (_, None) => {
                        let k = hole.schedule(at, next);
                        prop_assert_eq!(k, swap.schedule(at, next));
                        keys.push(k);
                        next += 1;
                    }
                    (2, _) => {
                        let k = hole.schedule_now(next);
                        prop_assert_eq!(k, swap.schedule_now(next));
                        keys.push(k);
                        next += 1;
                    }
                    (3, Some(i)) => {
                        let k = keys.swap_remove(i);
                        prop_assert_eq!(hole.cancel(k), swap.cancel(k));
                    }
                    // Keys of delivered events stay in `keys`, so stale
                    // ones are re-aimed (and refused) too.
                    (4 | 5, Some(i)) => {
                        prop_assert_eq!(hole.reschedule(keys[i], at), swap.reschedule(keys[i], at));
                    }
                    _ => prop_assert_eq!(hole.pop(), swap.pop()),
                }
                in_lockstep(&hole, &swap)?;
            }
            while let Some(ev) = hole.pop() {
                prop_assert_eq!(Some(ev), swap.pop());
                in_lockstep(&hole, &swap)?;
            }
            prop_assert!(swap.is_idle());
        }
    }
}
