//! The processor-sharing warp execution engine.
//!
//! Each SMM executes its *running* warps under a bounded fair-share model.
//! A warp alone on an SMM cannot issue faster than its own dependency/
//! latency structure allows (one warp-instruction per `CPI` cycles); the SMM
//! as a whole cannot issue more than `issue_width` warp-instructions per
//! cycle. With `W` running warps, each executes at
//!
//! ```text
//! rate = min( 32·f / CPI ,  issue_width·32·f / W )   thread-instr / s
//! ```
//!
//! This is the minimal model that reproduces the paper's utilization story:
//! a narrow task's few warps leave the SMM latency-bound (adding warps is
//! free), while a full complement of 64 warps saturates issue bandwidth.
//! Unused share of latency-bound warps is *not* redistributed to others —
//! a deliberate simplification that slightly underestimates mixed-CPI
//! throughput and affects all runtimes equally.
//!
//! Completion times are predicted per SMM and re-predicted whenever the
//! running set changes (warp assigned, finished, blocked on or released
//! from a barrier). Between events, remaining work decreases linearly, so
//! prediction is exact.
//!
//! # What is stored where
//!
//! A *context* (`WarpCtx`, named by a [`WarpHandle`]) stands for `k ≥ 1`
//! warps that always do the same thing: a persistent warp is a context
//! of one, and each run of identical warps of a native threadblock
//! ([`BlockWork::runs`](crate::work::BlockWork::runs)) is one context of
//! the run's length ([`ExecState::create_warps`]). The `k` warps are
//! assigned the same work at the same instant on the same SMM, so under
//! processor sharing they run at one rate, arrive at each barrier
//! together and finish at one instant; the engine does their work once.
//! What it still does per warp is what is observable per warp: `W` in
//! the rate formula counts warps, a barrier arrival counts `k`, and a
//! finishing context queues `k` completions.
//!
//! The three per-event passes (advance, find exhausted, predict) touch
//! only an SMM's *running* contexts, so their state lives densely in the
//! SMM's `SmExec::run`: one 24-byte `RunSlot` per running *trajectory*
//! — remaining thread-instructions, latency-bound rate, first member —
//! and `SmExec::n_warps` sums the running contexts' warp counts. Under
//! processor sharing every running warp advances at `min(rs, cap)` with
//! one `cap`, so contexts whose `rem` and `rs` are bit-equal stay
//! bit-equal until their segment runs out: Pagoda's executor warps
//! handed one threadblock's work at one instant, or a block's contexts
//! released from one barrier into equal segments. A context entering
//! the running set joins the *last* slot if that slot's pair is
//! bit-equal to its own (`to_bits`), else opens a new one; a slot's
//! members are a list threaded through `WarpCtx::next`, so joining
//! allocates nothing. A slot lives until its segment is exhausted; then
//! it dissolves and each member is settled on its own. The arena keeps
//! everything else (segments, barrier group, tag, member link). A
//! context's remaining work exists only while it runs; one at a barrier
//! or idle has none. Retired contexts' arena slots are reused, so an
//! engine that places and retires threadblocks forever holds as many
//! contexts as were ever live at once.
//!
//! # Order
//!
//! Completions found at one instant are settled in warp *creation*
//! order, as if each warp settled alone — a dissolved slot's members
//! are sorted with every other exhausted context: each context keeps the
//! creation sequence `seq` of its first warp and takes `k` numbers, so
//! contexts cover disjoint ranges, and sorting them by `seq` orders
//! their warps as sorting the warps one by one would. The handle (an
//! arena slot, reused) says nothing about age. Settling a context at
//! once is settling its `k` warps back to back: until the last of them
//! has moved, the others still count as unarrived at the group's
//! barrier, so no barrier releases in between (a block's warps share
//! their barrier count, which [`BlockWork`](crate::work::BlockWork)
//! enforces). The lockstep tests in `exec/reference.rs` hold this
//! engine to a warp-by-warp one.
//!
//! `SmExec::pred` keeps the SMM's last prediction — the minimum quotient
//! and the largest latency-bound rate over `run` — so that the 2nd…nth
//! context assigned at one instant folds one quotient into it instead of
//! re-walking the set. It is valid only while nothing it was computed
//! from has changed: it is dropped when time passes, when a context
//! leaves, when a running context enters a new compute segment, and on a
//! push after which some warp is (or was) issue-bound — the fair-share
//! cap falls on every push, so the rule is `max rs ≤ cap_new`; then every
//! rate was and stays `rs_i`, no existing quotient moves, and the
//! minimum of the quotients is exact in whatever order it is taken. A
//! push of `k` warps folds exactly when `k` pushes of one would all
//! have: the caps fall monotonically, so the last push's test implies
//! the others.

use desim::SimTime;
use gpu_arch::{GpuSpec, WARP_SIZE};

use crate::work::{assert_cpi, Segment, WarpWork};

/// Handle to a warp context (one warp, or a run of identical warps; see
/// the module doc). Stable until the context is retired; the slot it
/// names is then reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WarpHandle(pub(crate) u32);

/// Handle to a barrier group (the set of warps that synchronize together —
/// a hardware threadblock, or a Pagoda task-threadblock inside an MTB).
/// Group slots are recycled; `gen` tells a handle from its slot's earlier
/// tenants, so a stale one is caught instead of releasing a stranger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId {
    slot: u32,
    gen: u32,
}

/// Ends a [`RunSlot`]'s member list.
const NO_WARP: u32 = u32::MAX;

/// Remaining-work threshold below which a warp counts as finished
/// (thread-instructions). Absorbs floating-point dust from rate arithmetic.
const EPS: f64 = 1e-3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpState {
    /// No assignment; consumes no issue bandwidth (an executor warp spinning
    /// on its `exec` flag, or a retired-but-not-freed native warp).
    Idle,
    /// Executing a compute segment; member of a slot of the SMM running
    /// set.
    Running,
    /// Its compute segment ran out and its slot dissolved: still counted
    /// in the SMM's `n_warps`, waiting for
    /// [`ExecState::process_completions`] to settle it.
    Exhausted,
    /// Arrived at a barrier, waiting for the rest of its group.
    AtBarrier,
}

#[derive(Debug)]
struct WarpCtx {
    sm: u32,
    /// Warps this context stands for.
    k: u32,
    /// Creation sequence of the context's first warp; its warps hold
    /// `seq..seq + k`.
    seq: u64,
    state: WarpState,
    segments: Vec<Segment>,
    /// Index of the current segment.
    cur: usize,
    /// The next member of this context's [`RunSlot`] (`NO_WARP` ends the
    /// list); meaningful only while `state` is `Running`.
    next: u32,
    cpi: f64,
    /// Latency-bound issue rate for the current assignment,
    /// thread-instructions per picosecond (`32·f / CPI`, precomputed at
    /// assign time so the advance loop does no divisions). Copied into
    /// the context's [`RunSlot`] each time it enters the running set.
    r_single: f64,
    group: Option<GroupId>,
    /// Caller correlation tag for the current assignment.
    tag: u64,
    /// Live (not retired).
    alive: bool,
}

impl WarpCtx {
    /// An idle, live context of `k` warps whose first was created
    /// `seq`-th, reusing `segments`' capacity.
    fn fresh(sm: u32, k: u32, seq: u64, segments: Vec<Segment>) -> Self {
        WarpCtx {
            sm,
            k,
            seq,
            state: WarpState::Idle,
            segments,
            cur: 0,
            next: NO_WARP,
            cpi: 1.0,
            r_single: 0.0,
            group: None,
            tag: 0,
            alive: true,
        }
    }
}

#[derive(Debug)]
struct GroupCtx {
    /// Empty while the slot waits in `free_groups` (its capacity is kept
    /// for the next tenant).
    members: Vec<WarpHandle>,
    /// Warps over all members.
    warps: u32,
    /// Members currently waiting at the barrier.
    arrived: u32,
    /// Members that have completed their current assignment.
    finished: u32,
    /// Bumped at every release; a live [`GroupId`] carries the current one.
    gen: u32,
}

/// One running trajectory's share of the per-event passes, 24 bytes:
/// the running contexts whose `rem` and `rs` are bit-equal (see the
/// module doc).
#[derive(Debug, Clone, Copy)]
struct RunSlot {
    /// Thread-instructions left in the current compute segment, per warp.
    rem: f64,
    /// The members' `r_single`.
    rs: f64,
    /// First member; the others follow `WarpCtx::next`.
    head: WarpHandle,
}

/// An SMM's kept prediction: `min_i max(rem_i, 0) / min(rs_i, cap)` and
/// `max_i rs_i` over its running set.
#[derive(Debug, Clone, Copy)]
struct Pred {
    best: f64,
    max_rs: f64,
}

#[derive(Debug, Default)]
struct SmExec {
    /// The running set, one slot per trajectory, in the order the slots
    /// opened (a context joins the last or pushes a new one; an exhausted
    /// slot is removed in place).
    run: Vec<RunSlot>,
    /// Running warps: the `k`s over `run`.
    n_warps: u32,
    /// The prediction over `run` as it stands, or `None` once anything it
    /// was computed from has changed (see the module doc for the rule).
    pred: Option<Pred>,
    /// Scratch for [`ExecState::process_completions`]: the members of
    /// exhausted slots, by creation sequence. Empty between calls.
    exhausted: Vec<(u64, WarpHandle)>,
    last_advance: SimTime,
    /// Fair-share issue cap per running warp, thread-instructions per
    /// picosecond — `issue_width·32·f / n_warps`, refreshed whenever
    /// the running set changes so the advance and prediction loops
    /// never recompute the denominator. Infinite while nothing runs.
    cap: f64,
    /// Integral of |running| over time, warp·ps.
    running_integral: f64,
    /// Time with ≥1 running warp, ps.
    busy_ps: u64,
}

/// Utilization integrals for one SMM (or summed over the device).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ExecStats {
    /// ∫ |running warps| dt, in warp·picoseconds.
    pub running_warp_ps: f64,
    /// Time with at least one running warp, picoseconds.
    pub busy_ps: u64,
}

impl SmExec {
    /// Puts context `w` (`ctx`) into the running set with `rem` per warp
    /// at its `r_single`: into the last slot if that slot's pair is
    /// bit-equal, else into a new one.
    fn join(&mut self, w: WarpHandle, ctx: &mut WarpCtx, rem: f64) {
        ctx.state = WarpState::Running;
        let rs = ctx.r_single;
        match self.run.last_mut() {
            Some(s) if s.rem.to_bits() == rem.to_bits() && s.rs.to_bits() == rs.to_bits() => {
                ctx.next = s.head.0;
                s.head = w;
            }
            _ => {
                ctx.next = NO_WARP;
                self.run.push(RunSlot { rem, rs, head: w });
            }
        }
    }
}

/// All execution state: context arena, barrier groups, per-SMM engines.
#[derive(Debug)]
pub struct ExecState {
    warps: Vec<WarpCtx>,
    /// Retired slots of `warps`, reused last-retired-first, so `warps` is
    /// as long as the most contexts ever live at once.
    free_warps: Vec<u32>,
    /// Warps created so far: the next context's `seq`.
    next_seq: u64,
    groups: Vec<GroupCtx>,
    /// Released slots of `groups`, reused last-released-first, so `groups`
    /// is as long as the most groups ever live at once.
    free_groups: Vec<u32>,
    sms: Vec<SmExec>,
    /// `issue_width·32·f / 1000`: the SMM issue bandwidth in
    /// thread-instructions per picosecond, the numerator of every
    /// fair-share cap. Evaluated in the same operation order the inline
    /// expression used, so cached rates stay bit-identical.
    cap_base: f64,
    /// `32·f`: numerator of the latency-bound per-warp rate.
    rs_base: f64,
    /// Warps finished since the last [`ExecState::drain_finished`] (or
    /// [`ExecState::swap_finished`]) call, as `(warp, tag)` in completion
    /// order.
    finished: Vec<(WarpHandle, u64)>,
}

impl ExecState {
    pub fn new(spec: &GpuSpec) -> Self {
        ExecState {
            warps: Vec::new(),
            free_warps: Vec::new(),
            next_seq: 0,
            groups: Vec::new(),
            free_groups: Vec::new(),
            sms: (0..spec.num_sms).map(|_| SmExec::default()).collect(),
            cap_base: spec.issue_width() as f64 * WARP_SIZE as f64 * spec.clock_ghz / 1000.0,
            rs_base: WARP_SIZE as f64 * spec.clock_ghz,
            finished: Vec::new(),
        }
    }

    /// Creates an idle warp resident on `sm`.
    pub fn create_warp(&mut self, sm: u32) -> WarpHandle {
        self.create_warps(sm, 1)
    }

    /// Creates `k` idle warps resident on `sm` as one context: every
    /// assignment gives all of them the same work, they run as one entry,
    /// and each reports its own completion (`k` queued under the one
    /// handle). The warps count as created one after another, now.
    /// Reuses a retired context's slot and segment buffer if there is
    /// one.
    pub fn create_warps(&mut self, sm: u32, k: u32) -> WarpHandle {
        assert!((sm as usize) < self.sms.len(), "SM index out of range");
        assert!(k > 0, "a context of zero warps");
        let seq = self.next_seq;
        self.next_seq += u64::from(k);
        match self.free_warps.pop() {
            Some(slot) => {
                let ctx = &mut self.warps[slot as usize];
                let segments = std::mem::take(&mut ctx.segments);
                *ctx = WarpCtx::fresh(sm, k, seq, segments);
                WarpHandle(slot)
            }
            None => {
                self.warps.push(WarpCtx::fresh(sm, k, seq, Vec::new()));
                WarpHandle(self.warps.len() as u32 - 1)
            }
        }
    }

    /// Retires a context. It must be idle (hardware cannot reclaim a warp
    /// slot mid-flight). Its slot, with its segment buffer's capacity, goes
    /// to the next context created.
    pub fn retire_warp(&mut self, w: WarpHandle) {
        let ctx = &mut self.warps[w.0 as usize];
        assert!(ctx.alive, "double retire of {w:?}");
        assert_eq!(ctx.state, WarpState::Idle, "retiring a non-idle warp");
        ctx.alive = false;
        ctx.group = None;
        ctx.segments.clear();
        self.free_warps.push(w.0);
    }

    /// Context slots allocated so far: the most contexts that were ever
    /// live at once.
    #[cfg(test)]
    pub(crate) fn warp_slots(&self) -> usize {
        self.warps.len()
    }

    /// SMM a warp resides on.
    pub fn warp_sm(&self, w: WarpHandle) -> u32 {
        self.warps[w.0 as usize].sm
    }

    /// Creates a barrier group over `members` (every warp of each
    /// context). All members must reside on the same SMM (groups model
    /// intra-threadblock synchronization).
    pub fn create_group(&mut self, members: &[WarpHandle]) -> GroupId {
        assert!(!members.is_empty(), "empty barrier group");
        let sm = self.warps[members[0].0 as usize].sm;
        let mut warps = 0;
        for m in members {
            let c = &self.warps[m.0 as usize];
            assert!(c.alive, "group member {m:?} is retired");
            assert_eq!(c.sm, sm, "barrier group spans SMMs");
            warps += c.k;
        }
        let slot = self.free_groups.pop().unwrap_or_else(|| {
            self.groups.push(GroupCtx {
                members: Vec::new(),
                warps: 0,
                arrived: 0,
                finished: 0,
                gen: 0,
            });
            self.groups.len() as u32 - 1
        });
        let ctx = &mut self.groups[slot as usize];
        ctx.members.extend_from_slice(members);
        ctx.warps = warps;
        let g = GroupId { slot, gen: ctx.gen };
        for m in members {
            let c = &mut self.warps[m.0 as usize];
            assert!(c.group.is_none(), "warp {m:?} already in a group");
            c.group = Some(g);
        }
        g
    }

    /// Barrier-group slots allocated so far: the most groups that were ever
    /// live at once.
    pub fn group_slots(&self) -> usize {
        self.groups.len()
    }

    /// Dissolves a group. Every member must have finished its assignment.
    pub fn release_group(&mut self, g: GroupId) {
        let ctx = &mut self.groups[g.slot as usize];
        assert_eq!(ctx.gen, g.gen, "double release of {g:?}");
        assert_eq!(
            ctx.finished, ctx.warps,
            "releasing group with unfinished members"
        );
        ctx.gen = ctx.gen.wrapping_add(1);
        (ctx.arrived, ctx.finished) = (0, 0);
        for m in ctx.members.drain(..) {
            self.warps[m.0 as usize].group = None;
        }
        self.free_groups.push(g.slot);
    }

    /// Assigns `work` to an idle context (to each of its warps) at time
    /// `now`. Completion is reported by [`ExecState::drain_finished`] with
    /// `tag`, once per warp.
    ///
    /// The caller must have advanced the warp's SMM to `now` first (the
    /// device layer does this); the assertion enforces it.
    pub fn assign(&mut self, now: SimTime, w: WarpHandle, work: WarpWork, tag: u64) {
        self.assign_parts(now, w, &work.segments, None, work.cpi, tag);
    }

    /// [`ExecState::assign`] of the work `segments` then `tail` at `cpi`,
    /// borrowed: the segments are copied into the warp's own buffer (kept
    /// from its previous assignments), so a caller whose work lives
    /// elsewhere — a task's kernel, plus an epilogue — builds no
    /// [`WarpWork`] to hand over.
    pub fn assign_parts(
        &mut self,
        now: SimTime,
        w: WarpHandle,
        segments: &[Segment],
        tail: Option<Segment>,
        cpi: f64,
        tag: u64,
    ) {
        assert_cpi(cpi);
        let ctx = &mut self.warps[w.0 as usize];
        assert!(ctx.alive, "assigning to retired warp {w:?}");
        assert_eq!(ctx.state, WarpState::Idle, "warp {w:?} already has work");
        let sm = ctx.sm;
        assert_eq!(
            self.sms[sm as usize].last_advance, now,
            "SM {sm} not advanced to now before assign"
        );
        ctx.segments.clear();
        ctx.segments.extend_from_slice(segments);
        ctx.segments.extend(tail);
        if ctx.segments.contains(&Segment::Barrier) {
            assert!(
                ctx.group.is_some(),
                "work with barriers assigned to warp {w:?} outside any group"
            );
        }
        ctx.cpi = cpi;
        ctx.r_single = self.rs_base / cpi / 1000.0;
        ctx.cur = 0;
        ctx.tag = tag;
        // Enter the first segment (may run, immediately block, or finish).
        self.settle(now, w);
    }

    /// Advances SMM `sm` to `now`, integrating work and utilization.
    pub fn advance_sm(&mut self, sm: u32, now: SimTime) {
        let sme = &mut self.sms[sm as usize];
        let dt = now.saturating_since(sme.last_advance).as_ps();
        sme.last_advance = now;
        if dt == 0 {
            return;
        }
        let nrun = sme.n_warps;
        sme.running_integral += nrun as f64 * dt as f64;
        if nrun > 0 {
            sme.busy_ps += dt;
            sme.pred = None;
            let cap = sme.cap;
            let dt = dt as f64;
            for s in &mut sme.run {
                let rate = if cap < s.rs { cap } else { s.rs };
                s.rem -= rate * dt;
            }
        }
    }

    /// After [`ExecState::advance_sm`], finishes every warp whose current
    /// segment is exhausted, cascading through barrier releases. Finished
    /// assignments are queued for [`ExecState::drain_finished`].
    pub fn process_completions(&mut self, sm: u32, now: SimTime) {
        let sme = &mut self.sms[sm as usize];
        debug_assert_eq!(sme.last_advance, now);
        // Dissolve exhausted slots, collecting their members in
        // deterministic (creation) order.
        let mut exhausted = std::mem::take(&mut sme.exhausted);
        let warps = &mut self.warps;
        sme.run.retain(|s| {
            if s.rem > EPS {
                return true;
            }
            let mut m = s.head.0;
            while m != NO_WARP {
                let c = &mut warps[m as usize];
                c.state = WarpState::Exhausted;
                exhausted.push((c.seq, WarpHandle(m)));
                m = c.next;
            }
            false
        });
        exhausted.sort_unstable();
        for &(_, w) in &exhausted {
            // A cascade settles only contexts at a barrier, so each is
            // still waiting here.
            let c = &mut self.warps[w.0 as usize];
            debug_assert_eq!(c.state, WarpState::Exhausted);
            // `settle` takes the context out of `n_warps` or back into
            // `run`, as the next segment dictates.
            c.cur += 1;
            self.settle(now, w);
        }
        exhausted.clear();
        self.sms[sm as usize].exhausted = exhausted;
    }

    /// Earliest predicted completion on `sm`, given the current running
    /// set. `None` if nothing is running. Recomputes and keeps the SMM's
    /// prediction if the kept one was dropped.
    pub fn next_completion(&mut self, sm: u32, now: SimTime) -> Option<SimTime> {
        let sme = &mut self.sms[sm as usize];
        debug_assert_eq!(sme.last_advance, now);
        if sme.run.is_empty() {
            return None;
        }
        let best = match sme.pred {
            Some(p) => p.best,
            None => {
                // Plain compare-selects (no NaN reaches them): the same
                // values `f64::min`/`max` give, without their NaN fix-ups
                // on the serial chain.
                let cap = sme.cap;
                let mut best = f64::INFINITY;
                let mut max_rs = 0.0;
                for s in &sme.run {
                    let rate = if cap < s.rs { cap } else { s.rs };
                    let rem = if s.rem > 0.0 { s.rem } else { 0.0 };
                    let dt = rem / rate;
                    if dt < best {
                        best = dt;
                    }
                    if s.rs > max_rs {
                        max_rs = s.rs;
                    }
                }
                sme.pred = Some(Pred { best, max_rs });
                best
            }
        };
        // Saturates: a prediction past the end of the clock is
        // `SimTime::MAX`, the instant no run reaches.
        Some(SimTime::from_ps(now.as_ps().saturating_add(ceil_ps(best))))
    }

    /// Number of running warps on `sm`.
    pub fn sm_running(&self, sm: u32) -> u32 {
        self.sms[sm as usize].n_warps
    }

    /// Takes the queue of `(warp, tag)` assignment completions: one per
    /// warp, a context's `k` together under its handle.
    pub fn drain_finished(&mut self) -> Vec<(WarpHandle, u64)> {
        let mut done = Vec::new();
        self.swap_finished(&mut done);
        done
    }

    /// [`ExecState::drain_finished`] into a buffer the caller keeps: the
    /// queue and the empty `spare` trade places, so both keep their
    /// capacity and a completion batch allocates nothing.
    ///
    /// # Panics
    /// Panics if `spare` is not empty (its contents would be reported as
    /// completions at the next call).
    pub fn swap_finished(&mut self, spare: &mut Vec<(WarpHandle, u64)>) {
        assert!(spare.is_empty(), "swapping in a non-empty completion queue");
        std::mem::swap(&mut self.finished, spare);
    }

    /// Whether any completion waits for [`ExecState::drain_finished`].
    pub fn has_finished(&self) -> bool {
        !self.finished.is_empty()
    }

    /// Utilization integrals for one SMM.
    pub fn sm_stats(&self, sm: u32) -> ExecStats {
        let sme = &self.sms[sm as usize];
        ExecStats {
            running_warp_ps: sme.running_integral,
            busy_ps: sme.busy_ps,
        }
    }

    /// Utilization integrals summed over the device.
    pub fn total_stats(&self) -> ExecStats {
        let mut t = ExecStats::default();
        for sm in &self.sms {
            t.running_warp_ps += sm.running_integral;
            t.busy_ps += sm.busy_ps;
        }
        t
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Puts context `w` into its SMM's running set with `n > 0`
    /// thread-instructions per warp to execute, folding its quotient into
    /// the kept prediction when every rate is latency-bound before and
    /// after.
    fn enter_running(&mut self, w: WarpHandle, n: u64) {
        let ctx = &mut self.warps[w.0 as usize];
        let sme = &mut self.sms[ctx.sm as usize];
        let (rem, rs) = (n as f64, ctx.r_single);
        sme.join(w, ctx, rem);
        sme.n_warps += ctx.k;
        let cap = self.cap_base / sme.n_warps as f64;
        sme.cap = cap;
        sme.pred = match sme.pred {
            Some(p) if p.max_rs <= cap && rs <= cap => {
                let dt = rem / rs;
                Some(Pred {
                    best: if dt < p.best { dt } else { p.best },
                    max_rs: if rs > p.max_rs { rs } else { p.max_rs },
                })
            }
            _ => None,
        };
    }

    /// Takes exhausted context `w`, whose slot has dissolved, out of its
    /// SMM's running warps.
    fn leave_running(&mut self, w: WarpHandle) {
        let ctx = &self.warps[w.0 as usize];
        let sme = &mut self.sms[ctx.sm as usize];
        sme.n_warps -= ctx.k;
        sme.pred = None;
        sme.cap = if sme.n_warps == 0 {
            f64::INFINITY
        } else {
            self.cap_base / sme.n_warps as f64
        };
    }

    /// Places warp `w` (whose `cur` points at the segment to enter) into
    /// the right state, cascading zero-length segments, barrier arrivals,
    /// and assignment completion. The warp is `Exhausted` on entry only
    /// when [`ExecState::process_completions`] dissolved its slot.
    fn settle(&mut self, now: SimTime, w: WarpHandle) {
        loop {
            let ctx = &mut self.warps[w.0 as usize];
            match ctx.segments.get(ctx.cur).copied() {
                Some(Segment::Compute(n)) if n > 0 => {
                    if ctx.state == WarpState::Exhausted {
                        // Still counted in `n_warps`: back into `run`.
                        let sme = &mut self.sms[ctx.sm as usize];
                        sme.join(w, ctx, n as f64);
                        sme.pred = None;
                    } else {
                        self.enter_running(w, n);
                    }
                    return;
                }
                Some(Segment::Compute(_)) => {
                    // zero-length: skip
                    ctx.cur += 1;
                }
                Some(Segment::Barrier) => {
                    let (g, k) = (ctx.group.expect("barrier without group"), ctx.k);
                    if ctx.state == WarpState::Exhausted {
                        ctx.state = WarpState::AtBarrier;
                        self.leave_running(w);
                    } else {
                        ctx.state = WarpState::AtBarrier;
                    }
                    self.groups[g.slot as usize].arrived += k;
                    self.maybe_release_barrier(now, g);
                    return;
                }
                None => {
                    // Assignment complete.
                    if ctx.state == WarpState::Exhausted {
                        self.leave_running(w);
                    }
                    let ctx = &mut self.warps[w.0 as usize];
                    ctx.state = WarpState::Idle;
                    let (tag, group, k) = (ctx.tag, ctx.group, ctx.k);
                    self.finished
                        .extend(std::iter::repeat_n((w, tag), k as usize));
                    if let Some(g) = group {
                        self.groups[g.slot as usize].finished += k;
                        self.maybe_release_barrier(now, g);
                    }
                    return;
                }
            }
        }
    }

    /// Releases the group's barrier if every unfinished member has arrived.
    fn maybe_release_barrier(&mut self, now: SimTime, g: GroupId) {
        let ctx = &self.groups[g.slot as usize];
        let expected = ctx.warps - ctx.finished;
        if expected == 0 || ctx.arrived < expected {
            return;
        }
        debug_assert_eq!(ctx.arrived, expected, "more arrivals than members");
        self.groups[g.slot as usize].arrived = 0;
        // Everyone steps past the barrier. `settle` may re-arrive at a
        // following barrier; that recursion terminates because segments are
        // finite and strictly consumed. Members are re-indexed through the
        // group each iteration (instead of iterating a clone) — the member
        // list itself is immutable until `release_group`, which the settle
        // cascade never calls.
        for i in 0..self.groups[g.slot as usize].members.len() {
            let m = self.groups[g.slot as usize].members[i];
            let c = &mut self.warps[m.0 as usize];
            if c.state == WarpState::AtBarrier {
                c.cur += 1;
                self.settle(now, m);
            }
        }
    }
}

/// `x.ceil() as u64` for `x ≥ 0`, saturating at `u64::MAX` as the cast
/// does, without the libm call the baseline x86-64 target makes of
/// `ceil`: truncate, then step up iff that dropped a fraction.
fn ceil_ps(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from((whole as f64) < x))
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::WarpWork;
    use desim::Dur;

    fn titan_exec() -> ExecState {
        ExecState::new(&GpuSpec::titan_x())
    }

    /// Runs the SM until quiescent, returning (time, finished tags).
    fn run_sm(ex: &mut ExecState, sm: u32, mut now: SimTime) -> (SimTime, Vec<u64>) {
        let mut tags = Vec::new();
        while let Some(t) = ex.next_completion(sm, now) {
            ex.advance_sm(sm, t);
            ex.process_completions(sm, t);
            now = t;
            tags.extend(ex.drain_finished().into_iter().map(|(_, tag)| tag));
        }
        (now, tags)
    }

    #[test]
    fn single_warp_latency_bound() {
        // One warp, CPI 4, 32000 thread-instructions = 1000 warp-instrs
        // = 4000 cycles = 4 us at 1 GHz.
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, w, WarpWork::compute(32_000, 4.0), 9);
        let (t, tags) = run_sm(&mut ex, 0, SimTime::ZERO);
        assert_eq!(tags, vec![9]);
        let us = t.as_us_f64();
        assert!((us - 4.0).abs() < 0.01, "took {us}us");
    }

    #[test]
    fn saturated_sm_is_issue_bound() {
        // 64 warps, CPI 1: per-warp cap = 128/64 = 2 lanes-instr/cycle...
        // each warp does 32000 thread-instr. Aggregate = 64*32000 over
        // 128e9/s = 16 us.
        let mut ex = titan_exec();
        ex.advance_sm(0, SimTime::ZERO);
        for i in 0..64 {
            let w = ex.create_warp(0);
            ex.assign(SimTime::ZERO, w, WarpWork::compute(32_000, 1.0), i);
        }
        let (t, tags) = run_sm(&mut ex, 0, SimTime::ZERO);
        assert_eq!(tags.len(), 64);
        let us = t.as_us_f64();
        assert!((us - 16.0).abs() < 0.05, "took {us}us");
    }

    #[test]
    fn few_warps_leave_sm_underutilized() {
        // 8 warps CPI 4 run no slower than 1 warp CPI 4 (latency bound):
        // the narrow-task premise.
        let mut ex = titan_exec();
        ex.advance_sm(0, SimTime::ZERO);
        for i in 0..8 {
            let w = ex.create_warp(0);
            ex.assign(SimTime::ZERO, w, WarpWork::compute(32_000, 4.0), i);
        }
        let (t, _) = run_sm(&mut ex, 0, SimTime::ZERO);
        assert!(
            (t.as_us_f64() - 4.0).abs() < 0.01,
            "took {}us",
            t.as_us_f64()
        );
    }

    #[test]
    fn barrier_synchronizes_group() {
        // Two warps; warp 0 has 10x the work per phase. Both must meet at
        // the barrier, so total time is 2 phases of warp 0's work.
        let mut ex = titan_exec();
        let w0 = ex.create_warp(0);
        let w1 = ex.create_warp(0);
        ex.create_group(&[w0, w1]);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, w0, WarpWork::phased(64_000, 2, 4.0), 0);
        ex.assign(SimTime::ZERO, w1, WarpWork::phased(6_400, 2, 4.0), 1);
        let (t, tags) = run_sm(&mut ex, 0, SimTime::ZERO);
        assert_eq!(tags.len(), 2);
        // warp0: 2 phases x 32000 ti @ CPI4 = 8us total; warp1 waits.
        assert!(
            (t.as_us_f64() - 8.0).abs() < 0.05,
            "took {}us",
            t.as_us_f64()
        );
    }

    #[test]
    fn late_join_increases_completion_time() {
        // Saturate with 64 warps; adding work mid-flight shares issue slots.
        let mut ex = titan_exec();
        ex.advance_sm(0, SimTime::ZERO);
        let warps: Vec<_> = (0..64).map(|_| ex.create_warp(0)).collect();
        for (i, w) in warps.iter().enumerate() {
            ex.assign(SimTime::ZERO, *w, WarpWork::compute(32_000, 1.0), i as u64);
        }
        // Let it run 8us (half way), then drop in nothing; total stays 16us.
        let mid = SimTime::from_us(8);
        ex.advance_sm(0, mid);
        ex.process_completions(0, mid);
        let (t, _) = run_sm(&mut ex, 0, mid);
        assert!((t.as_us_f64() - 16.0).abs() < 0.05);
    }

    #[test]
    fn unequal_warps_finish_shortest_first() {
        // 4 warps CPI 1 (4·32 = 128 lanes = exactly issue width, so every
        // warp stays latency-bound at 32 ti/cycle throughout). Work sizes
        // 1000..4000 ti -> completions at 31.25, 62.5, 93.75, 125 ns.
        let mut ex = titan_exec();
        ex.advance_sm(0, SimTime::ZERO);
        for i in 0..4u64 {
            let w = ex.create_warp(0);
            ex.assign(SimTime::ZERO, w, WarpWork::compute(1000 * (i + 1), 1.0), i);
        }
        let (t, tags) = run_sm(&mut ex, 0, SimTime::ZERO);
        assert_eq!(tags, vec![0, 1, 2, 3], "shortest-first completion order");
        assert!(
            (t.as_ns_f64() - 125.0).abs() < 1.0,
            "took {}ns",
            t.as_ns_f64()
        );
    }

    #[test]
    fn idle_warp_consumes_nothing() {
        let mut ex = titan_exec();
        let _idle = ex.create_warp(0);
        let w = ex.create_warp(0);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, w, WarpWork::compute(3_200, 1.0), 0);
        let (t, _) = run_sm(&mut ex, 0, SimTime::ZERO);
        // 100 warp-instr @ CPI1 = 100 cycles, unaffected by the idle warp.
        assert!((t.as_ns_f64() - 100.0).abs() < 1.0);
    }

    #[test]
    fn reassignment_after_completion() {
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, w, WarpWork::compute(3_200, 1.0), 1);
        let (t1, tags) = run_sm(&mut ex, 0, SimTime::ZERO);
        assert_eq!(tags, vec![1]);
        ex.advance_sm(0, t1);
        ex.assign(t1, w, WarpWork::compute(3_200, 1.0), 2);
        let (t2, tags) = run_sm(&mut ex, 0, t1);
        assert_eq!(tags, vec![2]);
        assert_eq!((t2 - t1).as_ps(), t1.as_ps());
    }

    #[test]
    #[should_panic(expected = "already has work")]
    fn double_assign_panics() {
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, w, WarpWork::compute(100, 1.0), 0);
        ex.assign(SimTime::ZERO, w, WarpWork::compute(100, 1.0), 1);
    }

    #[test]
    #[should_panic(expected = "outside any group")]
    fn barrier_work_requires_group() {
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, w, WarpWork::phased(100, 2, 1.0), 0);
    }

    #[test]
    #[should_panic(expected = "spans SMMs")]
    fn cross_sm_group_rejected() {
        let mut ex = titan_exec();
        let a = ex.create_warp(0);
        let b = ex.create_warp(1);
        ex.create_group(&[a, b]);
    }

    #[test]
    fn group_release_after_all_finish() {
        let mut ex = titan_exec();
        let a = ex.create_warp(0);
        let b = ex.create_warp(0);
        let g = ex.create_group(&[a, b]);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, a, WarpWork::phased(6_400, 2, 1.0), 0);
        ex.assign(SimTime::ZERO, b, WarpWork::phased(6_400, 2, 1.0), 1);
        let (_, tags) = run_sm(&mut ex, 0, SimTime::ZERO);
        assert_eq!(tags.len(), 2);
        ex.release_group(g);
        // Members can join a new group afterwards.
        let g2 = ex.create_group(&[a, b]);
        let _ = g2;
    }

    #[test]
    fn group_slots_are_recycled_and_stale_ids_caught() {
        // Three groups live at a time, 10 000 rounds: three slots.
        let mut ex = titan_exec();
        let warps: Vec<_> = (0..6).map(|_| ex.create_warp(0)).collect();
        let mut now = SimTime::ZERO;
        let mut first = None;
        for round in 0..10_000u64 {
            let groups: Vec<_> = warps.chunks(2).map(|m| ex.create_group(m)).collect();
            first.get_or_insert(groups[0]);
            ex.advance_sm(0, now);
            for (i, &w) in warps.iter().enumerate() {
                ex.assign(
                    now,
                    w,
                    WarpWork::phased(640 * (1 + i as u64), 2, 1.0),
                    round,
                );
            }
            let (t, tags) = run_sm(&mut ex, 0, now);
            assert_eq!(tags.len(), 6);
            now = t;
            for g in groups {
                ex.release_group(g);
            }
        }
        assert_eq!(ex.group_slots(), 3);
        // The first round's handle names a slot that has since had other
        // tenants, one of them live right now.
        let live = ex.create_group(&warps[..2]);
        let stale = first.unwrap();
        assert_eq!(stale.slot, live.slot, "last released, first reused");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ex.release_group(stale);
        }));
        assert!(caught.is_err(), "a stale GroupId released a stranger");
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_group_release_panics() {
        let mut ex = titan_exec();
        let a = ex.create_warp(0);
        let g = ex.create_group(&[a]);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, a, WarpWork::compute(0, 1.0), 0);
        ex.release_group(g);
        ex.release_group(g);
    }

    #[test]
    fn assign_parts_reuses_the_warp_buffer_without_stale_segments() {
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.advance_sm(0, SimTime::ZERO);
        // Long work first: three segments plus a tail.
        let long = [Segment::Compute(3_200); 3];
        ex.assign_parts(
            SimTime::ZERO,
            w,
            &long,
            Some(Segment::Compute(3_200)),
            1.0,
            1,
        );
        let (t1, tags) = run_sm(&mut ex, 0, SimTime::ZERO);
        assert_eq!(tags, vec![1]);
        assert!((t1.as_ns_f64() - 400.0).abs() < 1.0, "{}", t1.as_ns_f64());
        // Shorter work on the same warp, no tail: exactly its own 100 ns,
        // nothing left over from the four segments before.
        ex.advance_sm(0, t1);
        ex.assign_parts(t1, w, &[Segment::Compute(3_200)], None, 1.0, 2);
        let (t2, tags) = run_sm(&mut ex, 0, t1);
        assert_eq!(tags, vec![2]);
        assert_eq!((t2 - t1).as_ps(), t1.as_ps() / 4);
        // A zero-length tail adds nothing; an all-empty assignment
        // finishes on the spot.
        ex.advance_sm(0, t2);
        ex.assign_parts(
            t2,
            w,
            &[Segment::Compute(3_200)],
            Some(Segment::Compute(0)),
            1.0,
            3,
        );
        let (t3, tags) = run_sm(&mut ex, 0, t2);
        assert_eq!(tags, vec![3]);
        assert_eq!(t3 - t2, t2 - t1);
        ex.advance_sm(0, t3);
        ex.assign_parts(t3, w, &[], Some(Segment::Compute(0)), 1.0, 4);
        assert_eq!(ex.drain_finished(), vec![(w, 4)]);
    }

    #[test]
    #[should_panic(expected = "outside any group")]
    fn barrier_tail_requires_group() {
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.advance_sm(0, SimTime::ZERO);
        let work = [Segment::Compute(100)];
        ex.assign_parts(SimTime::ZERO, w, &work, Some(Segment::Barrier), 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "super-scalar fiction")]
    fn assign_parts_rejects_cpi_below_one() {
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign_parts(SimTime::ZERO, w, &[Segment::Compute(100)], None, 0.5, 0);
    }

    #[test]
    fn zero_work_assignment_finishes_immediately() {
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, w, WarpWork::compute(0, 1.0), 5);
        let done = ex.drain_finished();
        assert_eq!(done, vec![(w, 5)]);
        assert!(ex.next_completion(0, SimTime::ZERO).is_none());
    }

    #[test]
    fn utilization_integrals() {
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, w, WarpWork::compute(32_000, 1.0), 0);
        let (t, _) = run_sm(&mut ex, 0, SimTime::ZERO);
        let s = ex.sm_stats(0);
        assert_eq!(s.busy_ps, t.as_ps());
        // 1 warp running the whole time.
        assert!((s.running_warp_ps - t.as_ps() as f64).abs() < 1.0);
        assert_eq!(ex.total_stats().busy_ps, t.as_ps());
    }

    #[test]
    fn retire_requires_idle() {
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.retire_warp(w);
    }

    #[test]
    #[should_panic(expected = "retired warp")]
    fn assign_to_retired_warp_panics() {
        let mut ex = titan_exec();
        let w = ex.create_warp(0);
        ex.retire_warp(w);
        ex.advance_sm(0, SimTime::ZERO);
        ex.assign(SimTime::ZERO, w, WarpWork::compute(1, 1.0), 0);
    }

    #[test]
    fn different_sms_are_independent() {
        let mut ex = titan_exec();
        let a = ex.create_warp(0);
        let b = ex.create_warp(1);
        ex.advance_sm(0, SimTime::ZERO);
        ex.advance_sm(1, SimTime::ZERO);
        ex.assign(SimTime::ZERO, a, WarpWork::compute(32_000, 1.0), 0);
        ex.assign(SimTime::ZERO, b, WarpWork::compute(32_000, 1.0), 1);
        let ta = ex.next_completion(0, SimTime::ZERO).unwrap();
        let tb = ex.next_completion(1, SimTime::ZERO).unwrap();
        assert_eq!(ta, tb, "no cross-SM interference");
        let _ = Dur::ZERO;
    }

    #[test]
    fn ceil_ps_is_ceil() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for x in [
            1.0,
            2.0,
            3.5,
            1e3,
            4_194_303.5,
            1e15,
            2f64.powi(52),
            2f64.powi(53),
            1e18,
        ] {
            for x in [below(x), x, below(x + 1.0), x + 0.5] {
                assert_eq!(ceil_ps(x), x.ceil() as u64, "{x}");
            }
        }
        assert_eq!(ceil_ps(0.0), 0);
        assert_eq!(ceil_ps(f64::MIN_POSITIVE), 1);
        for x in [2f64.powi(64), 1e300, f64::INFINITY] {
            assert_eq!(ceil_ps(x), u64::MAX, "{x}");
        }
    }

    /// Four warps handed one segment at one instant, then parting: `a`
    /// waits at a barrier for `e`, `b` and `d` go on computing, `c`
    /// completes. Every step's completions, running count and next
    /// instant, and the most contexts a slot held once all were assigned.
    fn four_warps_parting(interleave: bool) -> (Vec<(SimTime, Vec<u64>, u32)>, usize) {
        let mut ex = titan_exec();
        // Retired newest-first, so `a`..`d` take handles 3..0: creation
        // order is neither handle order nor the slot's member order.
        let old: Vec<_> = (0..4).map(|_| ex.create_warp(0)).collect();
        old.into_iter().for_each(|w| ex.retire_warp(w));
        let [a, b, c, d, e] = [(); 5].map(|()| ex.create_warp(0));
        assert_eq!((a.0, d.0), (3, 0));
        let others: Vec<_> = (0..3).map(|_| ex.create_warp(0)).collect();
        ex.create_group(&[a, e]);
        let t0 = SimTime::ZERO;
        ex.advance_sm(0, t0);
        let phased = |first, then| WarpWork {
            segments: vec![
                Segment::Compute(first),
                Segment::Barrier,
                Segment::Compute(then),
            ],
            cpi: 2.0,
        };
        let two = WarpWork {
            segments: vec![Segment::Compute(3_200), Segment::Compute(6_400)],
            cpi: 2.0,
        };
        let four = [
            (a, phased(3_200, 1_600)),
            (b, two.clone()),
            (c, WarpWork::compute(3_200, 2.0)),
            (d, two),
        ];
        ex.assign(t0, e, phased(32_000, 3_200), 4);
        let members = |ex: &ExecState| {
            let slots = ex.sms[0].run.iter().map(|s| {
                let (mut m, mut n) = (s.head.0, 0);
                while m != NO_WARP {
                    (m, n) = (ex.warps[m as usize].next, n + 1);
                }
                n
            });
            slots.max().unwrap_or(0)
        };
        let other = |i: usize| WarpWork::compute(40_000 + 999 * i as u64, 1.5);
        for (i, (w, work)) in four.into_iter().enumerate() {
            ex.assign(t0, w, work, i as u64);
            // Interleaved, a context of other work follows each of the
            // first three, so no slot is shared.
            if let Some(&o) = others.get(i).filter(|_| interleave) {
                ex.assign(t0, o, other(i), 5);
            }
        }
        if !interleave {
            for (i, &o) in others.iter().enumerate() {
                ex.assign(t0, o, other(i), 5);
            }
        }
        let widest = members(&ex);
        let mut steps = Vec::new();
        let mut now = t0;
        while let Some(t) = ex.next_completion(0, now) {
            ex.advance_sm(0, t);
            ex.process_completions(0, t);
            now = t;
            let tags = ex.drain_finished().into_iter().map(|(_, tag)| tag);
            steps.push((t, tags.collect(), ex.sm_running(0)));
        }
        (steps, widest)
    }

    #[test]
    fn bit_equal_warps_share_a_slot_and_part_in_creation_order() {
        let (shared, widest) = four_warps_parting(false);
        assert_eq!(widest, 4, "the four run as one slot");
        let (apart, alone) = four_warps_parting(true);
        assert_eq!(alone, 1, "interleaved, no slot is shared");
        assert_eq!(shared, apart, "a shared slot settles as separate ones");
        // The parting: `c` completes; `a` waits; `b`, `d`, `e` and the
        // three others run.
        assert_eq!(shared[0].1, [2]);
        assert_eq!(shared[0].2, 6);
        // `b` and `d` finish together in creation order, though `d` holds
        // the lower handle (and headed their slot).
        assert_eq!(shared[1].1, [1, 3]);
        let order: Vec<u64> = shared.iter().flat_map(|s| s.1.clone()).collect();
        assert_eq!(order, [2, 1, 3, 5, 5, 5, 0, 4]);
    }

    #[test]
    fn a_reused_handle_starts_with_no_member_link() {
        let mut ex = titan_exec();
        let t0 = SimTime::ZERO;
        ex.advance_sm(0, t0);
        let (a, b) = (ex.create_warp(0), ex.create_warp(0));
        ex.assign(t0, a, WarpWork::compute(3_200, 1.0), 0);
        ex.assign(t0, b, WarpWork::compute(3_200, 1.0), 1);
        assert_eq!(ex.sms[0].run.len(), 1);
        assert_eq!(ex.warps[b.0 as usize].next, a.0, "b joined a's slot");
        let (t1, tags) = run_sm(&mut ex, 0, t0);
        assert_eq!(tags, vec![0, 1]);
        ex.retire_warp(b);
        let c = ex.create_warp(0);
        assert_eq!(c, b, "the retired slot is reused");
        assert_eq!(ex.warps[c.0 as usize].next, NO_WARP);
        // Alone in a slot of its own, `c` settles alone; `a` stays idle.
        ex.advance_sm(0, t1);
        ex.assign(t1, c, WarpWork::compute(6_400, 1.0), 2);
        let (_, tags) = run_sm(&mut ex, 0, t1);
        assert_eq!(tags, vec![2]);
        assert_eq!(ex.warps[a.0 as usize].state, WarpState::Idle);
    }

    #[test]
    fn kept_prediction_folds_pushes_and_drops_on_each_invalidating_event() {
        let kept = |ex: &ExecState| ex.sms[0].pred.is_some();
        let mut ex = titan_exec();
        let t0 = SimTime::ZERO;
        ex.advance_sm(0, t0);
        let a = ex.create_warp(0);
        let two_segments = WarpWork {
            segments: vec![Segment::Compute(3_200), Segment::Compute(6_400)],
            cpi: 2.0,
        };
        ex.assign(t0, a, two_segments, 0);
        assert!(!kept(&ex), "nothing predicted yet");
        let alone = ex.next_completion(0, t0).unwrap();
        assert!(kept(&ex));

        // A latency-bound push folds its quotient in.
        let b = ex.create_warp(0);
        ex.assign(t0, b, WarpWork::compute(1_600, 2.0), 1);
        assert!(kept(&ex), "latency-bound push must fold");
        let t_b = ex.next_completion(0, t0).unwrap();
        assert!(t_b < alone, "the shorter warp now finishes first");

        // 1. Time passes.
        ex.advance_sm(0, t_b);
        assert!(!kept(&ex), "advance must drop the prediction");

        // 2. A warp leaves (b finishes), with no time passing.
        ex.next_completion(0, t_b);
        assert!(kept(&ex));
        ex.process_completions(0, t_b);
        assert_eq!(ex.drain_finished(), vec![(b, 1)]);
        assert!(!kept(&ex), "a leaving warp must drop the prediction");

        // 3. A running warp enters its next compute segment in place.
        let t_a = ex.next_completion(0, t_b).unwrap();
        ex.advance_sm(0, t_a);
        assert_eq!(ex.next_completion(0, t_a), Some(t_a));
        assert!(kept(&ex));
        ex.process_completions(0, t_a);
        assert_eq!(ex.sm_running(0), 1, "a is on its second segment");
        assert!(!kept(&ex), "a segment reset must drop the prediction");

        // 4. A push that leaves some warp issue-bound: four CPI-1 warps
        // exactly fill the issue width, the fifth pulls the cap under
        // their rate.
        ex.next_completion(0, t_a);
        for i in 0..4 {
            assert!(kept(&ex), "running set of {} is latency-bound", i + 1);
            let w = ex.create_warp(0);
            ex.assign(t_a, w, WarpWork::compute(32_000, 1.0), 2 + i);
        }
        assert!(!kept(&ex), "an issue-bound push must drop the prediction");
        let (_, tags) = run_sm(&mut ex, 0, t_a);
        assert_eq!(tags.len(), 5);
    }
}
