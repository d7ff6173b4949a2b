//! The execution engine as it stood before the dense running set — every
//! pass walks `running: Vec<WarpHandle>` into the warp arena, nothing is
//! kept between calls, one context per warp, no slot ever reused — and
//! the lockstep tests that hold [`ExecState`] to it bit for bit. A
//! context of `k` warps in the dense engine is `k` warps created back to
//! back in the oracle. The dense engine's slots are held to the
//! oracle's warps too: every member of a slot carries the slot's
//! remaining work and rate bit for bit, so a slot is one trajectory.

use desim::{Dur, SimTime};
use gpu_arch::{GpuSpec, WARP_SIZE};
use proptest::prelude::*;

use super::{ExecState, ExecStats, GroupId, WarpHandle, WarpState, EPS, NO_WARP};
use crate::work::{Segment, WarpWork};

#[derive(Debug)]
struct WarpCtx {
    sm: u32,
    state: WarpState,
    segments: Vec<Segment>,
    cur: usize,
    remaining: f64,
    r_single: f64,
    /// Index into `RefExec::groups`, which never recycles a slot.
    group: Option<usize>,
    tag: u64,
}

#[derive(Debug)]
struct GroupCtx {
    members: Vec<WarpHandle>,
    arrived: u32,
    finished: u32,
}

#[derive(Debug, Default)]
struct SmExec {
    running: Vec<WarpHandle>,
    last_advance: SimTime,
    cap: f64,
    running_integral: f64,
    busy_ps: u64,
}

#[derive(Debug)]
struct RefExec {
    warps: Vec<WarpCtx>,
    groups: Vec<GroupCtx>,
    sms: Vec<SmExec>,
    cap_base: f64,
    rs_base: f64,
    finished: Vec<(WarpHandle, u64)>,
}

impl RefExec {
    fn new(spec: &GpuSpec) -> Self {
        RefExec {
            warps: Vec::new(),
            groups: Vec::new(),
            sms: (0..spec.num_sms).map(|_| SmExec::default()).collect(),
            cap_base: spec.issue_width() as f64 * WARP_SIZE as f64 * spec.clock_ghz / 1000.0,
            rs_base: WARP_SIZE as f64 * spec.clock_ghz,
            finished: Vec::new(),
        }
    }

    fn create_warp(&mut self, sm: u32) -> WarpHandle {
        let h = WarpHandle(self.warps.len() as u32);
        self.warps.push(WarpCtx {
            sm,
            state: WarpState::Idle,
            segments: Vec::new(),
            cur: 0,
            remaining: 0.0,
            r_single: 0.0,
            group: None,
            tag: 0,
        });
        h
    }

    fn create_group(&mut self, members: &[WarpHandle]) -> usize {
        let g = self.groups.len();
        self.groups.push(GroupCtx {
            members: members.to_vec(),
            arrived: 0,
            finished: 0,
        });
        for m in members {
            self.warps[m.0 as usize].group = Some(g);
        }
        g
    }

    fn release_group(&mut self, g: usize) {
        let ctx = &mut self.groups[g];
        assert_eq!(ctx.finished as usize, ctx.members.len());
        for m in std::mem::take(&mut ctx.members) {
            self.warps[m.0 as usize].group = None;
        }
    }

    fn assign(&mut self, now: SimTime, w: WarpHandle, work: WarpWork, tag: u64) {
        let rs_base = self.rs_base;
        let ctx = &mut self.warps[w.0 as usize];
        assert_eq!(ctx.state, WarpState::Idle);
        let sm = ctx.sm;
        ctx.segments = work.segments;
        ctx.r_single = rs_base / work.cpi / 1000.0;
        ctx.cur = 0;
        ctx.remaining = 0.0;
        ctx.tag = tag;
        ctx.state = WarpState::Running; // provisional; settle() decides
        assert_eq!(self.sms[sm as usize].last_advance, now);
        self.sms[sm as usize].running.push(w);
        self.refresh_cap(sm);
        self.settle(now, w);
    }

    fn advance_sm(&mut self, sm: u32, now: SimTime) {
        let RefExec { warps, sms, .. } = self;
        let sme = &mut sms[sm as usize];
        let dt = now.saturating_since(sme.last_advance).as_ps();
        if dt == 0 {
            sme.last_advance = now;
            return;
        }
        let nrun = sme.running.len();
        sme.running_integral += nrun as f64 * dt as f64;
        if nrun > 0 {
            sme.busy_ps += dt;
            let cap = sme.cap;
            for &w in &sme.running {
                let c = &mut warps[w.0 as usize];
                let rate = c.r_single.min(cap);
                c.remaining -= rate * dt as f64;
            }
        }
        sme.last_advance = now;
    }

    fn process_completions(&mut self, sm: u32, now: SimTime) {
        let mut exhausted: Vec<WarpHandle> = self.sms[sm as usize]
            .running
            .iter()
            .copied()
            .filter(|w| self.warps[w.0 as usize].remaining <= EPS)
            .collect();
        exhausted.sort();
        for w in exhausted {
            if self.warps[w.0 as usize].state == WarpState::Running
                && self.warps[w.0 as usize].remaining <= EPS
            {
                self.warps[w.0 as usize].cur += 1;
                self.settle(now, w);
            }
        }
    }

    fn next_completion(&self, sm: u32, now: SimTime) -> Option<SimTime> {
        let sme = &self.sms[sm as usize];
        assert_eq!(sme.last_advance, now);
        if sme.running.is_empty() {
            return None;
        }
        let cap = sme.cap;
        let mut best = f64::INFINITY;
        for w in &sme.running {
            let c = &self.warps[w.0 as usize];
            let rate = c.r_single.min(cap);
            let dt = (c.remaining.max(0.0)) / rate;
            best = best.min(dt);
        }
        Some(now + Dur::from_ps(best.ceil() as u64))
    }

    fn sm_running(&self, sm: u32) -> u32 {
        self.sms[sm as usize].running.len() as u32
    }

    fn drain_finished(&mut self) -> Vec<(WarpHandle, u64)> {
        std::mem::take(&mut self.finished)
    }

    fn sm_stats(&self, sm: u32) -> ExecStats {
        let sme = &self.sms[sm as usize];
        ExecStats {
            running_warp_ps: sme.running_integral,
            busy_ps: sme.busy_ps,
        }
    }

    fn refresh_cap(&mut self, sm: u32) {
        let sme = &mut self.sms[sm as usize];
        let nrun = sme.running.len();
        sme.cap = if nrun == 0 {
            f64::INFINITY
        } else {
            self.cap_base / nrun as f64
        };
    }

    fn leave_running(&mut self, w: WarpHandle) {
        let sm = self.warps[w.0 as usize].sm;
        let running = &mut self.sms[sm as usize].running;
        let pos = running.iter().position(|x| *x == w).expect("not running");
        running.swap_remove(pos);
        self.refresh_cap(sm);
    }

    fn settle(&mut self, now: SimTime, w: WarpHandle) {
        loop {
            let ctx = &mut self.warps[w.0 as usize];
            match ctx.segments.get(ctx.cur).copied() {
                Some(Segment::Compute(n)) if n > 0 => {
                    ctx.remaining = n as f64;
                    if ctx.state != WarpState::Running {
                        ctx.state = WarpState::Running;
                        let sm = ctx.sm;
                        self.sms[sm as usize].running.push(w);
                        self.refresh_cap(sm);
                    }
                    return;
                }
                Some(Segment::Compute(_)) => ctx.cur += 1,
                Some(Segment::Barrier) => {
                    let g = ctx.group.expect("barrier without group");
                    let was_running = ctx.state == WarpState::Running;
                    ctx.state = WarpState::AtBarrier;
                    if was_running {
                        self.leave_running(w);
                    }
                    self.groups[g].arrived += 1;
                    self.maybe_release_barrier(now, g);
                    return;
                }
                None => {
                    if ctx.state == WarpState::Running {
                        self.leave_running(w);
                    }
                    let ctx = &mut self.warps[w.0 as usize];
                    ctx.state = WarpState::Idle;
                    let (tag, group) = (ctx.tag, ctx.group);
                    ctx.segments = Vec::new();
                    self.finished.push((w, tag));
                    if let Some(g) = group {
                        self.groups[g].finished += 1;
                        self.maybe_release_barrier(now, g);
                    }
                    return;
                }
            }
        }
    }

    fn maybe_release_barrier(&mut self, now: SimTime, g: usize) {
        let ctx = &self.groups[g];
        let expected = ctx.members.len() as u32 - ctx.finished;
        if expected == 0 || ctx.arrived < expected {
            return;
        }
        self.groups[g].arrived = 0;
        for i in 0..self.groups[g].members.len() {
            let m = self.groups[g].members[i];
            let c = &mut self.warps[m.0 as usize];
            if c.state == WarpState::AtBarrier {
                c.cur += 1;
                self.settle(now, m);
            }
        }
    }
}

/// A native-style threadblock in flight: one dense context per run,
/// one oracle warp per warp.
struct Block {
    groups: (GroupId, usize),
    contexts: Vec<WarpHandle>,
    /// Warps still out.
    left: u32,
}

/// The two engines fed the same calls; every value either returns is
/// compared before the test sees it.
struct Lockstep {
    dense: ExecState,
    oracle: RefExec,
    /// Per dense slot, its context's first oracle warp and warp count.
    to_oracle: Vec<(u32, u32)>,
    num_sms: u32,
    now: SimTime,
    /// Each SMM's armed prediction, as `GpuDevice::sm_wake` holds it.
    wake: Vec<Option<SimTime>>,
    /// Ungrouped warps free to take work.
    idle: Vec<WarpHandle>,
    /// Barrier groups whose members are all idle, under both engines' ids
    /// (the dense engine recycles group slots, the oracle does not).
    idle_groups: Vec<((GroupId, usize), Vec<WarpHandle>)>,
    /// Members still out, per busy group.
    busy_groups: Vec<((GroupId, usize), Vec<WarpHandle>, usize)>,
    /// Blocks in flight; their contexts are retired (and their slots
    /// reused) once every warp is out.
    blocks: Vec<Block>,
    /// Most block warps in flight at once: small in the latency-bound
    /// regime, which must stay latency-bound.
    block_warps: u32,
    next_tag: u64,
    /// The regime keeps every rate latency-bound, so an assignment may
    /// never drop a kept prediction.
    must_fold: bool,
}

impl Lockstep {
    /// `singles` ungrouped warps and `groups` barrier groups of 2–4 warps
    /// on each of `num_sms` SMMs.
    fn new(num_sms: u32, singles: u32, groups: u32) -> Self {
        let mut spec = GpuSpec::titan_x();
        spec.num_sms = num_sms;
        let mut ls = Lockstep {
            dense: ExecState::new(&spec),
            oracle: RefExec::new(&spec),
            to_oracle: Vec::new(),
            num_sms,
            now: SimTime::ZERO,
            wake: vec![None; num_sms as usize],
            idle: Vec::new(),
            idle_groups: Vec::new(),
            busy_groups: Vec::new(),
            blocks: Vec::new(),
            block_warps: 24,
            next_tag: 0,
            must_fold: false,
        };
        for sm in 0..num_sms {
            for _ in 0..singles {
                let w = ls.create_warp(sm);
                ls.idle.push(w);
            }
            for g in 0..groups {
                let members: Vec<_> = (0..2 + g % 3).map(|_| ls.create_warp(sm)).collect();
                let id = ls.create_group(&members);
                ls.idle_groups.push((id, members));
            }
        }
        ls
    }

    fn create_warp(&mut self, sm: u32) -> WarpHandle {
        self.create_warps(sm, 1)
    }

    /// A dense context of `k` warps; `k` oracle warps. The context's
    /// creation sequence is its first oracle warp's handle: both count
    /// every warp created.
    fn create_warps(&mut self, sm: u32, k: u32) -> WarpHandle {
        let w = self.dense.create_warps(sm, k);
        let base = self.oracle.create_warp(sm).0;
        for _ in 1..k {
            self.oracle.create_warp(sm);
        }
        assert_eq!(self.dense.warps[w.0 as usize].seq, u64::from(base));
        let slot = w.0 as usize;
        if self.to_oracle.len() <= slot {
            self.to_oracle.resize(slot + 1, (0, 0));
        }
        self.to_oracle[slot] = (base, k);
        w
    }

    /// The oracle warps of dense context `w`.
    fn oracle_warps(&self, w: WarpHandle) -> impl Iterator<Item = WarpHandle> {
        let (base, k) = self.to_oracle[w.0 as usize];
        (base..base + k).map(WarpHandle)
    }

    fn create_group(&mut self, members: &[WarpHandle]) -> (GroupId, usize) {
        let expanded: Vec<_> = members.iter().flat_map(|&m| self.oracle_warps(m)).collect();
        (
            self.dense.create_group(members),
            self.oracle.create_group(&expanded),
        )
    }

    /// The dense engine's completions as the oracle names them: each
    /// context's `k`, which must be adjacent, become its warps in order.
    fn translate(
        &self,
        done: &[(WarpHandle, u64)],
    ) -> Result<Vec<(WarpHandle, u64)>, TestCaseError> {
        let mut out = Vec::with_capacity(done.len());
        while out.len() < done.len() {
            let (w, tag) = done[out.len()];
            for o in self.oracle_warps(w) {
                prop_assert_eq!(
                    done.get(out.len()),
                    Some(&(w, tag)),
                    "a context's completions split"
                );
                out.push((o, tag));
            }
        }
        Ok(out)
    }

    /// What `GpuDevice::assign_warp_parts` does to the engine, at
    /// `self.now`: the dense engine takes `work` borrowed — its last
    /// segment as the tail if `split_tail` — the oracle whole and owned.
    fn assign(
        &mut self,
        w: WarpHandle,
        work: WarpWork,
        split_tail: bool,
    ) -> Result<(), TestCaseError> {
        let sm = self.dense.warp_sm(w);
        let tag = self.next_tag;
        self.next_tag += 1;
        self.dense.advance_sm(sm, self.now);
        self.oracle.advance_sm(sm, self.now);
        let kept = self.dense.sms[sm as usize].pred.is_some();
        let (prefix, tail) = match work.segments.split_last() {
            Some((&last, prefix)) if split_tail => (prefix, Some(last)),
            _ => (&work.segments[..], None),
        };
        self.dense
            .assign_parts(self.now, w, prefix, tail, work.cpi, tag);
        for o in self.oracle_warps(w).collect::<Vec<_>>() {
            self.oracle.assign(self.now, o, work.clone(), tag);
        }
        if self.must_fold && kept {
            let folded = self.dense.sms[sm as usize].pred.is_some();
            prop_assert!(folded, "latency-bound push dropped the prediction");
        }
        self.check(sm)
    }

    /// What `Ev::SmWake` does: advance, complete, re-predict. `at` need
    /// not be the SMM's predicted instant.
    fn complete(&mut self, sm: u32, at: SimTime) -> Result<(), TestCaseError> {
        self.now = at;
        self.dense.advance_sm(sm, at);
        self.oracle.advance_sm(sm, at);
        self.dense.process_completions(sm, at);
        self.oracle.process_completions(sm, at);
        self.check(sm)
    }

    /// Compares everything observable after a step on `sm` and returns
    /// finished warps to the idle pools.
    fn check(&mut self, sm: u32) -> Result<(), TestCaseError> {
        let done = self.dense.drain_finished();
        let named = self.translate(&done)?;
        prop_assert_eq!(
            &named,
            &self.oracle.drain_finished(),
            "drain_finished order"
        );
        // Twice: the second call answers from the kept prediction.
        for _ in 0..2 {
            let next = self.dense.next_completion(sm, self.now);
            prop_assert_eq!(next, self.oracle.next_completion(sm, self.now));
            self.wake[sm as usize] = next;
        }
        for s in 0..self.num_sms {
            self.check_slots(s)?;
            prop_assert_eq!(self.dense.sm_running(s), self.oracle.sm_running(s));
            let (a, b) = (self.dense.sm_stats(s), self.oracle.sm_stats(s));
            prop_assert_eq!(a.busy_ps, b.busy_ps);
            prop_assert_eq!(a.running_warp_ps.to_bits(), b.running_warp_ps.to_bits());
        }
        for (w, _) in done {
            if let Some(i) = self.blocks.iter().position(|b| b.contexts.contains(&w)) {
                self.blocks[i].left -= 1;
                if self.blocks[i].left == 0 {
                    // Retire, as the device does: the next block reuses
                    // these slots, newest first.
                    let b = self.blocks.swap_remove(i);
                    self.dense.release_group(b.groups.0);
                    self.oracle.release_group(b.groups.1);
                    for c in b.contexts {
                        self.dense.retire_warp(c);
                    }
                }
                continue;
            }
            match self.busy_groups.iter().position(|(_, m, _)| m.contains(&w)) {
                None => self.idle.push(w),
                Some(i) => {
                    self.busy_groups[i].2 -= 1;
                    if self.busy_groups[i].2 == 0 {
                        // Release and re-form, as a retiring task does.
                        let ((g, og), members, _) = self.busy_groups.swap_remove(i);
                        self.dense.release_group(g);
                        self.oracle.release_group(og);
                        let g = self.create_group(&members);
                        self.idle_groups.push((g, members));
                    }
                }
            }
        }
        Ok(())
    }

    /// The dense running set of `sm` against the oracle's running warps:
    /// each slot's members are running contexts of `sm`, each in one slot,
    /// and all of their oracle warps run with the slot's `rem` and `rs`
    /// bit for bit; the members' warps are all of `sm`'s running warps.
    /// So no slot holds two trajectories, and the slots are at least the
    /// running warps' distinct `(rem, rs)` pairs.
    fn check_slots(&self, sm: u32) -> Result<(), TestCaseError> {
        let mut members = Vec::new();
        let mut warps = 0;
        for slot in &self.dense.sms[sm as usize].run {
            let mut m = slot.head.0;
            while m != NO_WARP {
                let c = &self.dense.warps[m as usize];
                prop_assert_eq!(c.state, WarpState::Running);
                prop_assert_eq!(c.sm, sm);
                for o in self.oracle_warps(WarpHandle(m)) {
                    let r = &self.oracle.warps[o.0 as usize];
                    prop_assert_eq!(r.state, WarpState::Running);
                    prop_assert_eq!(r.remaining.to_bits(), slot.rem.to_bits(), "slot rem");
                    prop_assert_eq!(r.r_single.to_bits(), slot.rs.to_bits(), "slot rate");
                    warps += 1;
                }
                members.push(m);
                m = c.next;
            }
        }
        let n = members.len();
        members.sort_unstable();
        members.dedup();
        prop_assert_eq!(members.len(), n, "a context in two slots");
        prop_assert_eq!(warps, self.oracle.sm_running(sm));
        Ok(())
    }

    /// The dense slot holding context `w`, if it runs.
    fn slot_of(&self, w: WarpHandle) -> Option<usize> {
        let run = &self.dense.sms[self.dense.warp_sm(w) as usize].run;
        run.iter().position(|slot| {
            let mut m = slot.head.0;
            while m != NO_WARP && m != w.0 {
                m = self.dense.warps[m as usize].next;
            }
            m == w.0
        })
    }

    /// What `GpuDevice::place_tb` does: one context per run of `runs`
    /// (a block's distinct warps: consecutive runs differ), one barrier
    /// group over them, every context assigned in warp order at
    /// `self.now`. The oracle gets each warp alone.
    fn place_block(&mut self, sm: u32, runs: &[(WarpWork, u32)]) -> Result<(), TestCaseError> {
        let contexts: Vec<_> = runs
            .iter()
            .map(|&(_, k)| self.create_warps(sm, k))
            .collect();
        let groups = self.create_group(&contexts);
        self.blocks.push(Block {
            groups,
            contexts: contexts.clone(),
            left: runs.iter().map(|&(_, k)| k).sum(),
        });
        for (&w, (work, _)) in contexts.iter().zip(runs) {
            self.assign(w, work.clone(), false)?;
        }
        Ok(())
    }

    /// The SMM whose armed prediction fires first (ties: lowest index).
    fn earliest_wake(&self) -> Option<(u32, SimTime)> {
        (0..self.num_sms)
            .filter_map(|sm| self.wake[sm as usize].map(|t| (sm, t)))
            .min_by_key(|&(sm, t)| (t, sm))
    }

    /// Interprets one random step; `cpis` is the regime's CPI menu.
    fn step(
        &mut self,
        (kind, a, b, c): (u8, u64, u64, u64),
        cpis: &[f64],
    ) -> Result<(), TestCaseError> {
        let cpi = |k: u64| cpis[(k % cpis.len() as u64) as usize];
        // Zero-length segments and EPS-sized leftovers included.
        let instrs = |k: u64| [0, 1, 31, 32, 1000, 32_000, 77_777][(k % 7) as usize] * (1 + k % 3);
        match kind {
            // One ungrouped warp, 1–3 compute segments back to back.
            0..=2 if !self.idle.is_empty() => {
                let w = self.idle.swap_remove((a % self.idle.len() as u64) as usize);
                let segments = (0..1 + b % 3)
                    .map(|i| Segment::Compute(instrs(c + i)))
                    .collect();
                self.assign(
                    w,
                    WarpWork {
                        segments,
                        cpi: cpi(b),
                    },
                    (a >> 20) & 1 == 0,
                )
            }
            // A whole barrier group at one instant: same barrier count,
            // each member its own amounts and (mixed) CPI.
            3..=4 if !self.idle_groups.is_empty() => {
                let i = (a % self.idle_groups.len() as u64) as usize;
                let (g, members) = self.idle_groups.swap_remove(i);
                self.busy_groups.push((g, members.clone(), members.len()));
                let phases = 1 + b % 3;
                for (m, &w) in members.iter().enumerate() {
                    let mut segments = Vec::new();
                    for p in 0..phases {
                        if p > 0 {
                            segments.push(Segment::Barrier);
                        }
                        segments.push(Segment::Compute(instrs(c + p + 3 * m as u64)));
                    }
                    self.assign(
                        w,
                        WarpWork {
                            segments,
                            cpi: cpi(b + m as u64 * (c % 2)),
                        },
                        ((a >> 20) + m as u64) & 1 == 0,
                    )?;
                }
                Ok(())
            }
            // A native-style block of 1–3 runs on one SMM, every run
            // through the same barriers; half the time a twin of it
            // right behind, which finishes at the same instant.
            7..=8 => {
                let sm = (a % u64::from(self.num_sms)) as u32;
                let phases = 1 + b % 3;
                let mut runs: Vec<(WarpWork, u32)> = Vec::new();
                for r in 0..1 + (c >> 8) % 3 {
                    let mut segments = Vec::new();
                    for p in 0..phases {
                        if p > 0 {
                            segments.push(Segment::Barrier);
                        }
                        segments.push(Segment::Compute(instrs(c + p + 2 * r)));
                    }
                    let work = WarpWork {
                        segments,
                        cpi: cpi(b + r * (c % 2)),
                    };
                    if runs.last().is_some_and(|(w, _)| *w == work) {
                        continue;
                    }
                    runs.push((work, 1 + ((c >> (12 + 2 * r)) % 4) as u32));
                }
                let total: u32 = runs.iter().map(|&(_, k)| k).sum();
                let live: u32 = self.blocks.iter().map(|b| b.left).sum();
                let twins = if (a >> 24) & 1 == 0 { 2 } else { 1 };
                for _ in 0..twins {
                    if live + twins * total <= self.block_warps {
                        self.place_block(sm, &runs)?;
                    }
                }
                Ok(())
            }
            // Pagoda's executor warps: one task threadblock's work handed
            // to 2–6 idle ungrouped warps of one SMM (fewer if fewer are
            // idle) at one instant. Their pairs are bit-equal, so those
            // that run share one slot.
            9 => {
                let sm = (a % u64::from(self.num_sms)) as u32;
                let want = 2 + (a >> 8) % 5;
                let mut warps = Vec::new();
                let mut i = 0;
                while i < self.idle.len() && (warps.len() as u64) < want {
                    if self.dense.warp_sm(self.idle[i]) == sm {
                        warps.push(self.idle.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                let segments = (0..1 + b % 3)
                    .map(|i| Segment::Compute(instrs(c + i)))
                    .collect();
                let work = WarpWork {
                    segments,
                    cpi: cpi(b),
                };
                for &w in &warps {
                    self.assign(w, work.clone(), (a >> 20) & 1 == 0)?;
                }
                let slots: Vec<_> = warps.iter().map(|&w| self.slot_of(w)).collect();
                prop_assert!(
                    slots.windows(2).all(|p| p[0] == p[1]),
                    "executor warps on one trajectory in slots {:?}",
                    slots
                );
                Ok(())
            }
            // Let simulated time pass short of the next wake, then poke
            // one SMM off-prediction.
            5 => {
                let limit = self
                    .earliest_wake()
                    .map_or(50_000, |(_, t)| (t - self.now).as_ps());
                let at = self.now + Dur::from_ps(a % (limit + 1));
                self.complete((b % u64::from(self.num_sms)) as u32, at)
            }
            // Deliver the earliest armed wake.
            _ => match self.earliest_wake() {
                Some((sm, at)) => self.complete(sm, at),
                None => Ok(()),
            },
        }
    }

    /// Delivers wakes until both engines are idle.
    fn run_dry(&mut self) -> Result<(), TestCaseError> {
        while let Some((sm, at)) = self.earliest_wake() {
            self.complete(sm, at)?;
        }
        Ok(())
    }
}

fn arb_steps() -> impl Strategy<Value = Vec<(u8, u64, u64, u64)>> {
    prop::collection::vec(
        (0u8..13, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        1..120,
    )
}

/// Twin blocks placed on one SMM at one instant finish at one instant.
/// Placed in the slots a retired three-run block gave back, newest
/// first, the older twin holds the higher slot: completions must follow
/// creation, not slots. Each twin has two runs through a barrier, so a
/// release and two contexts of one block settle at that instant too.
#[test]
fn recycled_twin_blocks_finish_in_creation_order() -> Result<(), TestCaseError> {
    let phased = |first, cpi| WarpWork {
        segments: vec![
            Segment::Compute(first),
            Segment::Barrier,
            Segment::Compute(3_200),
        ],
        cpi,
    };
    let mut ls = Lockstep::new(1, 0, 0);
    ls.place_block(
        0,
        &[
            (phased(32, 1.0), 2),
            (phased(640, 2.0), 1),
            (phased(6_400, 1.0), 3),
        ],
    )?;
    ls.run_dry()?;
    prop_assert_eq!(ls.dense.free_warps.len(), 3);
    let twin = [(phased(1_000, 2.0), 3), (phased(77, 2.0), 1)];
    ls.place_block(0, &twin)?;
    ls.place_block(0, &twin)?;
    let (older, newer) = (ls.blocks[0].contexts[0], ls.blocks[1].contexts[0]);
    prop_assert!(older.0 > newer.0, "the older twin sits in the higher slot");
    // Advance to the barrier, then to the end: everything finishes at once.
    while let Some((sm, at)) = ls.earliest_wake() {
        ls.complete(sm, at)?;
    }
    prop_assert!(ls.blocks.is_empty());
    prop_assert_eq!(
        ls.dense.warp_slots(),
        4,
        "the twins reused the retired slots"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// At most 4 + 3·(2+3+4) = 13 warps per SMM at CPI ≥ 4 (16 issue
    /// slots' worth): every rate stays latency-bound, so each assignment
    /// after a prediction must fold into it, never drop it.
    #[test]
    fn lockstep_latency_bound(num_sms in 1u32..=2, steps in arb_steps()) {
        let mut ls = Lockstep::new(num_sms, 4, 3);
        ls.must_fold = true;
        // 3 block warps in flight keep an SMM at ≤ 16 warps.
        ls.block_warps = 3;
        for s in steps {
            ls.step(s, &[4.0, 6.5, 8.0])?;
        }
        ls.run_dry()?;
        prop_assert!(ls.busy_groups.is_empty(), "a group never finished");
        prop_assert!(ls.blocks.is_empty(), "a block never finished");
    }

    /// Up to 40 + 3·9 warps per SMM at CPI down to 1 (4 issue slots'
    /// worth): the cap falls below `max rs` and the kept prediction must
    /// fall back to the walk. Opens with eight CPI-1 warps on SMM 0 so
    /// every case crosses the boundary at least once.
    #[test]
    fn lockstep_issue_bound(num_sms in 1u32..=2, steps in arb_steps()) {
        let mut ls = Lockstep::new(num_sms, 40, 9);
        for i in 0..8 {
            let w = ls.idle.swap_remove(0);
            ls.assign(w, WarpWork::compute(5_000 + 999 * i, 1.0), i & 1 == 0)?;
        }
        for s in steps {
            ls.step(s, &[1.0, 1.5, 4.0, 8.0])?;
        }
        ls.run_dry()?;
        prop_assert!(ls.busy_groups.is_empty(), "a group never finished");
        prop_assert!(ls.blocks.is_empty(), "a block never finished");
    }
}
