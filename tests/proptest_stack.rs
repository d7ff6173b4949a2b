//! Property-based tests over the whole stack: random task mixes must
//! always complete — no deadlock, no lost tasks, no protocol panic — and
//! conservation laws must hold.
//!
//! # Regressions
//!
//! `proptest_stack.proptest-regressions` (sibling of this file) holds
//! `cc` seed entries that replay before any novel case, for every test
//! in this file. A failing case prints the exact `cc` line to append;
//! see the format notes at the top of the regressions file. CI floors
//! the per-block case counts with `PROPTEST_CASES` (ci.sh), so the
//! trimmed local counts below still get breadth on every push.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use desim::{Engine, EventKey, SimTime};
use pagoda::prelude::*;
use proptest::prelude::*;

/// An arbitrary valid narrow task.
fn arb_task() -> impl Strategy<Value = TaskDesc> {
    (
        1u32..=992,      // threads
        0u64..400_000,   // instrs per warp
        prop::bool::ANY, // sync
        0u32..=4,        // smem in 8KB units
        0u64..32_768,    // input bytes
        0u64..32_768,    // output bytes
    )
        .prop_map(|(threads, instrs, sync, smem8k, inb, outb)| {
            let work = if sync && instrs > 0 {
                WarpWork::phased(instrs, 3, 8.0)
            } else {
                WarpWork::compute(instrs, 8.0)
            };
            let t = TaskDesc::uniform(threads, work);
            TaskDesc {
                kernel: Kernel::new(threads, smem8k * 8 * 1024, t.sync, t.blocks.to_vec()).unwrap(),
                input_bytes: u32::try_from(inb).unwrap(),
                output_bytes: u32::try_from(outb).unwrap(),
                ..t
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full co-simulation
        .. ProptestConfig::default()
    })]

    #[test]
    fn pagoda_completes_any_task_mix(tasks in prop::collection::vec(arb_task(), 1..60)) {
        let n = tasks.len() as u64;
        let r = run_pagoda(PagodaConfig::default(), &tasks);
        prop_assert_eq!(r.tasks, n);
        prop_assert!(r.compute_done.as_ps() <= r.makespan.as_ps());
    }

    #[test]
    fn hyperq_completes_any_task_mix(tasks in prop::collection::vec(arb_task(), 1..60)) {
        let r = run_hyperq(&HyperQConfig::default(), &tasks);
        prop_assert_eq!(r.tasks, tasks.len() as u64);
    }

    #[test]
    fn pagoda_makespan_is_monotone_in_prefixes(tasks in prop::collection::vec(arb_task(), 2..40)) {
        // Running a prefix of the task list can never take (much) longer
        // than the full list. "Much": the prefix's final task relies on
        // the timeout-driven flush (§4.2.2) — a read-check-write over
        // PCIe retried on 20 us polling ticks — while the full run's
        // extra tasks advance the pipeline for free, so the prefix can
        // legitimately trail by a handful of polling periods.
        let half = tasks.len() / 2;
        let full = run_pagoda(PagodaConfig::default(), &tasks);
        let part = run_pagoda(PagodaConfig::default(), &tasks[..half.max(1)]);
        let slack = desim::Dur::from_us(200);
        prop_assert!(
            part.makespan.as_ps() <= full.makespan.as_ps() + slack.as_ps(),
            "prefix {} vs full {}", part.makespan, full.makespan
        );
    }

    #[test]
    fn cpu_model_is_additive(tasks in prop::collection::vec(arb_task(), 1..50)) {
        // Sequential makespan equals the sum of task times *at the
        // single-core rate* (one core alone is not bandwidth-capped).
        let seq = run_sequential(&CpuConfig::default(), &tasks);
        let one_core = CpuConfig { cores: 1 };
        let sum: f64 = tasks
            .iter()
            .map(|t| baselines::cpu::cpu_task_time(&one_core, t).as_secs_f64())
            .sum();
        let diff = (seq.makespan.as_secs_f64() - sum).abs();
        prop_assert!(diff < 1e-9, "makespan {} vs sum {}", seq.makespan.as_secs_f64(), sum);
    }
}

/// One step of random event-queue traffic for the heap-oracle property.
#[derive(Debug, Clone, Copy)]
enum HeapOp {
    /// Schedule a fresh event `dt` ps from now.
    Schedule { dt: u64 },
    /// Cancel the `pick`-th key ever issued (may already be dead).
    Cancel { pick: usize },
    /// Re-aim the `pick`-th key ever issued at now + `dt`.
    Reschedule { pick: usize, dt: u64 },
    /// Deliver the next event.
    Pop,
}

fn arb_heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (0u64..5_000).prop_map(|dt| HeapOp::Schedule { dt }),
        (0usize..256).prop_map(|pick| HeapOp::Cancel { pick }),
        ((0usize..256), (0u64..5_000)).prop_map(|(pick, dt)| HeapOp::Reschedule { pick, dt }),
        Just(HeapOp::Pop),
        Just(HeapOp::Pop), // weight pops up so queues drain as well as grow
    ]
}

/// The event queue the indexed engine replaced: a lazy-deletion binary
/// heap that tombstones cancelled ids and skips them at pop. Kept here
/// as the behavioral oracle — the indexed heap must deliver the exact
/// `(time, seq)` order this produces, including the fresh-seq semantics
/// of reschedule (modeled as cancel + schedule of a replacement).
struct LazyOracle {
    now: SimTime,
    next_seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// seq → payload for events not yet delivered or cancelled.
    live: HashMap<u64, u32>,
}

impl LazyOracle {
    fn new() -> Self {
        LazyOracle {
            now: SimTime::ZERO,
            next_seq: 0,
            heap: BinaryHeap::new(),
            live: HashMap::new(),
        }
    }

    fn schedule(&mut self, at: SimTime, payload: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.live.insert(seq, payload);
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        self.live.remove(&seq).is_some()
    }

    /// Cancel + schedule a replacement carrying the same payload; the
    /// replacement's id is returned so the caller can keep tracking it.
    fn reschedule(&mut self, seq: u64, at: SimTime) -> Option<u64> {
        let payload = self.live.remove(&seq)?;
        Some(self.schedule(at, payload))
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        while let Some(Reverse((at, seq))) = self.heap.pop() {
            if let Some(payload) = self.live.remove(&seq) {
                self.now = at;
                return Some((at, payload));
            }
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    #[test]
    fn indexed_heap_matches_lazy_deletion_oracle(
        ops in prop::collection::vec(arb_heap_op(), 1..400),
    ) {
        let mut eng: Engine<u32> = Engine::new();
        let mut oracle = LazyOracle::new();
        // Every key ever issued, engine-side and oracle-side in lockstep.
        // Reschedule keeps the engine key but replaces the oracle id.
        let mut keys: Vec<EventKey> = Vec::new();
        let mut okeys: Vec<u64> = Vec::new();
        let mut next_payload = 0u32;

        for op in ops {
            match op {
                HeapOp::Schedule { dt } => {
                    let at = SimTime::from_ps(eng.now().as_ps() + dt);
                    let payload = next_payload;
                    next_payload += 1;
                    keys.push(eng.schedule(at, payload));
                    okeys.push(oracle.schedule(at, payload));
                }
                HeapOp::Cancel { pick } => {
                    if keys.is_empty() {
                        continue;
                    }
                    let i = pick % keys.len();
                    let a = eng.cancel(keys[i]);
                    let b = oracle.cancel(okeys[i]);
                    prop_assert_eq!(a, b, "cancel liveness diverged at key {}", i);
                }
                HeapOp::Reschedule { pick, dt } => {
                    if keys.is_empty() {
                        continue;
                    }
                    let i = pick % keys.len();
                    let at = SimTime::from_ps(eng.now().as_ps() + dt);
                    let a = eng.reschedule(keys[i], at);
                    let b = oracle.reschedule(okeys[i], at);
                    prop_assert_eq!(a, b.is_some(), "reschedule liveness diverged at key {}", i);
                    if let Some(nk) = b {
                        okeys[i] = nk;
                    }
                }
                HeapOp::Pop => {
                    let a = eng.pop();
                    let b = oracle.pop();
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(eng.now(), oracle.now);
                }
            }
        }

        // Drain both queues: delivery order (and therefore same-instant
        // seq ordering) must agree to the end.
        loop {
            let a = eng.pop();
            let b = oracle.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        // Seq parity: reschedule consumes exactly one sequence number,
        // like the cancel+schedule pair it replaces.
        let stats = eng.stats();
        prop_assert_eq!(stats.scheduled + stats.rescheduled, oracle.next_seq);
        prop_assert_eq!(stats.delivered + stats.cancelled, stats.scheduled);
    }
}

/// The checked-in regression seeds must actually load at test time —
/// this is what makes the replay-before-novel-cases guarantee real in
/// CI rather than an aspiration (a wrong path or format would silently
/// replay nothing).
#[test]
fn persisted_regression_seeds_load_and_replay() {
    let seeds = proptest::persistence::load_regressions(file!());
    assert!(
        seeds.len() >= 3,
        "expected the checked-in cc entries next to this file, got {seeds:?}"
    );
    // The 16-hex entry is an exact seed; its value is pinned here so a
    // format change in the parser cannot silently remap every entry.
    assert!(
        seeds.contains(&0xb17e),
        "exact-seed entry cc 000000000000b17e must parse verbatim: {seeds:?}"
    );
    // Entries are deterministic: loading twice gives the same seeds.
    assert_eq!(seeds, proptest::persistence::load_regressions(file!()));
}
