//! hotpath — the simulation hot path, measured end to end.
//!
//! Three sections, one report (`BENCH_hotpath.json`):
//!
//! * `desim` — event-queue microbenchmarks on a synthetic per-lane
//!   completion-prediction workload (the access pattern the gpu-sim
//!   warp engine produces): `fifo` is clean schedule→pop throughput,
//!   `churn` re-aims one lane's armed prediction per round the way a
//!   resident-warp-set change does. `churn_oracle` runs the identical
//!   workload on a lazy-deletion `BinaryHeap` queue — the pre-overhaul
//!   engine design, kept here as a same-host A/B reference — so the
//!   indexed-heap win is re-measured on every run rather than trusted
//!   from a historical number.
//! * `e2e` — `pagoda_sim`-shaped tasks/sec for the full stack with
//!   obs off: the number the paper's throughput claims rest on.
//! * `obs` — simulator events/sec with obs off and with the **mem**
//!   recorder attached, gating the difference (≤ `--gate-mem` percent,
//!   default 12; `--smoke` defaults to 25 because its ~3 ms runs are
//!   noise-dominated on a shared host): capturing a full trace must
//!   not distort what it observes.
//!
//! Gates (exit nonzero on failure):
//! * `churn.ops_per_sec >= churn_oracle.ops_per_sec` — the indexed
//!   queue must beat lazy deletion on its own motivating workload.
//! * `obs.mem.overhead_pct <= gate_mem_pct`.
//!
//! Run with `cargo run --release -p pagoda-bench --bin hotpath`
//! (add `--smoke` for the CI-sized run, `--out PATH` to redirect).

use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

use desim::{Dur, Engine, SimTime};
use gpu_sim::WarpWork;
use pagoda_core::{PagodaConfig, PagodaRuntime, SubmitError, TaskDesc};
use pagoda_obs::Obs;
use serde::Serialize;

/// Lanes in the desim microbench — one armed prediction each, like
/// SMMs in a device.
const LANES: u64 = 64;

/// SplitMix64: deterministic offsets without pulling in a rand crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

#[derive(Debug, Clone, Serialize)]
struct MicroResult {
    rounds: u64,
    /// Queue operations performed (schedules + cancels + pops).
    ops: u64,
    secs: f64,
    ops_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct DesimSection {
    fifo: MicroResult,
    churn: MicroResult,
    churn_oracle: MicroResult,
    /// churn / churn_oracle ops/sec: the live A/B win of the indexed
    /// queue over lazy deletion, measured this run on this host.
    churn_speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct E2eSection {
    tasks: u64,
    reps: u64,
    best_ms: f64,
    tasks_per_sec: f64,
    /// Device-engine events delivered (live events only).
    events: u64,
    events_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ModeResult {
    mode: String,
    best_ms: f64,
    events: u64,
    events_per_sec: f64,
    overhead_pct: f64,
}

/// What one mem-mode run captures, by stream — the denominator behind
/// `mem.overhead_pct` (overhead scales with captured volume, so a
/// regression here shows whether cost-per-event or event count moved).
#[derive(Debug, Clone, Serialize)]
struct Captured {
    tasks: u64,
    tenants: u64,
    smm: u64,
    mtb: u64,
    /// Sum over all counters (engine events dominate).
    counter_total: u64,
}

#[derive(Debug, Clone, Serialize)]
struct ObsSection {
    tasks: u64,
    reps: u64,
    gate_mem_pct: f64,
    off: ModeResult,
    mem: ModeResult,
    captured: Captured,
    /// Critical-path attribution of the captured run: where its wall
    /// (simulated) time went, phase by phase.
    attribution: pagoda_prof::ProfSummary,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    bench: String,
    smoke: bool,
    host_cores: usize,
    desim: DesimSection,
    e2e: E2eSection,
    obs: ObsSection,
    pass: bool,
}

/// The queue operations both desim microbenches drive. Implemented by
/// the real engine and by the in-bin lazy-deletion oracle, so both see
/// the byte-identical op sequence.
trait Queue {
    fn schedule(&mut self, at: SimTime, lane: u32) -> u64;
    fn cancel(&mut self, key: u64) -> bool;
    fn pop(&mut self) -> Option<u32>;
    fn now(&self) -> SimTime;
}

struct EngineQueue(Engine<u32>);

impl Queue for EngineQueue {
    fn schedule(&mut self, at: SimTime, lane: u32) -> u64 {
        self.0.schedule(at, lane).into_raw()
    }
    fn cancel(&mut self, key: u64) -> bool {
        self.0.cancel(desim::EventKey::from_raw(key))
    }
    fn pop(&mut self) -> Option<u32> {
        self.0.pop().map(|(_, lane)| lane)
    }
    fn now(&self) -> SimTime {
        self.0.now()
    }
}

/// The pre-overhaul queue: a `BinaryHeap` of `(Reverse(time, seq))`
/// with cancellation as a tombstone set consulted at pop time.
/// Cancelled entries stay in the heap as dead weight until their time
/// comes up — exactly the cost profile the indexed heap removes.
#[derive(Default)]
struct LazyQueue {
    heap: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
    events: Vec<u32>,
    cancelled: HashSet<u64>,
    pending: HashSet<u64>,
    now: SimTime,
    next_seq: u64,
}

impl Queue for LazyQueue {
    fn schedule(&mut self, at: SimTime, lane: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(lane);
        self.heap.push(std::cmp::Reverse((at, seq)));
        self.pending.insert(seq);
        seq
    }
    fn cancel(&mut self, key: u64) -> bool {
        if self.pending.remove(&key) {
            self.cancelled.insert(key);
            true
        } else {
            false
        }
    }
    fn pop(&mut self) -> Option<u32> {
        while let Some(std::cmp::Reverse((at, seq))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.pending.remove(&seq);
            self.now = at;
            return Some(self.events[seq as usize]);
        }
        None
    }
    fn now(&self) -> SimTime {
        self.now
    }
}

/// Clean FIFO throughput: keep `LANES` events in flight, pop one and
/// schedule its replacement. No cancellations — the floor both queue
/// designs should hit.
fn micro_fifo(q: &mut dyn Queue, rounds: u64) -> MicroResult {
    let mut rng = Rng(7);
    for lane in 0..LANES {
        q.schedule(q.now() + Dur::from_ps(1 + rng.next(1_000_000)), lane as u32);
    }
    let start = Instant::now();
    let mut ops = LANES;
    for _ in 0..rounds {
        let lane = q.pop().expect("queue keeps LANES events in flight");
        q.schedule(q.now() + Dur::from_ps(1 + rng.next(1_000_000)), lane);
        ops += 2;
    }
    while q.pop().is_some() {
        ops += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    MicroResult {
        rounds,
        ops,
        secs,
        ops_per_sec: ops as f64 / secs,
    }
}

/// Prediction churn: each round re-aims one lane's armed completion
/// (cancel + schedule), popping a delivery every 8th round — the
/// resident-warp-set-change pattern from the gpu-sim warp engine.
fn micro_churn(q: &mut dyn Queue, rounds: u64) -> MicroResult {
    let mut rng = Rng(13);
    let mut keys: Vec<u64> = (0..LANES)
        .map(|lane| q.schedule(q.now() + Dur::from_ps(1 + rng.next(1_000_000)), lane as u32))
        .collect();
    let start = Instant::now();
    let mut ops = LANES;
    for r in 0..rounds {
        let lane = rng.next(LANES) as usize;
        q.cancel(keys[lane]);
        keys[lane] = q.schedule(q.now() + Dur::from_ps(1 + rng.next(1_000_000)), lane as u32);
        ops += 2;
        if r % 8 == 0 {
            if let Some(lane) = q.pop() {
                keys[lane as usize] =
                    q.schedule(q.now() + Dur::from_ps(1 + rng.next(1_000_000)), lane);
                ops += 2;
            }
        }
    }
    while q.pop().is_some() {
        ops += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    MicroResult {
        rounds,
        ops,
        secs,
        ops_per_sec: ops as f64 / secs,
    }
}

fn task() -> TaskDesc {
    let mut t = TaskDesc::uniform(128, WarpWork::compute(60_000, 8.0));
    t.input_bytes = 1024;
    t.output_bytes = 1024;
    t
}

/// Runs `n` narrow tasks; returns (wall seconds, device events).
fn run_once(n: usize, obs: Obs) -> (f64, u64) {
    let start = Instant::now();
    let mut rt = PagodaRuntime::new(PagodaConfig::default());
    rt.attach_obs(obs);
    let mut spawned = 0usize;
    let mut pending = task();
    while spawned < n {
        match rt.submit(pending) {
            Ok(_) => {
                spawned += 1;
                pending = task();
            }
            Err(SubmitError::Full(desc)) => {
                rt.sync_table();
                if !rt.capacity().has_room() {
                    let timeout = rt.config().wait_timeout;
                    rt.advance_to(rt.host_now() + timeout);
                }
                pending = desc;
            }
            Err(e) => panic!("unspawnable bench task: {e}"),
        }
    }
    rt.wait_all();
    assert_eq!(rt.report().tasks as usize, n, "bench run must complete");
    (start.elapsed().as_secs_f64(), rt.engine_stats().delivered)
}

fn main() {
    let mut smoke = false;
    let mut rounds: u64 = 2_000_000;
    let mut n: usize = 4096;
    let mut reps: usize = 9;
    let mut gate_mem_pct: f64 = 12.0;
    let mut out = String::from("BENCH_hotpath.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => {
                smoke = true;
                rounds = 200_000;
                n = 768;
                reps = 11;
                // Smoke runs last ~3 ms each on a shared CI box, where a
                // single scheduler preemption inflates a rep by double-
                // digit percentages; even best-of-reps overheads have
                // been observed to swing from 10 % to 21 % across quiet
                // runs. Widen the gate to catch the regression class it
                // exists for (the pre-overhaul recorder cost 26-31 %)
                // without flaking; the full-scale run and the committed
                // artifact enforce the real ≤12 % bound. An explicit
                // --gate-mem after --smoke still overrides.
                gate_mem_pct = 25.0;
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds needs a number");
            }
            "--tasks" => {
                n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tasks needs a number");
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number");
            }
            "--gate-mem" => {
                gate_mem_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--gate-mem needs a percentage");
            }
            "--out" => {
                out = args.next().expect("--out needs a path");
            }
            other => panic!(
                "unknown argument {other}; supported: --smoke --rounds N --tasks N --reps N \
                 --gate-mem PCT --out PATH"
            ),
        }
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    // --- desim microbenches (best of 3, interleaved) ---------------
    let mut fifo: Option<MicroResult> = None;
    let mut churn: Option<MicroResult> = None;
    let mut churn_oracle: Option<MicroResult> = None;
    let keep_best = |slot: &mut Option<MicroResult>, r: MicroResult| {
        if slot.as_ref().is_none_or(|b| r.ops_per_sec > b.ops_per_sec) {
            *slot = Some(r);
        }
    };
    for _ in 0..3 {
        keep_best(
            &mut fifo,
            micro_fifo(&mut EngineQueue(Engine::new()), rounds),
        );
        keep_best(
            &mut churn,
            micro_churn(&mut EngineQueue(Engine::new()), rounds),
        );
        keep_best(
            &mut churn_oracle,
            micro_churn(&mut LazyQueue::default(), rounds),
        );
    }
    let (fifo, churn, churn_oracle) = (
        fifo.expect("ran"),
        churn.expect("ran"),
        churn_oracle.expect("ran"),
    );
    assert_eq!(
        churn.ops, churn_oracle.ops,
        "both queues must see the identical op sequence"
    );
    let desim = DesimSection {
        churn_speedup: churn.ops_per_sec / churn_oracle.ops_per_sec,
        fifo,
        churn,
        churn_oracle,
    };

    // --- end-to-end tasks/sec + obs overhead (interleaved reps) ----
    type ObsCtor = fn() -> Obs;
    let modes: [(&str, ObsCtor); 2] = [("off", Obs::off), ("mem", || Obs::recording().0)];
    run_once(n.min(256), Obs::off()); // warm-up
    let mut best = [f64::INFINITY; 2];
    let mut events = [0u64; 2];
    for rep in 0..reps {
        for (i, (name, mk)) in modes.iter().enumerate() {
            let (secs, ev) = run_once(n, mk());
            if rep == 0 {
                events[i] = ev;
            } else {
                assert_eq!(events[i], ev, "{name}: event count must be deterministic");
            }
            best[i] = best[i].min(secs);
        }
    }
    assert_eq!(
        events[0], events[1],
        "recording must not change the simulated history"
    );

    let evps: Vec<f64> = (0..2).map(|i| events[i] as f64 / best[i]).collect();
    let overhead = |i: usize| 100.0 * (evps[0] - evps[i]) / evps[0];
    let mk_result = |i: usize| ModeResult {
        mode: modes[i].0.to_string(),
        best_ms: best[i] * 1e3,
        events: events[i],
        events_per_sec: evps[i],
        overhead_pct: overhead(i),
    };
    let e2e = E2eSection {
        tasks: n as u64,
        reps: reps as u64,
        best_ms: best[0] * 1e3,
        tasks_per_sec: n as f64 / best[0],
        events: events[0],
        events_per_sec: evps[0],
    };
    let (captured, attribution) = {
        let (obs_h, rec) = Obs::recording();
        run_once(n, obs_h);
        let buf = rec.snapshot();
        let captured = Captured {
            tasks: buf.tasks.len() as u64,
            tenants: buf.tenants.len() as u64,
            smm: buf.smm.len() as u64,
            mtb: buf.mtb.len() as u64,
            counter_total: buf.counters.values().sum(),
        };
        let attribution = pagoda_prof::ProfReport::from_buffer(&buf).summary();
        (captured, attribution)
    };
    let obs = ObsSection {
        tasks: n as u64,
        reps: reps as u64,
        gate_mem_pct,
        off: mk_result(0),
        mem: mk_result(1),
        captured,
        attribution,
    };

    // --- gates ----------------------------------------------------
    let mut failures: Vec<String> = Vec::new();
    if desim.churn_speedup < 1.0 {
        failures.push(format!(
            "indexed queue lost to the lazy-deletion oracle on churn: {:.2}x",
            desim.churn_speedup
        ));
    }
    if obs.mem.overhead_pct > gate_mem_pct {
        failures.push(format!(
            "mem recorder overhead {:.2}% exceeds the {gate_mem_pct:.1}% gate",
            obs.mem.overhead_pct
        ));
    }

    let report = BenchReport {
        bench: "hotpath".to_string(),
        smoke,
        host_cores,
        desim,
        e2e,
        obs,
        pass: failures.is_empty(),
    };

    println!(
        "desim  fifo {:>12.0} ops/s   churn {:>12.0} ops/s   oracle {:>12.0} ops/s   ({:.2}x)",
        report.desim.fifo.ops_per_sec,
        report.desim.churn.ops_per_sec,
        report.desim.churn_oracle.ops_per_sec,
        report.desim.churn_speedup,
    );
    println!(
        "e2e    {:>12.0} tasks/s   {:>12.0} events/s   best {:.1} ms",
        report.e2e.tasks_per_sec, report.e2e.events_per_sec, report.e2e.best_ms
    );
    for r in [&report.obs.off, &report.obs.mem] {
        println!(
            "obs    {:>6} {:>10.1} ms {:>12.0} events/s {:>8.2}%",
            r.mode, r.best_ms, r.events_per_sec, r.overhead_pct
        );
    }

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_hotpath.json");
    println!("wrote {out}");

    if !report.pass {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("PASS: all hotpath gates met");
}
