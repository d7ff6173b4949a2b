//! Bare-layer replays: unit costs of the inner layers, measured on the
//! layer alone.
//!
//! `core`, `gpu-sim`, `desim` and `pcie` co-simulate inside one call, so
//! no span taken from outside can split them. What can be had from
//! outside is each layer's exact operation count (engine counters, obs
//! counters) and the cost of one operation on the bare layer; their
//! product over the run's wall time is the `est_share_pct` figures —
//! labelled estimates, not measurements. These replays name internal
//! types on purpose and live only in the traced binary.

use std::hint::black_box;
use std::time::Instant;

use pagoda::desim::Engine;
use pagoda::gpu_sim::Notify;
use pagoda::pagoda_core::smem::BuddyAllocator;
use pagoda::pagoda_serve::{ArrivalGen, QueuedTask};
use pagoda::pcie::{Direction, PcieBus};
use pagoda::prelude::*;

use pagoda_benchmark::workloads::{fig5, spawn_blocking, EngineTotals, Untraced};

/// A small deterministic generator for replay op choices (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
    }
}

/// Host ns per queue operation of a bare `Engine<u32>` replaying a run's
/// operation mix (pops, schedules, cancels, reschedules in the recorded
/// proportions) at the run's high-water queue length.
pub fn desim_ns_per_op(run: &EngineTotals) -> f64 {
    let depth = run.max_queue_len.max(1);
    let pops = run.delivered.max(1);
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut q: Engine<u32> = Engine::new();
    let mut keys = Vec::with_capacity(depth as usize);
    for lane in 0..depth {
        let at = q.now() + Dur::from_ps(1 + rng.next(1_000_000));
        keys.push(q.schedule(at, lane as u32));
    }
    // Per pop, this many reschedules and cancels (in 1/1024ths).
    let resched_per_k = run.rescheduled * 1024 / pops;
    let cancel_per_k = run.cancelled * 1024 / pops;
    let rounds = 600_000u64;
    let mut ops = 0u64;
    let start = Instant::now();
    for _ in 0..rounds {
        let (_, lane) = q.pop().expect("replay keeps the queue at depth");
        let at = q.now() + Dur::from_ps(1 + rng.next(1_000_000));
        keys[lane as usize] = q.schedule(at, lane);
        ops += 2;
        let mut budget = resched_per_k;
        while budget >= 1024 || rng.next(1024) < budget {
            budget = budget.saturating_sub(1024);
            let k = keys[rng.next(depth) as usize];
            let at = q.now() + Dur::from_ps(1 + rng.next(1_000_000));
            black_box(q.reschedule(k, at));
            ops += 1;
        }
        let mut budget = cancel_per_k;
        while budget >= 1024 || rng.next(1024) < budget {
            budget = budget.saturating_sub(1024);
            let lane = rng.next(depth) as usize;
            black_box(q.cancel(keys[lane]));
            let at = q.now() + Dur::from_ps(1 + rng.next(1_000_000));
            keys[lane] = q.schedule(at, lane as u32);
            ops += 2;
        }
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Queue operations a run performed, by the engine's own counters.
pub fn desim_ops(run: &EngineTotals) -> u64 {
    run.delivered + run.scheduled + run.cancelled + run.rescheduled
}

/// Host ns per delivered engine event of a bare `GpuDevice` executing
/// `tasks`' warps on persistent MasterKernel warps (`launch_persistent`
/// and `assign_warp`, each finished warp handed the next one's work): the
/// device model on the path Pagoda drives, with the event queue beneath
/// it and no TaskTable, scheduler or bus above. Barriers are dropped —
/// each warp runs its instructions as one compute phase — because
/// barrier groups are the runtime's to form.
pub fn gpu_native_ns_per_event(tasks: &[TaskDesc]) -> f64 {
    let cfg = PagodaConfig::default();
    let mut device = GpuDevice::new(cfg.device.clone());
    let shape = TaskShape {
        threads_per_tb: 1024,
        num_tbs: cfg.num_mtbs(),
        regs_per_thread: 32,
        smem_per_tb: cfg.mtb_pool_bytes(),
    };
    let mut work = tasks
        .iter()
        .flat_map(|t| t.blocks.iter())
        .flat_map(|b| b.warps().iter())
        .map(|w| WarpWork::compute(w.total_instrs().max(1), w.cpi));
    let start = Instant::now();
    let mtbs = device
        .launch_persistent(shape)
        .expect("the MasterKernel fits the default device");
    // Warp 0 of each MTB is its scheduler warp; the rest execute.
    for warp in mtbs.iter().flat_map(|m| m.warps[1..].iter().copied()) {
        if let Some(w) = work.next() {
            device.assign_warp(warp, w, 0);
        }
    }
    device.run(|dev, _, batch| {
        for n in batch {
            if let (Notify::WarpDone { warp, .. }, Some(w)) = (n, work.next()) {
                dev.assign_warp(warp, w, 0);
            }
        }
    });
    let ns = start.elapsed().as_nanos() as f64;
    ns / device.engine_stats().delivered.max(1) as f64
}

/// Host ns per `PcieBus::transfer` call (1 KB, alternating directions,
/// two streams, as the runtime issues them).
pub fn pcie_transfer_ns() -> f64 {
    let mut bus = PcieBus::new_default();
    let h2d = bus.create_stream();
    let d2h = bus.create_stream();
    let calls = 1_000_000u64;
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    for i in 0..calls {
        let (stream, dir) = if i % 2 == 0 {
            (h2d, Direction::HostToDevice)
        } else {
            (d2h, Direction::DeviceToHost)
        };
        now = black_box(bus.transfer(now, stream, dir, 1024)).start;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Host ns per buddy-allocator operation (an `alloc` or a `dealloc`) on
/// a pool kept about half full with the DCT/MM/MPE request sizes.
pub fn buddy_ns_per_op() -> f64 {
    const SIZES: [u32; 4] = [2048, 4096, 8192, 1024];
    let mut buddy = BuddyAllocator::new();
    let mut live = std::collections::VecDeque::new();
    let rounds = 1_000_000u64;
    let mut ops = 0u64;
    let start = Instant::now();
    for i in 0..rounds {
        match buddy.alloc(SIZES[(i % 4) as usize]) {
            Ok(node) => live.push_back(node),
            Err(_) => {
                let oldest = live.pop_front().expect("a full pool has live blocks");
                buddy.dealloc(oldest);
            }
        }
        ops += 1;
        if live.len() > 6 {
            buddy.dealloc(live.pop_front().expect("non-empty"));
            ops += 1;
        }
    }
    black_box(&buddy);
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Host ns per `ArrivalGen::next_arrival` (Poisson and MMPP averaged, as
/// `serve_netmix` mixes them).
pub fn arrivalgen_ns() -> f64 {
    let specs = [
        ArrivalSpec::Poisson { rate_per_s: 1.0e5 },
        ArrivalSpec::Mmpp {
            calm_rate_per_s: 0.5e5,
            burst_rate_per_s: 2.0e5,
            mean_calm_us: 300.0,
            mean_burst_us: 100.0,
        },
    ];
    let calls = 500_000u64;
    let start = Instant::now();
    for (i, spec) in specs.into_iter().enumerate() {
        let mut gen = ArrivalGen::new(spec, i as u64);
        for _ in 0..calls {
            black_box(gen.next_arrival());
        }
    }
    start.elapsed().as_nanos() as f64 / (2 * calls) as f64
}

/// Host ns per scheduler operation (a `push` or a `pop`) of `policy`
/// holding a 64-task backlog over `tenants` tenants.
pub fn qos_ns_per_op(policy: Policy, tenants: usize) -> f64 {
    let mut sched = policy.scheduler(&vec![1; tenants]);
    let desc = TaskDesc::uniform(128, WarpWork::compute(60_000, 8.0));
    let mut rng = Rng(0x5eed);
    let mut seq = 0u64;
    let mut make = |rng: &mut Rng| {
        seq += 1;
        let arrival = SimTime::from_ps(seq * 1_000_000);
        QueuedTask {
            tenant: rng.next(tenants as u64) as usize,
            seq,
            arrival,
            admitted: arrival,
            deadline: Some(arrival + Dur::from_us(1_000 + rng.next(2_000))),
            desc: desc.clone(),
        }
    };
    for _ in 0..64 {
        sched.push(make(&mut rng));
    }
    let rounds = 300_000u64;
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(sched.pop());
        sched.push(make(&mut rng));
    }
    start.elapsed().as_nanos() as f64 / (2 * rounds) as f64
}

/// Host seconds four bare `PagodaRuntime`s take to run the task
/// sequences the fleet routed to each device (blocking spawn, then
/// `waitAll`): the device work inside a fleet run, with no fleet.
pub fn bare_devices_s(tasks: &[TaskDesc], placed_on: &[u8], devices: usize) -> f64 {
    let start = Instant::now();
    for d in 0..devices {
        let mut rt = PagodaRuntime::titan_x();
        for (task, _) in tasks
            .iter()
            .zip(placed_on)
            .filter(|(_, &p)| p as usize == d)
        {
            spawn_blocking(&mut Untraced, &fig5::CORE, &mut rt, task.clone());
        }
        rt.wait_all();
        black_box(rt.report());
    }
    start.elapsed().as_secs_f64()
}
