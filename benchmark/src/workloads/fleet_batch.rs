//! `fleet_batch` — ROADMAP's batch on a 4-device fleet: 25 k narrow
//! tasks end to end, 100 k (the scale bar) in the traced run's ladder.
//!
//! Closed loop, one client: the `cluster_scaling` narrow task (128
//! threads, ~60 k instructions at CPI 8, 1 KB each way; the instruction
//! count is drawn ±10 % from the seed so the seed is not inert) on
//! `ClusterConfig::uniform(4)` with every device "home"
//! (`affinity_spread = 4`), least-outstanding placement, the serial
//! driver and observability off, through `drive_batch`'s
//! submit / sync / advance(+20 µs) / wait_all loop.

use std::time::Instant;

use pagoda::prelude::*;

use super::{hash_sojourns, spawn_blocking, splitmix, EngineTotals, Outcome, Probe, SpawnNames};
use crate::fnv::Fnv;
use crate::stats;

/// Devices in the fleet.
pub const DEVICES: usize = 4;
/// Tasks at full scale. A rep is one `wait_all` call that cannot be
/// split, and its cost grows with the square of this: at 100 k (the
/// ROADMAP scale bar) six 2.7 s reps fit a run and their run-to-run
/// spread was 12 % here and 28 % at the acceptance driver; at 25 k
/// seventy 0.2 s reps fit and the spread is 2 %. The traced run still
/// climbs to 4 × this (`cluster.wall_scaling_exponent`).
pub const TASKS: usize = 25_000;

const CLUSTER: SpawnNames = SpawnNames {
    submit: "cluster.submit",
    sync: "cluster.sync",
    advance: "cluster.advance",
};

/// The `i`-th task of the batch for `seed`.
fn task(seed: u64, i: u64) -> TaskDesc {
    let jitter = splitmix(seed ^ splitmix(i)) % 12_001; // 0..=12000
    let mut t = TaskDesc::uniform(128, WarpWork::compute(54_000 + jitter, 8.0));
    t.input_bytes = 1024;
    t.output_bytes = 1024;
    t
}

/// The generated batch.
pub struct Inputs {
    /// Tasks in submission order.
    pub tasks: Vec<TaskDesc>,
}

impl Inputs {
    /// Generates the batch from `seed`.
    pub fn generate(seed: u64, scale: usize) -> Inputs {
        Self::with_tasks(seed, (TASKS / scale).max(512))
    }

    /// A batch of exactly `n` tasks (the scaling-exponent runs).
    pub fn with_tasks(seed: u64, n: usize) -> Inputs {
        Inputs {
            tasks: (0..n as u64).map(|i| task(seed, i)).collect(),
        }
    }
}

/// The fleet configuration of the batch on `devices` devices.
pub fn fleet_config(devices: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::uniform(devices);
    // Fleet-resident data: every device is "home", no staging transfer.
    cfg.affinity_spread = devices as u32;
    cfg.placement = Placement::LeastOutstanding;
    cfg
}

/// Fleet-level results.
pub struct Detail {
    /// The fleet's own report.
    pub report: FleetReport,
    /// Device each task was first placed on, submission order (traced
    /// runs only — the bare-runtime replay needs it).
    pub placed_on: Vec<u8>,
}

/// Drives the batch once on a `devices`-device fleet.
pub fn run<P: Probe>(inputs: &Inputs, devices: usize, probe: &mut P) -> (Outcome, Detail) {
    let n = inputs.tasks.len();
    let mut spawned_at = Vec::with_capacity(n);
    let mut placed_on = Vec::with_capacity(if P::TRACED { n } else { 0 });

    let t0 = Instant::now();
    let mut fleet = probe.span("cluster.new", || {
        ClusterHandle::new(fleet_config(devices)).expect("uniform fleet config is valid")
    });
    for task in &inputs.tasks {
        let desc = probe.call("driver.clone", || task.clone());
        let key = spawn_blocking(probe, &CLUSTER, &mut fleet, desc);
        debug_assert_eq!(key as usize, spawned_at.len());
        spawned_at.push(fleet.now());
        if P::TRACED {
            placed_on.push(fleet.device_of(key).expect("just placed") as u8);
        }
    }
    probe.span("cluster.wait", || fleet.wait_all());
    let report = probe.span("cluster.report", || fleet.report());
    let host_s = t0.elapsed().as_secs_f64();

    let mut sojourns_us = Vec::with_capacity(n);
    let mut unresolved = 0;
    for (key, &at) in spawned_at.iter().enumerate() {
        match (fleet.status(key as u64), fleet.completion_time(key as u64)) {
            (Ok(TaskStatus::Done), Some(done)) => sojourns_us.push((done - at).as_us_f64()),
            (Ok(TaskStatus::Lost), _) => {}
            _ => unresolved += 1,
        }
    }
    let engine = EngineTotals::of(&fleet);
    let mut h = Fnv::new();
    hash_sojourns(&mut h, &sojourns_us);
    h.debug(&fleet.engine_stats());
    h.debug(&report);

    let outcome = Outcome {
        segments_s: vec![host_s],
        sim_tasks_per_s: report.completed as f64 / report.makespan.as_secs_f64(),
        sojourns_us: stats::sorted(&sojourns_us),
        offered: n as u64,
        completed: sojourns_us.len() as u64,
        shed: 0,
        expired: 0,
        lost: report.tasks_lost,
        unresolved,
        fingerprint: h.finish(),
        engine,
    };
    (outcome, Detail { report, placed_on })
}
