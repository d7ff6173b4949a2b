//! cluster_scaling — fleet-level scaling and skew curves for
//! `pagoda-cluster`.
//!
//! Two experiments over simulated multi-GPU fleets:
//!
//! * **Scaling** — a fixed closed-loop batch of uniform narrow tasks is
//!   driven through fleets of 1, 2, 4 (and 8 in the full run) devices
//!   under least-outstanding placement. Throughput is tasks per
//!   *simulated* second (wall clock never enters the curve). The CI gate
//!   requires the 4-device fleet to clear `--gate`× (default 3.2×) the
//!   single-device throughput: each device brings its own spawn
//!   pipeline, PCIe link, and TaskTable, so the fleet should scale close
//!   to linearly, losing only lockstep-rounding and routing slack.
//! * **Skew** — an open-loop 8-tenant mix (via `pagoda-serve` riding on
//!   the fleet through the shared `Backend` trait) whose per-tenant
//!   arrival rates follow a Zipf distribution with exponent `s`.
//!   Sweeping `s` against every placement policy shows where
//!   load-oblivious routing (round-robin) loses its tail: under skew,
//!   the busiest tenant's bursts pile onto whichever device rotation
//!   hands them, while load-aware policies (least-outstanding,
//!   power-of-two) flatten p99.
//!
//! Prints both curves to stderr, writes them as JSON where `--out PATH`
//! says (nowhere without it), and exits nonzero if the scaling gate
//! fails. Fully deterministic: same seed ⇒ byte-identical JSON.
//!
//! Run with `cargo run --release -p pagoda-bench --bin cluster_scaling`
//! (add `--smoke` for the CI-sized run).

use gpu_sim::WarpWork;
use pagoda_cluster::{ClusterConfig, ClusterHandle, Placement};
use pagoda_core::{Backend, TaskDesc};
use pagoda_prof::ProfSummary;
use pagoda_serve::{percentile, serve_on, Policy, ServeConfig, TenantSpec};
use serde::Serialize;
use workloads::Bench;

/// One point of the throughput-vs-device-count curve.
#[derive(Debug, Clone, Serialize)]
struct ScalingPoint {
    devices: usize,
    tasks: usize,
    makespan_us: f64,
    /// Tasks per simulated second.
    tasks_per_s: f64,
    /// Throughput relative to the 1-device fleet.
    speedup: f64,
}

/// One point of the p99-vs-skew surface.
#[derive(Debug, Clone, Serialize)]
struct SkewPoint {
    policy: String,
    zipf_s: f64,
    offered: usize,
    completed: usize,
    p50_us: f64,
    p99_us: f64,
    off_affinity: u64,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    bench: String,
    smoke: bool,
    gate_devices: usize,
    gate_required: f64,
    gate_measured: f64,
    pass: bool,
    scaling: Vec<ScalingPoint>,
    skew: Vec<SkewPoint>,
    /// Critical-path attribution of the gate-sized batch (per-device
    /// groups from the fleet's routing stream).
    attribution: ProfSummary,
}

/// The uniform narrow task of the scaling batch: 4 warps, ~30 us of
/// device work, a small payload each way — the paper's "narrow task"
/// shape, heavy enough that execution (not spawning) bounds a device.
fn task() -> TaskDesc {
    let mut t = TaskDesc::uniform(128, WarpWork::compute(60_000, 8.0));
    t.input_bytes = 1024;
    t.output_bytes = 1024;
    t
}

/// Closed-loop batch on an `n`-device fleet; returns simulated makespan
/// in microseconds.
fn scaling_run(n: usize, tasks: usize) -> f64 {
    drive_batch(n, tasks, pagoda_obs::Obs::off())
}

/// Gate-sized batch re-driven with a recorder attached: same simulated
/// history as [`scaling_run`] (the curve is measured in simulated time,
/// so profiling adds no noise to it), plus the critical-path
/// attribution of where that time went.
fn attribution_run(n: usize, tasks: usize) -> ProfSummary {
    let (obs, rec) = pagoda_obs::Obs::recording();
    drive_batch(n, tasks, obs);
    pagoda_prof::ProfReport::from_buffer(&rec.snapshot()).summary()
}

/// Closed-loop batch with an explicit obs sink; returns simulated
/// makespan in microseconds.
fn drive_batch(n: usize, tasks: usize, obs: pagoda_obs::Obs) -> f64 {
    let mut cfg = ClusterConfig::uniform(n);
    // The uniform batch models fleet-resident data: every device is
    // "home", so no placement pays the staging transfer. (The skew
    // experiment is where affinity costs show.)
    cfg.affinity_spread = n as u32;
    let mut fleet = ClusterHandle::new(cfg).expect("uniform config is valid");
    fleet.attach_obs(obs);
    for _ in 0..tasks {
        fleet
            .spawn_blocking(0, task())
            .expect("the bench task fits the default device");
    }
    fleet.wait_all();
    let rep = fleet.report();
    assert_eq!(rep.completed as usize, tasks, "scaling batch must complete");
    rep.makespan.as_us_f64()
}

/// Open-loop Zipf-skewed tenant mix on a 4-device fleet under `policy`.
fn skew_run(policy: Placement, zipf_s: f64, tasks_per_tenant: usize) -> SkewPoint {
    const TENANTS: usize = 8;
    const DEVICES: usize = 4;
    // Aggregate offered rate: high enough to keep the fleet busy, low
    // enough that a balanced policy stays stable. Found empirically
    // against the default device; the comparison across policies at
    // equal load is what the curve shows, not the absolute rate.
    const AGG_RATE: f64 = 2.4e6;
    let weights: Vec<f64> = (1..=TENANTS)
        .map(|r| 1.0 / (r as f64).powf(zipf_s))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let tenants: Vec<TenantSpec> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut t = TenantSpec::new(&format!("t{i}"), Bench::Des3, AGG_RATE * w / wsum);
            t.queue_cap = 512;
            t
        })
        .collect();
    let mut scfg = ServeConfig::new(tenants, Policy::Fifo);
    scfg.tasks_per_tenant = tasks_per_tenant;
    scfg.mix = format!("zipf-{zipf_s}");
    let mut ccfg = ClusterConfig::uniform(DEVICES);
    ccfg.placement = policy;
    ccfg.affinity_spread = 1;
    let mut fleet = ClusterHandle::new(ccfg).expect("uniform config is valid");
    let out = serve_on(&scfg, &mut fleet).expect("skew mix serves");
    let rep = fleet.report();
    let sojourns: Vec<f64> = out.records.iter().filter_map(|r| r.sojourn_us).collect();
    SkewPoint {
        policy: format!("{policy:?}"),
        zipf_s,
        offered: TENANTS * tasks_per_tenant,
        completed: sojourns.len(),
        p50_us: percentile(&sojourns, 50.0),
        p99_us: percentile(&sojourns, 99.0),
        off_affinity: rep.off_affinity,
    }
}

fn main() {
    let mut smoke = false;
    let mut gate: Option<f64> = None;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--gate" => {
                gate = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--gate needs a number"),
                );
            }
            "--out" => {
                out = Some(args.next().expect("--out needs a path"));
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let gate = gate.unwrap_or(3.2);

    let (device_counts, batch, skews, tasks_per_tenant): (&[usize], usize, &[f64], usize) = if smoke
    {
        (&[1, 2, 4], 768, &[1.2], 16)
    } else {
        (&[1, 2, 4, 8], 2048, &[0.0, 0.6, 1.2], 96)
    };

    let mut scaling = Vec::new();
    let mut base_tps = 0.0;
    for &n in device_counts {
        let makespan_us = scaling_run(n, batch);
        let tasks_per_s = batch as f64 / (makespan_us * 1e-6);
        let speedup = if scaling.is_empty() {
            base_tps = tasks_per_s;
            1.0
        } else {
            tasks_per_s / base_tps
        };
        eprintln!(
            "scaling: {n} device(s)  makespan {makespan_us:9.1} us  \
             {tasks_per_s:9.0} tasks/s  speedup {speedup:.2}x"
        );
        scaling.push(ScalingPoint {
            devices: n,
            tasks: batch,
            makespan_us,
            tasks_per_s,
            speedup,
        });
    }

    let mut skew = Vec::new();
    for &s in skews {
        for policy in [
            Placement::RoundRobin,
            Placement::LeastOutstanding,
            Placement::PowerOfTwo,
            Placement::TenantAffinity,
        ] {
            let p = skew_run(policy, s, tasks_per_tenant);
            eprintln!(
                "skew: s={s:.1} {:16} p50 {:8.1} us  p99 {:8.1} us  off-affinity {}",
                p.policy, p.p50_us, p.p99_us, p.off_affinity
            );
            skew.push(p);
        }
    }

    const GATE_DEVICES: usize = 4;
    let measured = scaling
        .iter()
        .find(|p| p.devices == GATE_DEVICES)
        .map_or(0.0, |p| p.speedup);
    let pass = measured >= gate;
    let report = BenchReport {
        bench: "cluster_scaling".into(),
        smoke,
        gate_devices: GATE_DEVICES,
        gate_required: gate,
        gate_measured: measured,
        pass,
        scaling,
        skew,
        attribution: attribution_run(GATE_DEVICES, batch),
    };
    if let Some(out) = out {
        let json = serde_json::to_string(&report).expect("report serializes");
        std::fs::write(&out, format!("{json}\n")).expect("write report");
        eprintln!("wrote {out}");
    }
    if !pass {
        eprintln!(
            "GATE FAILED: {GATE_DEVICES}-device speedup {measured:.2}x < required {gate:.2}x"
        );
        std::process::exit(1);
    }
    eprintln!("gate passed: {measured:.2}x >= {gate:.2}x at {GATE_DEVICES} devices");
}
