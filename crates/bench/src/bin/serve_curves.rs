//! serve_curves — latency-vs-throughput curves for the multi-tenant
//! serving layer (the serving analogue of the paper's Fig. 10).
//!
//! Sweeps offered load (relative to the mix's calibrated closed-loop
//! service capacity) for two tenant mixes under four front-end variants:
//!
//! * `fifo-unbounded` — FIFO with no admission control: the divergence
//!   baseline. Open-loop overload grows the queue without bound, so p99
//!   sojourn scales with experiment length;
//! * `fifo` / `wfq` / `edf` — bounded per-tenant queues with shedding:
//!   the backlog ahead of any *admitted* task is capped, so p99 stays
//!   bounded at every load while the excess is shed at the door.
//!
//! Output: an aligned text table plus (with `--json`) one JSON line per
//! (mix, variant, load) point. Fully deterministic for a given seed.
//!
//! Run with `cargo run --release -p pagoda-bench --bin serve_curves`
//! (add `--quick` for a smoke-sized sweep).

use desim::Dur;
use pagoda_bench::{usage_exit, Cli};
use pagoda_core::PagodaConfig;
use pagoda_serve::{
    calibrate_capacity, serve, serving_slice, ArrivalSpec, Outcome, Policy, ServeConfig, TenantSpec,
};
use serde::Serialize;
use workloads::{Bench, GenOpts};

/// SMMs of the MIG-style device slice the experiments run on. Two SMMs
/// → 4 MTB columns × 32 rows = 128 TaskTable entries, small enough that
/// a few hundred tasks of overload backlog spill out of the table and
/// into the front-end queues where admission control and QoS live.
const SLICE_SMS: u32 = 2;

/// One tenant slot of a mix, before rates are assigned.
struct MixTenant {
    name: &'static str,
    bench: Bench,
    /// Fraction of the aggregate offered rate this tenant submits.
    share: f64,
    weight: u32,
    queue_cap: usize,
    deadline_us: Option<u64>,
    /// Bursty (MMPP) instead of Poisson arrivals.
    bursty: bool,
}

struct Mix {
    name: &'static str,
    tenants: Vec<MixTenant>,
}

fn mixes() -> Vec<Mix> {
    vec![
        // A packet pipeline sharing the GPU with a bursty image tenant —
        // small irregular tasks, the paper's 3DES/MB pairing.
        Mix {
            name: "netmix",
            tenants: vec![
                MixTenant {
                    name: "packets",
                    bench: Bench::Des3,
                    share: 0.67,
                    weight: 2,
                    queue_cap: 32,
                    deadline_us: Some(1_500),
                    bursty: false,
                },
                // Loose deadline rather than none: under EDF a tenant
                // with no deadline sorts last forever and starves when a
                // deadline-bearing tenant alone exceeds capacity.
                MixTenant {
                    name: "tiles",
                    bench: Bench::Mb,
                    share: 0.33,
                    weight: 1,
                    queue_cap: 32,
                    deadline_us: Some(3_000),
                    bursty: true,
                },
            ],
        },
        // A vision pipeline: latency-sensitive DCT tiles against batchy
        // convolution work.
        Mix {
            name: "vision",
            tenants: vec![
                MixTenant {
                    name: "dct",
                    bench: Bench::Dct,
                    share: 0.5,
                    weight: 3,
                    queue_cap: 24,
                    deadline_us: Some(2_500),
                    bursty: false,
                },
                MixTenant {
                    name: "conv",
                    bench: Bench::Conv,
                    share: 0.5,
                    weight: 1,
                    queue_cap: 24,
                    deadline_us: None,
                    bursty: true,
                },
            ],
        },
    ]
}

/// An MMPP with a 4:1 burst-to-calm intensity ratio, rescaled so its
/// long-run mean equals `rate_per_s`.
fn bursty_spec(rate_per_s: f64) -> ArrivalSpec {
    let shape = ArrivalSpec::Mmpp {
        calm_rate_per_s: 0.5,
        burst_rate_per_s: 2.0,
        mean_calm_us: 300.0,
        mean_burst_us: 100.0,
    };
    shape.scaled(rate_per_s / shape.mean_rate_per_s())
}

/// One plotted point.
#[derive(Debug, Serialize)]
struct CurvePoint {
    mix: String,
    variant: String,
    offered_load: f64,
    offered_rate_per_s: f64,
    throughput_per_s: f64,
    shed_frac: f64,
    expired_frac: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    avg_slot_occupancy: f64,
}

fn build_cfg(
    mix: &Mix,
    policy: Policy,
    unbounded: bool,
    aggregate_rate: f64,
    tasks_per_tenant: usize,
    runtime: &PagodaConfig,
) -> ServeConfig {
    let total_tasks = mix.tenants.len() * tasks_per_tenant;
    let tenants = mix
        .tenants
        .iter()
        .map(|mt| {
            let rate = mt.share * aggregate_rate;
            TenantSpec {
                name: mt.name.to_string(),
                weight: mt.weight,
                queue_cap: if unbounded { usize::MAX } else { mt.queue_cap },
                deadline: mt.deadline_us.map(Dur::from_us),
                arrival: if mt.bursty {
                    bursty_spec(rate)
                } else {
                    ArrivalSpec::Poisson { rate_per_s: rate }
                },
                bench: mt.bench,
                gen: GenOpts::default(),
                // Share-proportional counts: every tenant's stream spans
                // the same window, so the aggregate offered rate holds
                // for the whole run.
                tasks: Some(((mt.share * total_tasks as f64).round() as usize).max(1)),
                slo: None,
            }
        })
        .collect();
    let mut cfg = ServeConfig::new(tenants, policy);
    cfg.tasks_per_tenant = tasks_per_tenant;
    cfg.mix = mix.name.to_string();
    cfg.cancel_late = matches!(policy, Policy::Edf);
    cfg.runtime = runtime.clone();
    cfg
}

fn main() {
    let usage = "usage: serve_curves [--quick] [--tasks N] [--json]";
    let (cli, extra) = Cli::parse(usage);
    if let Some(word) = extra.first() {
        usage_exit(&format!("unexpected argument {word}"), usage);
    }
    let tasks_per_tenant = cli.tasks.unwrap_or(if cli.quick { 256 } else { 1024 });
    // Calibration quality must not depend on --quick: a short probe is
    // dominated by its pipeline-drain tail and understates capacity.
    let probe = 512;
    let runtime = serving_slice(SLICE_SMS).expect("nonzero slice");
    let loads: &[f64] = if cli.quick {
        &[0.8, 2.0]
    } else {
        &[0.5, 0.8, 1.1, 1.5, 2.0]
    };
    let variants: &[(&str, Policy, bool)] = &[
        ("fifo-unbounded", Policy::Fifo, true),
        ("fifo", Policy::Fifo, false),
        ("wfq", Policy::WeightedFair, false),
        ("edf", Policy::Edf, false),
    ];

    println!("serve_curves — sojourn latency vs offered load, {tasks_per_tenant} tasks/tenant");
    println!(
        "{:>8} {:>15} {:>6} {:>10} {:>7} {:>7} {:>10} {:>10} {:>10}",
        "mix", "variant", "load", "thru(k/s)", "shed%", "late%", "p50(us)", "p95(us)", "p99(us)"
    );

    let mut points = Vec::new();
    for mix in mixes() {
        // Calibrated aggregate capacity: tasks/s the runtime sustains on
        // this mix's blend under closed-loop saturation. 1/C = Σ sᵢ/Cᵢ.
        let inv: f64 = mix
            .tenants
            .iter()
            .map(|mt| {
                mt.share
                    / calibrate_capacity(&runtime, mt.bench, &GenOpts::default(), probe)
                        .expect("calibration config is valid")
            })
            .sum();
        let capacity = 1.0 / inv;

        for &(variant, policy, unbounded) in variants {
            for &load in loads {
                let rate = load * capacity;
                let mut cfg = build_cfg(&mix, policy, unbounded, rate, tasks_per_tenant, &runtime);
                cfg.offered_load = load;
                let out = serve(&cfg).expect("sweep config is valid");

                let sojourns: Vec<f64> = out.records.iter().filter_map(|r| r.sojourn_us).collect();
                let offered = out.records.len() as f64;
                let shed = out
                    .records
                    .iter()
                    .filter(|r| r.outcome == Outcome::Shed)
                    .count() as f64;
                let expired = out
                    .records
                    .iter()
                    .filter(|r| r.outcome == Outcome::Expired)
                    .count() as f64;
                let p = CurvePoint {
                    mix: mix.name.to_string(),
                    variant: variant.to_string(),
                    offered_load: load,
                    offered_rate_per_s: rate,
                    throughput_per_s: out.report.throughput_per_s,
                    shed_frac: shed / offered,
                    expired_frac: expired / offered,
                    p50_us: pagoda_serve::percentile(&sojourns, 50.0),
                    p95_us: pagoda_serve::percentile(&sojourns, 95.0),
                    p99_us: pagoda_serve::percentile(&sojourns, 99.0),
                    avg_slot_occupancy: out.report.avg_slot_occupancy,
                };
                println!(
                    "{:>8} {:>15} {:>6.2} {:>10.1} {:>7.1} {:>7.1} {:>10.1} {:>10.1} {:>10.1}",
                    p.mix,
                    p.variant,
                    p.offered_load,
                    p.throughput_per_s / 1e3,
                    100.0 * p.shed_frac,
                    100.0 * p.expired_frac,
                    p.p50_us,
                    p.p95_us,
                    p.p99_us
                );
                points.push(p);
            }
        }
    }

    // The claim the curves exist to make: under overload, admission
    // control bounds the p99 of admitted work; unbounded FIFO does not.
    for mix in mixes() {
        let at = |v: &str, l: f64| {
            points
                .iter()
                .find(|p| p.mix == mix.name && p.variant == v && (p.offered_load - l).abs() < 1e-9)
                .expect("point exists")
        };
        let hi = *loads.last().unwrap();
        let unb = at("fifo-unbounded", hi);
        let bounded_worst = ["fifo", "wfq", "edf"]
            .iter()
            .map(|v| at(v, hi).p99_us)
            .fold(0.0f64, f64::max);
        println!(
            "{}: at {:.1}x load, p99 fifo-unbounded = {:.0} us vs worst bounded = {:.0} us ({}x)",
            mix.name,
            hi,
            unb.p99_us,
            bounded_worst,
            (unb.p99_us / bounded_worst.max(1e-9)) as u64
        );
    }

    if cli.json {
        for p in &points {
            println!("{}", serde_json::to_string(p).expect("serializable"));
        }
    }
}
