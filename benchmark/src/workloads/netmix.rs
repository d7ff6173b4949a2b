//! `serve_netmix` — open-loop serving on a small device slice.
//!
//! The `serve_curves` netmix — `packets`: 3DES, Poisson, share 0.67,
//! weight 2, queue 32, deadline 1500 µs; `tiles`: MB, 4:1 MMPP, share
//! 0.33, queue 32, deadline 3000 µs — on a 2-SMM slice (128 TaskTable
//! entries) under EDF with late work cancelled, at eight offered rates
//! from 0.5× to 2.0× the calibrated capacity. One rep is the whole
//! ladder. Arrivals are pre-generated in simulated time and each is
//! timed from its due instant, so generator lateness is 0 by
//! construction.

use std::time::Instant;

use pagoda::prelude::*;

use super::{hash_sojourns, EngineTotals, Outcome, Probe};
use crate::fnv::Fnv;
use crate::stats;

/// Offered load of each ladder point, × calibrated capacity.
pub const LOADS: [f64; 8] = [0.5, 0.8, 1.0, 1.1, 1.2, 1.35, 1.5, 2.0];
/// The ladder point the latency percentiles are read at: the lightest.
/// (At 0.8× the median sojourn ran 56–95 µs from seed to seed — seeds
/// with heavier Mandelbrot tiles sit nearer the knee — at 0.5×, 59–66.)
pub const LATENCY_POINT: usize = 0;
/// The latency limit: an arrival meets it by finishing within this long
/// of its due instant; a shed or expired arrival misses it.
pub const SLO_US: f64 = 1500.0;
/// Share of *offered* arrivals that must meet the limit.
pub const SLO_SHARE: f64 = 0.99;
/// Arrivals per ladder point at full scale.
pub const ARRIVALS_PER_POINT: usize = 40_000;
/// Tasks in each capacity probe (a short probe is dominated by its
/// drain tail and understates capacity, so this does not scale down).
const PROBE_TASKS: usize = 512;

struct MixTenant {
    name: &'static str,
    bench: Bench,
    share: f64,
    weight: u32,
    deadline_us: u64,
    bursty: bool,
}

const MIX: [MixTenant; 2] = [
    MixTenant {
        name: "packets",
        bench: Bench::Des3,
        share: 0.67,
        weight: 2,
        deadline_us: 1_500,
        bursty: false,
    },
    MixTenant {
        name: "tiles",
        bench: Bench::Mb,
        share: 0.33,
        weight: 1,
        deadline_us: 3_000,
        bursty: true,
    },
];

/// An MMPP with a 4:1 burst-to-calm intensity ratio whose long-run mean
/// is `rate_per_s`.
fn bursty(rate_per_s: f64) -> ArrivalSpec {
    let shape = ArrivalSpec::Mmpp {
        calm_rate_per_s: 0.5,
        burst_rate_per_s: 2.0,
        mean_calm_us: 300.0,
        mean_burst_us: 100.0,
    };
    shape.scaled(rate_per_s / shape.mean_rate_per_s())
}

/// Saturated tasks/s of `bench` on `runtime`: every probe arrival lands
/// at t ≈ 0 in an unbounded queue (what `calibrate_capacity` does). The
/// probe keeps the default seed whatever `--seed` is: capacity is the
/// ladder's ruler, and a ruler that changed with the seed would move
/// every simulated metric for a reason that is not the system's.
fn saturated_rate(runtime: &PagodaConfig, bench: Bench) -> f64 {
    let mut probe = TenantSpec::new("probe", bench, 1.0e12);
    probe.queue_cap = usize::MAX;
    let mut cfg = ServeConfig::new(vec![probe], Policy::Fifo);
    cfg.tasks_per_tenant = PROBE_TASKS;
    cfg.runtime = runtime.clone();
    serve(&cfg)
        .expect("calibration config is valid")
        .report
        .throughput_per_s
}

/// The set-up product: the device slice and its calibrated capacity.
pub struct Inputs {
    /// The 2-SMM serving slice.
    pub runtime: PagodaConfig,
    /// Saturated tasks/s on the mix's blend: `1/C = Σ share_i / C_i`.
    pub capacity_per_s: f64,
    /// The seed every point's arrival streams derive from.
    pub seed: u64,
    /// Arrivals per ladder point.
    pub arrivals: usize,
    /// Observability sink every point attaches (off, except for the
    /// traced run's counting pass).
    pub obs: Obs,
}

impl Inputs {
    /// Builds the slice and calibrates its capacity.
    pub fn generate(seed: u64, scale: usize) -> Inputs {
        let mut runtime = PagodaConfig::default();
        runtime.device.spec.num_sms = 2;
        let inv: f64 = MIX
            .iter()
            .map(|t| t.share / saturated_rate(&runtime, t.bench))
            .sum();
        Inputs {
            runtime,
            capacity_per_s: 1.0 / inv,
            seed,
            arrivals: (ARRIVALS_PER_POINT / scale).max(512),
            obs: Obs::off(),
        }
    }

    /// The serving experiment at `load` × capacity.
    pub fn config(&self, load: f64) -> ServeConfig {
        let rate = load * self.capacity_per_s;
        let tenants = MIX
            .iter()
            .map(|t| {
                let mut spec = TenantSpec::new(t.name, t.bench, t.share * rate);
                spec.weight = t.weight;
                spec.queue_cap = 32;
                spec.deadline = Some(Dur::from_us(t.deadline_us));
                if t.bursty {
                    spec.arrival = bursty(t.share * rate);
                }
                // Share-proportional counts: both streams span the same
                // window, so the aggregate rate holds for the whole run.
                spec.tasks = Some(((t.share * self.arrivals as f64).round() as usize).max(1));
                spec
            })
            .collect();
        let mut cfg = ServeConfig::new(tenants, Policy::Edf);
        cfg.cancel_late = true;
        cfg.seed = self.seed;
        cfg.mix = "netmix".into();
        cfg.offered_load = load;
        cfg.runtime = self.runtime.clone();
        cfg.obs = self.obs.clone();
        cfg
    }
}

/// One ladder point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Offered load, × capacity.
    pub load: f64,
    /// Offered rate, arrivals per simulated second.
    pub rate_per_s: f64,
    /// Arrivals offered.
    pub offered: u64,
    /// Admitted to a queue.
    pub admitted: u64,
    /// Refused at admission.
    pub shed: u64,
    /// Cancelled past deadline at dispatch.
    pub expired: u64,
    /// Completed.
    pub completed: u64,
    /// Completed after their deadline.
    pub deadline_missed: u64,
    /// Deepest tenant queue.
    pub max_queue_depth: u64,
    /// Completions per simulated second.
    pub throughput_per_s: f64,
    /// Mean TaskTable occupancy over dispatch rounds.
    pub slot_occupancy: f64,
    /// Median sojourn, µs.
    pub p50_us: f64,
    /// 99th-percentile sojourn, µs.
    pub p99_us: f64,
    /// Share of offered arrivals that finished within [`SLO_US`].
    pub within_slo: f64,
    /// Host seconds for the point.
    pub host_s: f64,
    /// The runtime's own report (occupancy, bus busy time).
    pub summary: RunSummary,
}

/// Per-point results.
pub struct Detail {
    /// [`LOADS`] order.
    pub points: Vec<Point>,
}

impl Detail {
    /// Highest offered rate whose point met the latency limit (0 if none
    /// did). Queues are bounded, so no point has a growing backlog.
    pub fn rate_under_slo_per_s(&self) -> f64 {
        self.points
            .iter()
            .filter(|p| p.within_slo >= SLO_SHARE)
            .map(|p| p.rate_per_s)
            .fold(0.0, f64::max)
    }
}

/// Runs the whole ladder once.
pub fn run<P: Probe>(inputs: &Inputs, probe: &mut P) -> (Outcome, Detail) {
    let mut points = Vec::with_capacity(LOADS.len());
    let mut engine = EngineTotals::default();
    let mut h = Fnv::new();
    let mut latency_sample = Vec::new();
    let (mut shed, mut expired, mut completed, mut offered) = (0, 0, 0, 0);

    for (i, &load) in LOADS.iter().enumerate() {
        let cfg = inputs.config(load);
        let t0 = Instant::now();
        let mut rt = probe.span("core.new", || PagodaRuntime::new(cfg.runtime.clone()));
        let out = probe.serve_on(&cfg, &mut rt);
        let point_s = t0.elapsed().as_secs_f64();

        let sojourns: Vec<f64> = out.records.iter().filter_map(|r| r.sojourn_us).collect();
        hash_sojourns(&mut h, &sojourns);
        let within = sojourns.iter().filter(|&&s| s <= SLO_US).count();
        let sorted = stats::sorted(&sojourns);
        let summary: RunSummary = rt.report().into();
        let stats = EngineTotals::of(&rt);
        h.debug(&stats);
        h.debug(&summary);
        engine.merge(&stats);
        let tenants = &out.report.tenants;
        let p = Point {
            load,
            rate_per_s: load * inputs.capacity_per_s,
            offered: out.records.len() as u64,
            admitted: tenants.iter().map(|t| t.admitted).sum(),
            shed: tenants.iter().map(|t| t.shed).sum(),
            expired: tenants.iter().map(|t| t.expired).sum(),
            completed: sojourns.len() as u64,
            deadline_missed: tenants.iter().map(|t| t.deadline_missed).sum(),
            max_queue_depth: tenants.iter().map(|t| t.max_queue_depth).max().unwrap_or(0),
            throughput_per_s: out.report.throughput_per_s,
            slot_occupancy: out.report.avg_slot_occupancy,
            p50_us: stats::percentile(&sorted, 50.0),
            p99_us: stats::percentile(&sorted, 99.0),
            within_slo: within as f64 / out.records.len().max(1) as f64,
            host_s: point_s,
            summary,
        };
        h.f64(p.throughput_per_s);
        if i == LATENCY_POINT {
            latency_sample = sorted;
        }
        shed += p.shed;
        expired += p.expired;
        completed += p.completed;
        offered += p.offered;
        points.push(p);
    }

    let outcome = Outcome {
        segments_s: points.iter().map(|p| p.host_s).collect(),
        sim_tasks_per_s: points.last().map_or(0.0, |p| p.throughput_per_s),
        sojourns_us: latency_sample,
        offered,
        completed,
        shed,
        expired,
        lost: 0,
        unresolved: offered - completed - shed - expired,
        fingerprint: h.finish(),
        engine,
    };
    (outcome, Detail { points })
}
