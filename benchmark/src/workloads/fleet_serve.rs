//! `fleet_serve` — the whole stack in one open-loop run.
//!
//! Eight tenants whose rates follow Zipf(1.2), cycling 3DES / DCT / MM /
//! CONV (DCT and MM in their shared-memory variants, so the buddy
//! allocator and barriers run under serving too), per-tenant counts
//! proportional to rate (48 k arrivals in all),
//! weighted-fair queueing with 512-deep queues, served through
//! `serve_on` onto a 4-device fleet with power-of-two routing and
//! single-device home sets (so off-home placements stage state across
//! the interconnect). Device 2 is killed at 40 % of the arrival horizon
//! and its stranded tasks are resubmitted. The aggregate rate is 0.8 ×
//! the fleet's calibrated capacity. The `pagoda-obs` recorder is
//! attached and the `pagoda-prof` report is derived inside the timed
//! region: they are features of the system under test — what a
//! `--prof DIR` user pays — not the benchmark's instrument.

use std::time::Instant;

use pagoda::prelude::*;

use super::{hash_sojourns, EngineTotals, Outcome, Probe};
use crate::fnv::Fnv;
use crate::stats;

/// Devices in the fleet.
pub const DEVICES: usize = 4;
/// Tenants.
pub const TENANTS: usize = 8;
/// Arrivals at full scale.
pub const ARRIVALS: usize = 48_000;
/// Zipf exponent of the tenants' rates.
pub const ZIPF_S: f64 = 1.2;
/// Offered load, × calibrated fleet capacity.
pub const LOAD: f64 = 0.8;
/// The device that dies, and when (share of the arrival horizon).
pub const KILL: (usize, f64) = (2, 0.4);
/// Arrivals in the capacity probe (does not scale down: a short probe
/// is dominated by its drain tail).
const PROBE_ARRIVALS: usize = 4096;

/// MM stands where the issue named MB: a Mandelbrot tile inside the set
/// costs ~1 ms, such tiles are ~1 % of this mix, and so the 99th
/// percentile jumped between ~450 µs and ~1000 µs from seed to seed.
const BENCHES: [Bench; 4] = [Bench::Des3, Bench::Dct, Bench::Mm, Bench::Conv];

/// Each tenant's share of the aggregate rate.
fn shares() -> Vec<f64> {
    let w: Vec<f64> = (1..=TENANTS).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let sum: f64 = w.iter().sum();
    w.into_iter().map(|x| x / sum).collect()
}

fn tenants(rate_per_s: f64, arrivals: usize, queue_cap: usize) -> Vec<TenantSpec> {
    shares()
        .into_iter()
        .enumerate()
        .map(|(i, share)| {
            let bench = BENCHES[i % BENCHES.len()];
            let mut t = TenantSpec::new(&format!("t{i}"), bench, share * rate_per_s);
            t.queue_cap = queue_cap;
            t.gen.use_smem = bench.uses_smem();
            t.tasks = Some(((share * arrivals as f64).round() as usize).max(1));
            t
        })
        .collect()
}

fn cluster(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::uniform(DEVICES);
    cfg.placement = Placement::PowerOfTwo;
    cfg.affinity_spread = 1;
    cfg.seed = seed;
    cfg.retry = RetryPolicy::Resubmit { max_attempts: 3 };
    cfg
}

/// The set-up product: both layers' configurations.
pub struct Inputs {
    /// The serving experiment (observability not yet attached).
    pub serve: ServeConfig,
    /// The fleet, fault schedule included.
    pub cluster: ClusterConfig,
    /// Saturated arrivals/s the healthy fleet sustains on this mix.
    pub capacity_per_s: f64,
    /// Aggregate offered rate, arrivals per simulated second.
    pub rate_per_s: f64,
}

impl Inputs {
    /// Calibrates the fleet on the tenant mix and builds the experiment.
    pub fn generate(seed: u64, scale: usize) -> Inputs {
        // Capacity: the same mix, every arrival due at t ≈ 0, nothing
        // shed, on the healthy fleet. The probe keeps the default seeds
        // whatever `--seed` is: capacity is the ruler the offered rate is
        // read off, and it must not move with the seed.
        let probe = ServeConfig::new(tenants(1.0e12, PROBE_ARRIVALS, usize::MAX), Policy::Fifo);
        let mut fleet = ClusterHandle::new(cluster(probe.seed)).expect("fleet config is valid");
        let capacity_per_s = serve_on(&probe, &mut fleet)
            .expect("calibration config is valid")
            .report
            .throughput_per_s;

        let arrivals = (ARRIVALS / scale).max(1024);
        let rate_per_s = LOAD * capacity_per_s;
        let mut serve = ServeConfig::new(tenants(rate_per_s, arrivals, 512), Policy::WeightedFair);
        serve.seed = seed;
        serve.mix = format!("zipf-{ZIPF_S}");
        serve.offered_load = LOAD;

        let horizon_s = arrivals as f64 / rate_per_s;
        let mut cluster = cluster(seed);
        cluster.faults.push(FaultSpec {
            at: SimTime::from_ps((KILL.1 * horizon_s * 1e12) as u64),
            device: KILL.0,
            kind: FaultKind::Kill,
        });
        Inputs {
            serve,
            cluster,
            capacity_per_s,
            rate_per_s,
        }
    }
}

/// Everything beyond the common outcome.
pub struct Detail {
    /// The fleet's own report.
    pub report: FleetReport,
    /// Host seconds up to the end of `serve_on` (fleet construction and
    /// serving, before the recorder is read out).
    pub serve_s: f64,
    /// Serving counters summed over tenants: offered, admitted, shed,
    /// expired, completed, deadline-missed.
    pub serve_counts: [u64; 6],
    /// Deepest tenant queue.
    pub max_queue_depth: u64,
    /// Mean admission-capacity occupancy over dispatch rounds.
    pub slot_occupancy: f64,
    /// The recorder's output and the profile derived from it (absent
    /// when the run had observability off).
    pub recorded: Option<Recorded>,
}

/// What the recorder and the profiler produced.
pub struct Recorded {
    /// The event buffer.
    pub buffer: ObsBuffer,
    /// The critical-path profile.
    pub prof: ProfReport,
}

impl Recorded {
    /// Events the recorder captured, all streams.
    pub fn events_captured(&self) -> u64 {
        let b = &self.buffer;
        (b.tasks.len()
            + b.tenants.len()
            + b.smm.len()
            + b.mtb.len()
            + b.devices.len()
            + b.syncs.len()
            + b.marks.len()
            + b.routes.len()) as u64
    }

    /// Simulated ps spent in each phase over all completed tasks,
    /// `Phase::ALL` order.
    pub fn phase_totals_ps(&self) -> [u64; 7] {
        Phase::ALL.map(|p| self.prof.total().phase_total_ps(p))
    }

    /// `|Σ phases − Σ sojourns|` in ps: the profiler's exact-sum
    /// contract says 0.
    pub fn phase_sum_mismatch_ps(&self) -> u64 {
        let phases: u64 = self.phase_totals_ps().iter().sum();
        phases.abs_diff(self.prof.total().sojourn.sum())
    }

    /// Renders the profile as Prometheus text and validates it.
    ///
    /// # Errors
    /// The validator's message.
    pub fn check_prometheus(&self) -> Result<(), String> {
        let mut text = Vec::new();
        write_prometheus(&self.prof, &mut text).map_err(|e| e.to_string())?;
        check_exposition(std::str::from_utf8(&text).map_err(|e| e.to_string())?)
    }
}

/// Drives the experiment once, recorder and profiler on.
pub fn run<P: Probe>(inputs: &Inputs, probe: &mut P) -> (Outcome, Detail) {
    run_with(inputs, true, probe)
}

/// [`run`], optionally with observability off (the recording-overhead
/// pairs of the traced run).
pub fn run_with<P: Probe>(inputs: &Inputs, record: bool, probe: &mut P) -> (Outcome, Detail) {
    let t0 = Instant::now();
    let mut fleet = probe.span("cluster.new", || {
        ClusterHandle::new(inputs.cluster.clone()).expect("fleet config is valid")
    });
    let mut cfg = inputs.serve.clone();
    let recorder = record.then(|| {
        let (obs, rec) = Obs::recording();
        cfg.obs = obs;
        rec
    });
    let out = probe.serve_on(&cfg, &mut fleet);
    let serve_s = t0.elapsed().as_secs_f64();
    let recorded = recorder.map(|rec| {
        let buffer = probe.span("obs.snapshot", || rec.snapshot());
        let prof = probe.span("prof.report", || ProfReport::from_buffer(&buffer));
        Recorded { buffer, prof }
    });
    let report = probe.span("cluster.report", || fleet.report());
    let host_s = t0.elapsed().as_secs_f64();

    let sojourns_us: Vec<f64> = out.records.iter().filter_map(|r| r.sojourn_us).collect();
    let tenants = &out.report.tenants;
    let serve_counts = [
        tenants.iter().map(|t| t.offered).sum(),
        tenants.iter().map(|t| t.admitted).sum(),
        tenants.iter().map(|t| t.shed).sum(),
        tenants.iter().map(|t| t.expired).sum(),
        tenants.iter().map(|t| t.completed).sum(),
        tenants.iter().map(|t| t.deadline_missed).sum(),
    ];
    let [offered, _, shed, expired, served, _] = serve_counts;
    let mut h = Fnv::new();
    hash_sojourns(&mut h, &sojourns_us);
    h.debug(&fleet.engine_stats());
    h.debug(&report);
    h.f64(out.report.throughput_per_s);

    // The serving loop sees a task lost to the kill as finished at its
    // loss instant; the fleet's count moves it from completed to lost.
    let completed = served - report.tasks_lost;
    let outcome = Outcome {
        segments_s: vec![host_s],
        sim_tasks_per_s: completed as f64 / (out.report.makespan_us / 1e6),
        sojourns_us: stats::sorted(&sojourns_us),
        offered,
        completed,
        shed,
        expired,
        lost: report.tasks_lost,
        unresolved: offered - served - shed - expired,
        fingerprint: h.finish(),
        engine: EngineTotals::of(&fleet),
    };
    let detail = Detail {
        report,
        serve_s,
        serve_counts,
        max_queue_depth: tenants.iter().map(|t| t.max_queue_depth).max().unwrap_or(0),
        slot_occupancy: out.report.avg_slot_occupancy,
        recorded,
    };
    (outcome, detail)
}
