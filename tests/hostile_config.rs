//! Hostile configurations (ROADMAP item 3): whatever a caller hands the
//! runtime, a fleet or the serving loop comes back as a typed error or
//! runs 64 small tasks with none lost — never a panic in a constructor.
//! Drawn: SMM count, shared memory and registers from {0, 1, small,
//! Titan X}, link bandwidths from {0, -1, NaN, ∞} in each direction,
//! polling slices from 0 and 1 ps up past 1 µs and table heights around
//! their bounds, and 0–4-device fleets with out-of-range, non-finite
//! and killing faults, every device killed included (what it was running
//! or is handed afterwards is reported lost); and serving experiments with
//! zero weights, rates from {0, -1, NaN, ∞, 10⁻⁹/s}, dwell times from
//! {0, NaN, 10⁻¹² µs}, zero queue budgets and zero task counts, zero
//! threads per task and work scales from {0, -1, NaN, ∞, 10³⁰⁰} under all
//! three policies; and serving runs over fleets whose every device dies
//! mid-stream, which resolve the arrivals left over as losses.

use pagoda::prelude::*;
use proptest::prelude::*;

const TASKS: usize = 64;

/// `hostile[i]`, or the paper's value past the end: drawing `i` from
/// twice the list's length keeps about half the draws on the paper's
/// machine, so a configuration with seven hostile axes still validates
/// often enough to run.
fn pick<T: Copy>(hostile: &[T], i: usize, paper: T) -> T {
    hostile.get(i).copied().unwrap_or(paper)
}

/// Link bandwidths in bytes/s: four a transfer cannot be priced at, and
/// a slow 100 MB/s one that still must run.
const BANDWIDTHS: [f64; 5] = [0.0, -1.0, f64::NAN, f64::INFINITY, 1.0e8];

/// A runtime configuration with every field an experiment sets drawn
/// from a hostile set: the SMM count, shared memory and register file from
/// {0, 1, small, Titan X}, each link direction from {0, -1, NaN, ∞,
/// 100 MB/s}, and the table height and polling timeout around their
/// bounds.
fn arb_config() -> impl Strategy<Value = PagodaConfig> {
    let axes = (0usize..8, 0usize..8, 0usize..8, 0usize..12, 0usize..10);
    let link = (0usize..10, 0usize..10, prop::bool::ANY);
    (axes, link).prop_map(|((sms, smem, regs, rows, wait), (h2d, d2h, slow_link))| {
        let paper = PagodaConfig::default();
        let mut device = paper.device.clone();
        let spec = &mut device.spec;
        spec.num_sms = pick(&[0, 1, 3, 24], sms, spec.num_sms);
        // 4 KB: a 2 KB pool per MTB, the smallest kind of SMM that fits.
        spec.smem_per_sm = pick(&[0, 1, 4 * 1024, 96 * 1024], smem, spec.smem_per_sm);
        // 32 K: one MasterKernel threadblock, not two.
        spec.regs_per_sm = pick(&[0, 1, 32 * 1024, 64 * 1024], regs, spec.regs_per_sm);
        let mut pcie = paper.pcie.clone();
        pcie.bw_h2d = pick(&BANDWIDTHS, h2d, pcie.bw_h2d);
        pcie.bw_d2h = pick(&BANDWIDTHS, d2h, pcie.bw_d2h);
        if slow_link {
            pcie.latency = Dur::from_us(5);
        }
        // A fleet polls its clock forward one slice at a time (each sync
        // costs device time, not fleet time): a zero slice never moves
        // it, and a 1 ps one crawls. Below 1 µs is a `ConfigError`.
        let waits = [
            Dur::ZERO,
            Dur::from_ps(1),
            Dur::from_ns(999),
            Dur::from_us(1),
            Dur::from_ms(1),
        ];
        PagodaConfig {
            device,
            pcie,
            rows_per_column: pick(&[0, 1, 7, 32, 1024, 1025], rows, paper.rows_per_column),
            wait_timeout: pick(&waits, wait, paper.wait_timeout),
            ..paper
        }
    })
}

/// Faults aimed at devices 0..=4 of a fleet of up to four, slowdowns
/// by factors from {NaN, 0.5, 1, 2, 4, ∞, 10¹², `f64::MAX`} (the last
/// two are finite and ≥ 1, but stretch a task past the fleet clock). Kills aim at any device, so
/// a fleet may lose every one of them.
fn arb_fault() -> impl Strategy<Value = FaultSpec> {
    (0usize..3, 0usize..5, 0usize..11).prop_map(|(at, device, kind)| {
        let factors = [f64::NAN, 0.5, 1.0, 4.0, f64::INFINITY, 1e12, f64::MAX];
        FaultSpec {
            at: [SimTime::ZERO, SimTime::from_us(3), SimTime::from_us(40)][at],
            device,
            kind: match kind {
                0..=2 => FaultKind::Kill,
                k => FaultKind::Slow {
                    factor: pick(&factors, k - 3, 2.0),
                },
            },
        }
    })
}

/// Rates (tasks/s) and MMPP dwell times (µs) no exponential can be
/// sampled at, or too small for the clock (a 10⁻⁹/s gap overflows it)
/// or for the generator (a sub-ps dwell all but never emits).
const RATES: [f64; 5] = [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-9];
const DWELLS: [f64; 3] = [0.0, f64::NAN, 1e-12];

/// Work scales no task can be built at: of no work, or never ending
/// (1e300 saturates every op count at `u64::MAX`).
const WORK_SCALES: [f64; 5] = [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300];

/// A tenant's arrival process, Poisson or MMPP, with each rate and dwell
/// time drawn from the hostile sets a quarter of the time (so about half
/// the tenants are sane), and whether any hostile value was drawn.
fn arb_arrival() -> impl Strategy<Value = (ArrivalSpec, bool)> {
    let axes = (0usize..16, 0usize..16, 0usize..8, 0usize..8);
    (prop::bool::ANY, axes).prop_map(|(bursty, (calm, burst, calm_us, burst_us))| {
        if !bursty {
            let rate_per_s = pick(&RATES, calm, 2.0e5);
            return (ArrivalSpec::Poisson { rate_per_s }, calm < RATES.len());
        }
        let spec = ArrivalSpec::Mmpp {
            calm_rate_per_s: pick(&RATES, calm, 1.0e5),
            burst_rate_per_s: pick(&RATES, burst, 1.0e6),
            mean_calm_us: pick(&DWELLS, calm_us, 300.0),
            mean_burst_us: pick(&DWELLS, burst_us, 100.0),
        };
        let hostile = calm < RATES.len()
            || burst < RATES.len()
            || calm_us < DWELLS.len()
            || burst_us < DWELLS.len();
        (spec, hostile)
    })
}

/// A tenant of 3DES tasks with a weight from {0, 1, 3}, a queue budget
/// from {0, 1, 64}, a drawn arrival process, zero threads per task one
/// time in sixteen and a work scale from the hostile set one time in
/// eight, and whether it is hostile under any policy (a zero weight is
/// hostile only under weighted-fair queueing).
fn arb_tenant() -> impl Strategy<Value = (TenantSpec, bool)> {
    let gen = (0usize..16, 0usize..40);
    (0usize..3, 0usize..3, arb_arrival(), gen).prop_map(
        |(weight, cap, (arrival, hostile), (threads, scale))| {
            let mut t = TenantSpec::new("t", Bench::Des3, 2.0e5);
            t.weight = [0, 1, 3][weight];
            t.queue_cap = [0, 1, 64][cap];
            t.arrival = arrival;
            t.gen.threads_per_task = pick(&[0], threads, 128);
            t.gen.work_scale = pick(&WORK_SCALES, scale, 1.0);
            let hostile = hostile || threads == 0 || scale < WORK_SCALES.len();
            (t, hostile)
        },
    )
}

/// Small tasks of three kinds: long enough (~90 us) to be in flight
/// when a fault lands, synchronizing (named barriers), and short; every
/// other one copies an output back.
fn small_task(i: usize) -> TaskDesc {
    let mut t = match i % 3 {
        0 => TaskDesc::uniform(64, WarpWork::compute(200_000, 8.0)),
        1 => TaskDesc::uniform(96, WarpWork::phased(6_000, 2, 2.0)),
        _ => TaskDesc::uniform(32, WarpWork::compute(2_000, 2.0)),
    };
    t.output_bytes = (i as u32 % 2) * 4096;
    t
}

/// The proptest draws a fleet that loses every device only now and then,
/// and rarely one small enough that a blocking spawn waits on it: here
/// is that case for each fleet size. Two-entry devices fill at once, so
/// the spawns after the last kill find nowhere to go.
#[test]
fn a_fleet_that_loses_every_device_resolves_every_task() {
    let mut tiny = PagodaConfig {
        rows_per_column: 1,
        ..PagodaConfig::default()
    };
    tiny.device.spec.num_sms = 1;
    for devices in 1..=3 {
        let mut cfg = ClusterConfig::uniform(devices);
        cfg.devices.fill(tiny.clone());
        cfg.retry = RetryPolicy::Resubmit { max_attempts: 5 };
        cfg.faults = (0..devices)
            .map(|device| FaultSpec {
                at: SimTime::from_us(3 + 20 * device as u64),
                device,
                kind: FaultKind::Kill,
            })
            .collect();
        let mut fleet = ClusterHandle::new(cfg).unwrap();
        let keys: Vec<u64> = (0..TASKS)
            .map(|i| fleet.spawn_blocking(0, small_task(i)).unwrap())
            .collect();
        fleet.wait_all();
        let report = fleet.report();
        assert_eq!(report.kills, devices as u64);
        let resolved = |k| matches!(fleet.status(k), Ok(TaskStatus::Done | TaskStatus::Lost));
        assert!(keys.iter().all(|&k| resolved(k)));
        assert_eq!(report.completed + report.tasks_lost, TASKS as u64);
        assert!(
            report.tasks_lost > 0,
            "{devices} device(s): nothing was lost"
        );
    }
}

/// A warp CPI that is NaN, infinite or below 1, in any run of a block,
/// is a typed error where the kernel is built, so no descriptor carries
/// it to `submit` and no simulated time is spent on it. (`WarpWork`'s
/// fields are public; its builders panic on such a CPI.) An infinite one
/// would otherwise run forever: its completion is predicted past the
/// clock's end.
#[test]
fn a_cpi_no_warp_can_run_at_is_a_kernel_error() {
    use pagoda::gpu_sim::KernelError;
    let rt = PagodaRuntime::titan_x();
    for cpi in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5, 0.0, -1.0] {
        let bad = WarpWork {
            segments: vec![Segment::Compute(1_000)],
            cpi,
        };
        let block = BlockWork::new([WarpWork::compute(1_000, 1.0), bad]);
        assert_eq!(
            Kernel::new(64, 0, false, [block]),
            Err(KernelError::BadCpi),
            "{cpi}"
        );
    }
    assert_eq!((rt.now(), rt.spawned()), (SimTime::ZERO, 0));
    assert!(std::panic::catch_unwind(|| WarpWork::compute(1_000, f64::INFINITY)).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128, // each case is a few milliseconds
        .. ProptestConfig::default()
    })]

    #[test]
    fn a_runtime_config_is_rejected_or_runs_every_task(cfg in arb_config()) {
        if cfg.validate().is_err() {
            return Ok(());
        }
        let mut rt = PagodaRuntime::new(cfg);
        let keys: Vec<u64> =
            (0..TASKS).map(|i| rt.spawn_blocking(0, small_task(i)).unwrap()).collect();
        rt.wait_all();
        prop_assert_eq!(rt.report().tasks, TASKS as u64);
        prop_assert!(keys.iter().all(|&key| rt.observed_done(key)));
    }

    #[test]
    fn a_fleet_config_is_rejected_or_loses_no_task(
        devices in 0usize..5,
        odd in arb_config(),
        which in 0usize..4,
        faults in prop::collection::vec(arb_fault(), 0..4),
        retry in 0usize..4,
    ) {
        let retry = [
            RetryPolicy::Fail,
            RetryPolicy::Resubmit { max_attempts: 0 },
            RetryPolicy::Resubmit { max_attempts: 2 },
            RetryPolicy::Resubmit { max_attempts: 5 },
        ][retry];
        let mut cfg = ClusterConfig::uniform(devices);
        cfg.retry = retry;
        // One device of the fleet is drawn hostile; a whole fleet of
        // them would almost never validate.
        if let Some(device) = cfg.devices.get_mut(which) {
            *device = odd;
        }
        cfg.faults = faults;
        if cfg.validate().is_err() {
            return Ok(());
        }
        let mut fleet = ClusterHandle::new(cfg).expect("a validated fleet builds");
        let keys: Vec<u64> =
            (0..TASKS).map(|i| fleet.spawn_blocking(0, small_task(i)).unwrap()).collect();
        fleet.wait_all();
        let report = fleet.report();
        // Every task resolves, as done or as a loss the fleet reports.
        let resolved = |k| matches!(fleet.status(k), Ok(TaskStatus::Done | TaskStatus::Lost));
        prop_assert!(keys.iter().all(|&k| resolved(k)));
        prop_assert_eq!(report.completed + report.tasks_lost, TASKS as u64);
        // A task is stranded once per kill at most, so a retry budget
        // past the kills applied loses nothing while a device survives
        // them.
        let survivor = report.devices.iter().any(|d| d.alive);
        if let RetryPolicy::Resubmit { max_attempts } = retry {
            if survivor && u64::from(max_attempts) > report.kills {
                prop_assert_eq!(report.tasks_lost, 0);
            }
        }
    }

    #[test]
    fn serve_rejects_the_runtime_or_resolves_every_arrival(cfg in arb_config()) {
        let mut sc = ServeConfig::new(
            vec![TenantSpec::new("t", Bench::Des3, 2.0e5)],
            Policy::Fifo,
        );
        sc.tasks_per_tenant = TASKS;
        sc.runtime = cfg;
        match serve(&sc) {
            Err(ServeError::InvalidRuntime(_) | ServeError::UnspawnableTask { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error {}", e),
            Ok(out) => prop_assert_eq!(out.records.len(), TASKS),
        }
    }

    /// 64 3DES arrivals at 2·10⁵/s span about 320 µs; every device dies
    /// in the first 100, so arrivals are left for a fleet with nowhere to
    /// run them. Each must still resolve: done, shed, expired, or lost
    /// at submit.
    #[test]
    fn serving_over_a_fleet_that_loses_every_device_resolves_every_arrival(
        kills_us in prop::collection::vec(0u64..100, 1..4),
        policy in 0usize..3,
        retry in 0usize..2,
        deadline in (prop::bool::ANY, 20u64..200),
        seed in 0u64..1_000,
    ) {
        let retry = [RetryPolicy::Fail, RetryPolicy::Resubmit { max_attempts: 2 }][retry];
        let deadline = deadline.0.then_some(deadline.1);
        let mut cfg = ClusterConfig::uniform(kills_us.len());
        cfg.retry = retry;
        cfg.faults = kills_us
            .iter()
            .enumerate()
            .map(|(device, &at)| FaultSpec {
                at: SimTime::from_us(at),
                device,
                kind: FaultKind::Kill,
            })
            .collect();
        let mut fleet = ClusterHandle::new(cfg).unwrap();
        let mut tenant = TenantSpec::new("t", Bench::Des3, 2.0e5);
        tenant.deadline = deadline.map(Dur::from_us);
        let policy = [Policy::Fifo, Policy::WeightedFair, Policy::Edf][policy];
        let mut sc = ServeConfig::new(vec![tenant], policy);
        sc.tasks_per_tenant = TASKS;
        sc.cancel_late = deadline.is_some();
        sc.seed = seed;
        let out = serve_on(&sc, &mut fleet).unwrap();
        let t = &out.report.tenants[0];
        prop_assert_eq!(out.records.len(), TASKS);
        prop_assert_eq!(t.offered, TASKS as u64);
        prop_assert_eq!(t.completed + t.shed + t.expired, t.offered);
        let report = fleet.report();
        prop_assert_eq!(report.kills, kills_us.len() as u64);
        prop_assert!(report.tasks_lost > 0, "nothing was lost");
        // A loss ends a sojourn as a completion does.
        prop_assert_eq!(report.completed + report.tasks_lost, t.completed);
    }

    #[test]
    fn a_serve_config_is_rejected_or_resolves_every_arrival(
        tenants in prop::collection::vec(arb_tenant(), 1..4),
        policy in 0usize..3,
        count in 0usize..5,
    ) {
        let policy = [Policy::Fifo, Policy::WeightedFair, Policy::Edf][policy];
        let hostile = tenants
            .iter()
            .any(|(t, bad)| *bad || (policy == Policy::WeightedFair && t.weight == 0));
        let mut sc = ServeConfig::new(tenants.into_iter().map(|(t, _)| t).collect(), policy);
        // One case in five has no arrivals at all.
        sc.tasks_per_tenant = if count == 0 { 0 } else { 32 };
        match serve(&sc) {
            Err(ServeError::BadTenant { tenant, .. }) => {
                prop_assert!(hostile, "a sane experiment was refused");
                prop_assert!(tenant < sc.tenants.len());
            }
            Err(e) => prop_assert!(false, "unexpected error {}", e),
            Ok(out) => {
                prop_assert!(!hostile, "a hostile experiment ran");
                prop_assert_eq!(out.records.len(), sc.tenants.len() * sc.tasks_per_tenant);
                for t in &out.report.tenants {
                    prop_assert_eq!(t.offered, t.admitted + t.shed);
                    prop_assert_eq!(t.admitted, t.completed + t.expired);
                }
            }
        }
    }
}
