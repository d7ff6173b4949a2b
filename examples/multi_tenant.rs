//! Multi-tenant serving demo: three tenants with different arrival
//! shapes, QoS needs, and deadlines share one Pagoda runtime through the
//! `pagoda-serve` front-end.
//!
//! * `packets` — a latency-sensitive 3DES pipeline, steady Poisson
//!   arrivals, 1.5 ms deadline, weight 4;
//! * `tiles`   — a bursty Mandelbrot tenant (2-state MMPP), weight 2;
//! * `batch`   — best-effort matrix multiplies, weight 1, happy to be
//!   shed under pressure (small queue budget).
//!
//! The weighted-fair scheduler keeps `packets` responsive through
//! `tiles`' bursts while `batch` soaks up leftover table capacity.
//! Prints per-tenant admission/latency tables and writes a
//! Chrome-tracing timeline with one span track per task/tenant plus
//! per-SMM resource counter tracks (free warp slots, free smem, live
//! table entries), captured through the `pagoda-obs` recorder.
//!
//! Run with `cargo run --release --example multi_tenant`. Two optional
//! flags scale the scenario out:
//!
//! * `--devices N` — serve the same mix on an N-device
//!   `pagoda-cluster` fleet (least-outstanding placement) instead of a
//!   single runtime, and report the per-device fleet breakdown;
//! * `--skew S` — reweight the tenants' arrival rates by a Zipf
//!   distribution with exponent `S` (aggregate rate preserved), so the
//!   head tenant dominates and the schedulers earn their keep;
//! * `--prof DIR` — decompose every task's sojourn into critical-path
//!   phases with `pagoda-prof`, print the phase table and per-tenant
//!   SLO verdicts, and write `DIR/prof.prom` (Prometheus text
//!   exposition) plus `DIR/prof.folded` (flamegraph folded stacks).

use pagoda::prelude::*;

fn main() {
    let mut devices = 1usize;
    let mut skew = 0.0f64;
    let mut prof_dir: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--devices" => {
                devices = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--devices needs a positive integer");
                assert!(devices >= 1, "--devices needs a positive integer");
            }
            "--skew" => {
                skew = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--skew needs a Zipf exponent (e.g. 1.2)");
                assert!(skew >= 0.0, "--skew must be non-negative");
            }
            "--prof" => {
                prof_dir = Some(args.next().expect("--prof needs a directory").into());
            }
            other => panic!("unknown argument {other} (try --devices N / --skew S / --prof DIR)"),
        }
    }

    let mut packets = TenantSpec::new("packets", Bench::Des3, 5.0e5);
    packets.weight = 4;
    packets.deadline = Some(Dur::from_us(1_500));
    packets.queue_cap = 128;
    // The deadline is per-task best effort; the SLO is the aggregate
    // promise the profiler audits: 99% of packets under 1.5 ms.
    packets.slo = Some(SloSpec::p99_us(1_500));

    let mut tiles = TenantSpec::new("tiles", Bench::Mb, 2.5e5);
    tiles.weight = 2;
    tiles.queue_cap = 96;
    tiles.arrival = ArrivalSpec::Mmpp {
        calm_rate_per_s: 1.2e5,
        burst_rate_per_s: 8.0e5,
        mean_calm_us: 400.0,
        mean_burst_us: 120.0,
    };

    let mut batch = TenantSpec::new("batch", Bench::Mm, 1.0e5);
    batch.weight = 1;
    batch.queue_cap = 16;

    let mut tenants = vec![packets, tiles, batch];
    if skew > 0.0 {
        // Zipf-reweight the mean rates by tenant rank, preserving the
        // aggregate offered load: rank 1 takes the head of the curve.
        let agg: f64 = tenants.iter().map(|t| t.arrival.mean_rate_per_s()).sum();
        let weights: Vec<f64> = (1..=tenants.len())
            .map(|r| 1.0 / (r as f64).powf(skew))
            .collect();
        let wsum: f64 = weights.iter().sum();
        for (t, w) in tenants.iter_mut().zip(&weights) {
            let target = agg * w / wsum;
            t.arrival = t.arrival.scaled(target / t.arrival.mean_rate_per_s());
        }
    }

    let mut cfg = ServeConfig::new(tenants, Policy::WeightedFair);
    cfg.tasks_per_tenant = 1024;
    cfg.mix = if skew > 0.0 {
        format!("demo-zipf{skew}")
    } else {
        "demo".into()
    };

    // Record the whole stack — task lifecycles, admission counters,
    // per-SMM resource timelines — through one recorder.
    let (obs, recorder) = Obs::recording();
    cfg.obs = obs;

    let fleet_rep;
    let out = if devices > 1 {
        let mut fleet = ClusterHandle::new(ClusterConfig::uniform(devices))
            .expect("uniform fleet config is valid");
        let out = serve_on(&cfg, &mut fleet).expect("valid serving config");
        fleet_rep = Some(fleet.report());
        out
    } else {
        fleet_rep = None;
        serve(&cfg).expect("valid serving config")
    };
    let r = &out.report;

    println!(
        "served {} tenants under {} for {:.1} ms of simulated time",
        r.tenants.len(),
        r.policy,
        r.makespan_us / 1e3
    );
    println!(
        "throughput {:.1} k tasks/s, mean TaskTable occupancy {:.1}%, warp occupancy {:.1}%\n",
        r.throughput_per_s / 1e3,
        100.0 * r.avg_slot_occupancy,
        100.0 * r.avg_warp_occupancy
    );

    println!(
        "{:>8} {:>3} {:>8} {:>8} {:>6} {:>6} {:>8} {:>10} {:>10} {:>10}",
        "tenant", "w", "offered", "admit", "shed", "late", "maxq", "p50(us)", "p95(us)", "p99(us)"
    );
    for t in &r.tenants {
        println!(
            "{:>8} {:>3} {:>8} {:>8} {:>6} {:>6} {:>8} {:>10.1} {:>10.1} {:>10.1}",
            t.tenant,
            t.weight,
            t.offered,
            t.admitted,
            t.shed,
            t.deadline_missed,
            t.max_queue_depth,
            t.p50_sojourn_us,
            t.p95_sojourn_us,
            t.p99_sojourn_us
        );
    }

    if let Some(rep) = &fleet_rep {
        println!(
            "\nfleet of {}: {} placements ({} off-affinity), {} completed, warp occupancy {:.1}%",
            rep.devices.len(),
            rep.placements,
            rep.off_affinity,
            rep.completed,
            100.0 * rep.avg_warp_occupancy
        );
        for d in &rep.devices {
            println!(
                "  device {}: spawned {:>6}  completed {:>6}  occupancy {:.1}%",
                d.device,
                d.spawned,
                d.completed,
                100.0 * d.avg_running_occupancy
            );
        }
    }

    let buf = recorder.snapshot();
    let path = std::env::temp_dir().join("pagoda_multi_tenant_trace.json");
    let file = std::fs::File::create(&path).expect("create trace file");
    let mut w = std::io::BufWriter::new(file);
    pagoda_obs::write_chrome_trace(&buf, &mut w).expect("write trace");
    println!(
        "\ntimeline of {} spawned tasks + {} per-SMM resource samples written to {}",
        out.records.iter().filter(|r| r.spawn_us.is_some()).count(),
        buf.smm.len(),
        path.display()
    );
    println!("open it in chrome://tracing or https://ui.perfetto.dev");
    println!(
        "recorder counters: admitted={}, shed={}, scheduler decisions={}",
        buf.counter(Counter::AdmissionAdmitted),
        buf.counter(Counter::AdmissionShed),
        buf.counter(Counter::SchedulerDecisions),
    );

    for s in &r.slo {
        println!(
            "SLO {}: p{:.2} under {} us — {} of {} tasks late ({} ppm), burn rate {:.3}, {}",
            r.tenants[s.tenant as usize].tenant,
            s.spec.objective_ppm as f64 / 1e4,
            s.spec.latency_ps / 1_000_000,
            s.violations,
            s.tasks,
            s.violation_ppm,
            s.burn_rate_milli as f64 / 1e3,
            if s.met { "met" } else { "MISSED" },
        );
    }

    if let Some(dir) = prof_dir {
        let prof = ProfReport::from_buffer(&buf);
        // The telescoping contract: per group, the seven phases
        // partition the summed sojourn exactly.
        for g in &prof.groups {
            let phase_sum: u64 = Phase::ALL.iter().map(|&p| g.phase_total_ps(p)).sum();
            assert_eq!(
                phase_sum,
                g.sojourn.sum(),
                "phase decomposition must reconcile with sojourn in group {}",
                g.label
            );
        }

        let summary = prof.summary();
        println!(
            "\ncritical-path decomposition ({} completed tasks):",
            prof.total().tasks
        );
        println!(
            "{:>12} {:>12} {:>10} {:>10} {:>7}",
            "phase", "total(us)", "mean(us)", "p99(us)", "share"
        );
        let wall: u64 = prof.total().sojourn.sum();
        for p in &summary.groups[0].phases {
            println!(
                "{:>12} {:>12.1} {:>10.2} {:>10.2} {:>6.1}%",
                p.phase,
                p.total_ps as f64 / 1e6,
                p.mean_ps as f64 / 1e6,
                p.p99_ps as f64 / 1e6,
                100.0 * p.total_ps as f64 / wall.max(1) as f64,
            );
        }

        std::fs::create_dir_all(&dir).expect("create prof dir");
        let prom_path = dir.join("prof.prom");
        let mut prom = Vec::new();
        write_prometheus(&prof, &mut prom).expect("render exposition");
        check_exposition(std::str::from_utf8(&prom).expect("exposition is utf-8"))
            .expect("exposition parses");
        std::fs::write(&prom_path, &prom).expect("write prof.prom");
        let folded_path = dir.join("prof.folded");
        let mut folded = Vec::new();
        write_folded(&prof, &mut folded).expect("render folded stacks");
        std::fs::write(&folded_path, &folded).expect("write prof.folded");
        println!(
            "profile exports written to {} and {} ({} groups)",
            prom_path.display(),
            folded_path.display(),
            prof.groups.len()
        );
    }
}
