//! Four-device fleet quickstart: route a batch of narrow tasks across a
//! `pagoda-cluster` fleet, kill one device mid-run, and watch the
//! resubmit policy replay its stranded work onto the survivors.
//!
//! Demonstrates the pieces DESIGN.md §12 describes:
//!
//! * `ClusterConfig::uniform(4)` — four independent simulated Titan Xs
//!   (own PCIe link, TaskTable, MasterKernel each) under one fleet clock;
//! * power-of-two-choices placement with a deterministic seed;
//! * a `Kill` fault injected at 60 us with `RetryPolicy::Resubmit`;
//! * cluster counters surfaced through the `pagoda-obs` recorder.
//!
//! Run with `cargo run --release --example cluster`. Pass `--prof DIR`
//! to decompose every task's fleet sojourn into critical-path phases
//! (per-device groups included, courtesy of the routing stream) and
//! write `DIR/prof.prom` + `DIR/prof.folded`.

use pagoda::prelude::*;

fn main() {
    let mut prof_dir: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--prof" => {
                prof_dir = Some(args.next().expect("--prof needs a directory").into());
            }
            other => panic!("unknown argument {other} (try --prof DIR)"),
        }
    }

    let mut cfg = ClusterConfig::uniform(4);
    cfg.placement = Placement::PowerOfTwo;
    cfg.seed = 0xf1ee7;
    cfg.retry = RetryPolicy::Resubmit { max_attempts: 4 };
    // Device 2 dies 60 us in — with ~230 us tasks, plenty is in flight.
    cfg.faults = vec![FaultSpec {
        at: SimTime::from_us(60),
        device: 2,
        kind: FaultKind::Kill,
    }];

    let mut fleet = ClusterHandle::new(cfg).expect("uniform config is valid");
    let (obs, recorder) = Obs::recording();
    fleet.attach_obs(obs);

    // Closed-loop batch: the same blocking spawn as on a single runtime
    // (`Backend::spawn_blocking` — sync when the fleet says Full, idle
    // one wait timeout if still full, retry).
    const TASKS: usize = 256;
    let keys: Vec<u64> = (0..TASKS)
        .map(|_| {
            let desc = TaskDesc::uniform(96, WarpWork::compute(500_000, 8.0));
            fleet.spawn_blocking(0, desc).expect("task rejected")
        })
        .collect();
    fleet.wait_all();

    let rep = fleet.report();
    println!(
        "fleet of {} finished {} tasks in {} (warp occupancy {:.1}%)",
        rep.devices.len(),
        rep.completed,
        rep.makespan,
        100.0 * rep.avg_warp_occupancy
    );
    println!(
        "kills {}  resubmits {}  lost {}  off-affinity {} of {} placements\n",
        rep.kills, rep.resubmits, rep.tasks_lost, rep.off_affinity, rep.placements
    );

    println!(
        "{:>6} {:>6} {:>8} {:>10} {:>10}",
        "device", "alive", "spawned", "completed", "occupancy"
    );
    for d in &rep.devices {
        println!(
            "{:>6} {:>6} {:>8} {:>10} {:>9.1}%",
            d.device,
            d.alive,
            d.spawned,
            d.completed,
            100.0 * d.avg_running_occupancy
        );
    }

    assert_eq!(rep.tasks_lost, 0, "resubmit policy must lose nothing");
    assert!(keys
        .iter()
        .all(|&k| matches!(fleet.status(k), Ok(TaskStatus::Done))));

    let buf = recorder.snapshot();
    println!(
        "\nrecorder: {} placements, {} resubmits, {} device kill(s), {} device samples",
        buf.counter(Counter::ClusterPlacements),
        buf.counter(Counter::ClusterResubmits),
        buf.counter(Counter::ClusterDeviceKills),
        buf.devices.len()
    );

    if let Some(dir) = prof_dir {
        let prof = ProfReport::from_buffer(&buf);
        // The telescoping contract, fleet edition: phases partition the
        // summed sojourn in every group, dead device and resubmits
        // notwithstanding.
        for g in &prof.groups {
            let phase_sum: u64 = Phase::ALL.iter().map(|&p| g.phase_total_ps(p)).sum();
            assert_eq!(
                phase_sum,
                g.sojourn.sum(),
                "phase decomposition must reconcile with sojourn in group {}",
                g.label
            );
        }

        println!("\ncritical-path decomposition by group:");
        for g in &prof.summary().groups {
            let execution = g
                .phases
                .iter()
                .find(|p| p.phase == "execution")
                .map_or(0, |p| p.total_ps);
            println!(
                "{:>10}: {:>4} tasks, p99 sojourn {:>8.1} us, execution share {:>5.1}%",
                g.label,
                g.tasks,
                g.sojourn.p99_ps as f64 / 1e6,
                100.0 * execution as f64
                    / g.phases.iter().map(|p| p.total_ps).sum::<u64>().max(1) as f64,
            );
        }

        std::fs::create_dir_all(&dir).expect("create prof dir");
        let mut prom = Vec::new();
        write_prometheus(&prof, &mut prom).expect("render exposition");
        check_exposition(std::str::from_utf8(&prom).expect("exposition is utf-8"))
            .expect("exposition parses");
        std::fs::write(dir.join("prof.prom"), &prom).expect("write prof.prom");
        let mut folded = Vec::new();
        write_folded(&prof, &mut folded).expect("render folded stacks");
        std::fs::write(dir.join("prof.folded"), &folded).expect("write prof.folded");
        println!(
            "profile exports written to {} ({} groups)",
            dir.display(),
            prof.groups.len()
        );
    }
}
