//! End-to-end runs: tracing off, one workload per process.
//!
//! `e2e --workload W --seed N --seconds S --trace 0` sets up (several
//! times, reporting the fastest), warms up at 1/16 scale, then repeats
//! the workload until `S` seconds of timed region have passed (at least
//! six reps) and prints every end-to-end metric, closing with the one
//! JSON object the acceptance driver reads. A rep is the same
//! deterministic computation every time, so what differs between reps
//! is the host, and on a shared host that only ever adds time:
//! `tasks_per_host_s` is therefore read off the *fastest* rep of each
//! segment of the workload (per benchmark or group of SLUD waves, per
//! ladder point), summed — the program's own cost, not its neighbours'.
//! The median and quartiles over whole reps are printed beside it.
//! `e2e --selfcheck` runs the whole set twice and compares the two
//! against the bounds.

use std::process::{Command, ExitCode};
use std::time::Instant;

use pagoda_benchmark::cli::{self, Args, Metric};
use pagoda_benchmark::heap;
use pagoda_benchmark::spec::{self, END_TO_END, WORKLOADS};
use pagoda_benchmark::stats::{self, Summary};
use pagoda_benchmark::workloads::{fig5, fleet_batch, fleet_serve, netmix, Outcome, Untraced};

/// Fewest reps a run makes, however slow they are: the fastest rep of a
/// segment is only as good as the quietest of its samples, and a box
/// slow enough to fit just four reps into the run is the box on which
/// that matters (six `paper_fig5` reps are ≈ 21 s on a quiet one).
const MIN_REPS: usize = 6;

/// One rep's outcome, what it found wrong, and workload-specific lines
/// for the human reader.
struct Rep {
    outcome: Outcome,
    problems: Vec<String>,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    heap::retain();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", spec::render_benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return selfcheck(&args);
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("--workload is required\n{}", cli::USAGE);
        return ExitCode::from(2);
    };
    let seed = args.seed;
    match workload.as_str() {
        "paper_fig5" => measure(
            &args,
            "closed loop, 1 client, <= 1536 TaskTable entries in flight",
            5,
            |scale| fig5::Inputs::generate(seed, scale),
            fig5_rep,
        ),
        "serve_netmix" => measure(
            &args,
            "open loop, 8 fixed rates; arrivals pre-generated in simulated time, \
             generator lateness 0 by construction",
            15,
            |scale| netmix::Inputs::generate(seed, scale),
            netmix_rep,
        ),
        "fleet_batch" => measure(
            &args,
            "closed loop, 1 client, <= 4 x 1536 entries in flight",
            101,
            |scale| fleet_batch::Inputs::generate(seed, scale),
            fleet_batch_rep,
        ),
        "fleet_serve" => measure(
            &args,
            "open loop, 1 fixed rate (0.8 x capacity); arrivals pre-generated in simulated \
             time, generator lateness 0 by construction",
            15,
            |scale| fleet_serve::Inputs::generate(seed, scale),
            fleet_serve_rep,
        ),
        other => unreachable!("Args::parse admitted unknown workload {other}"),
    }
}

fn fig5_rep(inputs: &fig5::Inputs) -> Rep {
    let (outcome, detail) = fig5::run(inputs, &mut Untraced);
    let notes = detail
        .runs
        .iter()
        .map(|r| {
            format!(
                "{:>5}: {:>6} tasks  sim makespan {:>10.1} us  host {:.3} s",
                r.bench.name(),
                r.tasks,
                r.summary.makespan.as_us_f64(),
                r.host_s
            )
        })
        .collect();
    Rep {
        outcome,
        problems: Vec::new(),
        notes,
    }
}

fn netmix_rep(inputs: &netmix::Inputs) -> Rep {
    let (outcome, detail) = netmix::run(inputs, &mut Untraced);
    let mut notes = vec![
        format!(
            "calibrated capacity {:.1} arrivals/sim_s; {} arrivals per point",
            inputs.capacity_per_s, inputs.arrivals
        ),
        format!(
            "{:>5} {:>12} {:>8} {:>7} {:>7} {:>9} {:>9} {:>8}",
            "load", "thru(/sim_s)", "done", "shed", "late", "p50(us)", "p99(us)", "in-SLO%"
        ),
    ];
    notes.extend(detail.points.iter().map(|p| {
        format!(
            "{:>5.2} {:>12.1} {:>8} {:>7} {:>7} {:>9.1} {:>9.1} {:>8.2}",
            p.load,
            p.throughput_per_s,
            p.completed,
            p.shed,
            p.expired,
            p.p50_us,
            p.p99_us,
            100.0 * p.within_slo
        )
    }));
    notes.push(format!(
        "sim_rate_under_slo_per_s {:.1} arrivals/sim_s (>= {:.0} % of offered within {:.0} us; \
         reported per layer as serve.sim_rate_under_slo_per_s)",
        detail.rate_under_slo_per_s(),
        100.0 * netmix::SLO_SHARE,
        netmix::SLO_US
    ));
    Rep {
        outcome,
        problems: Vec::new(),
        notes,
    }
}

fn fleet_batch_rep(inputs: &fleet_batch::Inputs) -> Rep {
    let (outcome, detail) = fleet_batch::run(inputs, fleet_batch::DEVICES, &mut Untraced);
    let r = &detail.report;
    let notes = vec![format!(
        "fleet: makespan {:.1} us, placements {}, off-affinity {}, per-device completed {:?}",
        r.makespan.as_us_f64(),
        r.placements,
        r.off_affinity,
        r.devices.iter().map(|d| d.completed).collect::<Vec<_>>()
    )];
    Rep {
        outcome,
        problems: Vec::new(),
        notes,
    }
}

fn fleet_serve_rep(inputs: &fleet_serve::Inputs) -> Rep {
    let (outcome, detail) = fleet_serve::run(inputs, &mut Untraced);
    let r = &detail.report;
    let rec = detail
        .recorded
        .as_ref()
        .expect("fleet_serve runs with the recorder attached");
    let mut problems = Vec::new();
    if let Err(e) = rec.check_prometheus() {
        problems.push(format!("Prometheus exposition rejected: {e}"));
    }
    if rec.phase_sum_mismatch_ps() != 0 {
        problems.push(format!(
            "profiler phases miss the sojourn sum by {} ps",
            rec.phase_sum_mismatch_ps()
        ));
    }
    let notes = vec![
        format!(
            "calibrated fleet capacity {:.1} arrivals/sim_s, offered {:.1}; kill of device {} at {}",
            inputs.capacity_per_s, inputs.rate_per_s, inputs.cluster.faults[0].device,
            inputs.cluster.faults[0].at
        ),
        format!(
            "fleet: placements {}, off-affinity {}, staged {}, resubmits {}, lost {}, kills {}, \
             per-device completed {:?}",
            r.placements,
            r.off_affinity,
            r.staging_transfers,
            r.resubmits,
            r.tasks_lost,
            r.kills,
            r.devices.iter().map(|d| d.completed).collect::<Vec<_>>()
        ),
        format!(
            "recorder: {} events captured; profile of {} tasks",
            rec.events_captured(),
            rec.prof.total().tasks
        ),
    ];
    Rep {
        outcome,
        problems,
        notes,
    }
}

/// Sets up `count` times (once for `--smoke`) and keeps the last
/// inputs. The count is fixed per workload — a time-based count would
/// change the allocation history, and with it `peak_rss_mb`, from run
/// to run.
fn setups<I>(count: usize, generate: &impl Fn(usize) -> I, scale: usize) -> (I, Vec<f64>) {
    let mut times = Vec::with_capacity(count);
    loop {
        let t0 = Instant::now();
        let inputs = generate(scale);
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= count {
            return (inputs, times);
        }
    }
}

fn measure<I>(
    args: &Args,
    loop_kind: &str,
    setup_reps: usize,
    generate: impl Fn(usize) -> I,
    rep: impl Fn(&I) -> Rep,
) -> ExitCode {
    let name = args.workload.as_deref().expect("checked by main");
    let scale = args.scale();
    println!(
        "== {name} (seed {}, scale 1/{scale}, {loop_kind}) ==",
        args.seed
    );

    let setup_reps = if args.smoke { 1 } else { setup_reps };
    let (inputs, setup_s) = setups(setup_reps, &generate, scale);

    // One untimed warm-up at 1/16 scale: page in code, size allocator
    // arenas, finish lazy set-up.
    let warm = rep(&generate(scale * 16));
    let mut problems = warm.problems;
    if !warm.outcome.conserved() {
        problems.push("warm-up rep lost track of an arrival".into());
    }

    let mut reps: Vec<Rep> = Vec::new();
    let mut timed = 0.0;
    loop {
        let r = rep(&inputs);
        timed += r.outcome.host_s();
        reps.push(r);
        if args.smoke || (reps.len() >= MIN_REPS && timed >= args.seconds) {
            break;
        }
    }

    let first = &reps[0].outcome;
    for (i, r) in reps.iter().enumerate() {
        let o = &r.outcome;
        problems.extend(r.problems.iter().map(|p| format!("rep {i}: {p}")));
        if !o.conserved() {
            problems.push(format!(
                "rep {i}: conservation broken: offered {} != completed {} + shed {} + expired {} + \
                 lost {} (unresolved {})",
                o.offered, o.completed, o.shed, o.expired, o.lost, o.unresolved
            ));
        }
        if o.fingerprint != first.fingerprint {
            problems.push(format!(
                "rep {i}: sim_fingerprint {:#018x} differs from rep 0's {:#018x}",
                o.fingerprint, first.fingerprint
            ));
        }
        let same = o
            .exact_metrics()
            .iter()
            .zip(first.exact_metrics())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            problems.push(format!("rep {i}: a simulated metric differs from rep 0"));
        }
    }

    for line in &reps[0].notes {
        println!("  {line}");
    }
    let host: Vec<f64> = reps.iter().map(|r| r.outcome.host_s()).collect();
    let rates: Vec<f64> = host.iter().map(|s| first.offered as f64 / s).collect();
    // The reported rate: units over the sum of per-segment minima.
    let undisturbed_s: f64 = (0..first.segments_s.len())
        .map(|i| {
            reps.iter()
                .map(|r| r.outcome.segments_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    println!(
        "  setup_s            {} s (the fastest is reported)",
        Summary::of(&setup_s)
    );
    println!("  rep host time      {} s", Summary::of(&host));
    println!(
        "  reps in order      {} s",
        host.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("  per-rep rate       {} tasks/host_s", Summary::of(&rates));
    println!(
        "  tasks_per_host_s   {:.3} tasks/host_s   ({} units over the sum of {} per-segment \
         minima, {undisturbed_s:.6} s)",
        first.offered as f64 / undisturbed_s,
        first.offered,
        first.segments_s.len()
    );
    println!(
        "  sim_tasks_per_s    {:.3} tasks/sim_s",
        first.sim_tasks_per_s
    );
    println!(
        "  sim_p50_us         {:.3} sim_us   ({} samples)",
        first.p50_us(),
        first.sojourns_us.len()
    );
    println!(
        "  sim_p99_us         {:.3} sim_us   ({} samples beyond it)",
        first.p99_us(),
        stats::samples_beyond(first.sojourns_us.len(), 99.0)
    );
    match first.p999_us() {
        Some(p) => println!("  sim_p99.9_us       {p:.3} sim_us"),
        None => println!("  sim_p99.9_us       not claimed (< 10 samples beyond it)"),
    }
    println!(
        "  completed_frac     {:.6}   (failed_frac {:.6}: shed {} + expired {} + lost {} + \
         unresolved {} of {} offered)",
        first.completed_frac(),
        first.failed_frac(),
        first.shed,
        first.expired,
        first.lost,
        first.unresolved,
        first.offered
    );
    println!("  sim_fingerprint {:#018x}", first.fingerprint);

    let value = |name: &str| match name {
        "setup_s" => Summary::of(&setup_s).min,
        "tasks_per_host_s" => first.offered as f64 / undisturbed_s,
        "peak_rss_mb" => cli::peak_rss_mb(),
        "sim_tasks_per_s" => first.sim_tasks_per_s,
        "sim_p50_us" => first.p50_us(),
        "sim_p99_us" => first.p99_us(),
        "completed_frac" => first.completed_frac(),
        other => unreachable!("no reading for end-to-end metric {other}"),
    };
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name.to_string(),
            value: value(m.name),
            unit: m.unit,
        })
        .collect();
    println!("  peak_rss_mb        {:.1} MB", value("peak_rss_mb"));

    for p in &problems {
        println!("  VIOLATION: {p}");
    }
    // `failed` counts operations that ended in no designed outcome: lost
    // after retries, or unresolved. Shed and expired arrivals are the
    // admission policy working and show in completed_frac.
    let failed = first.lost + first.unresolved;
    println!(
        "{}",
        cli::result_line(problems.is_empty(), first.offered, failed, &metrics)
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's readings.
struct Reading {
    metrics: Vec<(String, f64)>,
    fingerprint: String,
}

fn child_run(args: &Args, workload: &str) -> Result<Reading, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}:\n{text}", out.status));
    }
    let last = text.lines().last().ok_or("no output")?;
    let (correct, metrics) = cli::parse_result_line(last).ok_or("unreadable result line")?;
    if !correct {
        return Err(format!("{workload} reported correct: false"));
    }
    let fingerprint = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("sim_fingerprint "))
        .ok_or("no sim_fingerprint line")?
        .to_string();
    Ok(Reading {
        metrics,
        fingerprint,
    })
}

/// Runs the end-to-end set twice and holds the second against the first:
/// simulated metrics and fingerprints must be identical, host-time
/// metrics within their bound.
fn selfcheck(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut sets: Vec<Vec<Reading>> = Vec::new();
    for pass in 0..2 {
        let mut set = Vec::new();
        for w in &WORKLOADS {
            eprintln!("selfcheck: pass {pass}, {}", w.name);
            match child_run(args, w.name) {
                Ok(r) => set.push(r),
                Err(e) => {
                    println!("selfcheck: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(set);
    }
    println!(
        "{:<14} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        for ((name, va), (_, vb)) in a.metrics.iter().zip(&b.metrics) {
            let m = spec::end_to_end(name).expect("children report the contract's metrics");
            let diff = (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE);
            let (pass, bound) = if m.exact {
                (va.to_bits() == vb.to_bits(), "exact".to_string())
            } else {
                (diff <= m.bound, format!("{:.1}%", 100.0 * m.bound))
            };
            ok &= pass;
            println!(
                "{:<14} {:<18} {:>16.6} {:>16.6} {:>8.2}% {:>7}  {}",
                w.name,
                name,
                va,
                vb,
                100.0 * diff,
                bound,
                if pass { "ok" } else { "FAIL" }
            );
        }
        let same = a.fingerprint == b.fingerprint;
        ok &= same;
        println!(
            "{:<14} {:<18} {:>16} {:>16} {:>9} {:>7}  {}",
            w.name,
            "sim_fingerprint",
            a.fingerprint,
            b.fingerprint,
            "",
            "exact",
            if same { "ok" } else { "FAIL" }
        );
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
