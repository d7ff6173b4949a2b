//! The traced run: one rep per workload under the span recorder, plus
//! the bare-layer replays, printing every per-layer metric.
//!
//! `traced --workload W --seed N --trace 1` runs the workload three
//! times — a discarded full-size warm-up (the first rep at full size
//! pays for growing the heap), one with every call into a layer wrapped
//! in a span, one with tracing off as the reference wall time — checks
//! the traced and untraced reps produced the same simulated history, derives the per-layer metrics, writes the spans to
//! `benchmark/out/trace.<workload>.json`, and closes with the JSON
//! object the acceptance driver reads. Times named `*_s` are inclusive
//! of the co-simulated layers beneath the call (a `core.submit` span
//! contains the `gpu-sim`, `desim` and `pcie` work it triggers); the
//! `est_share_pct` figures that split them are estimates — operation
//! count × bare-layer unit cost — and are labelled so.

mod replay;
mod timed;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pagoda::prelude::*;

use pagoda_benchmark::cli::{self, Args, Metric};
use pagoda_benchmark::spec::{self, BENCH_KEYS, PHASE_KEYS};
use pagoda_benchmark::stats;
use pagoda_benchmark::workloads::{fig5, fleet_batch, fleet_serve, netmix, Outcome, Untraced};

use timed::TraceProbe;

/// The paper's Pagoda-over-{PThreads, HyperQ, GeMTC} geomean speedups.
const PAPER_GEOMEANS: [f64; 3] = [5.70, 1.51, 1.69];

/// Per-layer metric values; every name of the contract starts at 0.
struct Values(BTreeMap<String, f64>);

impl Values {
    fn new() -> Values {
        Values(
            spec::per_layer()
                .into_iter()
                .map(|m| (m.name, 0.0))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric of the contract"));
        *slot = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// A recorder that keeps only the counters: exact protocol counts
/// without buffering a single event.
struct Counters(Vec<AtomicU64>);

impl Counters {
    fn attach() -> (Obs, Arc<Counters>) {
        let c = Arc::new(Counters(
            Counter::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
        ));
        (Obs::new(c.clone()), c)
    }

    fn get(&self, c: Counter) -> u64 {
        self.0[c as usize].load(Ordering::Relaxed)
    }
}

impl Recorder for Counters {
    fn count(&self, c: Counter, delta: u64) {
        self.0[c as usize].fetch_add(delta, Ordering::Relaxed);
    }

    fn retains(&self) -> bool {
        false
    }
}

/// What one workload's traced pass hands back to `main`.
struct Pass {
    values: Values,
    problems: Vec<String>,
    probe: TraceProbe,
    outcome: Outcome,
}

fn main() -> ExitCode {
    pagoda_benchmark::heap::retain();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.clone() else {
        eprintln!("--workload is required\n{}", cli::USAGE);
        return ExitCode::from(2);
    };
    println!(
        "== {workload} traced (seed {}, scale 1/{}) ==",
        args.seed,
        args.scale()
    );
    let pass = match workload.as_str() {
        "paper_fig5" => paper_fig5(&args),
        "serve_netmix" => serve_netmix(&args),
        "fleet_batch" => fleet_batch_pass(&args),
        "fleet_serve" => fleet_serve_pass(&args),
        other => unreachable!("Args::parse admitted unknown workload {other}"),
    };

    let mut problems = pass.problems;
    match write_trace(&workload, args.seed, &pass.probe) {
        Ok(path) => println!("  spans written to {path}"),
        Err(e) => problems.push(format!("cannot write the trace file: {e}")),
    }

    println!("  -- per-layer metrics (times include the co-simulated layers beneath; est_* are estimates) --");
    let table = spec::per_layer();
    let metrics: Vec<Metric> = table
        .iter()
        .map(|m| Metric {
            name: m.name.clone(),
            value: pass.values.get(&m.name),
            unit: m.unit,
        })
        .collect();
    for m in &metrics {
        println!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        println!("  VIOLATION: {p}");
    }
    let o = &pass.outcome;
    println!(
        "{}",
        cli::result_line(
            problems.is_empty(),
            o.offered,
            o.lost + o.unresolved,
            &metrics
        )
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the spans under the launcher-provided directory (default
/// `benchmark/out` below the working directory).
fn write_trace(workload: &str, seed: u64, probe: &TraceProbe) -> std::io::Result<String> {
    let dir = std::env::var("PAGODA_BENCH_OUT").unwrap_or_else(|_| "benchmark/out".into());
    std::fs::create_dir_all(&dir)?;
    let path = format!("{dir}/trace.{workload}.json");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    probe.tracer.write_json(workload, seed, &mut file)?;
    std::io::Write::flush(&mut file)?;
    Ok(path)
}

/// Everything the four passes share once both reps are done: the
/// trace-vs-untraced comparison, the engine counters, and the
/// count × unit-cost share estimates of the inner layers.
fn common(
    v: &mut Values,
    problems: &mut Vec<String>,
    untraced: &Outcome,
    traced: &Outcome,
    probe: &TraceProbe,
    pcie_transactions: u64,
    seed: u64,
) {
    if untraced.fingerprint != traced.fingerprint {
        problems.push(format!(
            "tracing changed the simulated history: {:#018x} vs {:#018x}",
            untraced.fingerprint, traced.fingerprint
        ));
    }
    if !traced.conserved() {
        problems.push("conservation broken in the traced rep".into());
    }
    let wall_ns = untraced.host_s() * 1e9;
    v.set(
        "trace.overhead_pct",
        100.0 * (traced.host_s() - untraced.host_s()) / untraced.host_s(),
    );
    let spans = probe.tracer.spans();
    let top: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.busy_ns)
        .sum();
    v.set(
        "trace.accounted_pct",
        100.0 * top as f64 / (traced.host_s() * 1e9),
    );

    let e = &traced.engine;
    v.set("desim.delivered", e.delivered as f64);
    v.set("desim.scheduled", e.scheduled as f64);
    v.set("desim.cancelled", e.cancelled as f64);
    v.set("desim.rescheduled", e.rescheduled as f64);
    v.set("desim.max_queue_len", e.max_queue_len as f64);
    v.set(
        "desim.comparisons_per_pop",
        e.comparisons as f64 / e.delivered.max(1) as f64,
    );
    v.set(
        "desim.events_per_task",
        e.delivered as f64 / traced.offered.max(1) as f64,
    );
    v.set(
        "desim.events_per_host_s",
        e.delivered as f64 / untraced.host_s(),
    );
    let op_ns = replay::desim_ns_per_op(e);
    v.set("desim.replay_ns_per_op", op_ns);
    v.set(
        "desim.est_share_pct",
        100.0 * replay::desim_ops(e) as f64 * op_ns / wall_ns,
    );

    let mpe = Bench::Mpe.tasks(
        16_384,
        &GenOpts {
            use_smem: true,
            seed,
            ..GenOpts::default()
        },
    );
    let event_ns = replay::gpu_native_ns_per_event(&mpe);
    v.set("gpu-sim.native_ns_per_event", event_ns);
    v.set(
        "gpu-sim.est_share_pct",
        100.0 * e.delivered as f64 * event_ns / wall_ns,
    );

    let transfer_ns = replay::pcie_transfer_ns();
    v.set("pcie.transfer_ns", transfer_ns);
    v.set(
        "pcie.est_share_pct",
        100.0 * pcie_transactions as f64 * transfer_ns / wall_ns,
    );
}

/// The `core.*_s` and call-count metrics, from whichever spans carry
/// `core.` names (the driver's own on `paper_fig5`, the timed backend's
/// on `serve_netmix`).
fn core_spans(v: &mut Values, probe: &TraceProbe, tasks: u64, submit_full: u64) {
    let t = &probe.tracer;
    for s in ["new", "submit", "sync", "advance", "wait", "report"] {
        v.set(&format!("core.{s}_s"), t.total_s(&format!("core.{s}")));
    }
    let calls = t.calls("core.submit");
    v.set("core.submit_calls", calls as f64);
    v.set("core.submit_full", submit_full as f64);
    v.set(
        "core.submit_useful_ratio",
        tasks as f64 / calls.max(1) as f64,
    );
    v.set("core.sync_calls", t.calls("core.sync") as f64);
}

/// The exact protocol counters of a counting pass, per task, and the
/// PCIe totals. Returns the PCIe transaction count.
fn protocol_counters(v: &mut Values, c: &Counters, tasks: u64) -> u64 {
    let per_task = |x: Counter| c.get(x) as f64 / tasks.max(1) as f64;
    v.set(
        "core.scheduler_decisions",
        per_task(Counter::SchedulerDecisions),
    );
    v.set("core.chain_updates", per_task(Counter::ChainUpdates));
    v.set("core.placement_steps", per_task(Counter::PlacementSteps));
    v.set(
        "core.tasktable_copybacks",
        per_task(Counter::TaskTableCopybacks),
    );
    v.set("core.tasktable_polls", per_task(Counter::TaskTablePolls));
    v.set(
        "pcie.h2d_transactions",
        c.get(Counter::PcieH2dTransactions) as f64,
    );
    v.set(
        "pcie.d2h_transactions",
        c.get(Counter::PcieD2hTransactions) as f64,
    );
    v.set("pcie.h2d_bytes", c.get(Counter::PcieH2dBytes) as f64);
    v.set("pcie.d2h_bytes", c.get(Counter::PcieD2hBytes) as f64);
    c.get(Counter::PcieH2dTransactions) + c.get(Counter::PcieD2hTransactions)
}

/// Simulated device and bus readings weighted over a set of runs.
fn device_readings<'a>(v: &mut Values, runs: impl Iterator<Item = &'a RunSummary>) {
    let (mut span, mut occ, mut busy, mut h2d, mut d2h, mut lat, mut tasks) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for s in runs {
        let m = s.makespan.as_secs_f64();
        span += m;
        occ += s.avg_running_occupancy * m;
        busy += s.gpu_busy.as_secs_f64();
        h2d += s.h2d_busy.as_secs_f64();
        d2h += s.d2h_busy.as_secs_f64();
        lat += s.mean_task_latency.as_us_f64() * s.tasks as f64;
        tasks += s.tasks as f64;
    }
    v.set("gpu-sim.sim_running_occupancy", occ / span);
    v.set("gpu-sim.sim_gpu_busy_frac", busy / span);
    v.set("pcie.sim_h2d_busy_frac", h2d / span);
    v.set("pcie.sim_d2h_busy_frac", d2h / span);
    v.set("core.sim_mean_task_latency_us", lat / tasks.max(1.0));
}

// ---------------------------------------------------------------------
// paper_fig5
// ---------------------------------------------------------------------

fn paper_fig5(args: &Args) -> Pass {
    let mut v = Values::new();
    let mut problems = Vec::new();
    let inputs = fig5::Inputs::generate(args.seed, args.scale());
    v.set(
        "workloads.gen_s",
        inputs.benches.iter().map(|b| b.gen_s).sum(),
    );
    for (b, key) in inputs.benches.iter().zip(BENCH_KEYS) {
        v.set(
            &format!("workloads.gen_ns_per_task.{key}"),
            1e9 * b.gen_s / b.tasks() as f64,
        );
    }

    fig5::run(&inputs, &mut Untraced); // warm-up, discarded
    let mut probe = TraceProbe::default();
    let (traced, detail) = fig5::run(&inputs, &mut probe);
    let (untraced, _) = fig5::run(&inputs, &mut Untraced);
    let (obs, counters) = Counters::attach();
    let (counted, _) = fig5::run_observed(&inputs, &obs, &mut Untraced);
    if counted.fingerprint != untraced.fingerprint {
        problems.push("attaching a recorder changed the simulated history".into());
    }

    let tasks = traced.offered;
    let calls = probe.tracer.calls("core.submit");
    core_spans(&mut v, &probe, tasks, calls - tasks);
    for (r, key) in detail.runs.iter().zip(BENCH_KEYS) {
        v.set(
            &format!("core.tasks_per_host_s.{key}"),
            r.tasks as f64 / r.host_s,
        );
    }
    v.set("core.buddy_ns_per_op", replay::buddy_ns_per_op());
    device_readings(&mut v, detail.runs.iter().map(|r| &r.summary));
    let transactions = protocol_counters(&mut v, &counters, tasks);
    common(
        &mut v,
        &mut problems,
        &untraced,
        &traced,
        &probe,
        transactions,
        args.seed,
    );
    accuracy(&mut v, args, &inputs, &detail);
    Pass {
        values: v,
        problems,
        probe,
        outcome: traced,
    }
}

/// Simulated makespan (s) and host time (s) of `scheme` over dependency
/// waves: each wave is an independent run and the makespans add, as
/// `pagoda-bench`'s `run_waves` concatenates them.
fn over_waves(waves: &[Vec<TaskDesc>], scheme: impl Fn(&[TaskDesc]) -> RunSummary) -> (f64, f64) {
    let t0 = Instant::now();
    let makespan = waves.iter().map(|w| scheme(w).makespan.as_secs_f64()).sum();
    (makespan, t0.elapsed().as_secs_f64())
}

/// The untimed accuracy pass: the four baselines on the same task lists,
/// and the distance of the three headline geomeans from the paper's.
fn accuracy(v: &mut Values, args: &Args, inputs: &fig5::Inputs, detail: &fig5::Detail) {
    let cpu = CpuConfig::default();
    let (mut host, mut ratios) = ([0.0; 4], [Vec::new(), Vec::new(), Vec::new()]);
    let mut fastest = 0;
    println!(
        "  {:>5} | {:>9} {:>11} {:>9} {:>9}   (speedup over sequential CPU)",
        "bench", "PThreads", "CUDA-HyperQ", "GeMTC", "Pagoda"
    );
    for (input, run) in inputs.benches.iter().zip(&detail.runs) {
        let bench = input.bench;
        // GeMTC has no shared-memory support and CPU timing depends only
        // on operation counts, so they run the plain variants (as fig5
        // does); HyperQ runs what Pagoda ran.
        let plain = fig5::waves_for(
            bench,
            fig5::task_count(bench, args.scale()),
            &GenOpts {
                use_smem: false,
                seed: args.seed,
                ..GenOpts::default()
            },
        );
        let (seq, seq_s) = over_waves(&plain, |w| run_sequential(&cpu, w));
        let (pth, pth_s) = over_waves(&plain, |w| run_pthreads(&cpu, w));
        let (hq, hq_s) = over_waves(&input.waves, |w| run_hyperq(&HyperQConfig::default(), w));
        let gm = bench.supports_gemtc().then(|| {
            over_waves(&plain, |w| {
                let cfg = GemtcConfig {
                    worker_threads: w.iter().map(|t| t.threads_per_tb).max().unwrap_or(128),
                    ..GemtcConfig::default()
                };
                run_gemtc(&cfg, w)
            })
        });
        let pagoda = run.summary.makespan.as_secs_f64();
        host[0] += hq_s;
        host[1] += gm.map_or(0.0, |g| g.1);
        host[2] += pth_s;
        host[3] += seq_s;
        ratios[0].push(pth / pagoda);
        ratios[1].push(hq / pagoda);
        if let Some((g, _)) = gm {
            ratios[2].push(g / pagoda);
        }
        let rivals = [Some(seq), Some(pth), Some(hq), gm.map(|g| g.0)];
        if rivals.iter().flatten().all(|&r| pagoda < r) {
            fastest += 1;
        }
        println!(
            "  {:>5} | {:>9.2} {:>11.2} {:>9} {:>9.2}",
            bench.name(),
            seq / pth,
            seq / hq,
            gm.map_or("n/a".to_string(), |g| format!("{:.2}", seq / g.0)),
            seq / pagoda
        );
    }
    let geomean = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
    let g = [
        geomean(&ratios[0]),
        geomean(&ratios[1]),
        geomean(&ratios[2]),
    ];
    println!(
        "  geomean Pagoda speedups: {:.2}x over PThreads (paper {}), {:.2}x over HyperQ (paper {}), \
         {:.2}x over GeMTC (paper {})",
        g[0], PAPER_GEOMEANS[0], g[1], PAPER_GEOMEANS[1], g[2], PAPER_GEOMEANS[2]
    );
    for (name, s) in ["hyperq", "gemtc", "pthreads", "sequential"]
        .iter()
        .zip(host)
    {
        v.set(&format!("baselines.{name}_s"), s);
    }
    v.set("baselines.sim_speedup_vs_pthreads", g[0]);
    v.set("baselines.sim_speedup_vs_hyperq", g[1]);
    v.set("baselines.sim_speedup_vs_gemtc", g[2]);
    v.set("baselines.sim_pagoda_fastest_count", f64::from(fastest));
    let err = g
        .iter()
        .zip(PAPER_GEOMEANS)
        .map(|(m, p)| 100.0 * (m - p).abs() / p)
        .sum::<f64>()
        / 3.0;
    v.set("baselines.paper_geomean_err_pct", err);
}

// ---------------------------------------------------------------------
// serving workloads: shared pieces
// ---------------------------------------------------------------------

/// Replays, outside `serve_on`, the task generation `serve_on` does
/// inside for `cfg`'s tenants; returns its host seconds and fills the
/// per-benchmark unit costs.
fn replay_generation(v: &mut Values, cfg: &ServeConfig) -> f64 {
    let mut total = 0.0;
    let mut per_bench: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for t in &cfg.tenants {
        let n = t.tasks.unwrap_or(cfg.tasks_per_tenant);
        let mut gen = t.gen.clone();
        gen.seed ^= cfg.seed;
        let t0 = Instant::now();
        std::hint::black_box(t.bench.tasks(n, &gen));
        let s = t0.elapsed().as_secs_f64();
        total += s;
        let idx = Bench::ALL
            .iter()
            .position(|b| *b == t.bench)
            .expect("Bench::ALL lists every benchmark");
        let slot = per_bench.entry(idx).or_insert((0.0, 0));
        slot.0 += s;
        slot.1 += n;
    }
    for (idx, (s, n)) in per_bench {
        v.set(
            &format!("workloads.gen_ns_per_task.{}", BENCH_KEYS[idx]),
            1e9 * s / n as f64,
        );
    }
    total
}

/// The `serve.*` span metrics: the serving layer's self time is its
/// span minus the backend's child spans minus the generation it hosts.
fn serve_spans(v: &mut Values, probe: &TraceProbe, layer: &str, generation_s: f64) {
    let t = &probe.tracer;
    let span_s = t.total_s("serve.serve_on");
    let self_s = t.self_s("serve.serve_on");
    v.set("serve.backend_s", span_s - self_s);
    v.set("serve.self_s", (self_s - generation_s).max(0.0));
    v.set("workloads.gen_s", generation_s);
    let submits = t.calls(&format!("{layer}.submit"));
    v.set("serve.backend_calls.submit", submits as f64);
    v.set(
        "serve.backend_calls.check",
        t.calls(&format!("{layer}.check")) as f64,
    );
    v.set(
        "serve.backend_calls.sync",
        t.calls(&format!("{layer}.sync")) as f64,
    );
    v.set(
        "serve.backend_calls.advance_to",
        t.calls(&format!("{layer}.advance")) as f64,
    );
    v.set(
        "serve.submit_full_ratio",
        probe.submit_full as f64 / submits.max(1) as f64,
    );
    v.set("serve.arrivalgen_ns", replay::arrivalgen_ns());
}

fn serve_counts(v: &mut Values, counts: [u64; 6], max_depth: u64, slot_occupancy: f64) {
    for (name, c) in [
        "offered",
        "admitted",
        "shed",
        "expired",
        "completed",
        "deadline_missed",
    ]
    .iter()
    .zip(counts)
    {
        v.set(&format!("serve.{name}"), c as f64);
    }
    v.set("serve.max_queue_depth", max_depth as f64);
    v.set("serve.sim_slot_occupancy", slot_occupancy);
}

// ---------------------------------------------------------------------
// serve_netmix
// ---------------------------------------------------------------------

fn serve_netmix(args: &Args) -> Pass {
    let mut v = Values::new();
    let mut problems = Vec::new();
    let mut inputs = netmix::Inputs::generate(args.seed, args.scale());

    netmix::run(&inputs, &mut Untraced); // warm-up, discarded
    let mut probe = TraceProbe::default();
    let (traced, detail) = netmix::run(&inputs, &mut probe);
    let (untraced, _) = netmix::run(&inputs, &mut Untraced);
    let (obs, counters) = Counters::attach();
    inputs.obs = obs;
    let (counted, _) = netmix::run(&inputs, &mut Untraced);
    if counted.fingerprint != untraced.fingerprint {
        problems.push("attaching a recorder changed the simulated history".into());
    }

    // Every ladder point generates the same two task lists.
    let generation_s =
        netmix::LOADS.len() as f64 * replay_generation(&mut v, &inputs.config(netmix::LOADS[0]));
    serve_spans(&mut v, &probe, "core", generation_s);
    v.set("serve.qos_ns_per_op", replay::qos_ns_per_op(Policy::Edf, 2));
    let p = &detail.points;
    let sum = |f: fn(&netmix::Point) -> u64| p.iter().map(f).sum::<u64>();
    serve_counts(
        &mut v,
        [
            sum(|p| p.offered),
            sum(|p| p.admitted),
            sum(|p| p.shed),
            sum(|p| p.expired),
            sum(|p| p.completed),
            sum(|p| p.deadline_missed),
        ],
        p.iter().map(|p| p.max_queue_depth).max().unwrap_or(0),
        stats::median(&p.iter().map(|p| p.slot_occupancy).collect::<Vec<_>>()),
    );
    v.set(
        "serve.sim_rate_under_slo_per_s",
        detail.rate_under_slo_per_s(),
    );

    let spawned = counters.get(Counter::TasksSpawned);
    core_spans(&mut v, &probe, spawned, probe.submit_full);
    device_readings(&mut v, p.iter().map(|p| &p.summary));
    let transactions = protocol_counters(&mut v, &counters, spawned);
    common(
        &mut v,
        &mut problems,
        &untraced,
        &traced,
        &probe,
        transactions,
        args.seed,
    );
    Pass {
        values: v,
        problems,
        probe,
        outcome: traced,
    }
}

// ---------------------------------------------------------------------
// fleet workloads: shared pieces
// ---------------------------------------------------------------------

fn cluster_spans(v: &mut Values, probe: &TraceProbe) {
    let t = &probe.tracer;
    for s in ["submit", "sync", "advance", "wait"] {
        v.set(
            &format!("cluster.{s}_s"),
            t.total_s(&format!("cluster.{s}")),
        );
    }
    v.set("cluster.sync_calls", t.calls("cluster.sync") as f64);
    v.set("cluster.advance_calls", t.calls("cluster.advance") as f64);
}

fn fleet_report(v: &mut Values, r: &FleetReport) {
    v.set("cluster.placements", r.placements as f64);
    v.set("cluster.off_affinity", r.off_affinity as f64);
    v.set("cluster.staging_transfers", r.staging_transfers as f64);
    v.set("cluster.resubmits", r.resubmits as f64);
    v.set("cluster.tasks_lost", r.tasks_lost as f64);
    v.set("cluster.kills", r.kills as f64);
    v.set("gpu-sim.sim_running_occupancy", r.avg_warp_occupancy);
    let done: Vec<f64> = r.devices.iter().map(|d| d.completed as f64).collect();
    let mean = done.iter().sum::<f64>() / done.len() as f64;
    v.set(
        "cluster.sim_device_imbalance",
        done.iter().copied().fold(0.0, f64::max) / mean,
    );
}

// ---------------------------------------------------------------------
// fleet_batch
// ---------------------------------------------------------------------

fn fleet_batch_pass(args: &Args) -> Pass {
    let mut v = Values::new();
    let mut problems = Vec::new();
    let inputs = fleet_batch::Inputs::generate(args.seed, args.scale());
    let n = inputs.tasks.len();
    let devices = fleet_batch::DEVICES;

    fleet_batch::run(&inputs, devices, &mut Untraced); // warm-up, discarded
    let mut probe = TraceProbe::default();
    let (traced, detail) = fleet_batch::run(&inputs, devices, &mut probe);
    let (untraced, _) = fleet_batch::run(&inputs, devices, &mut Untraced);
    cluster_spans(&mut v, &probe);
    fleet_report(&mut v, &detail.report);

    // What the fleet adds: its wall time minus the same per-device task
    // sequences on bare runtimes.
    let bare_s = replay::bare_devices_s(&inputs.tasks, &detail.placed_on, devices);
    v.set("cluster.self_s", untraced.host_s() - bare_s);
    v.set(
        "cluster.self_share_pct",
        100.0 * (untraced.host_s() - bare_s) / untraced.host_s(),
    );

    // Host time against batch size, up to the ROADMAP scale bar (4 × the
    // end-to-end batch): 1.0 is linear, 2.0 quadratic.
    let double = fleet_batch::Inputs::with_tasks(args.seed, 2 * n);
    let quad = fleet_batch::Inputs::with_tasks(args.seed, 4 * n);
    let (x2, _) = fleet_batch::run(&double, devices, &mut Untraced);
    let (x4, _) = fleet_batch::run(&quad, devices, &mut Untraced);
    let exponent =
        ((x2.host_s() / untraced.host_s()).log2() + (x4.host_s() / x2.host_s()).log2()) / 2.0;
    v.set("cluster.wall_scaling_exponent", exponent);
    v.set(
        "cluster.scale_bar_tasks_per_host_s",
        x4.offered as f64 / x4.host_s(),
    );
    println!(
        "  fleet wall: {:.3} s at {} tasks, {:.3} s at {}, {:.3} s at {}; bare devices {:.3} s at {}",
        untraced.host_s(),
        n,
        x2.host_s(),
        2 * n,
        x4.host_s(),
        4 * n,
        bare_s,
        n
    );
    let (one, _) = fleet_batch::run(&inputs, 1, &mut Untraced);
    v.set(
        "cluster.sim_scaling_4dev",
        untraced.sim_tasks_per_s / one.sim_tasks_per_s,
    );

    common(
        &mut v,
        &mut problems,
        &untraced,
        &traced,
        &probe,
        0,
        args.seed,
    );
    Pass {
        values: v,
        problems,
        probe,
        outcome: traced,
    }
}

// ---------------------------------------------------------------------
// fleet_serve
// ---------------------------------------------------------------------

fn fleet_serve_pass(args: &Args) -> Pass {
    let mut v = Values::new();
    let mut problems = Vec::new();
    let inputs = fleet_serve::Inputs::generate(args.seed, args.scale());

    fleet_serve::run(&inputs, &mut Untraced); // warm-up, discarded
    let mut probe = TraceProbe::default();
    let (traced, detail) = fleet_serve::run(&inputs, &mut probe);
    let (untraced, _) = fleet_serve::run(&inputs, &mut Untraced);

    let generation_s = replay_generation(&mut v, &inputs.serve);
    serve_spans(&mut v, &probe, "cluster", generation_s);
    v.set(
        "serve.qos_ns_per_op",
        replay::qos_ns_per_op(Policy::WeightedFair, fleet_serve::TENANTS),
    );
    serve_counts(
        &mut v,
        detail.serve_counts,
        detail.max_queue_depth,
        detail.slot_occupancy,
    );
    cluster_spans(&mut v, &probe);
    fleet_report(&mut v, &detail.report);

    let rec = detail
        .recorded
        .as_ref()
        .expect("fleet_serve runs with the recorder attached");
    v.set("obs.events_captured", rec.events_captured() as f64);
    v.set("obs.snapshot_s", probe.tracer.total_s("obs.snapshot"));
    v.set("prof.report_s", probe.tracer.total_s("prof.report"));
    let phases = rec.phase_totals_ps();
    let all: u64 = phases.iter().sum();
    for (key, ps) in PHASE_KEYS.iter().zip(phases) {
        v.set(
            &format!("prof.phase_share_pct.{key}"),
            100.0 * ps as f64 / all.max(1) as f64,
        );
        if ps == 0 {
            println!("  NOTE: profiler phase {key} is identically zero on this run");
        }
    }
    v.set(
        "prof.phase_sum_mismatch",
        rec.phase_sum_mismatch_ps() as f64,
    );
    if rec.phase_sum_mismatch_ps() != 0 {
        problems.push("profiler phases do not sum to the sojourns".into());
    }
    if let Err(e) = rec.check_prometheus() {
        problems.push(format!("Prometheus exposition rejected: {e}"));
    }

    // Recording cost: interleaved off/on pairs so drift cancels; the
    // serving portion only (read-out and profiling have their own spans).
    let overheads: Vec<f64> = (0..3)
        .map(|_| {
            let (_, off) = fleet_serve::run_with(&inputs, false, &mut Untraced);
            let (_, on) = fleet_serve::run_with(&inputs, true, &mut Untraced);
            100.0 * (on.serve_s - off.serve_s) / off.serve_s
        })
        .collect();
    v.set("obs.mem_overhead_pct", stats::median(&overheads));

    common(
        &mut v,
        &mut problems,
        &untraced,
        &traced,
        &probe,
        0,
        args.seed,
    );
    Pass {
        values: v,
        problems,
        probe,
        outcome: traced,
    }
}
