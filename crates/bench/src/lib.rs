//! Experiment harness: runs task lists through every runtime scheme and
//! renders the rows of each table and figure in the paper's evaluation
//! (§6), the serving layer's latency curves and the fleet's scaling
//! study. The experiments are one table, [`figures::FIGURES`], printed by
//! one binary (`repro <name>… | all`); `pagoda_sim` is the other, for one
//! benchmark under one scheme. How fast the simulator itself runs is
//! `benchmark/`'s question, not this crate's.
//!
//! All experiments accept a `--tasks N` argument to scale down from the
//! paper's 32 K tasks (useful for smoke runs); results are printed as
//! aligned text tables plus machine-readable JSON lines on request
//! (`--json`).

#![forbid(unsafe_code)]

pub mod figures;

use baselines::{
    run_fusion, run_gemtc, run_hyperq, run_pagoda, run_pagoda_waves, run_pthreads, run_sequential,
    CpuConfig, GemtcConfig, HyperQConfig, RunSummary,
};
use desim::{Dur, SimTime};
use pagoda_core::{PagodaConfig, TaskDesc};
use pagoda_obs::Obs;
use pagoda_prof::GroupSummary;
use serde::Serialize;

/// A runtime scheme under comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Single-core CPU.
    Sequential,
    /// 20-core PThreads task parallelism.
    PThreads,
    /// CUDA-HyperQ: one kernel per task.
    HyperQ,
    /// GeMTC SuperKernel batches.
    Gemtc,
    /// Pagoda, continuous spawning.
    Pagoda,
    /// Pagoda spawning in batches of the given size (Fig. 11 ablation).
    PagodaBatched(usize),
    /// Static fusion at the given sub-task width.
    Fusion(u32),
}

impl Scheme {
    /// Display name used in table headers.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Sequential => "Sequential",
            Scheme::PThreads => "PThreads",
            Scheme::HyperQ => "CUDA-HyperQ",
            Scheme::Gemtc => "GeMTC",
            Scheme::Pagoda => "Pagoda",
            Scheme::PagodaBatched(_) => "Pagoda-Batching",
            Scheme::Fusion(_) => "Static-Fusion",
        }
    }
}

/// Runs one *wave* (an independent task set) under a scheme.
pub fn run_wave(scheme: Scheme, tasks: &[TaskDesc]) -> RunSummary {
    match scheme {
        Scheme::Sequential => run_sequential(&CpuConfig::default(), tasks),
        Scheme::PThreads => run_pthreads(&CpuConfig::default(), tasks),
        Scheme::HyperQ => run_hyperq(&HyperQConfig::default(), tasks),
        Scheme::Gemtc => {
            let cfg = GemtcConfig {
                worker_threads: tasks.iter().map(|t| t.threads_per_tb).max().unwrap_or(128),
            };
            run_gemtc(&cfg, tasks)
        }
        Scheme::Pagoda => run_pagoda(PagodaConfig::default(), tasks),
        Scheme::PagodaBatched(b) => {
            run_pagoda_waves(PagodaConfig::default(), tasks.chunks(b), Obs::off())
        }
        Scheme::Fusion(w) => run_fusion(tasks, w),
    }
}

/// Runs dependency waves sequentially (the SLUD pattern): Pagoda keeps
/// one runtime alive and `waitAll`s between waves; the other schemes run
/// each wave independently and the summaries are concatenated in time.
pub fn run_waves(scheme: Scheme, waves: &[Vec<TaskDesc>]) -> RunSummary {
    assert!(!waves.is_empty(), "no waves");
    if waves.len() == 1 {
        return run_wave(scheme, &waves[0]);
    }
    if matches!(scheme, Scheme::Pagoda) {
        let waves = waves.iter().map(Vec::as_slice);
        return run_pagoda_waves(PagodaConfig::default(), waves, Obs::off());
    }
    let parts: Vec<RunSummary> = waves.iter().map(|w| run_wave(scheme, w)).collect();
    concat_summaries(&parts)
}

/// Concatenates sequential-phase summaries: makespans add, task counts
/// add, latencies average weighted by task count, occupancy averages
/// weighted by makespan.
pub fn concat_summaries(parts: &[RunSummary]) -> RunSummary {
    assert!(!parts.is_empty());
    let makespan_ps: u64 = parts.iter().map(|p| p.makespan.as_ps()).sum();
    let compute_ps: u64 = parts.iter().map(|p| p.compute_done.as_ps()).sum();
    let tasks: u64 = parts.iter().map(|p| p.tasks).sum();
    let lat: u64 = parts
        .iter()
        .map(|p| p.mean_task_latency.as_ps() * p.tasks)
        .sum::<u64>()
        / tasks.max(1);
    let occ: f64 = parts
        .iter()
        .map(|p| p.avg_running_occupancy * p.makespan.as_ps() as f64)
        .sum::<f64>()
        / makespan_ps.max(1) as f64;
    RunSummary {
        makespan: Dur::from_ps(makespan_ps),
        compute_done: SimTime::from_ps(compute_ps),
        tasks,
        mean_task_latency: Dur::from_ps(lat),
        avg_running_occupancy: occ,
        h2d_busy: Dur::from_ps(parts.iter().map(|p| p.h2d_busy.as_ps()).sum()),
        d2h_busy: Dur::from_ps(parts.iter().map(|p| p.d2h_busy.as_ps()).sum()),
        gpu_busy: Dur::from_ps(parts.iter().map(|p| p.gpu_busy.as_ps()).sum()),
    }
}

/// Task waves for a benchmark: SLUD yields its dependency waves; every
/// other benchmark is one independent wave.
pub fn bench_waves(
    bench: workloads::Bench,
    n: usize,
    opts: &workloads::GenOpts,
) -> Vec<Vec<TaskDesc>> {
    if bench == workloads::Bench::Slud {
        let nb = workloads::slud::grid_for(n, opts.seed);
        workloads::slud::waves_as_tasks(nb, workloads::slud::DENSITY, opts)
    } else {
        vec![bench.tasks(n, opts)]
    }
}

/// Reshapes a single-threadblock task to `total_threads` threads split
/// into `threads_per_tb`-wide threadblocks, spreading the same total work
/// uniformly and preserving the barrier structure, CPI, and I/O. This is
/// how Fig. 8 sweeps a task's thread count from 256 to 65536 while
/// holding its input size (and therefore its work) fixed.
pub fn reshape_task(base: &TaskDesc, total_threads: u32, threads_per_tb: u32) -> TaskDesc {
    assert_eq!(base.num_tbs(), 1, "reshape expects a single-TB base task");
    assert_eq!(total_threads % threads_per_tb, 0, "uneven grid");
    let w0 = base.blocks[0].warp(0);
    let total_ops: u64 = base.total_instrs();
    let ops_per_thread = total_ops.div_ceil(u64::from(total_threads));
    let block = workloads::gen::build_block(
        &vec![ops_per_thread; threads_per_tb as usize],
        w0.cpi,
        &workloads::gen::phase_fracs(w0),
    );
    let num_tbs = total_threads / threads_per_tb;
    TaskDesc {
        kernel: workloads::gen::kernel(
            threads_per_tb,
            base.smem_per_tb,
            base.sync,
            vec![block; num_tbs as usize],
        ),
        cpu_ops: base.cpu_ops,
        input_bytes: base.input_bytes,
        output_bytes: base.output_bytes,
    }
}

/// One run of a scheme: the point type of the paper's figures.
#[derive(Debug, Clone, Serialize)]
pub struct DataPoint {
    /// Experiment id, e.g. `"fig5"`.
    pub experiment: String,
    /// Benchmark name.
    pub bench: String,
    /// Scheme name.
    pub scheme: String,
    /// Sweep parameter (task count, threads, input size, …), if any.
    pub param: Option<u64>,
    /// End-to-end time in milliseconds.
    pub makespan_ms: f64,
    /// Compute-only time in milliseconds.
    pub compute_ms: f64,
    /// Speedup over this row's baseline (experiment-defined).
    pub speedup: f64,
    /// Mean task latency in microseconds.
    pub latency_us: f64,
    /// Mean running occupancy.
    pub occupancy: f64,
}

/// `serve_curves`: one (mix, front-end variant, offered load) serve.
#[derive(Debug, Clone, Serialize)]
pub struct CurvePoint {
    /// Tenant mix name.
    pub mix: String,
    /// Front-end variant: `fifo-unbounded`, `fifo`, `wfq` or `edf`.
    pub variant: String,
    /// Offered rate over the mix's calibrated capacity.
    pub offered_load: f64,
    /// Aggregate arrivals per simulated second.
    pub offered_rate_per_s: f64,
    /// Completions per simulated second.
    pub throughput_per_s: f64,
    /// Fraction of arrivals shed at the door.
    pub shed_frac: f64,
    /// Fraction of arrivals cancelled past their deadline.
    pub expired_frac: f64,
    /// Median sojourn of completed tasks, µs.
    pub p50_us: f64,
    /// 95th-percentile sojourn, µs.
    pub p95_us: f64,
    /// 99th-percentile sojourn, µs.
    pub p99_us: f64,
    /// Mean fraction of TaskTable entries in use.
    pub avg_slot_occupancy: f64,
}

/// `cluster_scaling`: the closed-loop batch on one fleet size.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    /// Devices in the fleet.
    pub devices: usize,
    /// Tasks in the batch.
    pub tasks: usize,
    /// Simulated makespan, µs.
    pub makespan_us: f64,
    /// Tasks per simulated second.
    pub tasks_per_s: f64,
    /// Throughput relative to the 1-device fleet.
    pub speedup: f64,
}

/// `cluster_scaling`: the Zipf-skewed tenant mix under one placement.
#[derive(Debug, Clone, Serialize)]
pub struct SkewPoint {
    /// Placement policy name.
    pub policy: String,
    /// Zipf exponent of the per-tenant arrival rates.
    pub zipf_s: f64,
    /// Arrivals offered.
    pub offered: usize,
    /// Arrivals completed.
    pub completed: usize,
    /// Median sojourn, µs.
    pub p50_us: f64,
    /// 99th-percentile sojourn, µs.
    pub p99_us: f64,
    /// Placements off the tenant's home device.
    pub off_affinity: u64,
}

/// One `--json` line of a figure. Each kind keeps its own fields and
/// serializes as itself, with no tag.
#[derive(Debug, Clone)]
pub enum Point {
    /// A scheme run.
    Scheme(DataPoint),
    /// A serving-curve point.
    Curve(CurvePoint),
    /// A fleet-size point.
    Scaling(ScalingPoint),
    /// A skew-surface point.
    Skew(SkewPoint),
    /// One group of `cluster_scaling`'s latency attribution.
    Attribution(GroupSummary),
}

impl Serialize for Point {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Point::Scheme(p) => p.serialize_json(out),
            Point::Curve(p) => p.serialize_json(out),
            Point::Scaling(p) => p.serialize_json(out),
            Point::Skew(p) => p.serialize_json(out),
            Point::Attribution(p) => p.serialize_json(out),
        }
    }
}

/// Simple CLI: `--tasks N` (N ≥ 1), `--json`, `--quick` (divides the
/// paper task count by 16 for smoke runs).
#[derive(Debug, Clone)]
pub struct Cli {
    /// Override task count.
    pub tasks: Option<usize>,
    /// Emit JSON lines after the table.
    pub json: bool,
    /// 1/16-scale smoke run.
    pub quick: bool,
}

impl Cli {
    /// Parses `std::env::args`: the three flags in any position, every
    /// other word returned in order for the binary to interpret. A bad
    /// flag is a [`usage_exit`].
    pub fn parse(usage: &str) -> (Self, Vec<String>) {
        let mut cli = Cli {
            tasks: None,
            json: false,
            quick: false,
        };
        let mut words = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                // No figure has anything to show of zero tasks.
                "--tasks" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => cli.tasks = Some(n),
                    _ => usage_exit("--tasks needs a number of at least 1", usage),
                },
                "--json" => cli.json = true,
                "--quick" => cli.quick = true,
                flag if flag.starts_with('-') => usage_exit(&format!("unknown flag {flag}"), usage),
                _ => words.push(a),
            }
        }
        (cli, words)
    }

    /// Task count to use given the paper's count for this experiment.
    pub fn scale(&self, paper: usize) -> usize {
        if let Some(n) = self.tasks {
            return n;
        }
        if self.quick {
            (paper / 16).max(256)
        } else {
            paper
        }
    }
}

/// Reports a command-line `problem` and the binary's `usage` on stderr
/// and exits 2, as `pagoda_sim` does.
pub fn usage_exit(problem: &str, usage: &str) -> ! {
    eprintln!("{problem}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;

    fn tiny() -> Vec<TaskDesc> {
        (0..64)
            .map(|_| TaskDesc::uniform(128, WarpWork::compute(100_000, 8.0)))
            .collect()
    }

    #[test]
    fn every_scheme_runs() {
        let tasks = tiny();
        for s in [
            Scheme::Sequential,
            Scheme::PThreads,
            Scheme::HyperQ,
            Scheme::Gemtc,
            Scheme::Pagoda,
            Scheme::PagodaBatched(32),
            Scheme::Fusion(256),
        ] {
            let r = run_wave(s, &tasks);
            assert_eq!(r.tasks, 64, "{}", s.name());
            assert!(r.makespan > Dur::ZERO, "{}", s.name());
        }
    }

    #[test]
    fn waves_concatenate() {
        let waves = vec![tiny(), tiny(), tiny()];
        let one = run_wave(Scheme::HyperQ, &waves[0]);
        let all = run_waves(Scheme::HyperQ, &waves);
        assert_eq!(all.tasks, 192);
        assert!(all.makespan.as_ps() >= 3 * one.makespan.as_ps() * 9 / 10);
    }

    #[test]
    fn pagoda_waves_share_one_runtime() {
        let waves = vec![tiny(), tiny()];
        let r = run_waves(Scheme::Pagoda, &waves);
        assert_eq!(r.tasks, 128);
    }

    #[test]
    fn cli_scaling() {
        let mut cli = Cli {
            tasks: None,
            json: false,
            quick: false,
        };
        assert_eq!(cli.scale(32_768), 32_768);
        cli.quick = true;
        assert_eq!(cli.scale(32_768), 2_048);
        cli.tasks = Some(100);
        assert_eq!(cli.scale(32_768), 100);
    }
}
