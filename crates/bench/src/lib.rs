//! Experiment harness: the paper's evaluation (§6), the serving layer's
//! latency curves and the fleet's scaling study, printed by one binary,
//! `repro`. The evaluation is a grid of [`Cell`]s — one benchmark under
//! one scheme at one task shape, each an independent simulation. The
//! experiments are one table, [`figures::FIGURES`] (`repro <name>… |
//! all`, each figure scaled by `--tasks N` and followed by JSON lines
//! under `--json`); `repro cell` runs a one-off grid of cells. How fast
//! the simulator itself runs is `benchmark/`'s question, not this crate's.

#![forbid(unsafe_code)]

pub mod figures;

use baselines::{
    run_fusion, run_gemtc, run_hyperq, run_pagoda_waves, run_pthreads, run_sequential, CpuConfig,
    GemtcConfig, HyperQConfig, RunSummary,
};
use desim::{Dur, SimTime};
use figures::{Figure, FIGURES};
use gpu_arch::GpuSpec;
use pagoda_core::{PagodaConfig, TaskDesc};
use pagoda_obs::Obs;
use pagoda_prof::GroupSummary;
use serde::Serialize;
use workloads::{conv, irregular_tasks, matmul, slud, Bench, GenOpts, ThreadPolicy};

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

    /// The five schemes of the paper's Fig. 5, what `--scheme all` runs.
    pub(crate) const PAPER: [Scheme; 5] = [
        Scheme::Sequential,
        Scheme::PThreads,
        Scheme::HyperQ,
        Scheme::Gemtc,
        Scheme::Pagoda,
    ];

    /// The schemes `repro cell --scheme` names, aliases included (`all`
    /// is [`Scheme::PAPER`]); none if it names none.
    fn named(name: &str) -> Vec<Scheme> {
        vec![match name.to_ascii_lowercase().as_str() {
            "all" => return Scheme::PAPER.to_vec(),
            "sequential" | "seq" => Scheme::Sequential,
            "pthreads" | "cpu" => Scheme::PThreads,
            "hyperq" | "hq" => Scheme::HyperQ,
            "gemtc" => Scheme::Gemtc,
            "pagoda" => Scheme::Pagoda,
            "pagoda-batching" | "batching" => Scheme::PagodaBatched(384),
            "fusion" => Scheme::Fusion(256),
            _ => return Vec::new(),
        }]
    }
}

/// What a [`Cell`]'s tasks are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// The benchmark's own tasks (SLUD's come in dependency waves).
    Paper,
    /// Fig. 9's irregular input sizes under a thread policy.
    Irregular(ThreadPolicy),
    /// Fig. 8: `Reshaped(dim, threads, threads_per_tb)` is an MM or CONV
    /// task of a `dim`² input, its work spread over `threads` threads in
    /// `threads_per_tb`-wide threadblocks.
    Reshaped(usize, u32, u32),
}

/// One run of the evaluation's grid: `tasks` tasks of `bench` in `shape`,
/// generated with `opts` when the cell runs, under `scheme`.
#[derive(Debug, Clone)]
pub struct Cell {
    pub bench: Bench,
    pub scheme: Scheme,
    /// Tasks to generate (SLUD sizes its natural count from it).
    pub tasks: usize,
    pub opts: GenOpts,
    pub shape: Shape,
}

impl Cell {
    /// `tasks` of the benchmark's own tasks under `scheme`.
    pub fn new(bench: Bench, scheme: Scheme, tasks: usize, opts: GenOpts) -> Cell {
        let shape = Shape::Paper;
        Cell {
            bench,
            scheme,
            tasks,
            opts,
            shape,
        }
    }

    /// Runs the cell. Panics if its scheme cannot take its tasks: every
    /// cell of a figure can.
    pub fn run(&self) -> RunSummary {
        self.try_run()
            .unwrap_or_else(|why| panic!("{self:?}: {why}"))
    }

    /// Runs the cell, or says why its scheme cannot take its tasks: GeMTC
    /// and static fusion need a static task count (SLUD has none), a
    /// Pagoda task must fit an MTB ([`TaskDesc::validate`]), a fused
    /// sub-task its slot, and a baseline's launch the Titan X.
    pub fn try_run(&self) -> Result<RunSummary, String> {
        match self.scheme {
            Scheme::Gemtc if !self.bench.supports_gemtc() => Err("dynamic task count")?,
            Scheme::Fusion(_) if !self.bench.supports_fusion() => Err("no static task list")?,
            _ => {}
        }
        let waves = self.waves();
        let spec = GpuSpec::titan_x();
        let unfit = |t: &TaskDesc| match self.scheme {
            Scheme::Sequential | Scheme::PThreads => None,
            Scheme::Pagoda | Scheme::PagodaBatched(_) => Some(t.validate().err()?.to_string()),
            Scheme::Fusion(w) if t.threads_per_tb > w => Some(format!(
                "task of {} threads is wider than the {w}-thread fused sub-task",
                t.threads_per_tb
            )),
            Scheme::HyperQ | Scheme::Gemtc | Scheme::Fusion(_) => {
                Some(spec.validate(&t.native_shape()).err()?.to_string())
            }
        };
        match waves.iter().flatten().find_map(unfit) {
            Some(why) => Err(why),
            None => Ok(run_waves(self.scheme, &waves)),
        }
    }

    /// The task waves the cell runs. GeMTC has no shared-memory support
    /// (paper §6.2), so a GeMTC cell builds the plain tasks.
    fn waves(&self) -> Vec<Vec<TaskDesc>> {
        let mut opts = self.opts.clone();
        opts.use_smem &= self.scheme != Scheme::Gemtc;
        let (bench, n) = (self.bench, self.tasks);
        match self.shape {
            Shape::Paper if bench == Bench::Slud => {
                let nb = slud::grid_for(n, opts.seed);
                slud::waves_as_tasks(nb, slud::DENSITY, &opts)
            }
            Shape::Paper => vec![bench.tasks(n, &opts)],
            Shape::Irregular(policy) => vec![irregular_tasks(bench, n, policy, &opts)],
            Shape::Reshaped(dim, threads, threads_per_tb) => {
                let sized = match bench {
                    Bench::Mm => matmul::tasks_sized,
                    Bench::Conv => conv::tasks_sized,
                    _ => panic!("{} has no sized input", bench.name()),
                };
                let base = sized(1, dim, &opts).remove(0);
                vec![vec![reshape_task(&base, threads, threads_per_tb); n]]
            }
        }
    }
}

/// Runs dependency waves in order (the SLUD pattern): Pagoda keeps one
/// runtime alive and `waitAll`s between waves; every other scheme runs
/// each wave on its own and the summaries are concatenated in time.
fn run_waves(scheme: Scheme, waves: &[Vec<TaskDesc>]) -> RunSummary {
    let pagoda = PagodaConfig::default;
    match (scheme, waves) {
        (Scheme::Pagoda, _) => {
            run_pagoda_waves(pagoda(), waves.iter().map(Vec::as_slice), Obs::off())
        }
        (Scheme::Sequential, [tasks]) => run_sequential(&CpuConfig::default(), tasks),
        (Scheme::PThreads, [tasks]) => run_pthreads(&CpuConfig::default(), tasks),
        (Scheme::HyperQ, [tasks]) => run_hyperq(&HyperQConfig::default(), tasks),
        (Scheme::Gemtc, [tasks]) => {
            let worker_threads = tasks.iter().map(|t| t.threads_per_tb).max().unwrap_or(128);
            run_gemtc(&GemtcConfig { worker_threads }, tasks)
        }
        (Scheme::PagodaBatched(b), [tasks]) => {
            run_pagoda_waves(pagoda(), tasks.chunks(b), Obs::off())
        }
        (Scheme::Fusion(w), [tasks]) => run_fusion(tasks, w),
        _ => {
            let parts: Vec<RunSummary> = waves.chunks(1).map(|w| run_waves(scheme, w)).collect();
            concat_summaries(&parts)
        }
    }
}

/// Concatenates sequential-phase summaries: makespans add, task counts
/// add, latencies average weighted by task count, occupancy averages
/// weighted by makespan.
fn concat_summaries(parts: &[RunSummary]) -> RunSummary {
    let sum = |ps: fn(&RunSummary) -> u64| parts.iter().map(ps).sum::<u64>();
    let (makespan_ps, tasks) = (sum(|p| p.makespan.as_ps()), sum(|p| p.tasks));
    let lat = sum(|p| p.mean_task_latency.as_ps() * p.tasks) / tasks.max(1);
    let busy = |p: &RunSummary| p.avg_running_occupancy * p.makespan.as_ps() as f64;
    let occ = parts.iter().map(busy).sum::<f64>() / makespan_ps.max(1) as f64;
    RunSummary {
        makespan: Dur::from_ps(makespan_ps),
        compute_done: SimTime::from_ps(sum(|p| p.compute_done.as_ps())),
        tasks,
        mean_task_latency: Dur::from_ps(lat),
        avg_running_occupancy: occ,
        h2d_busy: Dur::from_ps(sum(|p| p.h2d_busy.as_ps())),
        d2h_busy: Dur::from_ps(sum(|p| p.d2h_busy.as_ps())),
        gpu_busy: Dur::from_ps(sum(|p| p.gpu_busy.as_ps())),
    }
}

/// Reshapes a single-threadblock task to `total_threads` threads split
/// into `threads_per_tb`-wide threadblocks, spreading the same total work
/// uniformly and preserving the barrier structure, CPI, and I/O. This is
/// how Fig. 8 sweeps a task's thread count from 256 to 65536 while
/// holding its input size (and therefore its work) fixed.
fn reshape_task(base: &TaskDesc, total_threads: u32, threads_per_tb: u32) -> TaskDesc {
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

/// `repro`'s figure flags: `--tasks N` (N ≥ 1), `--json`, `--quick`
/// (divides the paper task count by 16 for smoke runs).
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Override task count.
    pub tasks: Option<usize>,
    /// Emit JSON lines after the table.
    pub json: bool,
    /// 1/16-scale smoke run.
    pub quick: bool,
}

/// What `repro`'s command line asks for.
pub enum Command {
    /// Print these figures, in this order.
    Figures(Vec<&'static Figure>),
    /// `repro cell`: run these cells, a row each.
    Cells(Vec<Cell>),
    /// `repro cell --list`: every benchmark's static characteristics.
    List,
}

const USAGE: &str = "usage: repro <figure>... | all  [--quick] [--tasks N] [--json]\n\
     \x20      repro cell [--bench NAME|all] [--scheme NAME|all] [--tasks N]\n\
     \x20                 [--threads N] [--smem] [--no-io] [--seed N] [--work-scale X]\n\
     \x20      repro cell --list\n\
     benches: MB FB BF CONV DCT MM SLUD 3DES MPE\n\
     schemes: sequential pthreads hyperq gemtc pagoda pagoda-batching fusion";

impl Cli {
    /// Parses `std::env::args`: `cell` then its flags, or figure names
    /// and their flags in any order. A flag the command does not take
    /// (`--smem` on a figure, `--json` on `cell`), a missing or bad
    /// value, knobs no generator can build tasks from, or an unknown name
    /// is a usage error, found before any task is built.
    pub fn parse() -> (Self, Command) {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        let usage = format!("{USAGE}\nfigures: {}", names.join(" "));
        let fail = |problem: &str| -> ! {
            eprintln!("{problem}\n{usage}");
            std::process::exit(2)
        };
        let mut args = std::env::args().skip(1).peekable();
        let cell = args.next_if_eq("cell").is_some();
        let mut cli = Cli::default();
        let (mut benches, mut schemes) = (vec![Bench::Fb], vec![Scheme::Pagoda]);
        let (mut opts, mut list, mut flags, mut words) = (GenOpts::default(), false, 0, vec![]);
        while let Some(flag) = args.next() {
            if !flag.starts_with('-') {
                words.push(flag);
                continue;
            }
            flags += 1;
            // `--tasks` is both commands', `--json` and `--quick` a figure's.
            if flag != "--tasks" && cell == matches!(flag.as_str(), "--json" | "--quick") {
                let command = if cell { "repro cell" } else { "a figure" };
                fail(&format!("unknown flag {flag} for {command}"));
            }
            let mut word = || args.next().unwrap_or_default();
            let no_number = || -> ! { fail(&format!("{flag} needs a number")) };
            match flag.as_str() {
                "--tasks" => cli.tasks = Some(word().parse().unwrap_or_else(|_| no_number())),
                "--json" => cli.json = true,
                "--quick" => cli.quick = true,
                "--bench" => {
                    let name = word();
                    let all = name.eq_ignore_ascii_case("all");
                    let named = |b: &Bench| all || b.name().eq_ignore_ascii_case(&name);
                    benches = Bench::ALL.into_iter().filter(named).collect();
                }
                "--scheme" => schemes = Scheme::named(&word()),
                "--threads" => {
                    opts.threads_per_task = word().parse().unwrap_or_else(|_| no_number())
                }
                "--seed" => opts.seed = word().parse().unwrap_or_else(|_| no_number()),
                "--work-scale" => opts.work_scale = word().parse().unwrap_or_else(|_| no_number()),
                "--smem" => opts.use_smem = true,
                "--no-io" => opts.with_io = false,
                "--list" => list = true,
                _ => fail(&format!("unknown flag {flag} for repro cell")),
            }
        }
        // No run has anything to show of zero tasks.
        if cli.tasks == Some(0) {
            fail("--tasks needs a number of at least 1");
        }
        if benches.is_empty() || schemes.is_empty() {
            fail("no such benchmark or scheme");
        }
        if cell {
            if let Some(word) = words.first() {
                fail(&format!("repro cell takes no argument {word}"));
            }
            if list && flags > 1 {
                fail("--list takes no other flag");
            }
            // Knobs no generator can build tasks from (zero threads, say).
            if let Some(problem) = opts.problem() {
                fail(problem);
            }
            if list {
                return (cli, Command::List);
            }
            let mut cells = Vec::new();
            for b in benches {
                for &s in &schemes {
                    cells.push(Cell::new(b, s, cli.tasks.unwrap_or(4_096), opts.clone()));
                }
            }
            return (cli, Command::Cells(cells));
        }
        if words.is_empty() {
            fail("no figure named");
        }
        // Resolve every name before running any: a typo must not cost a run.
        let mut picked = Vec::new();
        for name in &words {
            match FIGURES.iter().find(|f| f.name == name) {
                Some(figure) => picked.push(figure),
                None if name == "all" => picked.extend(FIGURES),
                None => fail(&format!("unknown figure {name}")),
            }
        }
        (cli, Command::Figures(picked))
    }

    /// Task count to use given the paper's count for this experiment.
    pub fn scale(&self, paper: usize) -> usize {
        let quick = (paper / 16).max(256);
        self.tasks.unwrap_or(if self.quick { quick } else { paper })
    }
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
            let r = run_waves(s, std::slice::from_ref(&tasks));
            assert_eq!(r.tasks, 64, "{}", s.name());
            assert!(r.makespan > Dur::ZERO, "{}", s.name());
        }
    }

    #[test]
    fn waves_concatenate() {
        let waves = vec![tiny(), tiny(), tiny()];
        let one = run_waves(Scheme::HyperQ, &waves[..1]);
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
