//! The paper's evaluation (§6) and the two studies beyond it as one
//! table: [`FIGURES`] names every experiment the `repro` binary can
//! print, the paper's task count for it, and the function that runs it.
//!
//! A run returns the text of the figure — what `results/<name>.txt`
//! holds at paper scale — and one [`DataPoint`] per measured cell (the
//! `--json` lines). `tests/repro.rs` runs the same table at 1/64 scale
//! against `tests/golden/repro/` and asserts the shape claims of
//! EXPERIMENTS.md over the points; `ci.sh` holds `results/` to
//! `repro <name>` byte for byte.

use crate::{bench_waves, reshape_task, run_waves, Cli, DataPoint, Scheme};
use baselines::{geomean, run_hyperq, run_pagoda, HyperQConfig, RunSummary};
use desim::{Dur, SimTime};
use gpu_arch::GpuSpec;
use gpu_sim::DeviceConfig;
use pagoda_core::{PagodaConfig, TaskDesc};
use std::fmt::{self, Write as _};
use workloads::Bench::{self, Bf, Conv, Dct, Des3, Fb, Mb, Mm, Mpe, Slud};
use workloads::{conv, irregular_tasks, matmul, GenOpts, ThreadPolicy};

/// One reproducible experiment.
pub struct Figure {
    /// Name on the `repro` command line and stem of `results/<name>.txt`.
    pub name: &'static str,
    /// Task count of a full-scale run, the number `Cli::scale` divides.
    pub paper_tasks: usize,
    /// Takes `paper_tasks` scaled by the flags and the report to fill.
    render: fn(usize, &mut Report),
}

impl Figure {
    /// Runs the experiment at the scale `cli` asks for: the figure's text
    /// and the points behind it.
    pub fn run(&self, cli: &Cli) -> (String, Vec<DataPoint>) {
        let mut out = Report {
            cli,
            experiment: self.name,
            text: String::new(),
            points: Vec::new(),
        };
        (self.render)(cli.scale(self.paper_tasks), &mut out);
        (out.text, out.points)
    }
}

const fn figure(name: &'static str, paper_tasks: usize, render: fn(usize, &mut Report)) -> Figure {
    Figure {
        name,
        paper_tasks,
        render,
    }
}

/// Every experiment, in the order `repro all` prints them.
pub const FIGURES: &[Figure] = &[
    figure("fig5", 32_768, fig5),
    figure("fig6", 32_768, fig6),
    figure("fig7", 32_768, fig7),
    // The paper's grid is 32 K here too; the widest cells carry 512× the
    // normal warp volume, so that run is `--tasks 32768`.
    figure("fig8", 4_096, fig8),
    figure("fig9", 32_768, fig9),
    figure("fig10", 32_768, fig10),
    figure("fig11", 32_768, fig11),
    figure("table3", 32_768, table3),
    figure("table5", 32_768, table5),
    // The studies beyond the paper sweep configurations, not task counts.
    figure("machines", 8_192, machines),
    figure("ablations", 8_192, ablations),
];

/// What a run accumulates: the text, and a point per recorded run.
struct Report<'a> {
    /// The flags, for Fig. 5.
    cli: &'a Cli,
    /// `experiment` of the points recorded from here on.
    experiment: &'static str,
    text: String,
    points: Vec<DataPoint>,
}

impl Report<'_> {
    /// `println!` into the text.
    fn say(&mut self, line: fmt::Arguments) {
        writeln!(self.text, "{line}").expect("writing to a String");
    }

    /// Records a finished run as a point; the caller may still overwrite
    /// what its experiment defines differently (`speedup`).
    fn record(
        &mut self,
        bench: &str,
        scheme: Scheme,
        param: Option<u64>,
        run: &RunSummary,
        baseline: Option<&RunSummary>,
    ) -> &mut DataPoint {
        self.points.push(DataPoint {
            experiment: self.experiment.to_string(),
            bench: bench.to_string(),
            scheme: scheme.name().to_string(),
            param,
            makespan_ms: ms(run.makespan),
            compute_ms: run.compute_done.as_secs_f64() * 1e3,
            speedup: baseline.map_or(1.0, |b| run.speedup_over(b)),
            latency_us: run.mean_task_latency.as_us_f64(),
            occupancy: run.avg_running_occupancy,
        });
        self.points.last_mut().expect("just pushed")
    }

    /// Runs `waves` under each of `schemes` and records the points.
    fn run<const N: usize>(
        &mut self,
        bench: Bench,
        param: Option<u64>,
        schemes: [Scheme; N],
        waves: &[Vec<TaskDesc>],
        baseline: Option<&RunSummary>,
    ) -> [RunSummary; N] {
        schemes.map(|scheme| {
            let run = run_waves(scheme, waves);
            self.record(bench.name(), scheme, param, &run, baseline);
            run
        })
    }
}

/// `first`, `first × factor`, … up to and including `max`.
fn ladder(first: usize, factor: usize, max: usize) -> Vec<usize> {
    std::iter::successors(Some(first), |n| Some(n * factor))
        .take_while(|&n| n <= max)
        .collect()
}

fn ms(d: Dur) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One `--- bench` panel of Fig. 6 / Fig. 7: CUDA-HyperQ, GeMTC and
/// Pagoda over `tasks_at(x)` for every `x` of the sweep, `metric` (ms)
/// per cell. Returns the runs behind each row.
fn panel(
    out: &mut Report,
    bench: Bench,
    swept: &str,
    sweep: &[usize],
    tasks_at: impl Fn(usize) -> Vec<TaskDesc>,
    metric: fn(&RunSummary) -> f64,
) -> Vec<[RunSummary; 3]> {
    out.say(format_args!("--- {}", bench.name()));
    out.say(format_args!(
        "{:>8} {:>14} {:>12} {:>12}",
        swept, "CUDA-HyperQ", "GeMTC", "Pagoda"
    ));
    let mut rows = Vec::new();
    for &x in sweep {
        let runs = out.run(
            bench,
            Some(x as u64),
            [Scheme::HyperQ, Scheme::Gemtc, Scheme::Pagoda],
            &[tasks_at(x)],
            None,
        );
        let [hq, gm, pg] = runs.each_ref().map(metric);
        out.say(format_args!("{x:>8} {hq:>14.3} {gm:>12.3} {pg:>12.3}"));
        rows.push(runs);
    }
    rows
}

/// Fig. 5 — Overall performance comparison.
///
/// Speedup over the sequential CPU for PThreads (20 cores), CUDA-HyperQ,
/// GeMTC, and Pagoda on every benchmark at the paper's task counts (32 K;
/// SLUD 273 K), 128 threads per task, execution time including data
/// copies. Paper headline: Pagoda 5.70× over PThreads, 1.51× over
/// HyperQ, 1.69× over GeMTC (geometric means). The one figure that scales
/// each benchmark's own paper count, so it reads the flags itself.
fn fig5(_: usize, out: &mut Report) {
    out.say(format_args!(
        "Fig. 5 — Overall Performance Comparison (speedup over sequential CPU)"
    ));
    out.say(format_args!(
        "{:>6} {:>8} | {:>10} {:>12} {:>10} {:>10}",
        "bench", "tasks", "PThreads", "CUDA-HyperQ", "GeMTC", "Pagoda"
    ));
    let (mut r_pth, mut r_hq, mut r_gm) = (Vec::new(), Vec::new(), Vec::new());
    for b in Bench::ALL {
        let n = out.cli.scale(b.paper_task_count());
        // GeMTC has no shared-memory support (paper §6.2), so it runs the
        // plain versions; Pagoda/HyperQ run the smem versions where they
        // help. CPU timing depends only on operation counts.
        let waves = |use_smem| {
            let opts = GenOpts {
                use_smem,
                ..GenOpts::default()
            };
            bench_waves(b, n, &opts)
        };
        let (plain, smem) = (waves(false), waves(b.uses_smem()));
        let tasks_total: usize = plain.iter().map(Vec::len).sum();

        let [seq] = out.run(b, None, [Scheme::Sequential], &plain, None);
        let [pth] = out.run(b, None, [Scheme::PThreads], &plain, Some(&seq));
        let [hq] = out.run(b, None, [Scheme::HyperQ], &smem, Some(&seq));
        let gm = b
            .supports_gemtc()
            .then(|| out.run(b, None, [Scheme::Gemtc], &plain, Some(&seq)))
            .map(|[gm]| gm);
        let [pg] = out.run(b, None, [Scheme::Pagoda], &smem, Some(&seq));

        let su = |s: &RunSummary| s.speedup_over(&seq);
        out.say(format_args!(
            "{:>6} {:>8} | {:>10.2} {:>12.2} {:>10} {:>10.2}",
            b.name(),
            tasks_total,
            su(&pth),
            su(&hq),
            gm.as_ref()
                .map_or("n/a".to_string(), |g| format!("{:.2}", su(g))),
            su(&pg),
        ));
        r_pth.push(pg.speedup_over(&pth));
        r_hq.push(pg.speedup_over(&hq));
        r_gm.extend(gm.map(|g| pg.speedup_over(&g)));
    }
    out.say(format_args!("---"));
    out.say(format_args!(
        "geomean Pagoda speedups: {:.2}x over PThreads (paper 5.70x), \
         {:.2}x over CUDA-HyperQ (paper 1.51x), {:.2}x over GeMTC (paper 1.69x)",
        geomean(&r_pth),
        geomean(&r_hq),
        geomean(&r_gm),
    ));
}

/// Fig. 6 — Weak scaling with the number of tasks.
///
/// Execution time (copies included) vs task count for MB, CONV, DCT,
/// 3DES, MPE under CUDA-HyperQ, GeMTC, and Pagoda, 128 threads per task.
/// The ladder is 64 × 4ᵏ, so a 32 K run's last row is 16 384 tasks.
/// Paper finding: below ~512 tasks no scheme fills the GPU and
/// HyperQ/GeMTC hold their own; beyond 512 Pagoda pulls ahead and scales
/// almost linearly.
fn fig6(n: usize, out: &mut Report) {
    let counts = ladder(64, 4, n);
    out.say(format_args!(
        "Fig. 6 — Weak scaling: execution time (ms) vs number of tasks"
    ));
    for b in [Mb, Conv, Dct, Des3, Mpe] {
        panel(
            out,
            b,
            "tasks",
            &counts,
            |n| b.tasks(n, &GenOpts::default()),
            |r| ms(r.makespan),
        );
    }
}

/// Fig. 7 — Compute time vs threads per task.
///
/// 32 K tasks, constant work per task, thread count swept 32 → 512; no
/// shared memory anywhere (GeMTC cannot use it), data copies excluded
/// (compute time only). Paper findings: Pagoda wins at every width
/// (geomean 2.29× over HyperQ and 2.26× over GeMTC at 128 threads);
/// Pagoda's advantage over HyperQ shrinks as tasks widen (underutilization
/// becomes less severe); GeMTC barely changes with width.
fn fig7(n: usize, out: &mut Report) {
    let widths = [32, 64, 128, 256, 512];
    out.say(format_args!(
        "Fig. 7 — Compute time (ms) vs threads per task ({n} tasks, no smem, no copies)"
    ));
    let (mut r128_hq, mut r128_gm) = (Vec::new(), Vec::new());
    for b in Bench::ALL.into_iter().filter(|b| b.supports_gemtc()) {
        let tasks_at = |w| {
            let opts = GenOpts {
                threads_per_task: w as u32,
                use_smem: false,
                with_io: false,
                ..GenOpts::default()
            };
            b.tasks(n, &opts)
        };
        let rows = panel(out, b, "threads", &widths, tasks_at, |r| {
            r.compute_done.as_ms_f64()
        });
        let at_128 = widths.iter().position(|&w| w == 128).expect("swept");
        let [hq, gm, pg] = &rows[at_128];
        r128_hq.push(pg.compute_speedup_over(hq));
        r128_gm.push(pg.compute_speedup_over(gm));
    }
    out.say(format_args!("---"));
    out.say(format_args!(
        "geomean Pagoda compute speedup at 128 threads: {:.2}x over HyperQ (paper 2.29x), \
         {:.2}x over GeMTC (paper 2.26x)",
        geomean(&r128_hq),
        geomean(&r128_gm),
    ));
}

/// Fig. 8 — Effects of varying threads per task for different input
/// sizes (MM and CONV).
///
/// For each input size (16² … 256²) and per-task thread count (256 …
/// 16384), the cell is Pagoda's compute-time speedup over CUDA-HyperQ.
/// HyperQ runs 256-thread threadblocks; Pagoda tasks split into
/// ≤512-thread threadblocks (an MTB's executor capacity is 992 threads).
/// Paper findings: large speedups while tasks stay narrow (≤512 threads);
/// the benefit fades once HyperQ can fill the machine; warp-granularity
/// scheduling keeps Pagoda competitive even at very wide tasks. A point's
/// `param` is `input dim << 32 | threads`.
fn fig8(n: usize, out: &mut Report) {
    let dims = [16usize, 32, 64, 128, 256];
    let threads = [256u32, 512, 1024, 4096, 16384];
    type TasksSized = fn(usize, usize, &GenOpts) -> Vec<TaskDesc>;
    let families: [(&str, TasksSized); 2] =
        [("MM", matmul::tasks_sized), ("CONV", conv::tasks_sized)];
    let opts = GenOpts {
        with_io: false,
        ..GenOpts::default()
    };
    out.say(format_args!(
        "Fig. 8 — Pagoda compute speedup over CUDA-HyperQ (input size x threads/task, {n} tasks)"
    ));
    for (name, tasks_sized) in families {
        out.say(format_args!("--- {name}"));
        let header: String = threads.iter().map(|t| format!("{t:>9}")).collect();
        out.say(format_args!("{:>10}{header}", "input"));
        for d in dims {
            let base = tasks_sized(1, d, &opts).remove(0);
            let mut row = format!("{d:>7}x{d:<2}");
            for t in threads {
                let hq = run_waves(Scheme::HyperQ, &[vec![reshape_task(&base, t, 256); n]]);
                let pg = run_waves(
                    Scheme::Pagoda,
                    &[vec![reshape_task(&base, t, t.min(512)); n]],
                );
                let speedup = pg.compute_speedup_over(&hq);
                row += &format!("{speedup:>9.2}");
                let param = (d as u64) << 32 | u64::from(t);
                out.record(name, Scheme::Pagoda, Some(param), &pg, None)
                    .speedup = speedup;
            }
            out.say(format_args!("{row}"));
        }
    }
}

/// Fig. 9 — Static fusion vs Pagoda vs PThreads (vs HyperQ) on irregular
/// tasks.
///
/// Task input sizes are drawn pseudo-randomly; runtime schemes
/// (Pagoda/HyperQ) size each task at 32-256 threads, while static fusion
/// fixes every sub-task at 256 threads. Speedups over the sequential CPU.
/// SLUD is excluded (no static task list). Paper headline: Pagoda 1.79×
/// geomean over static fusion.
fn fig9(n: usize, out: &mut Report) {
    let benches = [Mb, Conv, Dct, Fb, Bf, Mm, Des3, Mpe];
    out.say(format_args!(
        "Fig. 9 — Irregular tasks ({n}): speedup over sequential CPU"
    ));
    out.say(format_args!(
        "{:>6} | {:>13} {:>10} {:>10} {:>12}",
        "bench", "Static-Fusion", "Pagoda", "PThreads", "CUDA-HyperQ"
    ));
    let mut pagoda_over_fusion = Vec::new();
    for b in benches {
        // Compute-dominant inputs (6x the default work per task, thread
        // counts unchanged): Fig. 9's fusion-vs-runtime comparison is
        // about load imbalance inside the compute phase, so tasks must be
        // large enough that the spawn path is not the bottleneck.
        let opts = GenOpts {
            work_scale: 6.0,
            ..GenOpts::default()
        };
        let matched = [irregular_tasks(b, n, ThreadPolicy::Matched, &opts)];
        let fixed = [irregular_tasks(b, n, ThreadPolicy::Fixed(256), &opts)];
        let seq = run_waves(Scheme::Sequential, &matched);
        let [fus] = out.run(b, None, [Scheme::Fusion(256)], &fixed, Some(&seq));
        let [pag, pth, hq] = out.run(
            b,
            None,
            [Scheme::Pagoda, Scheme::PThreads, Scheme::HyperQ],
            &matched,
            Some(&seq),
        );
        out.say(format_args!(
            "{:>6} | {:>13.2} {:>10.2} {:>10.2} {:>12.2}",
            b.name(),
            fus.speedup_over(&seq),
            pag.speedup_over(&seq),
            pth.speedup_over(&seq),
            hq.speedup_over(&seq),
        ));
        pagoda_over_fusion.push(pag.speedup_over(&fus));
    }
    out.say(format_args!("---"));
    out.say(format_args!(
        "geomean Pagoda speedup over static fusion: {:.2}x (paper 1.79x)",
        geomean(&pagoda_over_fusion)
    ));
}

/// Fig. 10 — Average per-task latency: statically fused kernels vs
/// Pagoda, for 3DES (irregular) and MM (regular), as the number of tasks
/// grows 128 → 32768.
///
/// In a fused kernel (or any batch system) no task completes before the
/// batch, so average latency grows linearly with the task count; Pagoda's
/// per-task latency stays flat.
fn fig10(max_n: usize, out: &mut Report) {
    out.say(format_args!(
        "Fig. 10 — Average task latency (us, log scale in the paper)"
    ));
    out.say(format_args!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "tasks", "Fused-3DES", "Pagoda-3DES", "Fused-MM", "Pagoda-MM"
    ));
    for n in ladder(128, 2, max_n) {
        let mut row = format!("{n:>8}");
        for b in [Des3, Mm] {
            let runs = out.run(
                b,
                Some(n as u64),
                [Scheme::Fusion(256), Scheme::Pagoda],
                &[b.tasks(n, &GenOpts::default())],
                None,
            );
            for run in runs {
                row += &format!(" {:>14.1}", run.mean_task_latency.as_us_f64());
            }
        }
        out.say(format_args!("{row}"));
    }
}

/// Fig. 11 — Benefits of continuous spawning and concurrent, pipelined
/// task processing.
///
/// Three configurations, speedup over GeMTC: GeMTC (neither mechanism),
/// Pagoda-Batching (concurrent scheduling but batch-synchronous spawning,
/// same batch size as GeMTC), and full Pagoda (both). 32 K tasks, 128
/// threads each. Paper findings: Pagoda wins everywhere; CONV benefits
/// least from continuous spawning (regular, extremely short tasks); MPE
/// benefits most (unbalanced tasks).
fn fig11(n: usize, out: &mut Report) {
    // GeMTC's batch = one task per SuperKernel worker: 16 TBs/SMM x 24.
    let batch = 16 * 24;
    let benches = [Mb, Conv, Fb, Bf, Des3, Dct, Mm, Mpe];
    out.say(format_args!(
        "Fig. 11 — Continuous spawning + pipelined processing ({n} tasks, speedup over GeMTC)"
    ));
    out.say(format_args!(
        "{:>6} | {:>8} {:>16} {:>8}",
        "bench", "GeMTC", "Pagoda-Batching", "Pagoda"
    ));
    for b in benches {
        let tasks = [b.tasks(n, &GenOpts::default())];
        let [gm] = out.run(b, None, [Scheme::Gemtc], &tasks, None);
        let [pb, pg] = out.run(
            b,
            None,
            [Scheme::PagodaBatched(batch), Scheme::Pagoda],
            &tasks,
            Some(&gm),
        );
        out.say(format_args!(
            "{:>6} | {:>8.2} {:>16.2} {:>8.2}",
            b.name(),
            1.0,
            pb.speedup_over(&gm),
            pg.speedup_over(&gm),
        ));
    }
}

/// Table 3 — Benchmark characteristics: the % of CUDA-HyperQ execution
/// time spent in data copy vs computation, per benchmark, plus the static
/// characteristics (task counts, sync/smem flags). SLUD is sized from the
/// same 32 K as the rest, not from its own paper count.
fn table3(n: usize, out: &mut Report) {
    out.say(format_args!(
        "Table 3 — Benchmark characteristics (measured under CUDA-HyperQ)"
    ));
    out.say(format_args!(
        "{:>6} {:>8} {:>8} {:>9} {:>6} {:>6}  paper-copy%",
        "bench", "tasks", "copy%", "compute%", "smem", "sync"
    ));
    let paper_copy = [
        (Mb, 24),
        (Fb, 35),
        (Bf, 13),
        (Conv, 30),
        (Dct, 81),
        (Mm, 51),
        (Slud, 3),
        (Des3, 74),
    ];
    for (b, paper) in paper_copy {
        let waves = bench_waves(b, n, &GenOpts::default());
        let tasks_total: usize = waves.iter().map(Vec::len).sum();
        let [hq] = out.run(b, None, [Scheme::HyperQ], &waves, None);
        let copy = hq.copy_share() * 100.0;
        let yes_no = |flag| if flag { "yes" } else { "no" };
        out.say(format_args!(
            "{:>6} {:>8} {:>7.0}% {:>8.0}% {:>6} {:>6}  {paper}%",
            b.name(),
            tasks_total,
            copy,
            100.0 - copy,
            yes_no(b.uses_smem()),
            yes_no(waves[0][0].sync),
        ));
    }
}

/// Table 5 — Pagoda's software shared-memory management: compute-time
/// speedup over CUDA-HyperQ (whose kernels also use shared memory) with
/// and without Pagoda's shared-memory allocation, plus the achieved
/// running occupancy. DCT tasks use 64 threads, MM tasks 256 (paper).
/// A point's `param` is 1 with shared memory, 0 without.
///
/// Paper: DCT 1.35×/25 % occ with smem vs 1.25×/97 % without; MM 1.51×/
/// 97 % vs 1.20×/97 %.
fn table5(n: usize, out: &mut Report) {
    out.say(format_args!(
        "Table 5 — Pagoda shared-memory management ({n} tasks, compute time only)"
    ));
    out.say(format_args!(
        "{:>6} {:>8} | {:>16} {:>8} | {:>16} {:>8}",
        "bench", "threads", "smem speedup/HQ", "occ", "plain speedup/HQ", "occ"
    ));
    for (b, threads) in [(Dct, 64u32), (Mm, 256u32)] {
        let waves = |smem: bool| {
            let opts = GenOpts {
                threads_per_task: threads,
                use_smem: smem,
                with_io: false,  // compute time only
                work_scale: 8.0, // compute-dominant inputs (see EXPERIMENTS.md)
                ..GenOpts::default()
            };
            [b.tasks(n, &opts)]
        };
        // HyperQ reference uses the shared-memory kernels (paper).
        let hq = run_waves(Scheme::HyperQ, &waves(true));
        let pg_smem = run_waves(Scheme::Pagoda, &waves(true));
        let pg_plain = run_waves(Scheme::Pagoda, &waves(false));
        let su = |pg: &RunSummary| pg.compute_speedup_over(&hq);
        out.say(format_args!(
            "{:>6} {:>8} | {:>15.2}x {:>7.0}% | {:>15.2}x {:>7.0}%",
            b.name(),
            threads,
            su(&pg_smem),
            pg_smem.avg_running_occupancy * 100.0,
            su(&pg_plain),
            pg_plain.avg_running_occupancy * 100.0,
        ));
        for (param, pg) in [(1, &pg_smem), (0, &pg_plain)] {
            out.record(b.name(), Scheme::Pagoda, Some(param), pg, None)
                .speedup = su(pg);
        }
    }
}

/// Cross-machine check: the paper micro-validated the TaskTable's
/// host/device visibility behaviour on both a Maxwell Titan X and a
/// Kepler Tesla K40. This runs the whole stack on both machine models:
/// the MasterKernel shape adapts (2 MTBs per SMM → 30 MTBs on the K40's
/// 15 SMMs), and the relative Pagoda-vs-HyperQ ordering must survive the
/// architecture change. A point's `param` is the machine's SMM count.
fn machines(n: usize, out: &mut Report) {
    out.say(format_args!(
        "Machine sweep — Pagoda vs HyperQ on both validation platforms ({n} tasks)"
    ));
    out.say(format_args!(
        "{:>16} {:>6} {:>8} | {:>12} {:>12} {:>8}",
        "machine", "SMMs", "MTBs", "Pagoda ms", "HyperQ ms", "ratio"
    ));
    for spec in [GpuSpec::titan_x(), GpuSpec::tesla_k40()] {
        let device = DeviceConfig::new(spec.clone());
        let pg_cfg = PagodaConfig {
            device: device.clone(),
            ..PagodaConfig::default()
        };
        let hq_cfg = HyperQConfig {
            device,
            ..HyperQConfig::default()
        };
        let mtbs = pg_cfg.num_mtbs();
        for b in [Fb, Mb] {
            let tasks = b.tasks(n, &GenOpts::default());
            let pg = run_pagoda(pg_cfg.clone(), &tasks);
            let hq = run_hyperq(&hq_cfg, &tasks);
            out.say(format_args!(
                "{:>16} {:>6} {:>8} | {:>12.3} {:>12.3} {:>7.2}x  ({})",
                spec.name,
                spec.num_sms,
                mtbs,
                ms(pg.makespan),
                ms(hq.makespan),
                hq.makespan.as_secs_f64() / pg.makespan.as_secs_f64(),
                b.name(),
            ));
            let sms = Some(u64::from(spec.num_sms));
            out.record(b.name(), Scheme::Pagoda, sms, &pg, Some(&hq));
            out.record(b.name(), Scheme::HyperQ, sms, &hq, None);
        }
    }
}

/// Ablations of the design choices DESIGN.md calls out (beyond the
/// paper's own Fig. 11 and Table 5 ablations, which are figures of their
/// own). Each is its own `experiment` in the points, `ablation1` …
/// `ablation4`, with the swept value as `param`:
///
/// 1. **Warp- vs threadblock-granularity resource freeing** (§6.4): the
///    hardware path frees a TB's warp slots only when the whole TB
///    retires; Pagoda frees per warp. Applied to the native scheduler on
///    the divergent MB workload (`param` 1 = per warp, 0 = per TB).
/// 2. **TaskTable rows per column** (the paper fixes 32): fewer rows
///    starve the pipeline and force constant copy-backs.
/// 3. **Scheduler-cost sensitivity**: how much measured performance
///    depends on the charged pSched cycles.
/// 4. **PCIe transaction-overhead sensitivity**: the spawn path's
///    dependence on per-copy latency.
fn ablations(n: usize, out: &mut Report) {
    out.experiment = "ablation1";
    out.say(format_args!(
        "Ablation 1 — resource-freeing granularity (one 512-TB divergent kernel)"
    ));
    {
        // One kernel of 512 divergent 992-thread threadblocks (31 warps
        // each, Mandelbrot straggler warps inside every TB); only ~2 TBs
        // fit an SMM, so queued TBs wait on resources. TB-granularity
        // freeing keeps a whole 992-thread allocation hostage to its
        // slowest warp; warp-granularity freeing (Pagoda's rule, §6.4)
        // lets the next TB launch as stragglers' siblings retire.
        let mb = Mb.tasks(
            512,
            &GenOpts {
                threads_per_task: 992,
                with_io: false,
                ..GenOpts::default()
            },
        );
        let blocks: Vec<gpu_sim::BlockWork> = mb.iter().map(|t| t.blocks[0].clone()).collect();
        let shape = gpu_arch::TaskShape {
            threads_per_tb: 992,
            num_tbs: blocks.len() as u32,
            regs_per_thread: 32,
            smem_per_tb: 0,
        };
        // The device has no PCIe link or host: the kernel's end is the run.
        let run = |free_individually: bool| {
            let mut dev = gpu_sim::GpuDevice::new(DeviceConfig {
                free_warps_individually: free_individually,
                ..DeviceConfig::titan_x()
            });
            dev.launch_kernel(gpu_sim::KernelDesc::new(shape, blocks.clone(), 0))
                .expect("launchable");
            while dev.step().is_some() {}
            RunSummary {
                makespan: dev.now() - SimTime::ZERO,
                compute_done: dev.now(),
                tasks: 1,
                mean_task_latency: Dur::ZERO,
                avg_running_occupancy: 0.0,
                h2d_busy: Dur::ZERO,
                d2h_busy: Dur::ZERO,
                gpu_busy: Dur::ZERO,
            }
        };
        let tb = run(false);
        let warp = run(true);
        out.say(format_args!(
            "  TB-granularity   : {:>10.3} ms\n  warp-granularity : {:>10.3} ms  ({:.2}x)",
            tb.compute_done.as_ms_f64(),
            warp.compute_done.as_ms_f64(),
            tb.compute_done.as_secs_f64() / warp.compute_done.as_secs_f64(),
        ));
        out.record("MB", Scheme::HyperQ, Some(0), &tb, None);
        out.record("MB", Scheme::HyperQ, Some(1), &warp, Some(&tb));
    }

    let tasks = Fb.tasks(n, &GenOpts::default());

    out.experiment = "ablation2";
    out.say(format_args!(
        "Ablation 2 — TaskTable rows per column (FB, {n} tasks; paper uses 32)"
    ));
    out.say(format_args!("  {:>6} {:>12}", "rows", "makespan ms"));
    for rows in [2u32, 4, 8, 16, 32, 64] {
        let cfg = PagodaConfig {
            rows_per_column: rows,
            ..PagodaConfig::default()
        };
        let r = run_pagoda(cfg, &tasks);
        out.say(format_args!("  {:>6} {:>12.3}", rows, ms(r.makespan)));
        out.record("FB", Scheme::Pagoda, Some(u64::from(rows)), &r, None);
    }

    out.experiment = "ablation3";
    out.say(format_args!(
        "Ablation 3 — scheduler-cost sensitivity (FB, {n} tasks)"
    ));
    out.say(format_args!("  {:>8} {:>12}", "pSched x", "makespan ms"));
    for scale in [0u64, 1, 4, 16] {
        let base = PagodaConfig::default();
        let cfg = PagodaConfig {
            psched_cycles_base: base.psched_cycles_base * scale,
            psched_cycles_per_warp: base.psched_cycles_per_warp * scale,
            chain_update_cycles: base.chain_update_cycles * scale.max(1),
            smem_alloc_cycles: base.smem_alloc_cycles * scale.max(1),
            ..base
        };
        let r = run_pagoda(cfg, &tasks);
        out.say(format_args!("  {:>8} {:>12.3}", scale, ms(r.makespan)));
        out.record("FB", Scheme::Pagoda, Some(scale), &r, None);
    }

    out.experiment = "ablation4";
    out.say(format_args!(
        "Ablation 4 — PCIe per-transaction overhead (FB, {n} tasks)"
    ));
    out.say(format_args!(
        "  {:>10} {:>14} {:>14}",
        "latency ns", "Pagoda ms", "HyperQ ms"
    ));
    for lat_ns in [200u64, 800, 3200] {
        let pcie = pcie::PcieConfig {
            latency: Dur::from_ns(lat_ns),
            ..pcie::PcieConfig::default()
        };
        let pg_cfg = PagodaConfig {
            pcie: pcie.clone(),
            ..PagodaConfig::default()
        };
        let hq_cfg = HyperQConfig {
            pcie,
            ..HyperQConfig::default()
        };
        let pg = run_pagoda(pg_cfg, &tasks);
        let hq = run_hyperq(&hq_cfg, &tasks);
        out.say(format_args!(
            "  {:>10} {:>14.3} {:>14.3}",
            lat_ns,
            ms(pg.makespan),
            ms(hq.makespan),
        ));
        out.record("FB", Scheme::Pagoda, Some(lat_ns), &pg, Some(&hq));
        out.record("FB", Scheme::HyperQ, Some(lat_ns), &hq, None);
    }
}
