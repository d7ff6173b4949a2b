//! The paper's evaluation (§6) and the four studies beyond it as one
//! table: [`FIGURES`] names every experiment the `repro` binary can
//! print, the paper's task count for it, and the function that runs it.
//!
//! A paper figure (`fig5` … `fig11`, `table3`, `table5`) builds its
//! [`Cell`]s, runs them all in one `Report::run` and renders its text and
//! points from their summaries. The four studies sweep device, runtime,
//! serving and fleet configurations, not (benchmark, scheme) pairs, so
//! they call their runners themselves.
//!
//! A run returns the text of the figure — what `results/<name>.txt`
//! holds at paper scale — and one [`Point`] per measured cell (the
//! `--json` lines). `tests/repro.rs` runs the same table at 1/64 scale
//! against `tests/golden/repro/` and asserts the shape claims of
//! EXPERIMENTS.md over the points; `ci.sh` holds `results/` to
//! `repro <name>` byte for byte.

use crate::{Cell, Cli, CurvePoint, DataPoint, Point, ScalingPoint, Scheme, Shape, SkewPoint};
use baselines::{geomean, run_hyperq, run_pagoda, HyperQConfig, RunSummary};
use desim::{Dur, SimTime};
use gpu_arch::GpuSpec;
use gpu_sim::{DeviceConfig, WarpWork};
use pagoda_cluster::{ClusterConfig, ClusterHandle, Placement};
use pagoda_core::{Backend, PagodaConfig, TaskDesc};
use pagoda_prof::{Phase, ProfReport};
use pagoda_serve::{
    calibrate_capacity, percentile, serve, serve_on, serving_slice, ArrivalSpec, Outcome, Policy,
    ServeConfig, TenantSpec,
};
use std::fmt::{self, Write as _};
use std::rc::Rc;
use workloads::Bench::{self, Bf, Conv, Dct, Des3, Fb, Mb, Mm, Mpe, Slud};
use workloads::{GenOpts, ThreadPolicy};
use Scheme::{Fusion, Gemtc, HyperQ, PThreads, Pagoda, PagodaBatched, Sequential};

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
    pub fn run(&self, cli: &Cli) -> (String, Vec<Point>) {
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
    // Tasks per tenant, and the closed-loop batch.
    figure("serve_curves", 1_024, serve_curves),
    figure("cluster_scaling", 2_048, cluster_scaling),
];

/// A figure's cell and what it ran to.
struct Ran {
    cell: Cell,
    run: RunSummary,
}

/// What a run accumulates: the text, and a point per recorded run.
struct Report<'a> {
    /// The flags, for Fig. 5 and the serving curves' load ladder.
    cli: &'a Cli,
    /// `experiment` of the scheme points recorded from here on.
    experiment: &'static str,
    text: String,
    points: Vec<Point>,
}

impl Report<'_> {
    /// `println!` into the text.
    fn say(&mut self, line: impl fmt::Display) {
        writeln!(self.text, "{line}").expect("writing to a String");
    }

    /// Runs a figure's cells, in order.
    fn run(&self, cells: Vec<Cell>) -> Vec<Ran> {
        let ran = |cell: Cell| Ran {
            run: cell.run(),
            cell,
        };
        cells.into_iter().map(ran).collect()
    }

    /// Records a finished run as a point; the caller may still overwrite
    /// what its experiment defines differently (`speedup`).
    fn record(
        &mut self,
        bench: Bench,
        scheme: Scheme,
        param: Option<u64>,
        run: &RunSummary,
        baseline: Option<&RunSummary>,
    ) -> &mut DataPoint {
        self.points.push(Point::Scheme(DataPoint {
            experiment: self.experiment.to_string(),
            bench: bench.name().to_string(),
            scheme: scheme.name().to_string(),
            param,
            makespan_ms: ms(run.makespan),
            compute_ms: run.compute_done.as_secs_f64() * 1e3,
            speedup: baseline.map_or(1.0, |b| run.speedup_over(b)),
            latency_us: run.mean_task_latency.as_us_f64(),
            occupancy: run.avg_running_occupancy,
        }));
        match self.points.last_mut() {
            Some(Point::Scheme(point)) => point,
            _ => unreachable!("just pushed"),
        }
    }

    /// Records every run of `row` as a point (a baseline's own speed-up
    /// over itself is 1).
    fn record_all(&mut self, row: &[Ran], param: Option<u64>, baseline: Option<&RunSummary>) {
        for Ran { cell, run } in row {
            self.record(cell.bench, cell.scheme, param, run, baseline);
        }
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

/// The runs of `row`'s first `N` cells.
fn runs<const N: usize>(row: &[Ran]) -> [&RunSummary; N] {
    std::array::from_fn(|i| &row[i].run)
}

/// Fig. 6 / Fig. 7: CUDA-HyperQ, GeMTC and Pagoda on `cell_at(bench,
/// scheme, x)` for every benchmark and every `x` of the sweep, a
/// `--- bench` panel each with the `time` (ms) of every cell. Returns
/// the runs, benchmark by benchmark.
fn panels(
    out: &mut Report,
    benches: &[Bench],
    axis: &str,
    xs: &[usize],
    cell_at: impl Fn(Bench, Scheme, usize) -> Cell,
    time: fn(&RunSummary) -> f64,
) -> Vec<Ran> {
    let mut cells = Vec::new();
    for &b in benches {
        for &x in xs {
            cells.extend([HyperQ, Gemtc, Pagoda].map(|s| cell_at(b, s, x)));
        }
    }
    let ran = out.run(cells);
    for (panel, b) in benches.iter().enumerate() {
        out.say(format_args!("--- {}", b.name()));
        out.say(format_args!(
            "{:>8} {:>14} {:>12} {:>12}",
            axis, "CUDA-HyperQ", "GeMTC", "Pagoda"
        ));
        for (&x, row) in xs.iter().zip(ran[3 * xs.len() * panel..].chunks(3)) {
            out.record_all(row, Some(x as u64), None);
            let [hq, gm, pg] = runs(row).map(time);
            out.say(format_args!("{x:>8} {hq:>14.3} {gm:>12.3} {pg:>12.3}"));
        }
    }
    ran
}

/// Fig. 5's cells at the scale `cli` asks for: every benchmark at its
/// own paper task count under the sequential CPU, PThreads, CUDA-HyperQ,
/// GeMTC (not SLUD) and Pagoda. The GPU schemes ask for the shared-memory
/// versions where they help (a GeMTC cell builds the plain ones); CPU
/// timing depends only on operation counts, so the CPUs run the plain.
pub fn fig5_cells(cli: &Cli) -> Vec<Cell> {
    let mut cells = Vec::new();
    for b in Bench::ALL {
        for s in Scheme::PAPER
            .into_iter()
            .filter(|&s| s != Gemtc || b.supports_gemtc())
        {
            let mut cell = Cell::new(b, s, cli.scale(b.paper_task_count()), GenOpts::default());
            cell.opts.use_smem = b.uses_smem() && !matches!(s, Sequential | PThreads);
            cells.push(cell);
        }
    }
    cells
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
    let ran = out.run(fig5_cells(out.cli));
    out.say("Fig. 5 — Overall Performance Comparison (speedup over sequential CPU)");
    out.say(format_args!(
        "{:>6} {:>8} | {:>10} {:>12} {:>10} {:>10}",
        "bench", "tasks", "PThreads", "CUDA-HyperQ", "GeMTC", "Pagoda"
    ));
    let (mut r_pth, mut r_hq, mut r_gm) = (Vec::new(), Vec::new(), Vec::new());
    for row in ran.chunk_by(|a, b| a.cell.bench == b.cell.bench) {
        let of = |s| row.iter().find(|r| r.cell.scheme == s).map(|r| &r.run);
        let [seq, pth, hq, pg] =
            [Sequential, PThreads, HyperQ, Pagoda].map(|s| of(s).expect("a cell per scheme"));
        let gm = of(Gemtc);
        out.record_all(row, None, Some(seq));
        let su = |s: &RunSummary| s.speedup_over(seq);
        out.say(format_args!(
            "{:>6} {:>8} | {:>10.2} {:>12.2} {:>10} {:>10.2}",
            row[0].cell.bench.name(),
            seq.tasks,
            su(pth),
            su(hq),
            gm.map_or("n/a".to_string(), |g| format!("{:.2}", su(g))),
            su(pg)
        ));
        r_pth.push(pg.speedup_over(pth));
        r_hq.push(pg.speedup_over(hq));
        r_gm.extend(gm.map(|g| pg.speedup_over(g)));
    }
    out.say(format_args!("---"));
    out.say(format_args!(
        "geomean Pagoda speedups: {:.2}x over PThreads (paper 5.70x), \
         {:.2}x over CUDA-HyperQ (paper 1.51x), {:.2}x over GeMTC (paper 1.69x)",
        geomean(&r_pth),
        geomean(&r_hq),
        geomean(&r_gm)
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
    out.say("Fig. 6 — Weak scaling: execution time (ms) vs number of tasks");
    let (counts, benches) = (ladder(64, 4, n), [Mb, Conv, Dct, Des3, Mpe]);
    let cell_at = |b, s, n| Cell::new(b, s, n, GenOpts::default());
    let makespan_ms = |r: &RunSummary| ms(r.makespan);
    panels(out, &benches, "tasks", &counts, cell_at, makespan_ms);
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
    out.say(format_args!(
        "Fig. 7 — Compute time (ms) vs threads per task ({n} tasks, no smem, no copies)"
    ));
    let widths = [32, 64, 128, 256, 512];
    let benches: Vec<Bench> = Bench::ALL
        .into_iter()
        .filter(|b| b.supports_gemtc())
        .collect();
    let cell_at = |b, s, w: usize| {
        let mut opts = GenOpts::default();
        (opts.threads_per_task, opts.use_smem, opts.with_io) = (w as u32, false, false);
        Cell::new(b, s, n, opts)
    };
    let compute_ms = |r: &RunSummary| r.compute_done.as_ms_f64();
    let ran = panels(out, &benches, "threads", &widths, cell_at, compute_ms);
    let at_128 = 3 * widths.iter().position(|&w| w == 128).expect("swept");
    let (mut r128_hq, mut r128_gm) = (Vec::new(), Vec::new());
    for row in ran.chunks(3 * widths.len()) {
        let [hq, gm, pg] = runs(&row[at_128..]);
        r128_hq.push(pg.compute_speedup_over(hq));
        r128_gm.push(pg.compute_speedup_over(gm));
    }
    out.say(format_args!("---"));
    out.say(format_args!(
        "geomean Pagoda compute speedup at 128 threads: {:.2}x over HyperQ (paper 2.29x), \
         {:.2}x over GeMTC (paper 2.26x)",
        geomean(&r128_hq),
        geomean(&r128_gm)
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
    let mut cells = Vec::new();
    for b in [Mm, Conv] {
        for d in dims {
            for t in threads {
                for (s, threads_per_tb) in [(HyperQ, 256), (Pagoda, t.min(512))] {
                    let mut cell = Cell::new(b, s, n, GenOpts::default());
                    cell.opts.with_io = false;
                    cell.shape = Shape::Reshaped(d, t, threads_per_tb);
                    cells.push(cell);
                }
            }
        }
    }
    let ran = out.run(cells);
    out.say(format_args!(
        "Fig. 8 — Pagoda compute speedup over CUDA-HyperQ (input size x threads/task, {n} tasks)"
    ));
    for family in ran.chunks(2 * dims.len() * threads.len()) {
        let bench = family[0].cell.bench;
        out.say(format_args!("--- {}", bench.name()));
        let header: String = threads.iter().map(|t| format!("{t:>9}")).collect();
        out.say(format_args!("{:>10}{header}", "input"));
        for (d, row) in dims.into_iter().zip(family.chunks(2 * threads.len())) {
            let mut line = format!("{d:>7}x{d:<2}");
            for (t, pair) in threads.into_iter().zip(row.chunks(2)) {
                let [hq, pg] = runs(pair);
                let speedup = pg.compute_speedup_over(hq);
                line += &format!("{speedup:>9.2}");
                let param = (d as u64) << 32 | u64::from(t);
                out.record(bench, Pagoda, Some(param), pg, None).speedup = speedup;
            }
            out.say(format_args!("{line}"));
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
    // The sequential CPU first: every other cell's speed-up is over it.
    let schemes = [Sequential, Fusion(256), Pagoda, PThreads, HyperQ];
    let benches = [Mb, Conv, Dct, Fb, Bf, Mm, Des3, Mpe];
    let cells = benches.into_iter().flat_map(|b| {
        schemes.map(|s| {
            // Compute-dominant inputs (6x the default work per task, same
            // threads): Fig. 9 is about load imbalance inside the compute
            // phase, so the spawn path must not be the limit.
            let mut cell = Cell::new(b, s, n, GenOpts::default());
            cell.opts.work_scale = 6.0;
            cell.shape = Shape::Irregular(match s {
                Fusion(w) => ThreadPolicy::Fixed(w),
                _ => ThreadPolicy::Matched,
            });
            cell
        })
    });
    let ran = out.run(cells.collect());
    out.say(format_args!(
        "Fig. 9 — Irregular tasks ({n}): speedup over sequential CPU"
    ));
    out.say(format_args!(
        "{:>6} | {:>13} {:>10} {:>10} {:>12}",
        "bench", "Static-Fusion", "Pagoda", "PThreads", "CUDA-HyperQ"
    ));
    let mut pagoda_over_fusion = Vec::new();
    for row in ran.chunks(schemes.len()) {
        let [seq, fus, pag, pth, hq] = runs(row);
        out.record_all(&row[1..], None, Some(seq));
        out.say(format_args!(
            "{:>6} | {:>13.2} {:>10.2} {:>10.2} {:>12.2}",
            row[0].cell.bench.name(),
            fus.speedup_over(seq),
            pag.speedup_over(seq),
            pth.speedup_over(seq),
            hq.speedup_over(seq)
        ));
        pagoda_over_fusion.push(pag.speedup_over(fus));
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
    let counts = ladder(128, 2, max_n);
    let fused = Fusion(256);
    let row = [(Des3, fused), (Des3, Pagoda), (Mm, fused), (Mm, Pagoda)];
    let cells = counts
        .iter()
        .flat_map(|&n| row.map(|(b, s)| Cell::new(b, s, n, GenOpts::default())));
    let ran = out.run(cells.collect());
    out.say("Fig. 10 — Average task latency (us, log scale in the paper)");
    out.say(format_args!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "tasks", "Fused-3DES", "Pagoda-3DES", "Fused-MM", "Pagoda-MM"
    ));
    for (n, runs) in counts.into_iter().zip(ran.chunks(row.len())) {
        out.record_all(runs, Some(n as u64), None);
        let latencies = runs.iter().map(|r| r.run.mean_task_latency.as_us_f64());
        let line: String = latencies.map(|us| format!(" {us:>14.1}")).collect();
        out.say(format_args!("{n:>8}{line}"));
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
    let schemes = [Gemtc, PagodaBatched(16 * 24), Pagoda];
    let cells = [Mb, Conv, Fb, Bf, Des3, Dct, Mm, Mpe]
        .into_iter()
        .flat_map(|b| schemes.map(|s| Cell::new(b, s, n, GenOpts::default())));
    let ran = out.run(cells.collect());
    out.say(format_args!(
        "Fig. 11 — Continuous spawning + pipelined processing ({n} tasks, speedup over GeMTC)"
    ));
    out.say(format_args!(
        "{:>6} | {:>8} {:>16} {:>8}",
        "bench", "GeMTC", "Pagoda-Batching", "Pagoda"
    ));
    for row in ran.chunks(schemes.len()) {
        let [gm, pb, pg] = runs(row);
        out.record_all(row, None, Some(gm));
        out.say(format_args!(
            "{:>6} | {:>8.2} {:>16.2} {:>8.2}",
            row[0].cell.bench.name(),
            1.0,
            pb.speedup_over(gm),
            pg.speedup_over(gm)
        ));
    }
}

/// Table 3 — Benchmark characteristics: the % of CUDA-HyperQ execution
/// time spent in data copy vs computation, per benchmark, plus the static
/// characteristics (task counts, sync/smem flags). SLUD is sized from the
/// same 32 K as the rest, not from its own paper count.
fn table3(n: usize, out: &mut Report) {
    let benches = [Mb, Fb, Bf, Conv, Dct, Mm, Slud, Des3];
    let paper_copy = [24, 35, 13, 30, 81, 51, 3, 74];
    let cells = benches.map(|b| Cell::new(b, HyperQ, n, GenOpts::default()));
    let ran = out.run(cells.into());
    out.say("Table 3 — Benchmark characteristics (measured under CUDA-HyperQ)");
    out.say(format_args!(
        "{:>6} {:>8} {:>8} {:>9} {:>6} {:>6}  paper-copy%",
        "bench", "tasks", "copy%", "compute%", "smem", "sync"
    ));
    for (r, paper) in ran.iter().zip(paper_copy) {
        let (b, hq) = (r.cell.bench, &r.run);
        out.record(b, HyperQ, None, hq, None);
        let copy = hq.copy_share() * 100.0;
        let yes_no = |flag| if flag { "yes" } else { "no" };
        out.say(format_args!(
            "{:>6} {:>8} {:>7.0}% {:>8.0}% {:>6} {:>6}  {paper}%",
            b.name(),
            hq.tasks,
            copy,
            100.0 - copy,
            yes_no(b.uses_smem()),
            yes_no(b.tasks(1, &GenOpts::default())[0].sync)
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
    let benches = [(Dct, 64u32), (Mm, 256u32)];
    // The HyperQ reference uses the shared-memory kernels (paper).
    let row = [(HyperQ, true), (Pagoda, true), (Pagoda, false)];
    let cells = benches.into_iter().flat_map(|(b, threads_per_task)| {
        row.map(|(s, use_smem)| {
            let opts = GenOpts {
                threads_per_task,
                use_smem,
                with_io: false,  // compute time only
                work_scale: 8.0, // compute-dominant inputs (see EXPERIMENTS.md)
                ..GenOpts::default()
            };
            Cell::new(b, s, n, opts)
        })
    });
    let ran = out.run(cells.collect());
    out.say(format_args!(
        "Table 5 — Pagoda shared-memory management ({n} tasks, compute time only)"
    ));
    out.say(format_args!(
        "{:>6} {:>8} | {:>16} {:>8} | {:>16} {:>8}",
        "bench", "threads", "smem speedup/HQ", "occ", "plain speedup/HQ", "occ"
    ));
    for ((b, threads), runs3) in benches.into_iter().zip(ran.chunks(row.len())) {
        let [hq, pg_smem, pg_plain] = runs(runs3);
        let su = |pg: &RunSummary| pg.compute_speedup_over(hq);
        out.say(format_args!(
            "{:>6} {:>8} | {:>15.2}x {:>7.0}% | {:>15.2}x {:>7.0}%",
            b.name(),
            threads,
            su(pg_smem),
            pg_smem.avg_running_occupancy * 100.0,
            su(pg_plain),
            pg_plain.avg_running_occupancy * 100.0
        ));
        for (param, pg) in [(1, pg_smem), (0, pg_plain)] {
            out.record(b, Pagoda, Some(param), pg, None).speedup = su(pg);
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
            out.record(b, Pagoda, sms, &pg, Some(&hq));
            out.record(b, HyperQ, sms, &hq, None);
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
    out.say("Ablation 1 — resource-freeing granularity (one 512-TB divergent kernel)");
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
        let kernel = workloads::gen::kernel(992, 0, false, blocks);
        // The device has no PCIe link or host: the kernel's end is the run.
        let run = |free_individually: bool| {
            let mut dev = gpu_sim::GpuDevice::new(DeviceConfig {
                free_warps_individually: free_individually,
                ..DeviceConfig::titan_x()
            });
            dev.launch_kernel(Rc::clone(&kernel), 0)
                .expect("launchable");
            let mut batch = Vec::new();
            while dev.step_bounded_into(SimTime::MAX, &mut batch).is_some() {}
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
        out.record(Mb, HyperQ, Some(0), &tb, None);
        out.record(Mb, HyperQ, Some(1), &warp, Some(&tb));
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
        out.record(Fb, Pagoda, Some(u64::from(rows)), &r, None);
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
        out.record(Fb, Pagoda, Some(scale), &r, None);
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
        out.record(Fb, Pagoda, Some(lat_ns), &pg, Some(&hq));
        out.record(Fb, HyperQ, Some(lat_ns), &hq, None);
    }
}

/// One tenant slot of a serving mix, before rates are assigned: name,
/// benchmark, fraction of the aggregate offered rate it submits, WFQ
/// weight, queue cap, deadline in µs, bursty (MMPP) instead of Poisson
/// arrivals.
type MixTenant = (&'static str, Bench, f64, u32, usize, Option<u64>, bool);

/// The serving mixes, by name.
const MIXES: [(&str, [MixTenant; 2]); 2] = [
    // A packet pipeline sharing the GPU with a bursty image tenant —
    // small irregular tasks, the paper's 3DES/MB pairing. The tiles get a
    // loose deadline rather than none: under EDF a tenant with no
    // deadline sorts last forever and starves when a deadline-bearing
    // tenant alone exceeds capacity.
    (
        "netmix",
        [
            ("packets", Des3, 0.67, 2, 32, Some(1_500), false),
            ("tiles", Mb, 0.33, 1, 32, Some(3_000), true),
        ],
    ),
    // A vision pipeline: latency-sensitive DCT tiles against batchy
    // convolution work.
    (
        "vision",
        [
            ("dct", Dct, 0.5, 3, 24, Some(2_500), false),
            ("conv", Conv, 0.5, 1, 24, None, true),
        ],
    ),
];

/// An MMPP with a 4:1 burst-to-calm intensity ratio, rescaled so its
/// long-run mean equals `rate_per_s`.
fn bursty_spec(rate_per_s: f64) -> ArrivalSpec {
    let shape = ArrivalSpec::Mmpp {
        calm_rate_per_s: 0.5,
        burst_rate_per_s: 2.0,
        mean_calm_us: 300.0,
        mean_burst_us: 100.0,
    };
    shape.scaled(rate_per_s / shape.mean_rate_per_s())
}

/// The mix of `tenants` offered at `aggregate_rate` under `policy`,
/// queues uncapped if `unbounded`.
fn mix_config(
    tenants: &[MixTenant],
    policy: Policy,
    unbounded: bool,
    aggregate_rate: f64,
    tasks_per_tenant: usize,
    runtime: &PagodaConfig,
) -> ServeConfig {
    let total_tasks = tenants.len() * tasks_per_tenant;
    let spec = |&(name, bench, share, weight, queue_cap, deadline_us, bursty): &MixTenant| {
        let rate = share * aggregate_rate;
        TenantSpec {
            name: name.to_string(),
            weight,
            queue_cap: if unbounded { usize::MAX } else { queue_cap },
            deadline: deadline_us.map(Dur::from_us),
            arrival: if bursty {
                bursty_spec(rate)
            } else {
                ArrivalSpec::Poisson { rate_per_s: rate }
            },
            bench,
            gen: GenOpts::default(),
            // Share-proportional counts: every tenant's stream spans the
            // same window, so the aggregate offered rate holds for the
            // whole run.
            tasks: Some(((share * total_tasks as f64).round() as usize).max(1)),
            slo: None,
        }
    };
    let mut cfg = ServeConfig::new(tenants.iter().map(spec).collect(), policy);
    cfg.tasks_per_tenant = tasks_per_tenant;
    cfg.cancel_late = matches!(policy, Policy::Edf);
    cfg.runtime = runtime.clone();
    cfg
}

/// Serving curves — sojourn latency vs offered load for the multi-tenant
/// serving layer (the serving analogue of the paper's Fig. 10).
///
/// Sweeps offered load (relative to the mix's calibrated closed-loop
/// service capacity; two loads under `--quick`, five otherwise) for two
/// tenant mixes under four front-end variants:
///
/// * `fifo-unbounded` — FIFO with no admission control: the divergence
///   baseline. Open-loop overload grows the queue without bound, so p99
///   sojourn scales with experiment length;
/// * `fifo` / `wfq` / `edf` — bounded per-tenant queues with shedding:
///   the backlog ahead of any *admitted* task is capped, so p99 stays
///   bounded at every load while the excess is shed at the door.
///
/// The closing lines are the claim the curves exist to make: under
/// overload, admission control bounds the p99 of admitted work; unbounded
/// FIFO does not. It needs a run long enough for the unbounded backlog to
/// outgrow the bounded queues: true at 1024 tasks per tenant, not yet at
/// `--quick`'s 256.
fn serve_curves(tasks_per_tenant: usize, out: &mut Report) {
    // Calibration quality must not depend on the run's size: a short
    // probe is dominated by its pipeline-drain tail and understates
    // capacity.
    let probe = 512;
    // A MIG-style slice of two SMMs → 4 MTB columns × 32 rows = 128
    // TaskTable entries, small enough that a few hundred tasks of
    // overload backlog spill out of the table and into the front-end
    // queues where admission control and QoS live.
    let runtime = serving_slice(2).expect("nonzero slice");
    let loads: &[f64] = if out.cli.quick {
        &[0.8, 2.0]
    } else {
        &[0.5, 0.8, 1.1, 1.5, 2.0]
    };
    // The unbounded baseline first: the closing lines compare it with
    // the rest.
    let variants = [
        ("fifo-unbounded", Policy::Fifo, true),
        ("fifo", Policy::Fifo, false),
        ("wfq", Policy::WeightedFair, false),
        ("edf", Policy::Edf, false),
    ];

    out.say(format_args!(
        "serve_curves — sojourn latency vs offered load, {tasks_per_tenant} tasks/tenant"
    ));
    out.say(format_args!(
        "{:>8} {:>15} {:>6} {:>10} {:>7} {:>7} {:>10} {:>10} {:>10}",
        "mix", "variant", "load", "thru(k/s)", "shed%", "late%", "p50(us)", "p95(us)", "p99(us)"
    ));

    let mut claims = String::new();
    for (mix, tenants) in &MIXES {
        // Calibrated aggregate capacity: tasks/s the runtime sustains on
        // this mix's blend under closed-loop saturation. 1/C = Σ sᵢ/Cᵢ.
        let inv: f64 = tenants
            .iter()
            .map(|&(_, bench, share, ..)| {
                share
                    / calibrate_capacity(&runtime, bench, &GenOpts::default(), probe)
                        .expect("calibration config is valid")
            })
            .sum();
        let capacity = 1.0 / inv;

        // p99 at the highest load, per variant.
        let top_p99 = variants.map(|(variant, policy, unbounded)| {
            let mut p99_us = 0.0;
            for &load in loads {
                let rate = load * capacity;
                let mut cfg =
                    mix_config(tenants, policy, unbounded, rate, tasks_per_tenant, &runtime);
                cfg.mix = mix.to_string();
                cfg.offered_load = load;
                let served = serve(&cfg).expect("sweep config is valid");

                let sojourns: Vec<f64> =
                    served.records.iter().filter_map(|r| r.sojourn_us).collect();
                let offered = served.records.len() as f64;
                let frac = |outcome| {
                    let n = served.records.iter().filter(|r| r.outcome == outcome);
                    n.count() as f64 / offered
                };
                let p = CurvePoint {
                    mix: mix.to_string(),
                    variant: variant.to_string(),
                    offered_load: load,
                    offered_rate_per_s: rate,
                    throughput_per_s: served.report.throughput_per_s,
                    shed_frac: frac(Outcome::Shed),
                    expired_frac: frac(Outcome::Expired),
                    p50_us: percentile(&sojourns, 50.0),
                    p95_us: percentile(&sojourns, 95.0),
                    p99_us: percentile(&sojourns, 99.0),
                    avg_slot_occupancy: served.report.avg_slot_occupancy,
                };
                out.say(format_args!(
                    "{:>8} {:>15} {:>6.2} {:>10.1} {:>7.1} {:>7.1} {:>10.1} {:>10.1} {:>10.1}",
                    p.mix,
                    p.variant,
                    p.offered_load,
                    p.throughput_per_s / 1e3,
                    100.0 * p.shed_frac,
                    100.0 * p.expired_frac,
                    p.p50_us,
                    p.p95_us,
                    p.p99_us
                ));
                p99_us = p.p99_us;
                out.points.push(Point::Curve(p));
            }
            p99_us
        });
        let [unbounded, bounded @ ..] = top_p99;
        let worst_bounded = bounded.into_iter().fold(0.0, f64::max);
        writeln!(
            claims,
            "{mix}: at {:.1}x load, p99 fifo-unbounded = {unbounded:.0} us vs worst bounded = \
             {worst_bounded:.0} us ({}x)",
            loads[loads.len() - 1],
            (unbounded / worst_bounded.max(1e-9)) as u64
        )
        .expect("writing to a String");
    }
    out.text += &claims;
}

/// Drives a closed-loop batch of `tasks` uniform narrow tasks through an
/// `n`-device fleet reporting to `obs`; returns the simulated makespan in
/// microseconds.
fn drive_batch(n: usize, tasks: usize, obs: pagoda_obs::Obs) -> f64 {
    // 4 warps, ~30 us of device work, a small payload each way — the
    // paper's "narrow task" shape, heavy enough that execution (not
    // spawning) bounds a device.
    let mut task = TaskDesc::uniform(128, WarpWork::compute(60_000, 8.0));
    task.input_bytes = 1024;
    task.output_bytes = 1024;
    let mut cfg = ClusterConfig::uniform(n);
    // The uniform batch models fleet-resident data: every device is
    // "home", so no placement pays the staging transfer. (The skew
    // experiment is where affinity costs show.)
    cfg.affinity_spread = n as u32;
    let mut fleet = ClusterHandle::new(cfg).expect("uniform config is valid");
    fleet.attach_obs(obs);
    for _ in 0..tasks {
        fleet
            .spawn_blocking(0, task.clone())
            .expect("the bench task fits the default device");
    }
    fleet.wait_all();
    let rep = fleet.report();
    assert_eq!(rep.completed as usize, tasks, "scaling batch must complete");
    rep.makespan.as_us_f64()
}

/// Open-loop Zipf-skewed tenant mix on a 4-device fleet under `policy`.
fn skew_run(policy: Placement, zipf_s: f64, tasks_per_tenant: usize) -> SkewPoint {
    const TENANTS: usize = 8;
    const DEVICES: usize = 4;
    // Aggregate offered rate: high enough to keep the fleet busy, low
    // enough that a balanced policy stays stable. Found empirically
    // against the default device; the comparison across policies at
    // equal load is what the curve shows, not the absolute rate.
    const AGG_RATE: f64 = 2.4e6;
    let weights: Vec<f64> = (1..=TENANTS)
        .map(|r| 1.0 / (r as f64).powf(zipf_s))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let tenants: Vec<TenantSpec> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut t = TenantSpec::new(&format!("t{i}"), Des3, AGG_RATE * w / wsum);
            t.queue_cap = 512;
            t
        })
        .collect();
    let mut scfg = ServeConfig::new(tenants, Policy::Fifo);
    scfg.tasks_per_tenant = tasks_per_tenant;
    scfg.mix = format!("zipf-{zipf_s}");
    let mut ccfg = ClusterConfig::uniform(DEVICES);
    ccfg.placement = policy;
    ccfg.affinity_spread = 1;
    let mut fleet = ClusterHandle::new(ccfg).expect("uniform config is valid");
    let served = serve_on(&scfg, &mut fleet).expect("skew mix serves");
    let rep = fleet.report();
    let sojourns: Vec<f64> = served.records.iter().filter_map(|r| r.sojourn_us).collect();
    SkewPoint {
        policy: format!("{policy:?}"),
        zipf_s,
        offered: TENANTS * tasks_per_tenant,
        completed: sojourns.len(),
        p50_us: percentile(&sojourns, 50.0),
        p99_us: percentile(&sojourns, 99.0),
        off_affinity: rep.off_affinity,
    }
}

/// Fleet scaling and skew — three readings over simulated multi-GPU
/// fleets (`pagoda-cluster`), all in simulated time.
///
/// * **Scaling** — a closed-loop batch of `batch` uniform narrow tasks
///   through fleets of 1, 2, 4 and 8 devices under least-outstanding
///   placement, in tasks per simulated second. Each device brings its own
///   spawn pipeline, PCIe link and TaskTable, so the fleet should scale
///   close to linearly, losing only lockstep-rounding and routing slack;
///   `tests/repro.rs` holds the 4-device fleet to 3.2× one device.
/// * **Skew** — an open-loop 8-tenant mix (`pagoda-serve` riding on the
///   fleet through the shared `Backend` trait) whose per-tenant arrival
///   rates follow a Zipf distribution with exponent `s`, 3/64 of `batch`
///   per tenant, under every placement policy. What the surface shows is
///   that this mix cannot tell the policies apart: all eight tenants
///   submit 3DES and round-robin rotates per task, not per tenant, so
///   tenant skew never unbalances it — round-robin and least-outstanding
///   place identically at every `s` — and tenant-affinity, the only
///   policy that pays no staging, has the worst tail at `s = 1.2`, where
///   the busiest tenant offers 43 % of the load to its one home device.
/// * **Attribution** — the 4-device batch again with a recorder attached
///   (same simulated history, the recorder costs no simulated time):
///   where its sojourn went, phase by phase, for the `total` group in
///   the text and every group in the points.
fn cluster_scaling(batch: usize, out: &mut Report) {
    let tasks_per_tenant = (3 * batch / 64).max(1);
    out.say(format_args!(
        "cluster_scaling — throughput vs fleet size ({batch}-task batch), \
         sojourn vs tenant skew ({tasks_per_tenant} tasks/tenant)"
    ));

    let mut base_tps = None;
    for devices in [1, 2, 4, 8] {
        let makespan_us = drive_batch(devices, batch, pagoda_obs::Obs::off());
        let tasks_per_s = batch as f64 / (makespan_us * 1e-6);
        let speedup = tasks_per_s / *base_tps.get_or_insert(tasks_per_s);
        out.say(format_args!(
            "scaling: {devices} device(s)  makespan {makespan_us:9.1} us  \
             {tasks_per_s:9.0} tasks/s  speedup {speedup:.2}x"
        ));
        out.points.push(Point::Scaling(ScalingPoint {
            devices,
            tasks: batch,
            makespan_us,
            tasks_per_s,
            speedup,
        }));
    }

    for s in [0.0, 0.6, 1.2] {
        for policy in [
            Placement::RoundRobin,
            Placement::LeastOutstanding,
            Placement::PowerOfTwo,
            Placement::TenantAffinity,
        ] {
            let p = skew_run(policy, s, tasks_per_tenant);
            out.say(format_args!(
                "skew: s={s:.1} {:16} p50 {:8.1} us  p99 {:8.1} us  off-affinity {}",
                p.policy, p.p50_us, p.p99_us, p.off_affinity
            ));
            out.points.push(Point::Skew(p));
        }
    }

    let (obs, recorder) = pagoda_obs::Obs::recording();
    let devices = 4;
    drive_batch(devices, batch, obs);
    let prof = ProfReport::from_buffer(&recorder.snapshot());
    let total = prof.total();
    let sojourn_ps = total.sojourn.sum();
    out.say(format_args!(
        "attribution: {devices} devices, {} tasks, total sojourn {:.1} ms",
        total.tasks,
        sojourn_ps as f64 * 1e-9
    ));
    for phase in Phase::ALL {
        let ps = total.phase_total_ps(phase);
        out.say(format_args!(
            "  {:<10} {:>9.1} ms {:>6.1}%",
            phase.name(),
            ps as f64 * 1e-9,
            100.0 * ps as f64 / sojourn_ps.max(1) as f64
        ));
    }
    let groups = prof.summary().groups;
    out.points
        .extend(groups.into_iter().map(Point::Attribution));
}
