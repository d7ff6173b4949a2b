//! `paper_fig5` — the paper's headline experiment at paper scale.
//!
//! Closed loop, one client, at most 1536 TaskTable entries in flight:
//! all nine benchmarks at `paper_task_count()` (SLUD as its dependency
//! waves, with a `waitAll` between waves) through a fresh
//! `PagodaRuntime` each on the default Titan X with observability off.
//! The timed region is the nine Pagoda runs; set-up is task generation.

use std::time::Instant;

use pagoda::prelude::*;
use pagoda::workloads::slud;

use super::{hash_sojourns, spawn_blocking, EngineTotals, Outcome, Probe, SpawnNames};
use crate::fnv::Fnv;
use crate::stats;

/// Dependency waves per timed segment: a benchmark with more waves than
/// this (SLUD, ≈ 400) is split at these seams, so that a host hiccup
/// costs a tenth of a second of one rep, not SLUD's two.
pub const SEGMENT_WAVES: usize = 16;

/// Span names of the blocking spawn on a single runtime.
pub const CORE: SpawnNames = SpawnNames {
    submit: "core.submit",
    sync: "core.sync",
    advance: "core.advance",
};

/// One benchmark's generated task waves.
pub struct BenchInput {
    /// Which benchmark.
    pub bench: Bench,
    /// Independent task sets, each depending on the one before (one wave
    /// for every benchmark but SLUD).
    pub waves: Vec<Vec<TaskDesc>>,
    /// Host seconds `workloads` took to generate them.
    pub gen_s: f64,
}

impl BenchInput {
    /// Tasks over all waves.
    pub fn tasks(&self) -> usize {
        self.waves.iter().map(Vec::len).sum()
    }
}

/// The generated inputs.
pub struct Inputs {
    /// `Bench::ALL` order.
    pub benches: Vec<BenchInput>,
}

/// Task count for `bench` at input divisor `scale`.
pub fn task_count(bench: Bench, scale: usize) -> usize {
    (bench.paper_task_count() / scale).max(256)
}

/// Generator options the Pagoda runs use: shared-memory variants where
/// the benchmark has one (as `fig5` does), everything seeded.
pub fn pagoda_opts(bench: Bench, seed: u64) -> GenOpts {
    GenOpts {
        use_smem: bench.uses_smem(),
        seed,
        ..GenOpts::default()
    }
}

/// A benchmark's task waves: SLUD yields its dependency waves, every
/// other benchmark one independent wave.
pub fn waves_for(bench: Bench, n: usize, opts: &GenOpts) -> Vec<Vec<TaskDesc>> {
    if bench == Bench::Slud {
        let nb = slud::grid_for(n, opts.seed);
        slud::waves_as_tasks(nb, slud::DENSITY, opts)
    } else {
        vec![bench.tasks(n, opts)]
    }
}

impl Inputs {
    /// Generates every benchmark's tasks from `seed`.
    pub fn generate(seed: u64, scale: usize) -> Inputs {
        let benches = Bench::ALL
            .iter()
            .map(|&bench| {
                let t0 = Instant::now();
                let waves = waves_for(bench, task_count(bench, scale), &pagoda_opts(bench, seed));
                BenchInput {
                    bench,
                    waves,
                    gen_s: t0.elapsed().as_secs_f64(),
                }
            })
            .collect();
        Inputs { benches }
    }

    /// Tasks over all benchmarks.
    pub fn tasks(&self) -> usize {
        self.benches.iter().map(BenchInput::tasks).sum()
    }
}

/// One benchmark's Pagoda run.
pub struct BenchRun {
    /// Which benchmark.
    pub bench: Bench,
    /// Tasks completed.
    pub tasks: u64,
    /// Host seconds (runtime construction through report).
    pub host_s: f64,
    /// The run's simulated measurements.
    pub summary: RunSummary,
}

/// Per-benchmark results.
pub struct Detail {
    /// `Bench::ALL` order.
    pub runs: Vec<BenchRun>,
}

/// Drives the nine Pagoda runs once, observability off.
pub fn run<P: Probe>(inputs: &Inputs, probe: &mut P) -> (Outcome, Detail) {
    run_observed(inputs, &Obs::off(), probe)
}

/// [`run`] with `obs` attached to every runtime (the traced run's exact
/// protocol counters come from a counting recorder passed here).
pub fn run_observed<P: Probe>(inputs: &Inputs, obs: &Obs, probe: &mut P) -> (Outcome, Detail) {
    let mut runs = Vec::with_capacity(inputs.benches.len());
    let mut segments_s = Vec::new();
    let mut sojourns_us = Vec::with_capacity(inputs.tasks());
    let mut engine = EngineTotals::default();
    let mut h = Fnv::new();
    let mut makespan_s = 0.0;

    for input in &inputs.benches {
        let t0 = Instant::now();
        let mut rt = probe.span("core.new", || {
            let mut rt = PagodaRuntime::new(PagodaConfig::default());
            rt.attach_obs(obs.clone());
            rt
        });
        let mut seam = t0;
        for (i, wave) in input.waves.iter().enumerate() {
            if i > 0 && i % SEGMENT_WAVES == 0 {
                let now = Instant::now();
                segments_s.push((now - seam).as_secs_f64());
                seam = now;
            }
            for task in wave {
                let desc = probe.call("driver.clone", || task.clone());
                spawn_blocking(probe, &CORE, &mut rt, desc);
            }
            probe.call("core.wait", || rt.wait_all());
        }
        let summary: RunSummary = probe.call("core.report", || rt.report()).into();
        let end = Instant::now();
        segments_s.push((end - seam).as_secs_f64());
        let bench_s = (end - t0).as_secs_f64();

        // Untimed: read the per-task timelines the percentiles and the
        // fingerprint are made from.
        let first = sojourns_us.len();
        for tr in rt.traces() {
            let done = tr
                .output_done
                .expect("waitAll returned, so every output landed");
            sojourns_us.push((done - tr.spawned).as_us_f64());
        }
        hash_sojourns(&mut h, &sojourns_us[first..]);
        h.debug(&summary);
        let stats = EngineTotals::of(&rt);
        h.debug(&stats);
        engine.merge(&stats);

        assert_eq!(
            summary.tasks as usize,
            input.tasks(),
            "{}: every task completes",
            input.bench.name()
        );
        makespan_s += summary.makespan.as_secs_f64();
        runs.push(BenchRun {
            bench: input.bench,
            tasks: summary.tasks,
            host_s: bench_s,
            summary,
        });
    }

    let n = sojourns_us.len() as u64;
    let outcome = Outcome {
        segments_s,
        sim_tasks_per_s: n as f64 / makespan_s,
        sojourns_us: stats::sorted(&sojourns_us),
        offered: n,
        completed: n,
        shed: 0,
        expired: 0,
        lost: 0,
        unresolved: 0,
        fingerprint: h.finish(),
        engine,
    };
    (outcome, Detail { runs })
}
