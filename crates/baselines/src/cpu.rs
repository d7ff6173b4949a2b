//! CPU baselines: PThreads-style task parallelism on a 20-core machine,
//! and single-thread sequential execution.
//!
//! The paper's strongest CPU comparator is PThreads task parallelism on
//! two 10-core Xeon E5-2660v3 sockets at 2.6 GHz ("PThreads obtained the
//! best results" among OpenMP, OS scheduling, thread pools). We model it as
//! greedy list scheduling: each task runs on one core; a free core takes
//! the next task from the queue. Task duration derives from the same
//! thread-instruction counts the GPU model executes, divided by a
//! calibrated per-core scalar/SIMD throughput, so CPU-vs-GPU ratios follow
//! from machine balance rather than per-benchmark fudging. The CPU pays no
//! PCIe cost (its data is already in host memory) — matching the paper's
//! measurement, which is exactly why copy-bound workloads (DCT) show small
//! GPU speedups.

use desim::{Dur, SimTime};
use pagoda_core::TaskDesc;

use crate::summary::RunSummary;

/// CPU model configuration.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Worker cores (the paper: 20).
    pub cores: u32,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig { cores: 20 }
    }
}

/// Sustained thread-ops per second of one core running alone: a 2.6 GHz
/// E5-2660v3 sustains a few ops per cycle on `gcc -O3` code (superscalar
/// issue plus occasional SSE/AVX) ≈ 8.5 G ops/s.
const OPS_PER_SEC: f64 = 8.5e9;

/// Aggregate socket-pair memory-system throughput in thread-ops/s.
/// Narrow-task kernels stream their inputs, so 20 concurrent cores
/// saturate DRAM long before 20× scaling: the paper's PThreads bars sit at
/// ~7× its sequential baseline, which this cap reproduces.
const MEM_BW_OPS_PER_SEC: f64 = 60.0e9;

/// Per-task queue/dispatch overhead.
const TASK_OVERHEAD: Dur = Dur::from_ns(250);

/// Effective per-core rate with all `cores` active: compute-bound alone,
/// bandwidth-shared together.
fn per_core_rate(cfg: &CpuConfig) -> f64 {
    OPS_PER_SEC.min(MEM_BW_OPS_PER_SEC / f64::from(cfg.cores))
}

/// One task's CPU duration under the model (all cores active). Uses the
/// task's true sequential operation count, not the divergence-inflated
/// GPU charge.
pub fn cpu_task_time(cfg: &CpuConfig, t: &TaskDesc) -> Dur {
    TASK_OVERHEAD + Dur::from_secs_f64(t.cpu_ops as f64 / per_core_rate(cfg))
}

/// Greedy list scheduling of `tasks` (in order) over `cfg.cores` cores.
pub fn run_pthreads(cfg: &CpuConfig, tasks: &[TaskDesc]) -> RunSummary {
    assert!(cfg.cores > 0, "zero cores");
    let mut core_free = vec![SimTime::ZERO; cfg.cores as usize];
    let mut lat_sum = 0u64;
    let mut end = SimTime::ZERO;
    for t in tasks {
        // Earliest-free core takes the task.
        let (ci, _) = core_free
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| **f)
            .expect("non-empty core list");
        let start = core_free[ci];
        let done = start + cpu_task_time(cfg, t);
        core_free[ci] = done;
        lat_sum += (done - SimTime::ZERO).as_ps();
        end = end.max(done);
    }
    RunSummary {
        makespan: end - SimTime::ZERO,
        compute_done: end,
        tasks: tasks.len() as u64,
        mean_task_latency: Dur::from_ps(lat_sum / tasks.len().max(1) as u64),
        avg_running_occupancy: 0.0,
        h2d_busy: Dur::ZERO,
        d2h_busy: Dur::ZERO,
        gpu_busy: Dur::ZERO,
    }
}

/// Sequential single-core execution (the speedup-of-1 baseline the paper's
/// Fig. 5 bars normalize against): [`run_pthreads`] on one core, whatever
/// `_cfg.cores` says.
pub fn run_sequential(_cfg: &CpuConfig, tasks: &[TaskDesc]) -> RunSummary {
    run_pthreads(&CpuConfig { cores: 1 }, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;

    fn tasks(n: usize, instrs_each: u64) -> Vec<TaskDesc> {
        (0..n)
            .map(|_| TaskDesc::uniform(128, WarpWork::compute(instrs_each, 1.0)))
            .collect()
    }

    #[test]
    fn bandwidth_bound_scaling_on_uniform_tasks() {
        // 20 cores sharing the 60 G ops/s memory system scale to
        // 60/8.5 ≈ 7.1x, matching the paper's PThreads-vs-sequential gap.
        let cfg = CpuConfig::default();
        let ts = tasks(2000, 1_000_000);
        let seq = run_sequential(&cfg, &ts);
        let par = run_pthreads(&cfg, &ts);
        let speedup = par.speedup_over(&seq);
        assert!(
            (6.0..8.0).contains(&speedup),
            "expected ~7x bandwidth-bound scaling, got {speedup}"
        );
    }

    #[test]
    fn few_cores_scale_linearly() {
        // 4 cores stay under the bandwidth cap: ~4x.
        let cfg = CpuConfig { cores: 4 };
        let ts = tasks(2000, 1_000_000);
        let seq = run_sequential(&cfg, &ts);
        let par = run_pthreads(&cfg, &ts);
        let speedup = par.speedup_over(&seq);
        assert!((3.7..4.1).contains(&speedup), "got {speedup}");
    }

    #[test]
    fn straggler_bounds_makespan() {
        let cfg = CpuConfig::default();
        let mut ts = tasks(19, 1_000);
        ts.push(TaskDesc::uniform(
            128,
            WarpWork::compute(1_000_000_000, 1.0),
        ));
        let s = run_pthreads(&cfg, &ts);
        let straggler = cpu_task_time(&cfg, &ts[19]);
        assert!(s.makespan >= straggler);
        assert!(s.makespan.as_secs_f64() < straggler.as_secs_f64() * 1.01);
    }

    #[test]
    fn task_time_includes_overhead() {
        let cfg = CpuConfig::default();
        let t = TaskDesc::uniform(32, WarpWork::compute(0, 1.0));
        assert_eq!(cpu_task_time(&cfg, &t), TASK_OVERHEAD);
    }

    #[test]
    fn gpu_cpu_balance_is_in_range() {
        // Whole-GPU peak over one CPU core should sit in the hundreds —
        // 3072 CUDA cores vs one 2.6 GHz core.
        let spec = gpu_arch::GpuSpec::titan_x();
        let gpu_peak = spec.sm_peak_ops_per_sec() * spec.num_sms as f64;
        let ratio = gpu_peak / OPS_PER_SEC;
        assert!((100.0..1000.0).contains(&ratio), "balance {ratio}");
        // And over the whole bandwidth-bound 20-core machine: tens.
        let machine = gpu_peak / MEM_BW_OPS_PER_SEC;
        assert!(
            (10.0..100.0).contains(&machine),
            "machine balance {machine}"
        );
    }
}
