//! The GeMTC baseline (Krieder et al., HPDC'14): a persistent SuperKernel
//! whose workers each execute one task, fed *batches* of tasks through a
//! single FIFO queue.
//!
//! Structural properties the paper contrasts with Pagoda:
//!
//! * **1 task = 1 threadblock.** Each worker is one threadblock; a task
//!   occupies a whole worker regardless of its width, and the concurrent
//!   threadblock limit caps residency (32-thread workers → 50 % occupancy).
//! * **Batching.** No new tasks are admitted until every task of the
//!   current batch finishes; a batch's completion time is its longest
//!   task's (load imbalance).
//! * **Single FIFO queue.** Dequeues serialize on one queue lock.
//! * **No shared memory, no sub-block synchronization support** beyond the
//!   worker's own `__syncthreads` (fine, since 1 task = 1 TB).

use std::collections::VecDeque;

use desim::{Dur, SimTime};
use gpu_arch::TaskShape;
use gpu_sim::{GpuDevice, GroupId, Notify, PersistentTb};
use pagoda_core::TaskDesc;
use pcie::{Direction, PcieBus};

use crate::summary::RunSummary;

/// GeMTC runner configuration. The machine is the Titan X over the
/// default PCIe link.
#[derive(Debug, Clone)]
pub struct GemtcConfig {
    /// Worker threadblock width. The paper's modified GeMTC uses the task
    /// width (≥64 threads reaches 100 % occupancy); tasks wider than this
    /// are rejected.
    pub worker_threads: u32,
}

impl Default for GemtcConfig {
    fn default() -> Self {
        GemtcConfig {
            worker_threads: 128,
        }
    }
}

/// Serialized cost of one FIFO dequeue (the single-queue bottleneck): one
/// atomic pop + parameter fetch from the single device-memory FIFO per
/// task; the paper calls this queue "a significant task scheduling
/// overhead".
const DEQUEUE_COST: Dur = Dur::from_ns(1000);

/// Host CPU time per task for batch assembly.
const ASSEMBLE_CPU_COST: Dur = Dur::from_ns(800);

#[derive(Debug)]
struct WorkerRun {
    task: usize,
    tb: u32,
    outstanding: u32,
    group: Option<GroupId>,
}

struct GemtcSim<'a> {
    tasks: &'a [TaskDesc],
    device: GpuDevice,
    workers: Vec<PersistentTb>,
    running: Vec<Option<WorkerRun>>,
    pending: VecDeque<usize>,
    /// The task each worker's FIFO pop fetches: a worker schedules a pop
    /// only while idle, so it has at most one in flight, tagged with the
    /// worker's index.
    popped: Vec<usize>,
    queue_free: SimTime,
    gpu_done: Vec<Option<SimTime>>,
    batch_remaining: usize,
}

impl GemtcSim<'_> {
    fn start_tb(&mut self, w: usize, task: usize, tb: u32) {
        let desc = &self.tasks[task];
        let wpt = desc.warps_per_tb() as usize;
        let warps = &self.workers[w].warps[..wpt];
        let group = desc.sync.then(|| self.device.create_group(warps));
        let block = &desc.blocks[tb as usize];
        for (&warp, work) in warps.iter().zip(block.warps()) {
            self.device
                .assign_warp_parts(warp, &work.segments, None, work.cpi, w as u64);
        }
        self.running[w] = Some(WorkerRun {
            task,
            tb,
            outstanding: wpt as u32,
            group,
        });
    }

    /// Schedules the serialized FIFO pop of the next pending task for a
    /// free worker.
    fn schedule_pop(&mut self, now: SimTime, w: usize) {
        let Some(task) = self.pending.pop_front() else {
            return;
        };
        let pop_at = now.max(self.queue_free) + DEQUEUE_COST;
        self.queue_free = pop_at;
        self.popped[w] = task;
        self.device.schedule_host(pop_at, w as u64);
    }

    fn on_warp_done(&mut self, time: SimTime, w: usize) {
        let run = self.running[w].as_mut().expect("completion on idle worker");
        run.outstanding -= 1;
        if run.outstanding > 0 {
            return;
        }
        let task = run.task;
        let tb = run.tb;
        if let Some(g) = run.group.take() {
            self.device.release_group(g);
        }
        if tb + 1 < self.tasks[task].num_tbs() {
            self.start_tb(w, task, tb + 1);
            return;
        }
        self.running[w] = None;
        self.gpu_done[task] = Some(time);
        self.batch_remaining -= 1;
        self.schedule_pop(time, w);
    }
}

/// Runs `tasks` under the GeMTC model.
///
/// # Panics
/// Panics if any task is wider than the configured worker, or requests
/// shared memory (GeMTC does not support it — the paper runs the no-smem
/// versions of every benchmark under GeMTC).
pub fn run_gemtc(cfg: &GemtcConfig, tasks: &[TaskDesc]) -> RunSummary {
    for t in tasks {
        assert!(
            t.threads_per_tb <= cfg.worker_threads,
            "task of {} threads exceeds the {}-thread GeMTC worker",
            t.threads_per_tb,
            cfg.worker_threads
        );
        assert_eq!(t.smem_per_tb, 0, "GeMTC has no shared-memory support");
    }
    let mut device = GpuDevice::titan_x();
    let spec = device.spec().clone();
    let worker_shape_one = TaskShape {
        threads_per_tb: cfg.worker_threads,
        num_tbs: 1,
        regs_per_thread: 32,
        smem_per_tb: 0,
    };
    let per_sm = spec
        .occupancy_of(&worker_shape_one)
        .expect("worker shape must be valid")
        .tbs_per_sm;
    let num_workers = (per_sm * spec.num_sms) as usize;
    let workers = device
        .launch_persistent(TaskShape {
            num_tbs: num_workers as u32,
            ..worker_shape_one
        })
        .expect("SuperKernel must fit");

    let mut bus = PcieBus::new_default();
    let h2d = bus.create_stream();
    let d2h = bus.create_stream();

    let n = tasks.len();
    let mut sim = GemtcSim {
        tasks,
        device,
        workers,
        running: (0..num_workers).map(|_| None).collect(),
        pending: VecDeque::new(),
        popped: vec![0; num_workers],
        queue_free: SimTime::ZERO,
        gpu_done: vec![None; n],
        batch_remaining: 0,
    };

    let mut host_now = SimTime::ZERO;
    let mut spawn_time = vec![SimTime::ZERO; n];
    let batch_size = num_workers;
    let mut notifications = Vec::new();

    let mut next = 0usize;
    while next < n {
        let batch: Vec<usize> = (next..(next + batch_size).min(n)).collect();
        next += batch.len();

        // Host assembles the batch. Task inputs travel as individual
        // `cudaMemcpyAsync` transactions (GeMTC moves each task's data to
        // its device-queue slot); the batch is ready when the last lands.
        host_now = host_now.max(sim.device.now())
            + Dur::from_ps(ASSEMBLE_CPU_COST.as_ps() * batch.len() as u64);
        let mut batch_ready = host_now;
        for &i in &batch {
            spawn_time[i] = host_now;
            let bytes = u64::from(tasks[i].input_bytes);
            if bytes > 0 {
                batch_ready = bus
                    .transfer(host_now, h2d, Direction::HostToDevice, bytes)
                    .complete;
            }
        }

        sim.batch_remaining = batch.len();
        sim.pending.extend(batch.iter().copied());
        // Every worker is idle at a batch boundary; queue pops begin when
        // the batch lands on the device.
        sim.queue_free = sim.queue_free.max(batch_ready);
        for w in 0..num_workers {
            sim.schedule_pop(batch_ready, w);
        }

        // The batch barrier: run until every task of this batch retires.
        while sim.batch_remaining > 0 {
            let t = sim
                .device
                .step_bounded_into(SimTime::MAX, &mut notifications)
                .expect("GeMTC batch deadlocked with tasks outstanding");
            for &nfy in &notifications {
                match nfy {
                    Notify::Host(tag) => {
                        let w = tag as usize;
                        sim.start_tb(w, sim.popped[w], 0);
                    }
                    Notify::WarpDone { tag, .. } => sim.on_warp_done(t, tag as usize),
                    Notify::KernelDone { .. } => unreachable!("no native kernels in GeMTC"),
                }
            }
        }
        let batch_done = sim.device.now();
        host_now = host_now.max(batch_done);

        // Bulk result copy-back before the next batch is admitted.
        let output_bytes: u64 = batch
            .iter()
            .map(|&i| u64::from(tasks[i].output_bytes))
            .sum();
        if output_bytes > 0 {
            let tr = bus.transfer(host_now, d2h, Direction::DeviceToHost, output_bytes);
            host_now = host_now.max(tr.complete);
        }
    }

    let lat_sum: u64 = sim
        .gpu_done
        .iter()
        .zip(&spawn_time)
        .map(|(d, s)| (d.expect("incomplete task") - *s).as_ps())
        .sum();
    let compute_done = sim
        .gpu_done
        .iter()
        .map(|d| d.unwrap())
        .max()
        .unwrap_or(SimTime::ZERO);
    RunSummary {
        makespan: host_now - SimTime::ZERO,
        compute_done,
        tasks: n as u64,
        mean_task_latency: Dur::from_ps(lat_sum / n.max(1) as u64),
        avg_running_occupancy: sim.device.avg_running_occupancy(),
        h2d_busy: bus.stats(Direction::HostToDevice).busy,
        d2h_busy: bus.stats(Direction::DeviceToHost).busy,
        gpu_busy: sim.device.avg_sm_busy(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;

    fn narrow(n: usize, threads: u32, instrs: u64) -> Vec<TaskDesc> {
        (0..n)
            .map(|_| TaskDesc::uniform(threads, WarpWork::compute(instrs, 4.0)))
            .collect()
    }

    #[test]
    fn completes_all_tasks() {
        let s = run_gemtc(&GemtcConfig::default(), &narrow(500, 128, 20_000));
        assert_eq!(s.tasks, 500);
        assert!(s.makespan > Dur::ZERO);
    }

    #[test]
    fn worker_count_reaches_full_occupancy_at_128_threads() {
        // 128-thread workers: 2048/128 = 16 TBs/SMM -> 64 warps = 100 %.
        let spec = gpu_arch::GpuSpec::titan_x();
        let o = spec
            .occupancy_of(&TaskShape {
                threads_per_tb: 128,
                num_tbs: 1,
                regs_per_thread: 32,
                smem_per_tb: 0,
            })
            .unwrap();
        assert_eq!(o.warps_per_sm, 64);
    }

    #[test]
    fn batch_barrier_costs_on_imbalance() {
        // One straggler per batch: every batch takes the straggler's time.
        let cfg = GemtcConfig {
            worker_threads: 128,
        };
        let n_workers = 16 * 24;
        let mut tasks = narrow(n_workers * 2, 128, 1_000);
        tasks[0] = TaskDesc::uniform(128, WarpWork::compute(10_000_000, 4.0));
        tasks[n_workers] = TaskDesc::uniform(128, WarpWork::compute(10_000_000, 4.0));
        let imbalanced = run_gemtc(&cfg, &tasks);

        let balanced = run_gemtc(&cfg, &narrow(n_workers * 2, 128, 1_000));
        // Both batches pay for a straggler they could have overlapped.
        assert!(
            imbalanced.makespan.as_secs_f64() > 2.0 * balanced.makespan.as_secs_f64(),
            "imbalanced {:?} vs balanced {:?}",
            imbalanced.makespan,
            balanced.makespan
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn oversized_task_rejected() {
        run_gemtc(&GemtcConfig::default(), &narrow(1, 256, 100));
    }

    #[test]
    fn sync_tasks_supported_within_worker() {
        let tasks: Vec<TaskDesc> = (0..32)
            .map(|_| TaskDesc::uniform(128, WarpWork::phased(20_000, 3, 2.0)))
            .collect();
        let s = run_gemtc(&GemtcConfig::default(), &tasks);
        assert_eq!(s.tasks, 32);
    }
}
