//! The CUDA-HyperQ baseline: one native kernel per task, up to 32
//! concurrent kernels (paper §6, "we enabled 32 concurrent kernels in the
//! HyperQ by setting CUDA_DEVICE_MAX_CONNECTIONS to 32").
//!
//! Per task the host issues an async input copy, then launches the task as
//! its own kernel once the copy lands; the output is copied back when the
//! kernel retires. The costs HyperQ pays that Pagoda avoids:
//!
//! * the serialized kernel-launch front end (tens of thousands of launches);
//! * the 32-kernel concurrency cap — narrow kernels cannot fill the
//!   machine (paper §2: 32 × 8 warps = 16.67 % occupancy);
//! * threadblock-granularity resource recycling (§6.4).

use std::rc::Rc;

use desim::{Dur, SimTime};
use gpu_sim::{DeviceConfig, GpuDevice, Notify};
use pagoda_core::TaskDesc;
use pagoda_obs::{Counter, Obs};
use pcie::{Direction, PcieBus, PcieConfig, StreamId};

use crate::summary::RunSummary;

/// HyperQ runner configuration.
#[derive(Debug, Clone)]
pub struct HyperQConfig {
    /// The device (the concurrency cap comes from `spec.num_hw_queues`).
    pub device: DeviceConfig,
    /// The interconnect.
    pub pcie: PcieConfig,
    /// Observability sink, attached to the device and bus for the run
    /// (kernel launches, engine events, PCIe counters, task counts).
    pub obs: Obs,
}

impl Default for HyperQConfig {
    fn default() -> Self {
        HyperQConfig {
            device: DeviceConfig::titan_x(),
            pcie: PcieConfig::default(),
            obs: Obs::off(),
        }
    }
}

/// Host CPU time per task (API calls: memcpy enqueue + kernel launch).
const SPAWN_CPU_COST: Dur = Dur::from_ns(1000);

/// A HyperQ run in progress: the device and bus, and when each task's
/// kernel retired and its output landed.
struct HyperQSim<'a> {
    tasks: &'a [TaskDesc],
    device: GpuDevice,
    bus: PcieBus,
    d2h: StreamId,
    obs: &'a Obs,
    gpu_done: Vec<Option<SimTime>>,
    output_done: Vec<Option<SimTime>>,
}

impl HyperQSim<'_> {
    /// Handles one instant's notifications: a host timer is task `tag`'s
    /// input copy landing, so its kernel launches; a retired kernel's
    /// output copies back.
    fn handle(&mut self, t: SimTime, batch: &[Notify]) {
        for &n in batch {
            match n {
                Notify::Host(tag) => {
                    let kernel = Rc::clone(&self.tasks[tag as usize].kernel);
                    self.device
                        .launch_kernel(kernel, tag)
                        .expect("unlaunchable task shape");
                }
                Notify::KernelDone { tag } => {
                    let i = tag as usize;
                    self.obs.count(Counter::TasksFreed, 1);
                    self.gpu_done[i] = Some(t);
                    let bytes = u64::from(self.tasks[i].output_bytes);
                    self.output_done[i] = Some(if bytes > 0 {
                        self.bus
                            .transfer(t, self.d2h, Direction::DeviceToHost, bytes)
                            .complete
                    } else {
                        t
                    });
                }
                Notify::WarpDone { .. } => unreachable!("no persistent warps in HyperQ"),
            }
        }
    }
}

/// Runs `tasks` under the HyperQ model and reports timings.
///
/// # Panics
/// Panics if a task's shape is not launchable on the device (e.g. more
/// shared memory than an SMM owns).
pub fn run_hyperq(cfg: &HyperQConfig, tasks: &[TaskDesc]) -> RunSummary {
    let mut device = GpuDevice::new(cfg.device.clone());
    let mut bus = PcieBus::new(cfg.pcie.clone());
    device.attach_obs(cfg.obs.clone());
    bus.attach_obs(cfg.obs.clone());
    let h2d = bus.create_stream();
    let d2h = bus.create_stream();
    let mut sim = HyperQSim {
        tasks,
        device,
        bus,
        d2h,
        obs: &cfg.obs,
        gpu_done: vec![None; tasks.len()],
        output_done: vec![None; tasks.len()],
    };

    let mut host_now = SimTime::ZERO;
    let mut spawn_time = vec![SimTime::ZERO; tasks.len()];
    let mut batch = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        cfg.obs.count(Counter::TasksSpawned, 1);
        host_now = host_now.max(sim.device.now()) + SPAWN_CPU_COST;
        // Keep the device co-simulated with the host timeline, launching
        // kernels whose input copies have already landed.
        while let Some(et) = sim.device.step_bounded_into(host_now, &mut batch) {
            sim.handle(et, &batch);
        }
        spawn_time[i] = host_now;
        let launch_at = if t.input_bytes > 0 {
            sim.bus
                .transfer(host_now, h2d, Direction::HostToDevice, t.input_bytes.into())
                .complete
        } else {
            host_now
        };
        // The timer's tag is the task's index: its launch, deferred until
        // the input copy is visible.
        sim.device.schedule_host(launch_at, i as u64);
    }

    // Drain the device, launching kernels as remaining inputs land.
    while let Some(t) = sim.device.step_bounded_into(SimTime::MAX, &mut batch) {
        sim.handle(t, &batch);
    }

    let end = sim
        .output_done
        .iter()
        .map(|o| o.expect("task never completed"))
        .max()
        .unwrap_or(host_now)
        .max(host_now);
    let lat_sum: u64 = sim
        .gpu_done
        .iter()
        .zip(&spawn_time)
        .map(|(d, s)| (d.unwrap() - *s).as_ps())
        .sum();
    let compute_done = sim
        .gpu_done
        .iter()
        .map(|d| d.unwrap())
        .max()
        .unwrap_or(SimTime::ZERO);
    RunSummary {
        makespan: end - SimTime::ZERO,
        compute_done,
        tasks: tasks.len() as u64,
        mean_task_latency: Dur::from_ps(lat_sum / tasks.len().max(1) as u64),
        avg_running_occupancy: sim.device.avg_running_occupancy(),
        h2d_busy: sim.bus.stats(Direction::HostToDevice).busy,
        d2h_busy: sim.bus.stats(Direction::DeviceToHost).busy,
        gpu_busy: sim.device.avg_sm_busy(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;

    fn narrow_tasks(n: usize, instrs: u64) -> Vec<TaskDesc> {
        (0..n)
            .map(|_| TaskDesc::uniform(128, WarpWork::compute(instrs, 4.0)))
            .collect()
    }

    #[test]
    fn completes_all_tasks() {
        let s = run_hyperq(&HyperQConfig::default(), &narrow_tasks(64, 50_000));
        assert_eq!(s.tasks, 64);
        assert!(s.makespan > Dur::ZERO);
        assert!(s.compute_done > SimTime::ZERO);
    }

    #[test]
    fn concurrency_cap_limits_narrow_task_throughput() {
        // 256 narrow tasks: at most 32 concurrent kernels of 4 warps
        // = 128 warps over 1536 slots. Doubling the task count should
        // roughly double the time (no headroom from extra parallelism).
        let a = run_hyperq(&HyperQConfig::default(), &narrow_tasks(128, 400_000));
        let b = run_hyperq(&HyperQConfig::default(), &narrow_tasks(256, 400_000));
        let ratio = b.compute_done.as_secs_f64() / a.compute_done.as_secs_f64();
        assert!(ratio > 1.7, "expected ~2x scaling, got {ratio}");
    }

    #[test]
    fn obs_counts_launches_and_completions() {
        let (obs, rec) = Obs::recording();
        let cfg = HyperQConfig {
            obs,
            ..HyperQConfig::default()
        };
        let s = run_hyperq(&cfg, &narrow_tasks(16, 20_000));
        assert_eq!(s.tasks, 16);
        let buf = rec.snapshot();
        assert_eq!(buf.counter(Counter::TasksSpawned), 16);
        assert_eq!(buf.counter(Counter::TasksFreed), 16);
        assert_eq!(buf.counter(Counter::KernelLaunches), 16);
        assert!(buf.counter(Counter::EngineEvents) > 0);
        assert!(!buf.smm.is_empty(), "native launches emit SMM samples");
    }

    #[test]
    fn io_extends_makespan_beyond_compute() {
        let mut tasks = narrow_tasks(32, 10_000);
        for t in &mut tasks {
            t.input_bytes = 64 * 1024;
            t.output_bytes = 64 * 1024;
        }
        let s = run_hyperq(&HyperQConfig::default(), &tasks);
        assert!(s.makespan.as_ps() > s.compute_done.as_ps());
    }
}
