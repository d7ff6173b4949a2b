//! The static task-fusion baseline (paper §6.3): all tasks are merged into
//! one monolithic kernel, each task becoming one threadblock of a fixed
//! width (the paper uses 256 threads per sub-task).
//!
//! Consequences the evaluation measures:
//!
//! * every sub-task receives the *same* resource allocation — the kernel's
//!   shared-memory/register footprint is the maximum any task needs;
//! * no task completes before the batch: per-task latency equals the whole
//!   kernel's runtime (Fig. 10);
//! * irregular tasks leave threads idle inside their fixed-width block
//!   (Fig. 9).

use std::rc::Rc;

use desim::{Dur, SimTime};
use gpu_sim::{BlockWork, GpuDevice, Kernel, Notify, Segment, WarpWork};
use pagoda_core::TaskDesc;
use pcie::{Direction, PcieBus};

use crate::summary::RunSummary;

/// Host CPU cost to assemble the fused launch, per task fused.
const FUSE_CPU_COST: Dur = Dur::from_ns(300);

/// Pads a block to `to_warps` warps with zero-work warps that still attend
/// every barrier (a fused sub-task narrower than the fixed block width).
fn pad_block(block: &BlockWork, to_warps: u32) -> BlockWork {
    let have = block.num_warps();
    assert!(have <= to_warps, "cannot shrink a block");
    if have == to_warps {
        return block.clone();
    }
    let pad = WarpWork {
        segments: vec![Segment::Barrier; block.barriers()],
        cpi: block.warp(0).cpi,
    };
    let pads = std::iter::repeat_n(pad, (to_warps - have) as usize);
    BlockWork::new(block.warps().iter().cloned().chain(pads))
}

/// Runs all `tasks` as one statically fused kernel with
/// `threads_per_subtask`-wide blocks on the Titan X over the default PCIe
/// link.
///
/// # Panics
/// Panics if a task has more than one threadblock (fusion maps one task to
/// one block), is wider than the fused width, or the fused shape cannot
/// launch.
pub fn run_fusion(tasks: &[TaskDesc], threads_per_subtask: u32) -> RunSummary {
    assert!(!tasks.is_empty(), "fusing zero tasks");
    let warps = threads_per_subtask.div_ceil(32);
    let smem = tasks.iter().map(|t| t.smem_per_tb).max().unwrap();
    let blocks: Vec<BlockWork> = tasks
        .iter()
        .map(|t| {
            assert_eq!(t.num_tbs(), 1, "fusion maps one task to one threadblock");
            assert!(
                t.warps_per_tb() <= warps,
                "task wider than the fused sub-task width"
            );
            pad_block(&t.blocks[0], warps)
        })
        .collect();
    // Padding keeps every barrier, so the fused kernel syncs if any task does.
    let sync = tasks.iter().any(|t| t.sync);
    let fused = Kernel::new(threads_per_subtask, smem, sync, blocks)
        .expect("padded blocks are the fused width");

    let mut device = GpuDevice::titan_x();
    let mut bus = PcieBus::new_default();
    let h2d = bus.create_stream();
    let d2h = bus.create_stream();

    let host_now = SimTime::ZERO + Dur::from_ps(FUSE_CPU_COST.as_ps() * tasks.len() as u64);
    let input_bytes: u64 = tasks.iter().map(|t| u64::from(t.input_bytes)).sum();
    let launch_at = if input_bytes > 0 {
        bus.transfer(host_now, h2d, Direction::HostToDevice, input_bytes)
            .complete
    } else {
        host_now
    };
    device.schedule_host(launch_at, 0);

    let (mut kernel_done, mut batch) = (None, Vec::new());
    while let Some(t) = device.step_bounded_into(SimTime::MAX, &mut batch) {
        for &n in &batch {
            match n {
                Notify::Host(_) => device
                    .launch_kernel(Rc::clone(&fused), 0)
                    .expect("fused kernel must launch"),
                Notify::KernelDone { .. } => kernel_done = Some(t),
                Notify::WarpDone { .. } => unreachable!("no persistent warps under fusion"),
            }
        }
    }
    let done = kernel_done.expect("fused kernel never finished");

    let output_bytes: u64 = tasks.iter().map(|t| u64::from(t.output_bytes)).sum();
    let end = if output_bytes > 0 {
        bus.transfer(done, d2h, Direction::DeviceToHost, output_bytes)
            .complete
    } else {
        done
    };

    RunSummary {
        makespan: end - SimTime::ZERO,
        compute_done: done,
        tasks: tasks.len() as u64,
        // Every task "completes" when the fused kernel does.
        mean_task_latency: done - host_now,
        avg_running_occupancy: device.avg_running_occupancy(),
        h2d_busy: bus.stats(Direction::HostToDevice).busy,
        d2h_busy: bus.stats(Direction::DeviceToHost).busy,
        gpu_busy: device.avg_sm_busy(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;

    #[test]
    fn fused_latency_equals_kernel_time_for_all() {
        let tasks: Vec<TaskDesc> = (0..256)
            .map(|_| TaskDesc::uniform(128, WarpWork::compute(100_000, 4.0)))
            .collect();
        let s = run_fusion(&tasks, 256);
        assert_eq!(s.tasks, 256);
        // More tasks -> proportionally longer per-task latency.
        let tasks2: Vec<TaskDesc> = (0..1024)
            .map(|_| TaskDesc::uniform(128, WarpWork::compute(100_000, 4.0)))
            .collect();
        let s2 = run_fusion(&tasks2, 256);
        assert!(
            s2.mean_task_latency.as_secs_f64() > 2.5 * s.mean_task_latency.as_secs_f64(),
            "{:?} vs {:?}",
            s2.mean_task_latency,
            s.mean_task_latency
        );
    }

    #[test]
    fn pad_block_preserves_barrier_structure() {
        let b = BlockWork::uniform(2, WarpWork::phased(1000, 3, 1.5));
        let p = pad_block(&b, 8);
        assert_eq!(p.num_warps(), 8);
        assert_eq!(p.warp(7).barrier_count(), 2);
        assert_eq!(p.warp(7).total_instrs(), 0);
        assert_eq!(p.total_instrs(), b.total_instrs());
    }

    #[test]
    fn padded_sync_tasks_run_to_completion() {
        let tasks: Vec<TaskDesc> = (0..64)
            .map(|_| TaskDesc::uniform(96, WarpWork::phased(30_000, 2, 2.0)))
            .collect();
        let s = run_fusion(&tasks, 256);
        assert_eq!(s.tasks, 64);
        assert!(s.compute_done > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "wider than the fused")]
    fn oversized_task_rejected() {
        let t = TaskDesc::uniform(512, WarpWork::compute(1, 1.0));
        run_fusion(&[t], 256);
    }
}
