//! FilterBank (FB): multi-stage FIR signal processing (StreamIt), the
//! paper's running example (Fig. 1c). One task processes one signal of
//! width 2 K through: convolve-H → downsample → upsample → convolve-F,
//! with a `syncBlock()` between stages. Regular work, threadblock
//! synchronization required (Table 3).

use pagoda_core::TaskDesc;

use crate::calib;
use crate::gen::{io_bytes, uniform_block};
use crate::GenOpts;

/// Signal width per task (paper Table 3: "signals of width 2K").
pub const N_SIM: usize = 2048;
/// FIR taps per filter (the `N_col` of Fig. 1c).
pub const N_COL: usize = 32;
/// Downsampling factor.
pub const N_SAMP: usize = 8;

/// Per-task GPU thread-op count: two dense convolutions dominate — per
/// tap a MAC (2 ops), two loads, and boundary/index arithmetic (~6 ops
/// total) — plus the resample stages.
fn task_ops() -> u64 {
    let conv = (N_SIM * N_COL * 6) as u64;
    let resample = (2 * N_SIM / N_SAMP) as u64;
    2 * conv + resample
}

/// Generates `n` FilterBank tasks. Work is regular, so every task is
/// identical.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let scaled = crate::gen::scale_ops(task_ops(), opts.work_scale);
    let ops_per_thread = scaled / u64::from(opts.threads_per_task);
    // Four synchronized stages: H-convolution, down, up, F-convolution.
    let block = uniform_block(
        opts.threads_per_task,
        ops_per_thread,
        calib::FB.cpi,
        &[0.48, 0.02, 0.02, 0.48],
    );
    let t = TaskDesc {
        kernel: crate::gen::kernel(opts.threads_per_task, 0, true, [block]),
        cpu_ops: crate::gen::scale_ops(task_ops(), opts.work_scale),
        input_bytes: io_bytes(opts, N_SIM * 4),
        output_bytes: io_bytes(opts, N_SIM * 4),
    };
    vec![t; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_are_sync_and_regular() {
        let ts = tasks(5, &GenOpts::default());
        assert!(ts.iter().all(|t| t.sync));
        assert!(ts.iter().all(|t| t.total_instrs() == ts[0].total_instrs()));
        ts[0].validate().unwrap();
        assert_eq!(ts[0].blocks[0].warp(0).barrier_count(), 3);
    }
}
