//! BeamFormer (BF): delay-and-sum beamforming (StreamIt). One task steers
//! one beam from an array of sensor channels — the most arithmetically
//! dense benchmark of the suite (Table 3: 87 % compute). Regular, no
//! synchronization.

use pagoda_core::TaskDesc;

use crate::calib;
use crate::gen::{io_bytes, uniform_block};
use crate::GenOpts;

/// Samples per channel (signals of width 2 K).
pub const N_SIM: usize = 2048;
/// Sensor channels combined per beam.
pub const CHANNELS: usize = 64;

/// Per-task thread-op count for delay-and-sum with per-channel complex
/// weights, `out[t] = |Σ_c (wr_c + i·wi_c) · x_c[t - delay_c]|`: per
/// sample, each channel contributes a complex MAC (~6 ops) plus
/// delayed-load math (~2), then the magnitude (~6).
fn task_ops() -> u64 {
    (N_SIM * (CHANNELS * 8 + 6)) as u64
}

/// Generates `n` BeamFormer tasks.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let scaled = crate::gen::scale_ops(task_ops(), opts.work_scale);
    let ops_per_thread = scaled / u64::from(opts.threads_per_task);
    let block = uniform_block(opts.threads_per_task, ops_per_thread, calib::BF.cpi, &[1.0]);
    let t = TaskDesc {
        kernel: crate::gen::kernel(opts.threads_per_task, 0, false, [block]),
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
    fn tasks_shape() {
        let ts = tasks(3, &GenOpts::default());
        assert_eq!(ts.len(), 3);
        assert!(!ts[0].sync);
        ts[0].validate().unwrap();
        // Compute-dense: more ops than FilterBank per byte of I/O.
        assert!(ts[0].total_instrs() > 200_000);
    }
}
