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

/// Delay-and-sum with per-channel complex weights: for each output sample
/// `t`, `out[t] = Σ_c (wr_c + i·wi_c) · x_c[t - delay_c]`, magnitude
/// output.
pub fn beamform(
    channels: &[Vec<f32>],
    weights_re: &[f32],
    weights_im: &[f32],
    delays: &[usize],
) -> Vec<f32> {
    let n = channels[0].len();
    assert!(channels.iter().all(|c| c.len() == n), "ragged channels");
    assert_eq!(channels.len(), weights_re.len());
    assert_eq!(channels.len(), weights_im.len());
    assert_eq!(channels.len(), delays.len());
    let mut out = vec![0.0f32; n];
    for (t, o) in out.iter_mut().enumerate() {
        let mut acc_re = 0.0f32;
        let mut acc_im = 0.0f32;
        for (c, ch) in channels.iter().enumerate() {
            let idx = t.checked_sub(delays[c]);
            let x = idx.map_or(0.0, |i| ch[i]);
            acc_re += weights_re[c] * x;
            acc_im += weights_im[c] * x;
        }
        *o = (acc_re * acc_re + acc_im * acc_im).sqrt();
    }
    out
}

/// Per-task thread-op count: per sample, each channel contributes a
/// complex MAC (~6 ops) plus delayed-load math (~2), then the magnitude
/// (~6).
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
    fn single_channel_unit_weight_is_magnitude_identity() {
        let x: Vec<f32> = (0..32).map(|i| i as f32 - 16.0).collect();
        let out = beamform(std::slice::from_ref(&x), &[1.0], &[0.0], &[0]);
        for (o, v) in out.iter().zip(&x) {
            assert!((o - v.abs()).abs() < 1e-5);
        }
    }

    #[test]
    fn delays_shift_contributions() {
        let mut imp = vec![0.0f32; 16];
        imp[0] = 1.0;
        let out = beamform(&[imp], &[1.0], &[0.0], &[3]);
        assert_eq!(out[2], 0.0);
        assert!((out[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn coherent_channels_add() {
        let x = vec![1.0f32; 8];
        let out = beamform(&[x.clone(), x.clone()], &[1.0, 1.0], &[0.0, 0.0], &[0, 0]);
        assert!((out[0] - 2.0).abs() < 1e-5);
    }

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
