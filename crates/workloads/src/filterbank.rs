//! FilterBank (FB): multi-stage FIR signal processing (StreamIt), the
//! paper's running example (Fig. 1c). One task processes one signal of
//! width 2 K through: convolve-H → downsample → upsample → convolve-F,
//! with a `syncBlock()` between stages. Regular work, threadblock
//! synchronization required (Table 3).

use pagoda_core::TaskDesc;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::calib;
use crate::gen::{io_bytes, uniform_block};
use crate::GenOpts;

/// Signal width per task (paper Table 3: "signals of width 2K").
pub const N_SIM: usize = 2048;
/// FIR taps per filter (the `N_col` of Fig. 1c).
pub const N_COL: usize = 32;
/// Downsampling factor.
pub const N_SAMP: usize = 8;

/// Causal FIR convolution: `out[t] = Σ_k h[k]·x[t-k]` (zero history).
pub fn convolve(x: &[f32], h: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    for t in 0..x.len() {
        let mut acc = 0.0;
        for (k, &hk) in h.iter().enumerate() {
            if t >= k {
                acc += hk * x[t - k];
            }
        }
        out[t] = acc;
    }
    out
}

/// Keeps every `factor`-th sample.
pub fn downsample(x: &[f32], factor: usize) -> Vec<f32> {
    x.iter().step_by(factor).copied().collect()
}

/// Zero-stuffing upsample back to `len`.
pub fn upsample(x: &[f32], factor: usize, len: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; len];
    for (i, &v) in x.iter().enumerate() {
        let j = i * factor;
        if j < len {
            out[j] = v;
        }
    }
    out
}

/// The whole FilterBank pipeline for one signal (the reference the GPU
/// kernel in Fig. 1c computes).
pub fn filterbank(signal: &[f32], h: &[f32], f: &[f32]) -> Vec<f32> {
    let a = convolve(signal, h);
    let d = downsample(&a, N_SAMP);
    let u = upsample(&d, N_SAMP, signal.len());
    convolve(&u, f)
}

/// Per-task GPU thread-op count: two dense convolutions dominate — per
/// tap a MAC (2 ops), two loads, and boundary/index arithmetic (~6 ops
/// total) — plus the resample stages.
fn task_ops() -> u64 {
    let conv = (N_SIM * N_COL * 6) as u64;
    let resample = (2 * N_SIM / N_SAMP) as u64;
    2 * conv + resample
}

/// Generates `n` FilterBank tasks. Work is regular, so every task is
/// identical up to its (irrelevant to timing) signal contents.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let _rng = SmallRng::seed_from_u64(opts.seed ^ 0x6662);
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
    fn convolve_identity() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let h = vec![1.0];
        assert_eq!(convolve(&x, &h), x);
    }

    #[test]
    fn convolve_delay() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let h = vec![0.0, 1.0]; // one-sample delay
        assert_eq!(convolve(&x, &h), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn down_up_roundtrip_keeps_kept_samples() {
        let x: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let d = downsample(&x, 8);
        assert_eq!(d.len(), 8);
        let u = upsample(&d, 8, 64);
        assert_eq!(u[0], 0.0);
        assert_eq!(u[8], 8.0);
        assert_eq!(u[9], 0.0, "zero-stuffed");
    }

    #[test]
    fn pipeline_linear_in_input() {
        // Filterbank is linear: F(2x) = 2 F(x).
        let h: Vec<f32> = (0..N_COL).map(|k| 1.0 / (k + 1) as f32).collect();
        let f: Vec<f32> = (0..N_COL).map(|k| 0.5 / (k + 1) as f32).collect();
        let x: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin()).collect();
        let y1 = filterbank(&x, &h, &f);
        let x2: Vec<f32> = x.iter().map(|v| v * 2.0).collect();
        let y2 = filterbank(&x2, &h, &f);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((2.0 * a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn tasks_are_sync_and_regular() {
        let ts = tasks(5, &GenOpts::default());
        assert!(ts.iter().all(|t| t.sync));
        assert!(ts.iter().all(|t| t.total_instrs() == ts[0].total_instrs()));
        ts[0].validate().unwrap();
        assert_eq!(ts[0].blocks[0].warps()[0].barrier_count(), 3);
    }
}
