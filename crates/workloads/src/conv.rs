//! Image Convolution (CONV): 5×5 box-style convolution filters over one
//! image per task (CUDA SDK style; blur/edge detection). Regular, no
//! synchronization, moderate copy share (Table 3: 30 % copy).
//!
//! The image side length is parameterizable because Fig. 8 sweeps it
//! (16² … 256²).

use pagoda_core::TaskDesc;

use crate::calib;
use crate::gen::{io_bytes, uniform_block};
use crate::GenOpts;

/// Default image side (paper Table 3: 128×128 images).
pub const DIM: usize = 128;
/// Kernel side (5×5).
pub const K: usize = 5;

/// 2D convolution with clamp-to-edge borders over a `dim`×`dim` u8 image,
/// producing u8 with saturation. `kernel` is K×K row-major weights.
pub fn convolve2d(img: &[u8], dim: usize, kernel: &[f32]) -> Vec<u8> {
    assert_eq!(img.len(), dim * dim, "image size mismatch");
    assert_eq!(kernel.len(), K * K, "kernel must be {K}x{K}");
    let r = (K / 2) as isize;
    let mut out = vec![0u8; dim * dim];
    for y in 0..dim as isize {
        for x in 0..dim as isize {
            let mut acc = 0.0f32;
            for ky in -r..=r {
                for kx in -r..=r {
                    let sy = (y + ky).clamp(0, dim as isize - 1) as usize;
                    let sx = (x + kx).clamp(0, dim as isize - 1) as usize;
                    let w = kernel[((ky + r) * K as isize + (kx + r)) as usize];
                    acc += w * f32::from(img[sy * dim + sx]);
                }
            }
            out[(y * dim as isize + x) as usize] = acc.round().clamp(0.0, 255.0) as u8;
        }
    }
    out
}

/// A normalized box-blur kernel.
pub fn box_kernel() -> Vec<f32> {
    vec![1.0 / (K * K) as f32; K * K]
}

/// Per-task thread-ops for a `dim`×`dim` image: per pixel, K² MACs plus
/// address clamping (~3 ops per tap).
fn task_ops(dim: usize) -> u64 {
    (dim * dim * K * K * 3) as u64
}

/// Tasks over `dim`×`dim` images (Fig. 8 sweeps `dim`).
pub fn tasks_sized(n: usize, dim: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let scaled = crate::gen::scale_ops(task_ops(dim), opts.work_scale);
    let ops_per_thread = scaled.div_ceil(u64::from(opts.threads_per_task));
    let block = uniform_block(
        opts.threads_per_task,
        ops_per_thread,
        calib::CONV.cpi,
        &[1.0],
    );
    let io = dim * dim; // u8 pixels
    let t = TaskDesc {
        kernel: crate::gen::kernel(opts.threads_per_task, 0, false, [block]),
        cpu_ops: crate::gen::scale_ops(task_ops(dim), opts.work_scale),
        input_bytes: io_bytes(opts, io),
        output_bytes: io_bytes(opts, io),
    };
    vec![t; n]
}

/// Tasks at the paper's default 128×128 size.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    tasks_sized(n, DIM, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_preserves_image() {
        let mut k = vec![0.0f32; K * K];
        k[K * K / 2] = 1.0; // center tap
        let img: Vec<u8> = (0..64).map(|i| (i * 3 % 251) as u8).collect();
        assert_eq!(convolve2d(&img, 8, &k), img);
    }

    #[test]
    fn box_blur_flattens_constant_image() {
        let img = vec![100u8; 16 * 16];
        let out = convolve2d(&img, 16, &box_kernel());
        assert!(out.iter().all(|&p| p == 100), "constant stays constant");
    }

    #[test]
    fn blur_smooths_impulse() {
        let mut img = vec![0u8; 32 * 32];
        img[16 * 32 + 16] = 255;
        let out = convolve2d(&img, 32, &box_kernel());
        // Energy spreads: center is 255/25 ≈ 10.
        assert_eq!(out[16 * 32 + 16], 10);
        assert_eq!(out[14 * 32 + 14], 10, "within the 5x5 support");
        assert_eq!(out[10 * 32 + 10], 0, "outside the support");
    }

    #[test]
    fn work_scales_with_image_area() {
        let o = GenOpts::default();
        let small = tasks_sized(1, 64, &o)[0].total_instrs();
        let large = tasks_sized(1, 128, &o)[0].total_instrs();
        let ratio = large as f64 / small as f64;
        assert!((ratio - 4.0).abs() < 0.1, "area scaling, got {ratio}");
    }
}
