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

/// Per-task thread-ops for a clamp-to-edge convolution of a `dim`×`dim`
/// u8 image: per pixel, K² MACs plus address clamping (~3 ops per tap).
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
    fn work_scales_with_image_area() {
        let o = GenOpts::default();
        let small = tasks_sized(1, 64, &o)[0].total_instrs();
        let large = tasks_sized(1, 128, &o)[0].total_instrs();
        let ratio = large as f64 / small as f64;
        assert!((ratio - 4.0).abs() < 0.1, "area scaling, got {ratio}");
    }
}
