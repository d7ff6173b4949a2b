//! MatrixMul (MM): small dense matrix multiplication, one multiplication
//! per task (refactored CUDA SDK sample). The paper motivates it with an
//! earthquake-engineering simulator that concurrently multiplies many
//! small, differently-sized matrices (Table 4). Uses shared-memory tiling
//! and synchronization; the matrix dimension is parameterizable because
//! Fig. 8 sweeps it.

use pagoda_core::TaskDesc;

use crate::calib;
use crate::gen::{io_bytes, uniform_block};
use crate::GenOpts;

/// Default matrix side (paper Table 3: 64×64).
pub const DIM: usize = 64;
/// Shared-memory tile side for the tiled variant.
pub const TILE: usize = 16;

/// Per-task thread-ops for an `n×n` product: 2n³ MAC ops plus addressing.
fn task_ops(n: usize) -> u64 {
    (2 * n * n * n + n * n) as u64
}

/// Tasks multiplying `dim`×`dim` matrices (Fig. 8 sweeps `dim`).
pub fn tasks_sized(n: usize, dim: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let cpi = if opts.use_smem {
        calib::MM.cpi_smem
    } else {
        calib::MM.cpi
    };
    let scaled = crate::gen::scale_ops(task_ops(dim), opts.work_scale);
    let ops_per_thread = scaled.div_ceil(u64::from(opts.threads_per_task));
    // The k-tile loop synchronizes after each staged tile; model the
    // barrier structure with dim/TILE phases (≥1).
    let phases = (dim / TILE).max(1);
    let fracs = vec![1.0 / phases as f64; phases];
    let block = uniform_block(opts.threads_per_task, ops_per_thread, cpi, &fracs);
    let bytes = dim * dim * 4;
    let t = TaskDesc {
        kernel: crate::gen::kernel(
            opts.threads_per_task,
            if opts.use_smem {
                (2 * TILE * TILE * 4) as u32
            } else {
                0
            },
            true,
            [block],
        ),
        cpu_ops: crate::gen::scale_ops(task_ops(dim), opts.work_scale),
        input_bytes: io_bytes(opts, 2 * bytes), // A and B
        output_bytes: io_bytes(opts, bytes),
    };
    vec![t; n]
}

/// Tasks at the paper's default 64×64 size.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    tasks_sized(n, DIM, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_scales_cubically() {
        let o = GenOpts::default();
        let small = tasks_sized(1, 32, &o)[0].total_instrs();
        let large = tasks_sized(1, 64, &o)[0].total_instrs();
        let ratio = large as f64 / small as f64;
        assert!((7.0..9.0).contains(&ratio), "cubic scaling, got {ratio}");
    }

    #[test]
    fn smem_variant_shape() {
        let o = GenOpts {
            use_smem: true,
            ..GenOpts::default()
        };
        let t = &tasks(1, &o)[0];
        assert_eq!(t.smem_per_tb, 2048);
        assert!(t.sync);
        t.validate().unwrap();
        // 64/16 = 4 tile phases -> 3 barriers.
        assert_eq!(t.blocks[0].warp(0).barrier_count(), 3);
    }
}
