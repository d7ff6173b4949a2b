//! DCT8x8 (DCT): 2D discrete cosine transform over 8×8 blocks of one
//! image per task (CUDA SDK / JPEG style). The paper's surveillance
//! scenario processes one camera frame per task. Copy-bound (Table 3:
//! 81 % copy), uses shared memory and threadblock synchronization.

use pagoda_core::TaskDesc;

use crate::calib;
use crate::gen::{io_bytes, uniform_block};
use crate::GenOpts;

/// Image side per task (128×128 f32 pixels).
pub const DIM: usize = 128;
/// Transform block side.
pub const B: usize = 8;

/// Per-task thread-ops: two 8-tap dot products per pixel (row + column
/// pass), 2 ops per MAC plus indexing.
fn task_ops() -> u64 {
    (DIM * DIM * 2 * B * 5 / 2) as u64
}

/// Generates `n` DCT tasks. `opts.use_smem` selects the shared-memory
/// staged variant (Table 5): 8 image rows staged per pass, 4 KB per
/// threadblock, lower CPI.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let cpi = if opts.use_smem {
        calib::DCT.cpi_smem
    } else {
        calib::DCT.cpi
    };
    let scaled = crate::gen::scale_ops(task_ops(), opts.work_scale);
    let ops_per_thread = scaled / u64::from(opts.threads_per_task);
    // Two synchronized passes: rows, then columns.
    let block = uniform_block(opts.threads_per_task, ops_per_thread, cpi, &[0.5, 0.5]);
    let io = DIM * DIM * 4; // f32 pixels
    let t = TaskDesc {
        kernel: crate::gen::kernel(
            opts.threads_per_task,
            if opts.use_smem { 4 * 1024 } else { 0 },
            true,
            [block],
        ),
        cpu_ops: crate::gen::scale_ops(task_ops(), opts.work_scale),
        input_bytes: io_bytes(opts, io),
        output_bytes: io_bytes(opts, io),
    };
    vec![t; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smem_variant_lowers_cpi_and_requests_memory() {
        let mut o = GenOpts {
            use_smem: false,
            ..GenOpts::default()
        };
        let plain = tasks(1, &o);
        o.use_smem = true;
        let smem = tasks(1, &o);
        assert_eq!(plain[0].smem_per_tb, 0);
        assert_eq!(smem[0].smem_per_tb, 4096);
        assert!(smem[0].blocks[0].warp(0).cpi < plain[0].blocks[0].warp(0).cpi);
        smem[0].validate().unwrap();
    }
}
