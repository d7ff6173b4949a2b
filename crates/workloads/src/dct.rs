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

/// The 8-point DCT-II basis coefficient `c(k) · cos((2n+1)kπ/16)`.
fn basis(k: usize, n: usize) -> f32 {
    let ck = if k == 0 {
        (1.0f64 / B as f64).sqrt()
    } else {
        (2.0f64 / B as f64).sqrt()
    };
    (ck * ((2 * n + 1) as f64 * k as f64 * std::f64::consts::PI / (2.0 * B as f64)).cos()) as f32
}

/// 2D DCT-II of one 8×8 block (row-major), separable implementation.
pub fn dct8x8_block(block: &[f32]) -> Vec<f32> {
    assert_eq!(block.len(), B * B);
    // Rows.
    let mut tmp = vec![0.0f32; B * B];
    for r in 0..B {
        for k in 0..B {
            let mut acc = 0.0;
            for n in 0..B {
                acc += block[r * B + n] * basis(k, n);
            }
            tmp[r * B + k] = acc;
        }
    }
    // Columns.
    let mut out = vec![0.0f32; B * B];
    for c in 0..B {
        for k in 0..B {
            let mut acc = 0.0;
            for n in 0..B {
                acc += tmp[n * B + c] * basis(k, n);
            }
            out[k * B + c] = acc;
        }
    }
    out
}

/// Inverse 2D DCT of one 8×8 block (for the round-trip test).
pub fn idct8x8_block(coeff: &[f32]) -> Vec<f32> {
    assert_eq!(coeff.len(), B * B);
    let mut tmp = vec![0.0f32; B * B];
    for c in 0..B {
        for n in 0..B {
            let mut acc = 0.0;
            for k in 0..B {
                acc += coeff[k * B + c] * basis(k, n);
            }
            tmp[n * B + c] = acc;
        }
    }
    let mut out = vec![0.0f32; B * B];
    for r in 0..B {
        for n in 0..B {
            let mut acc = 0.0;
            for k in 0..B {
                acc += tmp[r * B + k] * basis(k, n);
            }
            out[r * B + n] = acc;
        }
    }
    out
}

/// Whole-image DCT: transforms each 8×8 tile independently.
pub fn dct_image(img: &[f32], dim: usize) -> Vec<f32> {
    assert_eq!(img.len(), dim * dim);
    assert_eq!(dim % B, 0);
    let mut out = vec![0.0f32; dim * dim];
    for by in (0..dim).step_by(B) {
        for bx in (0..dim).step_by(B) {
            let mut block = [0.0f32; B * B];
            for y in 0..B {
                for x in 0..B {
                    block[y * B + x] = img[(by + y) * dim + bx + x];
                }
            }
            let t = dct8x8_block(&block);
            for y in 0..B {
                for x in 0..B {
                    out[(by + y) * dim + bx + x] = t[y * B + x];
                }
            }
        }
    }
    out
}

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
    fn dc_block_transforms_to_single_coefficient() {
        let block = vec![1.0f32; 64];
        let out = dct8x8_block(&block);
        assert!((out[0] - 8.0).abs() < 1e-4, "DC = 8·mean, got {}", out[0]);
        for &c in &out[1..] {
            assert!(c.abs() < 1e-4, "AC of constant block must vanish");
        }
    }

    #[test]
    fn dct_idct_roundtrip() {
        let block: Vec<f32> = (0..64).map(|i| ((i * 7 + 3) % 17) as f32).collect();
        let back = idct8x8_block(&dct8x8_block(&block));
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let block: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let out = dct8x8_block(&block);
        let e_in: f32 = block.iter().map(|v| v * v).sum();
        let e_out: f32 = out.iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-4);
    }

    #[test]
    fn image_tiling_matches_per_block_transform() {
        let img: Vec<f32> = (0..16 * 16).map(|i| (i % 31) as f32).collect();
        let full = dct_image(&img, 16);
        // Top-left tile.
        let mut tile = [0.0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                tile[y * 8 + x] = img[y * 16 + x];
            }
        }
        let t = dct8x8_block(&tile);
        for y in 0..8 {
            for x in 0..8 {
                assert!((full[y * 16 + x] - t[y * 8 + x]).abs() < 1e-5);
            }
        }
    }

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
        assert!(smem[0].blocks[0].warps()[0].cpi < plain[0].blocks[0].warps()[0].cpi);
        smem[0].validate().unwrap();
    }
}
