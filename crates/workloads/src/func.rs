//! Functional task execution: the *data* half of every benchmark.
//!
//! The simulator accounts for time; this module computes actual outputs.
//! A [`FuncTask`] carries a benchmark's real inputs (a packet, a frame, a
//! signal, matrices, a complex-plane window); [`run`] produces its real
//! output bytes using the same reference algorithms the timing models
//! were derived from. [`run_batch`] executes a whole task set in order —
//! the host-side oracle for golden-output tests.
//!
//! Keeping functional execution separate from timing is what lets one
//! task description run under every runtime scheme while provably
//! computing the same result (`tests/end_to_end.rs` checks this).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{beamformer, conv, dct, des3, filterbank, mandelbrot, matmul, slud};

/// A benchmark task with its concrete input data.
#[derive(Debug, Clone)]
pub enum FuncTask {
    /// Render one Mandelbrot window.
    Mandelbrot {
        /// The complex-plane window.
        region: mandelbrot::Region,
    },
    /// Run one signal through the filter bank.
    FilterBank {
        /// Input signal (length [`filterbank::N_SIM`]).
        signal: Vec<f32>,
        /// First filter taps.
        h: Vec<f32>,
        /// Second filter taps.
        f: Vec<f32>,
    },
    /// Steer one beam.
    BeamFormer {
        /// Per-channel sensor data.
        channels: Vec<Vec<f32>>,
        /// Real weights.
        wr: Vec<f32>,
        /// Imaginary weights.
        wi: Vec<f32>,
        /// Per-channel delays.
        delays: Vec<usize>,
    },
    /// Convolve one image.
    Convolution {
        /// Square u8 image.
        image: Vec<u8>,
        /// Image side.
        dim: usize,
        /// 5×5 kernel.
        kernel: Vec<f32>,
    },
    /// Transform one frame.
    Dct {
        /// Square f32 image.
        image: Vec<f32>,
        /// Image side (multiple of 8).
        dim: usize,
    },
    /// Multiply two matrices.
    MatMul {
        /// Left operand, row-major n×n.
        a: Vec<f32>,
        /// Right operand.
        b: Vec<f32>,
        /// Side length.
        n: usize,
    },
    /// Factor one dense tile.
    LuFactor {
        /// Row-major tile (diagonally dominant).
        tile: Vec<f32>,
        /// Side length.
        n: usize,
    },
    /// Encrypt one packet.
    Des3 {
        /// Packet bytes (multiple of 8).
        packet: Vec<u8>,
        /// Key 1.
        k1: u64,
        /// Key 2.
        k2: u64,
        /// Key 3.
        k3: u64,
    },
}

/// A task's computed output, as raw bytes (what the D2H copy would carry).
pub fn run(task: &FuncTask) -> Vec<u8> {
    match task {
        FuncTask::Mandelbrot { region } => {
            mandelbrot::render(*region, mandelbrot::DIM, mandelbrot::MAX_ITER)
                .into_iter()
                .flat_map(u16::to_le_bytes)
                .collect()
        }
        FuncTask::FilterBank { signal, h, f } => filterbank::filterbank(signal, h, f)
            .into_iter()
            .flat_map(f32::to_le_bytes)
            .collect(),
        FuncTask::BeamFormer {
            channels,
            wr,
            wi,
            delays,
        } => beamformer::beamform(channels, wr, wi, delays)
            .into_iter()
            .flat_map(f32::to_le_bytes)
            .collect(),
        FuncTask::Convolution { image, dim, kernel } => conv::convolve2d(image, *dim, kernel),
        FuncTask::Dct { image, dim } => dct::dct_image(image, *dim)
            .into_iter()
            .flat_map(f32::to_le_bytes)
            .collect(),
        FuncTask::MatMul { a, b, n } => matmul::matmul_tiled(a, b, *n)
            .into_iter()
            .flat_map(f32::to_le_bytes)
            .collect(),
        FuncTask::LuFactor { tile, n } => {
            let (l, u) = slud::dense_lu(tile, *n);
            l.into_iter().chain(u).flat_map(f32::to_le_bytes).collect()
        }
        FuncTask::Des3 { packet, k1, k2, k3 } => des3::encrypt_packet(packet, *k1, *k2, *k3),
    }
}

/// Executes a batch on the host, in order.
pub fn run_batch(tasks: &[FuncTask]) -> Vec<Vec<u8>> {
    tasks.iter().map(run).collect()
}

/// Deterministically generates a mixed batch of functional tasks — the
/// data-side twin of [`crate::mpe::tasks`].
pub fn sample_batch(n: usize, seed: u64) -> Vec<FuncTask> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xf17c);
    (0..n)
        .map(|i| match i % 8 {
            0 => FuncTask::Mandelbrot {
                region: mandelbrot::Region {
                    x0: rng.gen_range(-2.0..0.5),
                    y0: rng.gen_range(-1.2..1.0),
                    w: 0.05,
                    h: 0.05,
                },
            },
            1 => FuncTask::FilterBank {
                signal: (0..filterbank::N_SIM)
                    .map(|t| (t as f32 * rng.gen_range(0.001f32..0.1)).sin())
                    .collect(),
                h: (0..filterbank::N_COL)
                    .map(|k| 1.0 / (k + 1) as f32)
                    .collect(),
                f: (0..filterbank::N_COL)
                    .map(|k| 0.5 / (k + 1) as f32)
                    .collect(),
            },
            2 => {
                let ch = 4;
                FuncTask::BeamFormer {
                    channels: (0..ch)
                        .map(|c| {
                            (0..256)
                                .map(|t| ((t + c * 17) as f32 * 0.05).sin())
                                .collect()
                        })
                        .collect(),
                    wr: vec![0.5; ch],
                    wi: vec![0.1; ch],
                    delays: (0..ch).collect(),
                }
            }
            3 => FuncTask::Convolution {
                image: (0..64 * 64).map(|_| rng.gen()).collect(),
                dim: 64,
                kernel: conv::box_kernel(),
            },
            4 => FuncTask::Dct {
                image: (0..64 * 64).map(|_| rng.gen_range(-128.0..128.0)).collect(),
                dim: 64,
            },
            5 => {
                let n = 32;
                FuncTask::MatMul {
                    a: (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    b: (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    n,
                }
            }
            6 => {
                let n = slud::TILE;
                let mut tile: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                for d in 0..n {
                    tile[d * n + d] = n as f32 + 1.0;
                }
                FuncTask::LuFactor { tile, n }
            }
            _ => FuncTask::Des3 {
                packet: (0..256).map(|_| rng.gen()).collect::<Vec<u8>>(),
                k1: rng.gen(),
                k2: rng.gen(),
                k3: rng.gen(),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_nonempty_and_sized_sensibly() {
        for t in sample_batch(16, 9) {
            let out = run(&t);
            assert!(!out.is_empty());
            match t {
                FuncTask::Mandelbrot { .. } => assert_eq!(out.len(), 64 * 64 * 2),
                FuncTask::Convolution { dim, .. } => assert_eq!(out.len(), dim * dim),
                FuncTask::Dct { dim, .. } => assert_eq!(out.len(), dim * dim * 4),
                FuncTask::Des3 { ref packet, .. } => assert_eq!(out.len(), packet.len()),
                _ => {}
            }
        }
    }

    #[test]
    fn sample_batch_is_deterministic() {
        let a = run_batch(&sample_batch(16, 3));
        let b = run_batch(&sample_batch(16, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn des3_output_decrypts_back() {
        let t = FuncTask::Des3 {
            packet: (0..64).map(|i| i as u8).collect(),
            k1: 0x0123456789ABCDEF,
            k2: 0x1122334455667788,
            k3: 0xFEDCBA9876543210,
        };
        let ct = run(&t);
        if let FuncTask::Des3 { packet, k1, k2, k3 } = &t {
            let mut back = Vec::new();
            for chunk in ct.chunks_exact(8) {
                let b = u64::from_be_bytes(chunk.try_into().unwrap());
                back.extend_from_slice(&des3::des3_decrypt(b, *k1, *k2, *k3).to_be_bytes());
            }
            assert_eq!(&back, packet);
        }
    }

    #[test]
    fn lu_output_contains_unit_diagonal_l() {
        let n = slud::TILE;
        let t = match &sample_batch(16, 1)[6] {
            t @ FuncTask::LuFactor { .. } => t.clone(),
            _ => unreachable!("slot 6 is LuFactor"),
        };
        let out = run(&t);
        // First n*n floats are L; its diagonal must be exactly 1.0.
        for d in 0..n {
            let off = (d * n + d) * 4;
            let v = f32::from_le_bytes(out[off..off + 4].try_into().unwrap());
            assert_eq!(v, 1.0);
        }
    }
}
