//! 3DES: Triple-DES packet encryption (FIPS 46-3). A network router
//! encrypts packets as they arrive; each packet is one narrow task, and
//! NetBench-style packet sizes (2 KB – 64 KB) make the tasks irregular
//! (Table 3).
//!
//! This is a complete software DES: initial/final permutations, the 16
//! Feistel rounds with expansion, S-boxes and P-permutation, and the
//! PC-1/PC-2 key schedule — verified against the classic known-answer
//! vector and DES's complementation property.

use std::collections::HashMap;
use std::sync::Arc;

use gpu_sim::Kernel;
use pagoda_core::TaskDesc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::calib;
use crate::gen::{build_block, distribute_cyclic_equal, io_bytes};
use crate::GenOpts;

// FIPS 46-3 tables; entries are 1-based bit positions, bit 1 = MSB.
#[rustfmt::skip]
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17,  9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];
#[rustfmt::skip]
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41,  9, 49, 17, 57, 25,
];
#[rustfmt::skip]
const E: [u8; 48] = [
    32,  1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
     8,  9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32,  1,
];
#[rustfmt::skip]
const P: [u8; 32] = [
    16,  7, 20, 21, 29, 12, 28, 17,  1, 15, 23, 26,  5, 18, 31, 10,
     2,  8, 24, 14, 32, 27,  3,  9, 19, 13, 30,  6, 22, 11,  4, 25,
];
#[rustfmt::skip]
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17,  9,  1, 58, 50, 42, 34, 26, 18,
    10,  2, 59, 51, 43, 35, 27, 19, 11,  3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,  7, 62, 54, 46, 38, 30, 22,
    14,  6, 61, 53, 45, 37, 29, 21, 13,  5, 28, 20, 12,  4,
];
#[rustfmt::skip]
const PC2: [u8; 48] = [
    14, 17, 11, 24,  1,  5,  3, 28, 15,  6, 21, 10,
    23, 19, 12,  4, 26,  8, 16,  7, 27, 20, 13,  2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];
#[rustfmt::skip]
const SBOX: [[u8; 64]; 8] = [
    [14,  4, 13,  1,  2, 15, 11,  8,  3, 10,  6, 12,  5,  9,  0,  7,
      0, 15,  7,  4, 14,  2, 13,  1, 10,  6, 12, 11,  9,  5,  3,  8,
      4,  1, 14,  8, 13,  6,  2, 11, 15, 12,  9,  7,  3, 10,  5,  0,
     15, 12,  8,  2,  4,  9,  1,  7,  5, 11,  3, 14, 10,  0,  6, 13],
    [15,  1,  8, 14,  6, 11,  3,  4,  9,  7,  2, 13, 12,  0,  5, 10,
      3, 13,  4,  7, 15,  2,  8, 14, 12,  0,  1, 10,  6,  9, 11,  5,
      0, 14,  7, 11, 10,  4, 13,  1,  5,  8, 12,  6,  9,  3,  2, 15,
     13,  8, 10,  1,  3, 15,  4,  2, 11,  6,  7, 12,  0,  5, 14,  9],
    [10,  0,  9, 14,  6,  3, 15,  5,  1, 13, 12,  7, 11,  4,  2,  8,
     13,  7,  0,  9,  3,  4,  6, 10,  2,  8,  5, 14, 12, 11, 15,  1,
     13,  6,  4,  9,  8, 15,  3,  0, 11,  1,  2, 12,  5, 10, 14,  7,
      1, 10, 13,  0,  6,  9,  8,  7,  4, 15, 14,  3, 11,  5,  2, 12],
    [ 7, 13, 14,  3,  0,  6,  9, 10,  1,  2,  8,  5, 11, 12,  4, 15,
     13,  8, 11,  5,  6, 15,  0,  3,  4,  7,  2, 12,  1, 10, 14,  9,
     10,  6,  9,  0, 12, 11,  7, 13, 15,  1,  3, 14,  5,  2,  8,  4,
      3, 15,  0,  6, 10,  1, 13,  8,  9,  4,  5, 11, 12,  7,  2, 14],
    [ 2, 12,  4,  1,  7, 10, 11,  6,  8,  5,  3, 15, 13,  0, 14,  9,
     14, 11,  2, 12,  4,  7, 13,  1,  5,  0, 15, 10,  3,  9,  8,  6,
      4,  2,  1, 11, 10, 13,  7,  8, 15,  9, 12,  5,  6,  3,  0, 14,
     11,  8, 12,  7,  1, 14,  2, 13,  6, 15,  0,  9, 10,  4,  5,  3],
    [12,  1, 10, 15,  9,  2,  6,  8,  0, 13,  3,  4, 14,  7,  5, 11,
     10, 15,  4,  2,  7, 12,  9,  5,  6,  1, 13, 14,  0, 11,  3,  8,
      9, 14, 15,  5,  2,  8, 12,  3,  7,  0,  4, 10,  1, 13, 11,  6,
      4,  3,  2, 12,  9,  5, 15, 10, 11, 14,  1,  7,  6,  0,  8, 13],
    [ 4, 11,  2, 14, 15,  0,  8, 13,  3, 12,  9,  7,  5, 10,  6,  1,
     13,  0, 11,  7,  4,  9,  1, 10, 14,  3,  5, 12,  2, 15,  8,  6,
      1,  4, 11, 13, 12,  3,  7, 14, 10, 15,  6,  8,  0,  5,  9,  2,
      6, 11, 13,  8,  1,  4, 10,  7,  9,  5,  0, 15, 14,  2,  3, 12],
    [13,  2,  8,  4,  6, 15, 11,  1, 10,  9,  3, 14,  5,  0, 12,  7,
      1, 15, 13,  8, 10,  3,  7,  4, 12,  5,  6, 11,  0, 14,  9,  2,
      7, 11,  4,  1,  9, 12, 14,  2,  0,  6, 10, 13, 15,  3,  5,  8,
      2,  1, 14,  7,  4, 10,  8, 13, 15, 12,  9,  0,  3,  5,  6, 11],
];

/// Applies a 1-based MSB-first bit permutation: output bit *i* (MSB
/// first, `table.len()` bits total) = input bit `table[i]` of an
/// `in_bits`-wide value.
fn permute(x: u64, table: &[u8], in_bits: u32) -> u64 {
    let mut out = 0u64;
    for &t in table {
        out = (out << 1) | ((x >> (in_bits - u32::from(t))) & 1);
    }
    out
}

/// The 16 round keys (48 bits each) from a 64-bit key (parity bits
/// ignored, per PC-1).
pub fn key_schedule(key: u64) -> [u64; 16] {
    let cd = permute(key, &PC1, 64);
    let mut c = (cd >> 28) & 0x0FFF_FFFF;
    let mut d = cd & 0x0FFF_FFFF;
    let mut out = [0u64; 16];
    for (r, &s) in SHIFTS.iter().enumerate() {
        let s = u32::from(s);
        c = ((c << s) | (c >> (28 - s))) & 0x0FFF_FFFF;
        d = ((d << s) | (d >> (28 - s))) & 0x0FFF_FFFF;
        out[r] = permute((c << 28) | d, &PC2, 56);
    }
    out
}

/// The Feistel function: expand, mix key, S-boxes, P-permute.
fn feistel(r: u32, k: u64) -> u32 {
    let x = permute(u64::from(r), &E, 32) ^ k;
    let mut s_out = 0u32;
    for (i, sbox) in SBOX.iter().enumerate() {
        let six = ((x >> (42 - 6 * i)) & 0x3F) as usize;
        let row = ((six >> 4) & 2) | (six & 1);
        let col = (six >> 1) & 0xF;
        s_out = (s_out << 4) | u32::from(sbox[row * 16 + col]);
    }
    permute(u64::from(s_out), &P, 32) as u32
}

fn des_rounds(block: u64, keys: &[u64; 16], decrypt: bool) -> u64 {
    let ip = permute(block, &IP, 64);
    let mut l = (ip >> 32) as u32;
    let mut r = ip as u32;
    for i in 0..16 {
        let k = if decrypt { keys[15 - i] } else { keys[i] };
        let next_r = l ^ feistel(r, k);
        l = r;
        r = next_r;
    }
    // Final swap + inverse permutation.
    permute((u64::from(r) << 32) | u64::from(l), &FP, 64)
}

/// Single-DES encryption of one 64-bit block.
pub fn des_encrypt(block: u64, key: u64) -> u64 {
    des_rounds(block, &key_schedule(key), false)
}

/// Single-DES decryption of one 64-bit block.
pub fn des_decrypt(block: u64, key: u64) -> u64 {
    des_rounds(block, &key_schedule(key), true)
}

/// 3DES EDE encryption of one block.
pub fn des3_encrypt(block: u64, k1: u64, k2: u64, k3: u64) -> u64 {
    des_encrypt(des_decrypt(des_encrypt(block, k1), k2), k3)
}

/// 3DES EDE decryption of one block.
pub fn des3_decrypt(block: u64, k1: u64, k2: u64, k3: u64) -> u64 {
    des_decrypt(des_encrypt(des_decrypt(block, k3), k2), k1)
}

/// Encrypts a packet (ECB over 8-byte blocks; length must be a multiple
/// of 8 — routers pad).
pub fn encrypt_packet(data: &[u8], k1: u64, k2: u64, k3: u64) -> Vec<u8> {
    assert_eq!(data.len() % 8, 0, "packet must be block-aligned");
    let mut out = Vec::with_capacity(data.len());
    for chunk in data.chunks_exact(8) {
        let block = u64::from_be_bytes(chunk.try_into().unwrap());
        out.extend_from_slice(&des3_encrypt(block, k1, k2, k3).to_be_bytes());
    }
    out
}

/// Packet-size range (paper Table 3: "network packets sized 2K-64K",
/// generated with NetBench).
pub const MIN_PACKET: usize = 2 * 1024;
/// Upper packet bound.
pub const MAX_PACKET: usize = 64 * 1024;

/// Thread-ops per 8-byte block: 16 rounds × 3 DES passes of table-driven
/// expansion/S-box/permute work (~22 ops per round in a LUT
/// implementation), plus block I/O.
pub(crate) const OPS_PER_BLOCK: u64 = 16 * 3 * 10 + 30;

/// Log-uniform NetBench-like packet size, block-aligned.
pub fn packet_size(rng: &mut SmallRng) -> usize {
    let lo = (MIN_PACKET as f64).ln();
    let hi = (MAX_PACKET as f64).ln();
    let s = rng.gen_range(lo..hi).exp() as usize;
    (s / 8) * 8
}

/// What a packet's work list depends on once the block size and thread
/// count are fixed: the blocks every thread gets, and how many warps hold
/// a lane with one block more (their lane maximum is one block higher).
pub(crate) fn shape(blocks: usize, threads: usize) -> (usize, usize) {
    (blocks / threads, (blocks % threads).div_ceil(32))
}

/// Generates `n` packet-encryption tasks with irregular sizes. A
/// packet's work depends on its `shape` alone, and shapes recur far
/// more than lengths do (32 k packets hold about 7 k distinct lengths but
/// about 300 shapes at 128 threads, of at most 320), so tasks of one
/// shape share one kernel; each keeps its own length's CPU count and
/// copy volume.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x3de5);
    let per_block = crate::gen::scale_ops(OPS_PER_BLOCK, opts.work_scale);
    let threads = opts.threads_per_task as usize;
    let mut kernels: HashMap<(usize, usize), Arc<Kernel>> = HashMap::new();
    (0..n)
        .map(|_| {
            let bytes = packet_size(&mut rng);
            let blocks = bytes / 8;
            let kernel = kernels.entry(shape(blocks, threads)).or_insert_with(|| {
                let per_thread = distribute_cyclic_equal(blocks, per_block, threads);
                crate::gen::kernel(
                    opts.threads_per_task,
                    0,
                    false,
                    [build_block(&per_thread, calib::DES3.cpi, &[1.0])],
                )
            });
            TaskDesc {
                kernel: Arc::clone(kernel),
                cpu_ops: blocks as u64 * per_block,
                input_bytes: io_bytes(opts, bytes),
                output_bytes: io_bytes(opts, bytes),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn classic_known_answer_vector() {
        // The canonical worked example (appears in FIPS material and
        // countless references).
        let key = 0x133457799BBCDFF1;
        let pt = 0x0123456789ABCDEF;
        assert_eq!(des_encrypt(pt, key), 0x85E813540F0AB405);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = 0xA1B2C3D4E5F60718;
        for pt in [0u64, u64::MAX, 0x0123456789ABCDEF, 0xDEADBEEFCAFEBABE] {
            assert_eq!(des_decrypt(des_encrypt(pt, key), key), pt);
        }
    }

    #[test]
    fn complementation_property() {
        // DES(~k, ~p) == ~DES(k, p) — a structural property of DES.
        let key = 0x133457799BBCDFF1;
        let pt = 0x0123456789ABCDEF;
        assert_eq!(des_encrypt(!pt, !key), !des_encrypt(pt, key));
    }

    #[test]
    fn triple_des_with_equal_keys_is_single_des() {
        let key = 0x133457799BBCDFF1;
        let pt = 0x0123456789ABCDEF;
        assert_eq!(des3_encrypt(pt, key, key, key), des_encrypt(pt, key));
    }

    #[test]
    fn triple_des_roundtrip() {
        let (k1, k2, k3) = (0x0123456789ABCDEF, 0x23456789ABCDEF01, 0x456789ABCDEF0123);
        let pt = 0x6BC1BEE22E409F96;
        let ct = des3_encrypt(pt, k1, k2, k3);
        assert_ne!(ct, pt);
        assert_eq!(des3_decrypt(ct, k1, k2, k3), pt);
    }

    #[test]
    fn packet_roundtrip() {
        let (k1, k2, k3) = (0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x1122334455667788);
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let ct = encrypt_packet(&data, k1, k2, k3);
        assert_eq!(ct.len(), data.len());
        assert_ne!(ct, data);
        // Decrypt block-wise.
        let mut back = Vec::new();
        for chunk in ct.chunks_exact(8) {
            let b = u64::from_be_bytes(chunk.try_into().unwrap());
            back.extend_from_slice(&des3_decrypt(b, k1, k2, k3).to_be_bytes());
        }
        assert_eq!(back, data);
    }

    #[test]
    fn packet_sizes_span_the_netbench_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        let sizes: Vec<usize> = (0..500).map(|_| packet_size(&mut rng)).collect();
        assert!(sizes
            .iter()
            .all(|&s| (MIN_PACKET - 8..=MAX_PACKET).contains(&s)));
        assert!(sizes.iter().any(|&s| s < 2 * MIN_PACKET));
        assert!(sizes.iter().any(|&s| s > MAX_PACKET / 3));
    }

    /// [`tasks`] as it was before packets shared their work: every task
    /// builds its own.
    fn tasks_one_by_one(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
        let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x3de5);
        (0..n)
            .map(|_| {
                let bytes = packet_size(&mut rng);
                let blocks = bytes / 8;
                let per_block = crate::gen::scale_ops(OPS_PER_BLOCK, opts.work_scale);
                let per_thread =
                    distribute_cyclic_equal(blocks, per_block, opts.threads_per_task as usize);
                let block = build_block(&per_thread, calib::DES3.cpi, &[1.0]);
                TaskDesc {
                    kernel: crate::gen::kernel(opts.threads_per_task, 0, false, [block]),
                    cpu_ops: blocks as u64 * per_block,
                    input_bytes: io_bytes(opts, bytes),
                    output_bytes: io_bytes(opts, bytes),
                }
            })
            .collect()
    }

    #[test]
    fn shared_work_equals_per_task_work_and_is_shared_per_shape() {
        let variants = [
            GenOpts::default(),
            GenOpts {
                with_io: false,
                seed: 7,
                ..GenOpts::default()
            },
            GenOpts {
                threads_per_task: 32,
                work_scale: 2.5,
                ..GenOpts::default()
            },
        ];
        for opts in variants {
            let (shared, alone) = (tasks(3_000, &opts), tasks_one_by_one(3_000, &opts));
            assert_eq!(shared.len(), alone.len());
            for (s, a) in shared.iter().zip(&alone) {
                assert_eq!(s.kernel, a.kernel);
                assert_eq!(
                    (s.input_bytes, s.output_bytes, s.cpu_ops),
                    (a.input_bytes, a.output_bytes, a.cpu_ops)
                );
            }
            // `cpu_ops` is the packet's block count times a constant, so
            // it names the length whether or not the I/O volume is kept.
            let per_block = crate::gen::scale_ops(OPS_PER_BLOCK, opts.work_scale);
            let threads = opts.threads_per_task as usize;
            let mut by_shape: HashMap<(usize, usize), &Arc<Kernel>> = HashMap::new();
            let mut lengths = HashSet::new();
            for t in &shared {
                let blocks = (t.cpu_ops / per_block) as usize;
                lengths.insert(blocks);
                let first = by_shape.entry(shape(blocks, threads)).or_insert(&t.kernel);
                assert!(Arc::ptr_eq(first, &t.kernel), "one shape, two kernels");
            }
            let kernels: HashSet<*const Kernel> =
                shared.iter().map(|t| Arc::as_ptr(&t.kernel)).collect();
            assert_eq!(kernels.len(), by_shape.len(), "two shapes, one kernel");
            assert!(
                by_shape.len() + 100 < lengths.len(),
                "{} shapes among {} lengths: too few share a shape to test sharing",
                by_shape.len(),
                lengths.len()
            );
        }
    }

    #[test]
    fn tasks_are_irregular() {
        let ts = tasks(64, &GenOpts::default());
        let min = ts.iter().map(|t| t.total_instrs()).min().unwrap();
        let max = ts.iter().map(|t| t.total_instrs()).max().unwrap();
        assert!(max > min * 4, "packet-size irregularity: {min} vs {max}");
        ts[0].validate().unwrap();
    }
}
