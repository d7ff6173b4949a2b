//! 3DES: Triple-DES packet encryption (FIPS 46-3). A network router
//! encrypts packets as they arrive; each packet is one narrow task, and
//! NetBench-style packet sizes (2 KB – 64 KB) make the tasks irregular
//! (Table 3).

use std::rc::Rc;

use gpu_sim::Kernel;
use pagoda_core::TaskDesc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::calib;
use crate::gen::{build_block, distribute_cyclic_equal, io_bytes};
use crate::GenOpts;

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
/// shape share one kernel, found by the shape's index in a dense table;
/// each keeps its own length's CPU count and copy volume.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x3de5);
    let per_block = crate::gen::scale_ops(OPS_PER_BLOCK, opts.work_scale);
    let threads = opts.threads_per_task as usize;
    // `shape` is at most (MAX_PACKET / 8 / threads, threads.div_ceil(32)).
    let stride = threads.div_ceil(32) + 1;
    let mut kernels: Vec<Option<Rc<Kernel>>> = vec![None; (MAX_PACKET / 8 / threads + 1) * stride];
    (0..n)
        .map(|_| {
            let bytes = packet_size(&mut rng);
            let blocks = bytes / 8;
            let (whole, raised) = shape(blocks, threads);
            let kernel = kernels[whole * stride + raised].get_or_insert_with(|| {
                let per_thread = distribute_cyclic_equal(blocks, per_block, threads);
                crate::gen::kernel(
                    opts.threads_per_task,
                    0,
                    false,
                    [build_block(&per_thread, calib::DES3.cpi, &[1.0])],
                )
            });
            TaskDesc {
                kernel: Rc::clone(kernel),
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
    use std::collections::{HashMap, HashSet};

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
            let mut by_shape: HashMap<(usize, usize), &Rc<Kernel>> = HashMap::new();
            let mut lengths = HashSet::new();
            for t in &shared {
                let blocks = (t.cpu_ops / per_block) as usize;
                lengths.insert(blocks);
                let first = by_shape.entry(shape(blocks, threads)).or_insert(&t.kernel);
                assert!(Rc::ptr_eq(first, &t.kernel), "one shape, two kernels");
            }
            let kernels: HashSet<*const Kernel> =
                shared.iter().map(|t| Rc::as_ptr(&t.kernel)).collect();
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
