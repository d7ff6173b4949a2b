//! Shared machinery for turning per-thread operation counts into the
//! simulator's [`BlockWork`] descriptions.
//!
//! The SIMT divergence rule: a warp's issue count is the **maximum** over
//! its 32 lanes (inactive lanes still occupy the issued instruction), so a
//! warp's thread-instruction charge is `32 × max(lane_ops)`. For regular
//! kernels this equals the per-thread count; for Mandelbrot-style kernels
//! it is the divergence penalty the paper's "irregular" benchmarks pay.

use std::rc::Rc;

use gpu_sim::{BlockWork, Kernel, Segment, WarpWork};

use crate::GenOpts;

/// Scales an operation count by a workload's `work_scale` factor.
pub fn scale_ops(ops: u64, scale: f64) -> u64 {
    if scale == 1.0 {
        ops
    } else {
        (ops as f64 * scale).round() as u64
    }
}

/// A task's copy volume in one direction: `bytes` if the generator
/// attaches I/O (`opts.with_io`), else 0.
///
/// # Panics
///
/// If `bytes` exceeds `u32::MAX`, the largest copy a task describes.
pub(crate) fn io_bytes(opts: &GenOpts, bytes: usize) -> u32 {
    if opts.with_io {
        u32::try_from(bytes).expect("task I/O above 4 GiB")
    } else {
        0
    }
}

/// Distributes `item_ops[i]` work items cyclically over `threads` threads
/// (item `i` goes to thread `i % threads` — the standard grid-stride
/// pattern), returning per-thread operation totals.
pub fn distribute_cyclic(item_ops: &[u64], threads: usize) -> Vec<u64> {
    assert!(threads > 0, "zero threads");
    let mut per_thread = vec![0u64; threads];
    for (i, ops) in item_ops.iter().enumerate() {
        per_thread[i % threads] += ops;
    }
    per_thread
}

/// [`distribute_cyclic`] for `items` work items of `ops` operations
/// each, in closed form: thread `t` receives `items / threads` items,
/// plus one if `t < items % threads`. O(`threads`) whatever `items` is
/// — a 64 KB packet is 8192 equal blocks.
pub fn distribute_cyclic_equal(items: usize, ops: u64, threads: usize) -> Vec<u64> {
    assert!(threads > 0, "zero threads");
    let (each, extra) = (items / threads, items % threads);
    (0..threads)
        .map(|t| ops * (each + usize::from(t < extra)) as u64)
        .collect()
}

/// The compute shares of `warp`'s phases (its work between barriers),
/// normalised to sum to 1: the `phase_fracs` that rebuild its barrier
/// structure at another size through [`build_block`].
pub fn phase_fracs(warp: &WarpWork) -> Vec<f64> {
    let total = warp.total_instrs().max(1) as f64;
    let fracs: Vec<f64> = warp
        .segments
        .iter()
        .filter_map(|s| match s {
            Segment::Compute(c) => Some(*c as f64 / total),
            Segment::Barrier => None,
        })
        .collect();
    // Normalize (guard against rounding dust).
    let fsum: f64 = fracs.iter().sum();
    fracs.iter().map(|f| f / fsum).collect()
}

/// Builds one threadblock's work from per-thread op counts.
///
/// `phase_fracs` splits each warp's work into synchronized phases: a
/// barrier separates consecutive phases (`&[1.0]` means no barriers). The
/// fractions must sum to ~1.
pub fn build_block(thread_ops: &[u64], cpi: f64, phase_fracs: &[f64]) -> BlockWork {
    assert!(!thread_ops.is_empty(), "block with zero threads");
    assert!(!phase_fracs.is_empty(), "at least one phase");
    let sum: f64 = phase_fracs.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6, "phase fractions sum to {sum}");
    // Warps stream into the block, which keeps each run of equal ones
    // once: a block of uniform counts is one run however wide.
    BlockWork::new(thread_ops.chunks(32).map(|lanes| {
        let warp_ti = 32 * lanes.iter().copied().max().unwrap_or(0);
        let mut segments = Vec::with_capacity(phase_fracs.len() * 2 - 1);
        let mut assigned = 0u64;
        for (p, frac) in phase_fracs.iter().enumerate() {
            if p > 0 {
                segments.push(Segment::Barrier);
            }
            let ti = if p + 1 == phase_fracs.len() {
                warp_ti - assigned // exact remainder to the last phase
            } else {
                (warp_ti as f64 * frac).round() as u64
            };
            assigned += ti;
            segments.push(Segment::Compute(ti));
        }
        WarpWork { segments, cpi }
    }))
}

/// The kernel of generated `blocks`, each `threads_per_tb` threads wide:
/// every generator builds its kernels here.
///
/// # Panics
/// If the blocks disagree with `threads_per_tb` or use barriers without
/// `sync` — a generator bug, since [`build_block`] sizes a block from its
/// thread count.
pub fn kernel(
    threads_per_tb: u32,
    smem_per_tb: u32,
    sync: bool,
    blocks: impl Into<Box<[BlockWork]>>,
) -> Rc<Kernel> {
    Kernel::new(threads_per_tb, smem_per_tb, sync, blocks)
        .unwrap_or_else(|e| panic!("generated kernel: {e}"))
}

/// Uniform per-thread work: every thread does `ops_per_thread` operations.
pub fn uniform_block(
    threads: u32,
    ops_per_thread: u64,
    cpi: f64,
    phase_fracs: &[f64],
) -> BlockWork {
    build_block(&vec![ops_per_thread; threads as usize], cpi, phase_fracs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_distribution_balances() {
        let items = vec![10u64; 100];
        let per = distribute_cyclic(&items, 32);
        // 100 items over 32 threads: 4 threads get 4 items, 28 get 3.
        assert_eq!(per.iter().sum::<u64>(), 1000);
        assert_eq!(*per.iter().max().unwrap(), 40);
        assert_eq!(*per.iter().min().unwrap(), 30);
    }

    #[test]
    fn closed_form_matches_the_cyclic_deal() {
        for threads in [1usize, 31, 32, 33, 128, 992] {
            for items in 0..=4 * threads + 3 {
                for ops in [0u64, 1, 510, u64::from(u32::MAX)] {
                    assert_eq!(
                        distribute_cyclic_equal(items, ops, threads),
                        distribute_cyclic(&vec![ops; items], threads),
                        "{items} items of {ops} ops over {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn divergence_charges_warp_maximum() {
        let mut ops = vec![1u64; 32];
        ops[7] = 1000; // one slow lane stalls the whole warp
        let b = build_block(&ops, 1.0, &[1.0]);
        assert_eq!(b.total_instrs(), 32 * 1000);
    }

    #[test]
    fn phases_conserve_work_and_insert_barriers() {
        let b = build_block(&vec![100u64; 64], 2.0, &[0.5, 0.3, 0.2]);
        assert_eq!(b.num_warps(), 2);
        assert_eq!(b.total_instrs(), 2 * 32 * 100);
        assert_eq!(b.warp(0).barrier_count(), 2);
    }

    #[test]
    fn partial_warp_rounds_up() {
        let b = build_block(&vec![10u64; 40], 1.0, &[1.0]);
        assert_eq!(b.num_warps(), 2);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn bad_fractions_rejected() {
        build_block(&[1], 1.0, &[0.5, 0.2]);
    }
}
