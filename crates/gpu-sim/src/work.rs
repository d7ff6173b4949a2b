//! Descriptions of the work a warp, threadblock, or kernel performs.
//!
//! The simulator does not interpret instructions; it accounts for them. A
//! warp's work is a sequence of [`Segment`]s: compute phases measured in
//! *thread-instructions* (one lane-operation each; a full warp instruction
//! is 32 of them) separated by threadblock-level barriers. Per-workload
//! memory intensity is folded into a cycles-per-warp-instruction figure
//! ([`WarpWork::cpi`]): a streaming kernel that stalls on DRAM has a high
//! CPI, a register-resident kernel sits near 1.

use gpu_arch::TaskShape;

/// One phase of a warp's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Execute this many thread-instructions.
    Compute(u64),
    /// Arrive at the threadblock barrier and wait for the group
    /// (`__syncthreads()` / Pagoda `syncBlock()`).
    Barrier,
}

/// The work one warp performs, with its effective CPI.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpWork {
    /// Phases in execution order.
    pub segments: Vec<Segment>,
    /// Average cycles per warp-instruction for this warp (≥ 1.0); encodes
    /// memory stalls and divergence.
    pub cpi: f64,
}

impl WarpWork {
    /// A single compute phase of `instrs` thread-instructions.
    pub fn compute(instrs: u64, cpi: f64) -> Self {
        assert!(cpi >= 1.0, "CPI below 1 is super-scalar fiction: {cpi}");
        WarpWork {
            segments: vec![Segment::Compute(instrs)],
            cpi,
        }
    }

    /// Work split into `phases` equal compute phases with a barrier between
    /// consecutive phases (the FilterBank / DCT pattern).
    pub fn phased(total_instrs: u64, phases: usize, cpi: f64) -> Self {
        assert!(phases > 0, "at least one phase");
        assert!(cpi >= 1.0, "CPI below 1: {cpi}");
        let per = total_instrs / phases as u64;
        let mut rem = total_instrs - per * phases as u64;
        let mut segments = Vec::with_capacity(phases * 2 - 1);
        for i in 0..phases {
            let extra = u64::from(rem > 0);
            rem = rem.saturating_sub(1);
            if i > 0 {
                segments.push(Segment::Barrier);
            }
            segments.push(Segment::Compute(per + extra));
        }
        WarpWork { segments, cpi }
    }

    /// Total thread-instructions across all compute segments.
    pub fn total_instrs(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Compute(n) => *n,
                Segment::Barrier => 0,
            })
            .sum()
    }

    /// Number of barrier arrivals in this work.
    pub fn barrier_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Barrier))
            .count()
    }
}

/// The work of one threadblock: one [`WarpWork`] per warp.
///
/// All warps of a block synchronize at the same barriers, so their
/// [`WarpWork::barrier_count`]s must agree; [`BlockWork::new`] enforces it
/// and keeps the count ([`BlockWork::barriers`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWork {
    warps: Vec<WarpWork>,
    barriers: usize,
}

impl BlockWork {
    /// Builds a block from per-warp work.
    ///
    /// # Panics
    /// Panics if `warps` is empty or barrier counts differ between warps
    /// (such a block would deadlock on real hardware).
    pub fn new(warps: Vec<WarpWork>) -> Self {
        assert!(!warps.is_empty(), "block with zero warps");
        let barriers = warps[0].barrier_count();
        for (i, w) in warps.iter().enumerate() {
            assert_eq!(
                w.barrier_count(),
                barriers,
                "warp {i} has {} barriers, warp 0 has {barriers}: block would deadlock",
                w.barrier_count()
            );
        }
        BlockWork { warps, barriers }
    }

    /// A block of `num_warps` identical warps.
    pub fn uniform(num_warps: u32, work: WarpWork) -> Self {
        assert!(num_warps > 0, "block with zero warps");
        BlockWork {
            barriers: work.barrier_count(),
            warps: vec![work; num_warps as usize],
        }
    }

    /// Per-warp work, in warp order.
    pub fn warps(&self) -> &[WarpWork] {
        &self.warps
    }

    /// Barriers every warp of the block arrives at.
    pub fn barriers(&self) -> usize {
        self.barriers
    }

    /// Warp count.
    pub fn num_warps(&self) -> u32 {
        self.warps.len() as u32
    }

    /// Total thread-instructions in the block.
    pub fn total_instrs(&self) -> u64 {
        self.warps.iter().map(WarpWork::total_instrs).sum()
    }
}

/// A full kernel: launch shape plus the work of each threadblock.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Resource shape (threads/block, registers, shared memory, grid size).
    pub shape: TaskShape,
    /// Work per threadblock; `blocks.len()` must equal `shape.num_tbs`.
    pub blocks: Vec<BlockWork>,
    /// Caller correlation tag, echoed in completion notifications.
    pub tag: u64,
}

impl KernelDesc {
    /// Builds and validates a kernel description.
    ///
    /// # Panics
    /// Panics if the block list length disagrees with the shape, or any
    /// block's warp count disagrees with the shape's threads-per-block.
    pub fn new(shape: TaskShape, blocks: Vec<BlockWork>, tag: u64) -> Self {
        assert_eq!(
            blocks.len(),
            shape.num_tbs as usize,
            "shape declares {} TBs but {} BlockWork given",
            shape.num_tbs,
            blocks.len()
        );
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(
                b.num_warps(),
                shape.warps_per_tb(),
                "block {i}: {} warps but shape implies {}",
                b.num_warps(),
                shape.warps_per_tb()
            );
        }
        KernelDesc { shape, blocks, tag }
    }

    /// A kernel whose blocks all run the same per-warp work.
    pub fn uniform(shape: TaskShape, work: WarpWork, tag: u64) -> Self {
        let block = BlockWork::uniform(shape.warps_per_tb(), work);
        KernelDesc::new(shape, vec![block; shape.num_tbs as usize], tag)
    }

    /// Total thread-instructions in the kernel.
    pub fn total_instrs(&self) -> u64 {
        self.blocks.iter().map(BlockWork::total_instrs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_builder() {
        let w = WarpWork::compute(1000, 2.0);
        assert_eq!(w.total_instrs(), 1000);
        assert_eq!(w.barrier_count(), 0);
    }

    #[test]
    fn phased_builder_splits_work_and_inserts_barriers() {
        let w = WarpWork::phased(10, 3, 1.5);
        assert_eq!(w.total_instrs(), 10);
        assert_eq!(w.barrier_count(), 2);
        // 10 over 3 phases: 4, 3, 3.
        assert_eq!(
            w.segments,
            vec![
                Segment::Compute(4),
                Segment::Barrier,
                Segment::Compute(3),
                Segment::Barrier,
                Segment::Compute(3),
            ]
        );
    }

    #[test]
    fn blocks_keep_their_barrier_count() {
        let phased = WarpWork::phased(10, 3, 1.5);
        assert_eq!(BlockWork::uniform(2, phased.clone()).barriers(), 2);
        assert_eq!(BlockWork::new(vec![phased.clone(), phased]).barriers(), 2);
        assert_eq!(
            BlockWork::uniform(1, WarpWork::compute(5, 1.0)).barriers(),
            0
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mismatched_barrier_counts_rejected() {
        BlockWork::new(vec![
            WarpWork::compute(10, 1.0),
            WarpWork::phased(10, 2, 1.0),
        ]);
    }

    #[test]
    #[should_panic(expected = "CPI below 1")]
    fn cpi_below_one_rejected() {
        WarpWork::compute(10, 0.5);
    }

    #[test]
    fn kernel_desc_validates_block_count() {
        let shape = TaskShape {
            threads_per_tb: 64,
            num_tbs: 2,
            regs_per_thread: 32,
            smem_per_tb: 0,
        };
        let k = KernelDesc::uniform(shape, WarpWork::compute(100, 1.0), 7);
        assert_eq!(k.blocks.len(), 2);
        assert_eq!(k.blocks[0].num_warps(), 2);
        assert_eq!(k.total_instrs(), 400);
    }

    #[test]
    #[should_panic(expected = "shape declares")]
    fn kernel_desc_rejects_wrong_block_count() {
        let shape = TaskShape::narrow(64);
        KernelDesc::new(shape, vec![], 0);
    }
}
