//! Descriptions of the work a warp, threadblock, or kernel performs.
//!
//! The simulator does not interpret instructions; it accounts for them. A
//! warp's work is a sequence of [`Segment`]s: compute phases measured in
//! *thread-instructions* (one lane-operation each; a full warp instruction
//! is 32 of them) separated by threadblock-level barriers. Per-workload
//! memory intensity is folded into a cycles-per-warp-instruction figure
//! ([`WarpWork::cpi`]): a streaming kernel that stalls on DRAM has a high
//! CPI, a register-resident kernel sits near 1.

use std::sync::Arc;

use gpu_arch::{TaskShape, WARP_SIZE};

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

/// Registers per thread of every native launch: the paper compiles every
/// kernel with `-maxrregcount 32`.
pub const NATIVE_REGS_PER_THREAD: u32 = 32;

/// Why [`Kernel::new`] rejects a kernel's structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// A block's warp count disagrees with `threads_per_tb`.
    ShapeMismatch,
    /// Blocks contain barriers but `sync` is false — on real hardware the
    /// kernel would synchronize on a barrier ID it never allocated.
    UndeclaredSync,
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::ShapeMismatch => {
                write!(f, "block work disagrees with the declared threadblock size")
            }
            KernelError::UndeclaredSync => {
                write!(f, "kernel uses barriers but did not set the sync flag")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// A kernel: threadblock size, shared memory, the sync flag and the work
/// of each threadblock — what a Pagoda spawn names and what a native
/// launch runs.
///
/// [`Kernel::new`] checks its structure once; each consumer checks only
/// its own capacity (an MTB's executor warps and shared-memory slice, an
/// SMM's limits). A kernel is immutable and shared behind an [`Arc`]:
/// every launch of it holds the same work lists.
#[derive(Debug, PartialEq)]
#[non_exhaustive]
pub struct Kernel {
    /// Threads per threadblock.
    pub threads_per_tb: u32,
    /// Dynamic shared memory per threadblock, bytes.
    pub smem_per_tb: u32,
    /// Whether the kernel synchronizes its threadblocks (`syncBlock()`).
    pub sync: bool,
    /// The work, one [`BlockWork`] per threadblock.
    pub blocks: Box<[BlockWork]>,
}

impl Kernel {
    /// Builds a kernel of `blocks`, each `threads_per_tb` threads wide.
    /// A kernel of zero threads or zero blocks is structurally valid; its
    /// consumers reject it.
    ///
    /// # Errors
    /// [`KernelError::ShapeMismatch`] if a block does not have
    /// [`Kernel::warps_per_tb`] warps, [`KernelError::UndeclaredSync`] if
    /// a block has barriers and `sync` is false.
    pub fn new(
        threads_per_tb: u32,
        smem_per_tb: u32,
        sync: bool,
        blocks: impl Into<Box<[BlockWork]>>,
    ) -> Result<Arc<Kernel>, KernelError> {
        let kernel = Kernel {
            threads_per_tb,
            smem_per_tb,
            sync,
            blocks: blocks.into(),
        };
        for b in kernel.blocks.iter() {
            if b.num_warps() != kernel.warps_per_tb() {
                return Err(KernelError::ShapeMismatch);
            }
            if !sync && b.barriers() > 0 {
                return Err(KernelError::UndeclaredSync);
            }
        }
        Ok(Arc::new(kernel))
    }

    /// Threadblocks in the kernel.
    pub fn num_tbs(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// Warps per threadblock (partial warps round up).
    pub fn warps_per_tb(&self) -> u32 {
        self.threads_per_tb.div_ceil(WARP_SIZE)
    }

    /// Total warps across the kernel.
    pub fn total_warps(&self) -> u32 {
        self.warps_per_tb() * self.num_tbs()
    }

    /// Whether a Pagoda scheduler must place the kernel threadblock by
    /// threadblock (paper Algorithm 1, line 17): any kernel that needs
    /// shared memory or synchronization.
    pub fn per_tb_scheduling(&self) -> bool {
        self.smem_per_tb > 0 || self.sync
    }

    /// Total thread-instructions in the kernel.
    pub fn total_instrs(&self) -> u64 {
        self.blocks.iter().map(BlockWork::total_instrs).sum()
    }

    /// The kernel's shape as a native launch sees it, at
    /// [`NATIVE_REGS_PER_THREAD`] registers per thread.
    pub fn native_shape(&self) -> TaskShape {
        TaskShape {
            threads_per_tb: self.threads_per_tb,
            num_tbs: self.num_tbs(),
            regs_per_thread: NATIVE_REGS_PER_THREAD,
            smem_per_tb: self.smem_per_tb,
        }
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
    fn a_kernel_counts_its_blocks_and_warps() {
        let block = BlockWork::uniform(2, WarpWork::compute(100, 1.0));
        let k = Kernel::new(64, 0, false, vec![block; 2]).unwrap();
        assert_eq!((k.num_tbs(), k.warps_per_tb(), k.total_warps()), (2, 2, 4));
        assert_eq!(k.total_instrs(), 400);
        assert!(!k.per_tb_scheduling());
        let shape = k.native_shape();
        assert_eq!((shape.num_tbs, shape.regs_per_thread), (2, 32));
    }

    #[test]
    fn an_empty_kernel_is_structurally_valid() {
        let none = Vec::<BlockWork>::new;
        let k = Kernel::new(0, 0, false, none()).unwrap();
        assert_eq!((k.num_tbs(), k.total_warps(), k.total_instrs()), (0, 0, 0));
        assert_eq!(Kernel::new(64, 0, false, none()).unwrap().num_tbs(), 0);
    }

    #[test]
    fn a_block_of_the_wrong_width_is_a_shape_mismatch() {
        let block = BlockWork::uniform(2, WarpWork::compute(1, 1.0));
        assert_eq!(
            Kernel::new(96, 0, false, [block]),
            Err(KernelError::ShapeMismatch)
        );
    }

    #[test]
    fn barriers_without_sync_are_undeclared() {
        let block = BlockWork::uniform(2, WarpWork::phased(1000, 2, 1.0));
        assert_eq!(
            Kernel::new(64, 0, false, [block.clone()]),
            Err(KernelError::UndeclaredSync)
        );
        assert!(Kernel::new(64, 0, true, [block])
            .unwrap()
            .per_tb_scheduling());
        assert!(KernelError::UndeclaredSync
            .to_string()
            .contains("sync flag"));
    }
}
