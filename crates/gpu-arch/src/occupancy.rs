//! CUDA occupancy calculation: how many threadblocks of a given shape fit on
//! one SMM, and which resource is the limiter.

use serde::{Deserialize, Serialize};

use crate::{GpuSpec, WARP_SIZE};

/// The launch shape and per-thread resource appetite of one kernel/task.
///
/// This mirrors the arguments of Pagoda's `taskSpawn` (paper Table 1):
/// threads per threadblock, threadblock count, shared memory per
/// threadblock — plus the register count that in CUDA comes from the
/// compiler (the paper caps it at 32 via `-maxrregcount`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskShape {
    /// Threads per threadblock (1 ..= `max_threads_per_tb`).
    pub threads_per_tb: u32,
    /// Number of threadblocks in the task/kernel.
    pub num_tbs: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Dynamic shared memory per threadblock, bytes.
    pub smem_per_tb: u32,
}

impl TaskShape {
    /// A shape with `threads` threads in a single threadblock, no shared
    /// memory, and the paper's capped register count of 32.
    pub fn narrow(threads: u32) -> Self {
        TaskShape {
            threads_per_tb: threads,
            num_tbs: 1,
            regs_per_thread: 32,
            smem_per_tb: 0,
        }
    }

    /// Warps per threadblock, rounding a partial warp up (hardware always
    /// schedules whole warps).
    pub fn warps_per_tb(&self) -> u32 {
        self.threads_per_tb.div_ceil(WARP_SIZE)
    }

    /// Total warps across all threadblocks.
    pub fn total_warps(&self) -> u32 {
        self.warps_per_tb() * self.num_tbs
    }
}

/// Why a launch shape is impossible on a given device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchError {
    /// `threads_per_tb` is zero or exceeds the device limit.
    BadBlockSize { threads_per_tb: u32, max: u32 },
    /// `num_tbs` is zero.
    EmptyGrid,
    /// One threadblock wants more shared memory than an SMM has.
    SmemPerBlockTooLarge { requested: u32, max: u32 },
    /// One threadblock wants more registers than an SMM has.
    RegsPerBlockTooLarge { requested: u32, max: u32 },
    /// Every threadblock is launchable, but the whole grid cannot be
    /// resident at once (a persistent kernel must own its resources for
    /// its lifetime): only `placed` of `num_tbs` fit the free SMM
    /// resources — warp slots, threads, TB slots, registers or shared
    /// memory, whichever ran out first.
    GridNotResident { num_tbs: u32, placed: u32 },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::BadBlockSize {
                threads_per_tb,
                max,
            } => {
                write!(f, "threadblock size {threads_per_tb} outside 1..={max}")
            }
            LaunchError::EmptyGrid => write!(f, "kernel launched with zero threadblocks"),
            LaunchError::SmemPerBlockTooLarge { requested, max } => {
                write!(
                    f,
                    "shared memory {requested} B/block exceeds SMM capacity {max} B"
                )
            }
            LaunchError::RegsPerBlockTooLarge { requested, max } => {
                write!(
                    f,
                    "register footprint {requested}/block exceeds SMM file {max}"
                )
            }
            LaunchError::GridNotResident { num_tbs, placed } => {
                write!(
                    f,
                    "persistent grid of {num_tbs} threadblocks does not fit resident: \
                     {placed} placed before the device filled"
                )
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// Resource that caps residency, reported by [`OccupancyBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Limiter {
    /// Warp-slot limit (`max_warps_per_sm`).
    Warps,
    /// Thread limit (`max_threads_per_sm`).
    Threads,
    /// Threadblock-slot limit (`max_tbs_per_sm`).
    Blocks,
    /// Register file.
    Registers,
    /// Shared memory.
    SharedMemory,
}

/// Result of the occupancy calculation for one shape on one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancyBreakdown {
    /// Maximum co-resident threadblocks of this shape per SMM.
    pub tbs_per_sm: u32,
    /// Resident warps per SMM at that residency.
    pub warps_per_sm: u32,
    /// Fraction of the SMM's warp slots used, in [0, 1].
    pub occupancy: f64,
    /// The binding constraint.
    pub limiter: Limiter,
}

impl GpuSpec {
    /// Registers one threadblock of `shape` occupies, honouring the per-warp
    /// allocation granularity.
    pub fn regs_per_tb(&self, shape: &TaskShape) -> u32 {
        let per_warp = shape.regs_per_thread * WARP_SIZE;
        let per_warp = per_warp.div_ceil(self.reg_alloc_granularity * WARP_SIZE)
            * self.reg_alloc_granularity
            * WARP_SIZE;
        per_warp * shape.warps_per_tb()
    }

    /// Shared memory one threadblock of `shape` occupies after rounding to
    /// the allocation granularity.
    pub fn smem_per_tb(&self, shape: &TaskShape) -> u32 {
        shape.smem_per_tb.div_ceil(self.smem_alloc_granularity) * self.smem_alloc_granularity
    }

    /// Validates a launch shape against hard device limits.
    pub fn validate(&self, shape: &TaskShape) -> Result<(), LaunchError> {
        if shape.threads_per_tb == 0 || shape.threads_per_tb > self.max_threads_per_tb {
            return Err(LaunchError::BadBlockSize {
                threads_per_tb: shape.threads_per_tb,
                max: self.max_threads_per_tb,
            });
        }
        if shape.num_tbs == 0 {
            return Err(LaunchError::EmptyGrid);
        }
        let smem = self.smem_per_tb(shape);
        if smem > self.smem_per_sm {
            return Err(LaunchError::SmemPerBlockTooLarge {
                requested: smem,
                max: self.smem_per_sm,
            });
        }
        let regs = self.regs_per_tb(shape);
        if regs > self.regs_per_sm {
            return Err(LaunchError::RegsPerBlockTooLarge {
                requested: regs,
                max: self.regs_per_sm,
            });
        }
        Ok(())
    }

    /// Standard CUDA occupancy calculation: how many threadblocks of this
    /// shape can be co-resident on one SMM, and what limits them.
    pub fn occupancy_of(&self, shape: &TaskShape) -> Result<OccupancyBreakdown, LaunchError> {
        self.validate(shape)?;
        let warps = shape.warps_per_tb();

        let by_warps = self.max_warps_per_sm / warps;
        let by_threads = self.max_threads_per_sm / shape.threads_per_tb;
        let by_blocks = self.max_tbs_per_sm;
        let regs = self.regs_per_tb(shape);
        let by_regs = self.regs_per_sm.checked_div(regs).unwrap_or(u32::MAX);
        let smem = self.smem_per_tb(shape);
        let by_smem = self.smem_per_sm.checked_div(smem).unwrap_or(u32::MAX);

        let (tbs, limiter) = [
            (by_warps, Limiter::Warps),
            (by_threads, Limiter::Threads),
            (by_blocks, Limiter::Blocks),
            (by_regs, Limiter::Registers),
            (by_smem, Limiter::SharedMemory),
        ]
        .into_iter()
        .min_by_key(|(n, _)| *n)
        .expect("non-empty constraint list");

        let warps_per_sm = tbs * warps;
        Ok(OccupancyBreakdown {
            tbs_per_sm: tbs,
            warps_per_sm,
            occupancy: f64::from(warps_per_sm) / f64::from(self.max_warps_per_sm),
            limiter,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn titan() -> GpuSpec {
        GpuSpec::titan_x()
    }

    #[test]
    fn masterkernel_shape_achieves_full_occupancy() {
        // Paper §4.1: two 32-warp MTBs per SMM, 32 registers/thread, 32 KB
        // static shared memory each -> 100 % occupancy.
        let shape = TaskShape {
            threads_per_tb: 1024,
            num_tbs: 48,
            regs_per_thread: 32,
            smem_per_tb: 32 * 1024,
        };
        let o = titan().occupancy_of(&shape).unwrap();
        assert_eq!(o.tbs_per_sm, 2);
        assert_eq!(o.warps_per_sm, 64);
        assert_eq!(o.occupancy, 1.0);
    }

    #[test]
    fn register_limited_kernel() {
        // 64 regs/thread, 1024-thread blocks: 64*32*32 = 65536 regs per
        // block warp-group -> only 1 block fits in the 64K file.
        let shape = TaskShape {
            threads_per_tb: 1024,
            num_tbs: 1,
            regs_per_thread: 64,
            smem_per_tb: 0,
        };
        let o = titan().occupancy_of(&shape).unwrap();
        assert_eq!(o.limiter, Limiter::Registers);
        assert_eq!(o.tbs_per_sm, 1);
    }

    #[test]
    fn smem_limited_kernel() {
        let shape = TaskShape {
            threads_per_tb: 64,
            num_tbs: 1,
            regs_per_thread: 16,
            smem_per_tb: 48 * 1024,
        };
        let o = titan().occupancy_of(&shape).unwrap();
        assert_eq!(o.limiter, Limiter::SharedMemory);
        assert_eq!(o.tbs_per_sm, 2);
    }

    #[test]
    fn block_slot_limited_narrow_tasks() {
        // 32-thread tasks, tiny: capped by the 32 TB slots per SMM, so at
        // most 32 warps resident -> 50 % occupancy. This is GeMTC's
        // structural problem (1 task = 1 TB).
        let shape = TaskShape::narrow(32);
        let o = titan().occupancy_of(&shape).unwrap();
        assert_eq!(o.limiter, Limiter::Blocks);
        assert_eq!(o.tbs_per_sm, 32);
        assert_eq!(o.warps_per_sm, 32);
        assert!((o.occupancy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_warp_rounds_up() {
        let shape = TaskShape::narrow(33);
        assert_eq!(shape.warps_per_tb(), 2);
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let g = titan();
        assert!(matches!(
            g.validate(&TaskShape::narrow(0)),
            Err(LaunchError::BadBlockSize { .. })
        ));
        assert!(matches!(
            g.validate(&TaskShape::narrow(2048)),
            Err(LaunchError::BadBlockSize { .. })
        ));
        let mut s = TaskShape::narrow(32);
        s.num_tbs = 0;
        assert!(matches!(g.validate(&s), Err(LaunchError::EmptyGrid)));
        let mut s = TaskShape::narrow(32);
        s.smem_per_tb = 97 * 1024;
        assert!(matches!(
            g.validate(&s),
            Err(LaunchError::SmemPerBlockTooLarge { .. })
        ));
        let mut s = TaskShape::narrow(1024);
        s.regs_per_thread = 255;
        assert!(matches!(
            g.validate(&s),
            Err(LaunchError::RegsPerBlockTooLarge { .. })
        ));
    }

    #[test]
    fn smem_rounds_to_granularity() {
        let g = titan();
        let mut s = TaskShape::narrow(32);
        s.smem_per_tb = 1;
        assert_eq!(g.smem_per_tb(&s), 256);
        s.smem_per_tb = 257;
        assert_eq!(g.smem_per_tb(&s), 512);
    }

    #[test]
    fn error_messages_render() {
        let e = LaunchError::BadBlockSize {
            threads_per_tb: 0,
            max: 1024,
        };
        assert!(e.to_string().contains("threadblock size 0"));
    }
}
