//! Task descriptions: what `taskSpawn` takes (paper Table 1).
//!
//! A Pagoda task is a narrow kernel: a handful of threadblocks, each well
//! under 1024 threads (the paper's narrow tasks use 32-512). Because every
//! warp of a task executes inside one MTB, a task threadblock may use at
//! most the MTB's 31 executor warps (992 threads) and at most the MTB's
//! 32 KB shared-memory slice.
//!
//! A spawn names a kernel and carries the arguments of one launch: a
//! [`TaskDesc`] is a shared, immutable [`Kernel`] (threadblock size,
//! shared memory, sync flag, work) plus the three values that vary per
//! launch — the CPU operation count and the two copy volumes. The kernel
//! checked its own structure when it was built; [`TaskDesc::validate`]
//! checks only what an MTB can hold. Generators build one kernel per
//! distinct input and launch it many times; a descriptor is 24 bytes
//! whatever its kernel holds.

use std::ops::Deref;
use std::rc::Rc;

use gpu_arch::WARP_SIZE;
use gpu_sim::{BlockWork, Kernel};

use crate::smem::SMEM_POOL_BYTES;
use crate::warptable::EXECUTORS_PER_MTB;

/// Maximum threads per task threadblock (31 executor warps).
pub const MAX_THREADS_PER_TASK_TB: u32 = (EXECUTORS_PER_MTB as u32) * WARP_SIZE;

/// Everything `taskSpawn` needs (paper Table 1): the kernel, shared with
/// every other launch of it, and this launch's CPU cost and I/O volume.
/// Reads of the kernel go through [`Deref`]: `desc.num_tbs()`.
#[derive(Debug, Clone)]
pub struct TaskDesc {
    /// The kernel this task launches. Cloning a `TaskDesc` bumps its
    /// (non-atomic) reference count; it does not copy the work lists. So
    /// a `TaskDesc` is `!Send`: tasks are built on the thread that runs
    /// them.
    pub kernel: Rc<Kernel>,
    /// Operation count of the task's *sequential CPU* implementation. The
    /// GPU-side [`Kernel::total_instrs`] charges whole warps for their
    /// slowest lane (SIMT divergence); a CPU executes only the real work,
    /// so the CPU baselines use this count instead.
    pub cpu_ops: u64,
    /// Input bytes copied host→device before the task can run.
    pub input_bytes: u32,
    /// Output bytes copied device→host after the task completes.
    pub output_bytes: u32,
}

impl Deref for TaskDesc {
    type Target = Kernel;

    fn deref(&self) -> &Kernel {
        &self.kernel
    }
}

/// Why a task description is rejected by `submit`: what an MTB cannot
/// hold. (A malformed kernel cannot be built: see [`gpu_sim::KernelError`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskError {
    /// Threadblock larger than the 31 executor warps of an MTB.
    TooManyThreadsPerTb {
        /// Requested threads per threadblock.
        requested: u32,
    },
    /// Zero threads or zero threadblocks.
    EmptyTask,
    /// More shared memory per threadblock than an MTB's 32 KB slice.
    SmemTooLarge {
        /// Requested bytes.
        requested: u32,
    },
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::TooManyThreadsPerTb { requested } => write!(
                f,
                "task threadblock of {requested} threads exceeds the \
                 {MAX_THREADS_PER_TASK_TB}-thread MTB executor capacity"
            ),
            TaskError::EmptyTask => write!(f, "task with zero threads or threadblocks"),
            TaskError::SmemTooLarge { requested } => write!(
                f,
                "task requests {requested} B shared memory per threadblock; \
                 an MTB manages {SMEM_POOL_BYTES} B"
            ),
        }
    }
}

impl std::error::Error for TaskError {}

impl TaskDesc {
    /// A single-threadblock task whose warps all run `work`, with no
    /// shared memory and no I/O — the common microbenchmark shape. Zero
    /// threads give a kernel with no work, which [`TaskDesc::validate`]
    /// rejects as [`TaskError::EmptyTask`].
    ///
    /// # Panics
    /// If `work`'s CPI is not finite and at least 1
    /// ([`gpu_sim::KernelError::BadCpi`]).
    pub fn uniform(threads: u32, work: gpu_sim::WarpWork) -> Self {
        let warps = threads.div_ceil(WARP_SIZE);
        let sync = work.barrier_count() > 0;
        let cpu_ops = work.total_instrs() * u64::from(warps);
        let block = (warps > 0).then(|| BlockWork::uniform(warps, work));
        TaskDesc {
            kernel: Kernel::new(threads, 0, sync, Vec::from_iter(block)).expect(
                "a CPI that is finite and at least 1 (uniform warps match their block and declare \
                 their barriers)",
            ),
            cpu_ops,
            input_bytes: 0,
            output_bytes: 0,
        }
    }

    /// Validates against the MTB capacity rules above, in O(1): the
    /// kernel checked its blocks when it was built.
    pub fn validate(&self) -> Result<(), TaskError> {
        if self.threads_per_tb == 0 || self.num_tbs() == 0 {
            return Err(TaskError::EmptyTask);
        }
        if self.threads_per_tb > MAX_THREADS_PER_TASK_TB {
            return Err(TaskError::TooManyThreadsPerTb {
                requested: self.threads_per_tb,
            });
        }
        if self.smem_per_tb > SMEM_POOL_BYTES {
            return Err(TaskError::SmemTooLarge {
                requested: self.smem_per_tb,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;

    #[test]
    fn uniform_narrow_task_validates() {
        let t = TaskDesc::uniform(128, WarpWork::compute(1000, 2.0));
        t.validate().unwrap();
        assert_eq!(t.warps_per_tb(), 4);
        assert_eq!(t.total_warps(), 4);
        assert!(!t.per_tb_scheduling());
        assert_eq!(t.total_instrs(), 4000);
    }

    #[test]
    fn clone_shares_the_kernel() {
        let t = TaskDesc::uniform(128, WarpWork::compute(1000, 2.0));
        let c = t.clone();
        assert!(Rc::ptr_eq(&t.kernel, &c.kernel));
        // Reads go through the shared kernel.
        c.validate().unwrap();
        assert_eq!(c.total_instrs(), 4000);
    }

    #[test]
    fn zero_threads_is_an_empty_task() {
        let t = TaskDesc::uniform(0, WarpWork::compute(1000, 2.0));
        assert_eq!(t.validate(), Err(TaskError::EmptyTask));
        assert_eq!((t.total_warps(), t.total_instrs(), t.cpu_ops), (0, 0, 0));
    }

    #[test]
    fn sync_detected_from_work() {
        let t = TaskDesc::uniform(64, WarpWork::phased(1000, 2, 1.0));
        assert!(t.sync);
        assert!(t.per_tb_scheduling());
        t.validate().unwrap();
    }

    #[test]
    fn rejects_oversized_tb() {
        let t = TaskDesc::uniform(993, WarpWork::compute(1, 1.0));
        assert_eq!(
            t.validate(),
            Err(TaskError::TooManyThreadsPerTb { requested: 993 })
        );
    }

    #[test]
    fn rejects_oversized_smem() {
        let block = BlockWork::uniform(1, WarpWork::compute(1, 1.0));
        let t = TaskDesc {
            kernel: Kernel::new(32, 33 * 1024, false, [block]).unwrap(),
            ..TaskDesc::uniform(32, WarpWork::compute(1, 1.0))
        };
        assert!(matches!(t.validate(), Err(TaskError::SmemTooLarge { .. })));
    }

    #[test]
    fn max_tb_exactly_992_threads() {
        let t = TaskDesc::uniform(992, WarpWork::compute(1, 1.0));
        t.validate().unwrap();
        assert_eq!(t.warps_per_tb(), 31);
    }

    #[test]
    fn errors_render() {
        let e = TaskError::SmemTooLarge { requested: 40000 };
        assert!(e.to_string().contains("40000"));
    }
}
