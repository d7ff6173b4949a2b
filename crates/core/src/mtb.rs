//! Per-MTB (MasterKernel ThreadBlock) state.
//!
//! Each of the 48 MTBs owns: one scheduler warp and 31 executor warps on a
//! fixed SMM, a [`WarpTable`](crate::warptable::WarpTable) tracking the
//! executors, a 32 KB [`BuddyAllocator`](crate::smem::BuddyAllocator) slice
//! of shared memory, a pool of 16 named barrier IDs, and one column of the
//! TaskTable.
//!
//! The scheduler warp is modelled as a sequential actor: it performs one
//! *action* at a time (chain update, entry pickup, barrier/shared-memory
//! allocation, a `pSched` placement burst), each charged as real compute on
//! the scheduler warp in the device simulator — so scheduling overhead
//! contends for SMM issue slots exactly as the paper's measurements
//! include.

use gpu_sim::WarpHandle;

use crate::barrier::{BarrierId, BarrierPool};
use crate::smem::{BuddyAllocator, NodeId};
use crate::table::{EntryIndex, TaskId};
use crate::warptable::WarpTable;

/// What the scheduler warp is currently spending cycles on; applied when
/// the charged compute completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Algorithm 1 lines 5-13: settle `cur` (Ref → Copied) and mark its
    /// predecessor schedulable.
    ChainUpdate {
        /// The entry whose `ready` field holds a task reference.
        cur: EntryIndex,
    },
    /// Algorithm 1 lines 14-16: clear the sched flag and open a placement
    /// job for the entry's task.
    StartEntry {
        /// The entry with a set sched flag.
        entry: EntryIndex,
    },
    /// One step of the open placement job (barrier alloc, smem alloc, or a
    /// `pSched` placement burst), per Algorithm 1 lines 17-28.
    JobStep,
}

/// Progress of scheduling one task onto this MTB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobPhase {
    /// Waiting to allocate a named barrier ID for the current threadblock.
    NeedBarrier,
    /// Waiting to allocate shared memory for the current threadblock.
    NeedSmem,
    /// Placing warps onto free executors (`pSched`).
    Placing,
}

/// A task being scheduled: the paper's in-flight `pSched`/allocation state.
/// At most one job per MTB exists — Algorithm 1 processes entries strictly
/// in sequence.
#[derive(Debug)]
pub(crate) struct PlacementJob {
    /// The TaskTable entry being scheduled.
    pub entry: EntryIndex,
    /// Its task.
    pub task: TaskId,
    /// Threadblock-by-threadblock scheduling (smem or sync tasks).
    pub per_tb: bool,
    /// Current threadblock (per-TB mode).
    pub next_tb: u32,
    /// Current phase.
    pub phase: JobPhase,
    /// Barrier ID allocated for the current threadblock.
    pub cur_bar: Option<BarrierId>,
    /// Shared-memory block allocated for the current threadblock.
    pub cur_smem: Option<NodeId>,
    /// Warps placed in the current placement unit (one TB in per-TB mode,
    /// the whole task otherwise).
    pub placed_in_unit: u32,
}

/// All state of one MTB.
#[derive(Debug)]
pub(crate) struct MtbState {
    /// The scheduler warp (warp 0 of the MTB).
    pub sched_warp: WarpHandle,
    /// Executor warps (warps 1-31).
    pub exec_warps: Vec<WarpHandle>,
    /// Executor bookkeeping (paper Table 2).
    pub warp_table: WarpTable,
    /// The MTB's 32 KB shared-memory slice.
    pub buddy: BuddyAllocator,
    /// Named-barrier IDs.
    pub barriers: BarrierPool,
    /// The in-flight action, applied when its cycles complete; `Some`
    /// exactly while the scheduler warp is busy.
    pub action: Option<Action>,
    /// The open placement job, if any.
    pub job: Option<PlacementJob>,
    /// Executor slots reserved for the job's current sync threadblock; its
    /// warps are dispatched together once the block is complete so the
    /// barrier group is fully formed. Empty between threadblocks.
    pub reserved: Vec<usize>,
    /// Scratch: the warp handles of `reserved`, for the group's creation.
    pub handles: Vec<WarpHandle>,
}

impl MtbState {
    pub(crate) fn new(sched_warp: WarpHandle, exec_warps: Vec<WarpHandle>, smem_pool: u32) -> Self {
        MtbState {
            sched_warp,
            exec_warps,
            warp_table: WarpTable::new(),
            buddy: BuddyAllocator::with_pool(smem_pool),
            barriers: BarrierPool::new(),
            action: None,
            job: None,
            reserved: Vec::new(),
            handles: Vec::new(),
        }
    }
}
