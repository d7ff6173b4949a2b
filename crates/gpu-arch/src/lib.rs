//! GPU architecture specifications and occupancy mathematics.
//!
//! Pagoda's whole premise is an *occupancy* argument: a narrow task (< 500
//! threads) resident alone on a Maxwell Titan X occupies a fraction of a
//! percent of the machine, and even HyperQ's 32 concurrent kernels leave it
//! mostly idle (paper §2). This crate captures the hardware limits that
//! produce those numbers — warp size, per-SMM warp/thread/threadblock caps,
//! register file and shared-memory capacities — and the standard CUDA
//! occupancy calculation over them.
//!
//! Two presets are provided, matching the machines the paper validated its
//! TaskTable visibility assumptions on: [`GpuSpec::titan_x`] (the evaluation
//! platform) and [`GpuSpec::tesla_k40`].
//!
//! The resource pools tracked here (warps, registers, shared memory,
//! threadblock slots per SMM) are exactly the quantities the device
//! simulator reports in `pagoda_obs::SmmSample` timelines, so an
//! exported trace can be read against the occupancy calculator's
//! limits.

#![forbid(unsafe_code)]

mod occupancy;
mod spec;

pub use occupancy::{LaunchError, OccupancyBreakdown, TaskShape};
pub use spec::GpuSpec;

/// Threads per warp on every NVIDIA architecture the paper considers.
pub const WARP_SIZE: u32 = 32;
