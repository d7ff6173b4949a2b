//! **pagoda-core** — the Pagoda runtime (Yeh et al., PPoPP 2017) on a
//! simulated GPU substrate.
//!
//! Pagoda virtualizes GPU compute resources at *warp* granularity so that
//! thousands of narrow tasks (< 500 threads each) can keep a GPU busy. A
//! persistent **MasterKernel** occupies 100 % of the device; the first warp
//! of each of its 48 threadblocks (MTBs) acts as a *scheduler warp* that
//! places task work onto the other 31 *executor warps*. The host spawns
//! tasks continuously into a CPU/GPU-mirrored **TaskTable** whose state
//! machine needs no PCIe atomics and whose copy-backs are lazy and
//! aggregated.
//!
//! Module map (paper section in parentheses):
//!
//! * [`table`] — the TaskTable protocol state machine (§4.2)
//! * [`runtime`] — host API + spawning pipeline + MTB scheduler warps
//!   (§3, §4.2.1-4.2.2, Algorithms 1-2)
//! * `mtb` — per-MTB state (§4.1, §4.3)
//! * [`warptable`] — the WarpTable (Table 2)
//! * [`smem`] — buddy shared-memory allocator with deferred frees (§5.1)
//! * [`barrier`] — named-barrier ID recycling (§5.2)
//! * [`task`] — `taskSpawn` descriptors (Table 1): a shared
//!   [`gpu_sim::Kernel`] plus one launch's CPU cost and copy volumes
//! * [`config`] — calibration constants and
//!   [`PagodaConfig::validate`]
//! * [`errors`] — the typed [`PagodaError`]/[`SubmitError`] hierarchy
//!
//! # Example
//!
//! The host API is the paper's Table 1 as the [`Backend`] trait, which a
//! multi-device fleet implements too; `wait_all` and `report` are the
//! runtime's own.
//!
//! ```
//! use pagoda_core::{Backend, PagodaRuntime, TaskDesc};
//! use gpu_sim::WarpWork;
//!
//! let mut rt = PagodaRuntime::titan_x();
//! // Spawn 100 narrow tasks of 128 threads each (tenant 0).
//! let keys: Vec<u64> = (0..100)
//!     .map(|_| {
//!         rt.submit(0, TaskDesc::uniform(128, WarpWork::compute(50_000, 4.0)))
//!             .unwrap()
//!     })
//!     .collect();
//! rt.wait_all();
//! let report = rt.report();
//! assert_eq!(report.tasks, 100);
//! assert!(rt.trace(keys[0]).unwrap().latency().is_some());
//! ```
//!
//! A task launches a kernel. Build the [`gpu_sim::Kernel`] once — its
//! constructor checks its structure — and spawn it as often as needed;
//! each launch carries only what varies per task:
//!
//! ```
//! use std::rc::Rc;
//!
//! use gpu_sim::{BlockWork, Kernel, WarpWork};
//! use pagoda_core::{Backend, PagodaRuntime, TaskDesc};
//!
//! // Two 64-thread blocks with 4 KB of shared memory each, no barriers.
//! let block = BlockWork::uniform(2, WarpWork::compute(10_000, 2.0));
//! let kernel = Kernel::new(64, 4 * 1024, false, vec![block; 2]).unwrap();
//! let mut rt = PagodaRuntime::titan_x();
//! for i in 1..=8 {
//!     rt.spawn_blocking(0, TaskDesc {
//!         kernel: Rc::clone(&kernel),
//!         cpu_ops: 4 * 10_000,
//!         input_bytes: 1024 * i,
//!         output_bytes: 0,
//!     })
//!     .unwrap();
//! }
//! rt.wait_all();
//! assert_eq!(rt.report().tasks, 8);
//! ```
//!
//! To observe a run, attach a recorder from `pagoda_obs`:
//!
//! ```
//! use gpu_sim::WarpWork;
//! use pagoda_core::{Backend, PagodaRuntime, TaskDesc};
//! use pagoda_obs::{Counter, Obs};
//!
//! let mut rt = PagodaRuntime::titan_x();
//! let (obs, rec) = Obs::recording();
//! rt.attach_obs(obs);
//! let t = rt.submit(0, TaskDesc::uniform(64, WarpWork::compute(10_000, 2.0))).unwrap();
//! rt.wait(t).unwrap();
//! assert_eq!(rec.snapshot().counter(Counter::TasksSpawned), 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod backend;
pub mod barrier;
pub mod config;
pub mod errors;
mod mtb;
pub mod runtime;
pub mod smem;
pub mod table;
pub mod task;
pub mod trace;
pub mod warptable;

pub use backend::Backend;
pub use config::{ConfigError, PagodaConfig};
pub use errors::{Capacity, PagodaError, SubmitError};
pub use runtime::{PagodaRuntime, RunSummary};
pub use table::{EntryIndex, EntryState, Ready, TaskId};
pub use task::{TaskDesc, TaskError, MAX_THREADS_PER_TASK_TB};
pub use trace::TaskTrace;
