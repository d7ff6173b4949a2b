//! Discrete-event GPU device simulator.
//!
//! This crate models the machine the Pagoda paper evaluates on — an NVIDIA
//! Maxwell Titan X — at the granularity its arguments are made at: warps,
//! threadblocks, SMM resource pools, and the kernel-launch front end. See
//! the module docs of [`device`] and [`exec`] for the execution model, and
//! `DESIGN.md` at the repository root for why a simulator stands in for the
//! real hardware. Every caller steps the device through
//! [`GpuDevice::step_bounded_into`].
//!
//! # Quick tour
//!
//! ```
//! use desim::SimTime;
//! use gpu_sim::{BlockWork, DeviceConfig, GpuDevice, Kernel, Notify, WarpWork};
//!
//! let mut dev = GpuDevice::new(DeviceConfig::titan_x());
//! // One narrow task: 128 threads (4 warps), 1 threadblock, no shared
//! // memory, no barriers.
//! let block = BlockWork::uniform(4, WarpWork::compute(100_000, 4.0));
//! let k = Kernel::new(128, 0, false, [block]).unwrap();
//! dev.launch_kernel(k, /*tag=*/ 7).unwrap();
//! // One batch buffer for the whole run; `SimTime::MAX` sets no bound.
//! let (mut batch, mut completed) = (Vec::new(), None);
//! while let Some(t) = dev.step_bounded_into(SimTime::MAX, &mut batch) {
//!     for n in &batch {
//!         if let Notify::KernelDone { tag } = *n {
//!             completed = Some((tag, t));
//!         }
//!     }
//! }
//! let (tag, _t) = completed.unwrap();
//! assert_eq!(tag, 7);
//! ```

#![forbid(unsafe_code)]

pub mod device;
pub mod exec;
pub mod work;

pub use device::{DeviceConfig, GpuDevice, Notify, PersistentTb};
pub use exec::{ExecStats, GroupId, WarpHandle};
pub use work::{BlockWork, Kernel, KernelError, Segment, WarpWork};
