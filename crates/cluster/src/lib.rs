//! **pagoda-cluster** — multi-GPU fleet virtualization for the Pagoda
//! runtime.
//!
//! The paper virtualizes *one* GPU: a MasterKernel turns the device into
//! a warp-granularity task pool behind a 48×32 TaskTable. A deployment
//! that outgrows one device faces the next layer of the same problem —
//! narrow tasks now have to be *routed* across several pools, each with
//! its own PCIe link, spawn pipeline, and admission capacity, and the
//! fleet has to keep serving when a device dies or degrades. This crate
//! supplies that layer for the simulated runtime:
//!
//! * [`placement`] — routing policies over per-device load views:
//!   round-robin, least-outstanding, power-of-two-choices sampling, and
//!   tenant affinity. Every policy accounts placements against a
//!   tenant's *home* device set; landing elsewhere pays a modeled
//!   inter-device staging transfer of the tenant's state over a PCIe
//!   class link (charged once per off-home placement — see
//!   [`FleetReport::staging_transfers`]).
//! * [`fleet`] — [`ClusterHandle`], N independent [`PagodaRuntime`]
//!   instances stepped by one serial driver under one fleet clock
//!   ([`desim::ClockMap`] absorbs per-device slowdowns). Devices never
//!   interact while they advance; a deterministic
//!   `(instant, device, key)` merge at every sync point applies their
//!   completions in fleet-time order. Its task API is the one a single
//!   runtime exposes, [`pagoda_core::Backend`] (`submit`, `wait`,
//!   `capacity`, …), with fleet-unique `u64` task keys.
//! * [`config`] — fleet topology ([`ClusterConfig::uniform`]), fault
//!   schedule ([`FaultSpec`]: kill or slow a device at a simulated
//!   instant) and the [`RetryPolicy`] deciding whether in-flight tasks
//!   stranded by a kill are failed or resubmitted elsewhere.
//!
//! The fleet integrates upward with `pagoda-serve`
//! (`pagoda_serve::serve_on` dispatches a multi-tenant open stream
//! across devices through the shared [`Backend`] trait) and with
//! `pagoda-obs` (per-device [`pagoda_obs::DeviceSample`] tracks plus
//! `cluster_*` fleet counters). Errors fold into the core hierarchy:
//! construction returns [`pagoda_core::ConfigError`], task queries
//! return [`pagoda_core::PagodaError`].
//!
//! Determinism carries through from the substrate: same
//! [`ClusterConfig`] (including seed and fault schedule) ⇒ identical
//! placement sequences, completion times, and per-device
//! [`desim::EngineStats`].
//!
//! [`PagodaRuntime`]: pagoda_core::PagodaRuntime
//! [`Backend`]: pagoda_core::Backend
//!
//! # Example
//!
//! ```
//! use pagoda_cluster::{Backend, ClusterConfig, ClusterHandle};
//! use pagoda_core::TaskDesc;
//!
//! let mut fleet = ClusterHandle::new(ClusterConfig::uniform(2)).unwrap();
//! let work = gpu_sim::WarpWork::compute(20_000, 8.0);
//! // Tenant 0: the routing hint the placement policy reads.
//! let key = fleet.submit(0, TaskDesc::uniform(64, work)).unwrap();
//! fleet.wait(key).unwrap();
//! assert_eq!(fleet.report().completed, 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod fleet;
pub mod mutation;
pub mod placement;

pub use config::{ClusterConfig, FaultKind, FaultSpec, RetryPolicy};
pub use fleet::{ClusterHandle, DeviceReport, FleetReport, TaskStatus};
pub use mutation::Mutation;
pub use pagoda_core::Backend;
pub use placement::{DeviceView, Placement, Placer};
