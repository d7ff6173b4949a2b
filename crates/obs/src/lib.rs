//! **pagoda-obs** — cross-layer observability for the Pagoda workspace.
//!
//! Pagoda's claims are timeline claims: warp-granularity freeing,
//! TaskTable occupancy, spawn-to-start latency. This crate is the one
//! place those timelines are captured. Every instrumented crate (`pcie`,
//! `gpu-sim`, `pagoda-core`, `baselines`, `pagoda-serve`) holds a cloned
//! [`Obs`] handle and reports:
//!
//! * **task lifecycle spans** — [`TaskState`]: spawned → enqueued →
//!   placed → running → freed;
//! * **resource timelines** — [`SmmSample`] per SMM and [`MtbSample`] per
//!   MasterKernel threadblock, sampled at state-change events only;
//! * **counters** — [`Counter`]: PCIe transactions, TaskTable polls,
//!   admission admit/shed, scheduler decisions, engine events.
//!
//! Design rule: *zero dependency on the hot path*. A disabled handle
//! ([`Obs::off`]) costs one `Option` discriminant test per site.
//! [`Obs::recording`] appends every [`Event`] and counter bump to one
//! log with a single owner — a run is simulated on one thread, so there
//! is no lock and no atomic. Its [`Recording`] reads the log back two
//! ways: [`Recording::snapshot`], one [`Events`] stream per event kind
//! for the exporter in [`export`] (chrome://tracing with one track per
//! SMM and per tenant), sharing the log's sealed chunks rather than
//! copying them, and [`Recording::events`], every event in emission
//! order for checkers of cross-stream invariants. Other sinks implement
//! the three-method [`Recorder`] trait and attach with [`Obs::new`].
//! `benchmark/` reports what recording costs in sim throughput as
//! `obs.mem_overhead_pct`.
//!
//! # Example
//!
//! ```
//! use pagoda_obs::{Obs, TaskState, export};
//!
//! let (obs, rec) = Obs::recording();
//! obs.task(0, 7, TaskState::Spawned);
//! obs.task(1_000, 7, TaskState::Running);
//! obs.task(5_000, 7, TaskState::Freed);
//!
//! let buf = rec.snapshot();
//! let mut trace = Vec::new();
//! export::write_chrome_trace(&buf, &mut trace).unwrap();
//! export::check_json(std::str::from_utf8(&trace).unwrap()).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod events;
pub mod export;
pub mod recorder;
pub mod stream;
pub mod writer;

pub use events::{
    Counter, DeviceSample, Event, MarkKind, MtbSample, SmmSample, SyncKind, SyncMark, TaskEvent,
    TaskMark, TaskRoute, TaskState, TenantTag,
};
pub use export::write_chrome_trace;
pub use recorder::{Obs, ObsBuffer, Recorder, Recording};
pub use stream::Events;
