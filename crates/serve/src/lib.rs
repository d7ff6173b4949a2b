//! **pagoda-serve** — a multi-tenant task-serving front-end for the
//! Pagoda runtime.
//!
//! The paper evaluates Pagoda with closed batches: spawn 32 K tasks,
//! `waitAll`, measure. Real deployments of a narrow-task GPU runtime
//! (packet pipelines, camera fleets, inference micro-ops) face the
//! opposite shape: *open-loop* streams from several tenants, each with
//! its own burstiness and latency expectations, all contending for the
//! same 48×32 TaskTable. This crate supplies the serving layer between
//! those clients and [`pagoda_core::runtime`]:
//!
//! * [`arrival`] — seeded Poisson and 2-state MMPP (bursty) arrival
//!   generators per tenant;
//! * [`admission`] — bounded per-tenant queues with explicit shedding,
//!   the backpressure that keeps admitted-task tail latency finite when
//!   offered load exceeds the table's drain rate;
//! * [`qos`] — a pluggable [`qos::QosScheduler`] trait with FIFO,
//!   weighted-fair (starvation-free by construction), and
//!   earliest-deadline-first policies, plus per-task deadlines that can
//!   cancel work already stale at dispatch;
//! * [`metrics`] — serde-serializable per-task records and per-tenant
//!   p50/p95/p99 sojourn aggregates, integrated with
//!   [`pagoda_core::trace`] timelines;
//! * [`error`] — the typed [`ServeError`] returned by the entry points;
//! * [`server`] — the deterministic discrete-event loop driving any
//!   [`Backend`] (a single [`pagoda_core::PagodaRuntime`] via [`serve`],
//!   or an N-device fleet via [`server::serve_on`]) through its
//!   non-blocking spawn probe.
//!
//! Same config + same seed ⇒ byte-identical records; the serving layer
//! inherits the determinism of the simulation substrate. Set
//! [`ServeConfig::obs`] to a `pagoda_obs` recorder to capture admission
//! counters, tenant-tagged task spans, and device timelines for export.
//!
//! # Example
//!
//! ```
//! use pagoda_serve::{serve, Policy, ServeConfig, TenantSpec};
//! use workloads::Bench;
//!
//! let mut video = TenantSpec::new("video", Bench::Dct, 4.0e5);
//! video.weight = 3;
//! let crypto = TenantSpec::new("crypto", Bench::Des3, 8.0e5);
//!
//! let mut cfg = ServeConfig::new(vec![video, crypto], Policy::WeightedFair);
//! cfg.tasks_per_tenant = 64; // keep the doctest quick
//! let out = serve(&cfg).unwrap();
//! let total: u64 = out.report.tenants.iter().map(|t| t.offered).sum();
//! assert_eq!(total, 128);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod admission;
pub mod arrival;
pub mod error;
pub mod metrics;
pub mod qos;
pub mod server;

pub use admission::Admission;
pub use arrival::{ArrivalGen, ArrivalSpec};
pub use error::ServeError;
pub use metrics::{percentile, Outcome, ServeReport, TaskRecord, TenantReport};
pub use pagoda_core::Backend;
pub use qos::{Edf, Fifo, QosAudit, QosScheduler, QueuedTask, WeightedFair};
pub use server::{
    calibrate_capacity, serve, serve_on, serving_slice, Policy, ServeConfig, ServeOutcome,
    TenantSpec,
};
