//! **pagoda-prof** — critical-path profiling, latency decomposition, and
//! SLO tracking over the `pagoda-obs` event stream.
//!
//! The obs layer records *what happened* (lifecycle spans, serving
//! marks, routes, resource samples); this crate answers *where the time
//! went*. Each completed task's sojourn is cut into seven named phases
//! ([`Phase`]) — admission, host queue, PCIe staging, MTB wait, SMM
//! wait, execution, copyback — that sum **exactly** to the sojourn by
//! construction (see [`phase`]). Per-task decompositions aggregate into
//! mergeable log-bucketed histograms ([`LogHist`]) grouped per tenant
//! and per fleet device, so per-device profiles fold into exactly the
//! fleet-wide aggregate.
//!
//! Two ways in:
//!
//! * **post-hoc** — record the run with a plain [`Obs::recording`]
//!   handle and call [`ProfReport::from_buffer`] on the captured
//!   [`ObsBuffer`]. The profiler does no per-event work: every input
//!   the phase model needs (lifecycle events, marks, routes, tenant
//!   tags) is in that buffer, so profiling costs a run exactly what
//!   recording costs;
//! * **SLO tracking** — [`SloTracker`] accounts completed sojourns
//!   against per-tenant [`SloSpec`] targets with integer burn-rate math.
//!
//! Exports: Prometheus text exposition ([`write_prometheus`]) and
//! folded-stack flamegraph input ([`write_folded`]) — both
//! integer-valued and byte-deterministic for identical reports.
//!
//! [`Obs::recording`]: pagoda_obs::Obs::recording
//! [`ObsBuffer`]: pagoda_obs::ObsBuffer
//!
//! # Example
//!
//! ```
//! use pagoda_obs::{MarkKind, Obs, TaskState};
//! use pagoda_prof::ProfReport;
//!
//! let (obs, rec) = Obs::recording();
//! obs.mark(0, 7, MarkKind::Arrived);
//! obs.task(100, 7, TaskState::Spawned);
//! obs.task(400, 7, TaskState::Running);
//! obs.task(900, 7, TaskState::Freed);
//!
//! let report = ProfReport::from_buffer(&rec.snapshot());
//! assert_eq!(report.total().tasks, 1);
//! assert_eq!(report.total().sojourn.sum(), 900);
//!
//! let mut prom = Vec::new();
//! pagoda_prof::write_prometheus(&report, &mut prom).unwrap();
//! pagoda_prof::check_exposition(std::str::from_utf8(&prom).unwrap()).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod export;
pub mod hist;
pub mod phase;
pub mod report;
pub mod slo;

pub use export::{check_exposition, write_folded, write_prometheus};
pub use hist::{HistSummary, LogHist};
pub use phase::{decompose, Cuts, Decomposition, Phase};
pub use report::{GroupProf, GroupSummary, PhaseSummary, ProfReport, ProfSummary, TaskProf};
pub use slo::{SloReport, SloSpec, SloTracker, SloViolation};
