//! # Pagoda
//!
//! A Rust reproduction of **"Pagoda: Fine-Grained GPU Resource
//! Virtualization for Narrow Tasks"** (Yeh, Sabne, Sakdhnagool, Eigenmann,
//! Rogers — PPoPP 2017), complete with the GPU substrate it runs on, the
//! baselines it is evaluated against, and the workloads of its evaluation.
//!
//! GPUs waste most of their capacity on *narrow tasks* — kernels with
//! fewer than ~500 threads. Pagoda fixes this with an OS-like daemon
//! kernel, the **MasterKernel**, that owns every warp of the device and
//! schedules task work at *warp* granularity, fed continuously from the
//! host through a mirrored, atomics-free **TaskTable**.
//!
//! Because device-side persistent CUDA kernels cannot be written in
//! stable Rust (and this repository must run anywhere), the hardware is a
//! deterministic discrete-event simulator of the paper's Maxwell Titan X;
//! the Pagoda *runtime logic* — the TaskTable protocol, scheduler/executor
//! warp algorithms, buddy shared-memory allocator, named-barrier recycling
//! — is implemented in full. See `DESIGN.md` for the substitution
//! argument and `EXPERIMENTS.md` for paper-vs-measured numbers on every
//! figure and table.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`pagoda_core`] | the Pagoda runtime (the paper's contribution) and [`Backend`](pagoda_core::Backend), the surface it shares with a fleet |
//! | [`gpu_sim`] | the GPU device model (SMMs, warps, threadblocks) |
//! | [`gpu_arch`] | machine specs and occupancy math |
//! | [`pcie`] | the host-device interconnect model |
//! | [`desim`] | the discrete-event engine |
//! | [`baselines`] | CUDA-HyperQ, GeMTC, static fusion, CPU baselines |
//! | [`workloads`] | the eight evaluation benchmarks + MPE |
//! | [`pagoda_serve`] | multi-tenant serving: admission control + QoS |
//! | [`pagoda_obs`] | cross-layer observability: spans, counters, exporters |
//! | [`pagoda_prof`] | critical-path profiling, latency decomposition, SLOs |
//! | [`pagoda_cluster`] | multi-GPU fleets: routed placement + failover |
//!
//! ## Quickstart
//!
//! ```
//! use pagoda::prelude::*;
//!
//! // Boot the runtime: launches the MasterKernel at 100 % occupancy.
//! let mut rt = PagodaRuntime::titan_x();
//!
//! // Record everything the stack does while we use it.
//! let (obs, recorder) = Obs::recording();
//! rt.attach_obs(obs);
//!
//! // Spawn 1000 narrow tasks (128 threads each) and wait for them. The
//! // table holds 1536 entries, so the non-blocking probe never fills up
//! // here; `spawn_blocking` is the paper's `taskSpawn`, which waits.
//! for _ in 0..1000 {
//!     rt.submit(0, TaskDesc::uniform(128, WarpWork::compute(200_000, 8.0)))
//!         .unwrap();
//! }
//! rt.wait_all();
//!
//! let report = rt.report();
//! assert_eq!(report.tasks, 1000);
//! println!("makespan: {}, occupancy: {:.1}%",
//!          report.makespan, report.avg_running_occupancy * 100.0);
//!
//! // Export the run as a chrome://tracing timeline with per-SMM
//! // resource tracks alongside the task spans.
//! let mut trace = Vec::new();
//! pagoda_obs::write_chrome_trace(&recorder.snapshot(), &mut trace).unwrap();
//! assert!(trace.starts_with(br#"{"traceEvents":["#));
//! ```

#![forbid(unsafe_code)]

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use baselines;
pub use desim;
pub use gpu_arch;
pub use gpu_sim;
pub use pagoda_cluster;
pub use pagoda_core;
pub use pagoda_obs;
pub use pagoda_prof;
pub use pagoda_serve;
pub use pcie;
pub use workloads;

/// The names most programs need.
pub mod prelude {
    pub use baselines::{
        run_fusion, run_gemtc, run_hyperq, run_pagoda, run_pagoda_waves, run_pthreads,
        run_sequential, CpuConfig, GemtcConfig, HyperQConfig, RunSummary,
    };
    pub use desim::{Dur, SimTime};
    pub use gpu_arch::{GpuSpec, TaskShape};
    pub use gpu_sim::{BlockWork, DeviceConfig, GpuDevice, Kernel, Segment, WarpWork};
    pub use pagoda_cluster::{
        ClusterConfig, ClusterHandle, FaultKind, FaultSpec, FleetReport, Placement, RetryPolicy,
        TaskStatus,
    };
    pub use pagoda_core::{
        Backend, Capacity, ConfigError, PagodaConfig, PagodaError, PagodaRuntime, SubmitError,
        TaskDesc, TaskError, TaskId,
    };
    pub use pagoda_obs::{Counter, Obs, ObsBuffer, Recorder, Recording, TaskState};
    pub use pagoda_prof::{
        check_exposition, write_folded, write_prometheus, Phase, ProfReport, SloSpec,
    };
    pub use pagoda_serve::{
        serve, serve_on, ArrivalSpec, Policy, ServeConfig, ServeError, TenantSpec,
    };
    pub use workloads::{Bench, GenOpts};
}
