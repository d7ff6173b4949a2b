//! Baseline runtimes the Pagoda paper evaluates against.
//!
//! | Runner | Paper role |
//! |---|---|
//! | [`hyperq::run_hyperq`] | CUDA-HyperQ: one kernel per task, 32 concurrent |
//! | [`gemtc::run_gemtc`] | GeMTC: SuperKernel workers, batch FIFO, 1 task = 1 TB |
//! | [`fusion::run_fusion`] | Static task fusion: one monolithic kernel |
//! | [`cpu::run_pthreads`] | 20-core PThreads task parallelism |
//! | [`cpu::run_sequential`] | Single-core CPU (the speedup-1 reference) |
//! | [`driver::run_pagoda`] | Pagoda with continuous spawning |
//! | [`driver::run_pagoda_waves`] | Pagoda in `waitAll`-separated waves: SLUD's dependency waves, the Fig. 11 ablation's batches |
//!
//! All runners consume the same [`pagoda_core::TaskDesc`] lists and produce
//! a [`summary::RunSummary`], so every figure harness is a straight
//! comparison.

#![forbid(unsafe_code)]

pub mod cpu;
pub mod driver;
pub mod fusion;
pub mod gemtc;
pub mod hyperq;
pub mod summary;

pub use cpu::{run_pthreads, run_sequential, CpuConfig};
pub use driver::{run_pagoda, run_pagoda_waves};
pub use fusion::run_fusion;
pub use gemtc::{run_gemtc, GemtcConfig};
pub use hyperq::{run_hyperq, HyperQConfig};
pub use summary::{geomean, RunSummary};
