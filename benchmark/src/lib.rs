//! The repo benchmark (see `README.md` beside this crate's manifest).
//!
//! This library is everything both binaries share and nothing that
//! reaches into the simulator's internals: statistics, the FNV
//! fingerprint, the allocator setting that keeps reps off fresh pages,
//! the in-memory span recorder, the metric tables that `BENCHMARK.json`
//! is rendered from, and the four workload drivers,
//! which call the stack only through `pagoda::prelude` (plus
//! `workloads::slud` for the SLUD dependency waves and the
//! `ServeOutcome` value `serve_on` returns). The bare-layer replays and
//! the `TimedBackend` wrapper, which do name internal types, live in
//! `src/bin/traced/`, so a refactor that breaks them cannot break the
//! end-to-end binary.

pub mod cli;
pub mod fnv;
pub mod heap;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
