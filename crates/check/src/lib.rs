//! pagoda-check — invariant checking of recorded runs and deterministic
//! schedule exploration for the Pagoda workspace.
//!
//! The workspace's determinism story ("same seed, byte-identical
//! results") makes every run a potential test oracle; this crate turns
//! that into machinery:
//!
//! * [`check`] — the invariant catalog folded over a
//!   [`pagoda_obs::Recording`]'s log once the run is over, one
//!   [`pagoda_obs::Event`] at a time in emission order, so a checked run
//!   is an ordinary `Obs::recording()` one. Validated per event:
//!   lifecycle order, SMM/MTB capacity ceilings, dead devices staying
//!   dead, sorted-merge order and the causal-harvest gate; at end of
//!   run: staging accounting on the counter totals, task conservation
//!   and phase sums. See `DESIGN.md` §14 for the catalog.
//! * [`QosCheck`] — a [`pagoda_serve::QosAudit`] mirroring each queue
//!   discipline (FIFO arrival order, EDF deadline order, per-tenant
//!   order under weighted fairness) and flagging contract breaches.
//! * [`explore()`] — a schedule-exploration driver sweeping seeds,
//!   placement policies, and kill/slow fault schedules; every scenario
//!   runs under the invariant checker, with failures shrunk to minimal
//!   reproducers replayable via `pagoda_check replay`.
//! * [`mutation_smoke`] — seeds known bugs ([`pagoda_cluster::Mutation`])
//!   into tailored scenarios and asserts the checker flags each: the
//!   checker is itself under test.
//!
//! The `pagoda_check` binary fronts all of it for CI (`ci.sh` runs the
//! smoke sweep and the mutation gate on every push; set
//! `PAGODA_CHECK_EXTENDED=1` for the full cross-product).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod invariants;
pub mod qos;
pub mod smoke;

pub use explore::{
    check_scenario, explore, fault_arg, kill, parse_fault, parse_placement, placement_name,
    run_one, shrink, slow, sweep_scenarios, ExploreOutcome, Failure, RunOutcome, Scenario,
};
pub use invariants::{check, CheckLimits, Violation, MAX_VIOLATIONS};
pub use qos::QosCheck;
pub use smoke::{mutation_smoke, smoke_case, SmokeResult};
