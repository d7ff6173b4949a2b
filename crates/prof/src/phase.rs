//! The phase model: where a completed task's sojourn time went.
//!
//! A task's life is cut at up to eight timestamps drawn from two event
//! families the obs layer already records:
//!
//! * [`TaskMark`](pagoda_obs::TaskMark) serving marks — `arrived`
//!   (offered to admission), `admitted` (accepted into the host queue),
//!   `observed` (completion seen by the client);
//! * [`TaskState`] lifecycle spans — `spawned`
//!   (submitted to the runtime), `enqueued` (PCIe staging done, task in
//!   the MTB TaskTable), `placed` (MasterKernel scheduled it onto an
//!   SMM), `running` (warps issued), `freed` (resources released).
//!
//! Consecutive cuts bound seven named phases ([`Phase::ALL`]). The
//! decomposition telescopes: the phase durations *always* sum exactly to
//! `observed - arrived` (the sojourn), because each cut is resolved to a
//! concrete time by carry-forward imputation and clamped monotone before
//! differencing. Missing instrumentation therefore shows up as a
//! zero-width phase, never as leaked or double-counted time — an
//! invariant `pagoda-check` enforces on every checked run and a proptest
//! pins down.

use serde::{Deserialize, Serialize};

use pagoda_obs::{MarkKind, TaskState};

/// One named slice of a task's sojourn. Order is chronological; the
/// phase at index `i` spans cut `i` → cut `i+1` of [`Cuts::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// `arrived → admitted`: admission-control decision latency.
    Admission,
    /// `admitted → spawned`: waiting in the host-side tenant queue for a
    /// free TaskTable slot / dispatch decision.
    HostQueue,
    /// `spawned → enqueued`: PCIe staging of parameters into the
    /// device-resident TaskTable.
    Staging,
    /// `enqueued → placed`: waiting for the MasterKernel threadblock to
    /// poll the TaskTable entry and pick an SMM.
    MtbWait,
    /// `placed → running`: waiting for warp slots / registers / shared
    /// memory on the chosen SMM.
    SmmWait,
    /// `running → freed`: execution until warp-granularity free.
    Execution,
    /// `freed → observed`: device-to-host copyback and host-side
    /// completion observation.
    Copyback,
}

impl Phase {
    /// All phases, chronological.
    pub const ALL: [Phase; 7] = [
        Phase::Admission,
        Phase::HostQueue,
        Phase::Staging,
        Phase::MtbWait,
        Phase::SmmWait,
        Phase::Execution,
        Phase::Copyback,
    ];

    /// Stable snake_case name used in every export (Prometheus label,
    /// folded-stack frame, JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::HostQueue => "host_queue",
            Phase::Staging => "staging",
            Phase::MtbWait => "mtb_wait",
            Phase::SmmWait => "smm_wait",
            Phase::Execution => "execution",
            Phase::Copyback => "copyback",
        }
    }
}

/// "Not seen" in a [`Cuts`] slot, as in core's `Stamp`.
const UNSEEN: u64 = u64::MAX;

/// The (up to) eight raw cut timestamps for one task, in picoseconds,
/// in cut order: `arrived` ([`MarkKind::Arrived`], offered to
/// admission), `admitted` ([`MarkKind::Admitted`]), `spawned`
/// ([`TaskState::Spawned`], submitted to the runtime), `enqueued`
/// (visible in the device TaskTable), `placed` (claimed by an SMM),
/// `running` (warps issued), `freed` (resources released) and
/// `observed` ([`MarkKind::Observed`], completion seen host-side).
///
/// A cut may never be observed — single-GPU runs without a serving
/// layer have no marks, and shed tasks never reach `spawned`. Each slot
/// is a plain `u64` with `u64::MAX` meaning "not seen", 8 B where an
/// `Option<u64>` takes 16, so a cut noted at exactly `u64::MAX` ps reads
/// as unseen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cuts {
    /// Cut `i` in the order above: `at[6]` is `freed`.
    at: [u64; 8],
}

impl Default for Cuts {
    fn default() -> Self {
        Cuts { at: [UNSEEN; 8] }
    }
}

impl Cuts {
    /// Records a lifecycle span edge. First observation wins, matching
    /// the exporters' handling of duplicate state events.
    pub fn note_state(&mut self, state: TaskState, at_ps: u64) {
        let cut = match state {
            TaskState::Spawned => 2,
            TaskState::Enqueued => 3,
            TaskState::Placed => 4,
            TaskState::Running => 5,
            TaskState::Freed => 6,
        };
        self.note(cut, at_ps);
    }

    /// Records a serving mark. First observation wins.
    pub fn note_mark(&mut self, kind: MarkKind, at_ps: u64) {
        let cut = match kind {
            MarkKind::Arrived => 0,
            MarkKind::Admitted => 1,
            MarkKind::Observed => 7,
        };
        self.note(cut, at_ps);
    }

    fn note(&mut self, cut: usize, at_ps: u64) {
        let slot = &mut self.at[cut];
        if *slot == UNSEEN {
            *slot = at_ps;
        }
    }

    /// Whether the task completed (reached `freed`) — the precondition
    /// for decomposition.
    pub fn complete(&self) -> bool {
        self.at[6] != UNSEEN
    }

    /// Resolves the eight cuts to concrete, monotone timestamps.
    ///
    /// Imputation: cuts before the first known one inherit it (a run
    /// with no serving layer starts its clock at `spawned`); every later
    /// missing cut inherits its predecessor (a missing `observed`
    /// collapses `Copyback` to zero width). Finally each cut is clamped
    /// to be ≥ its predecessor, so out-of-order instrumentation cannot
    /// produce negative phases. Returns `None` until [`Cuts::complete`].
    pub fn resolve(&self) -> Option<[u64; 8]> {
        if !self.complete() {
            return None;
        }
        let first = self.at.into_iter().find(|&t| t != UNSEEN)?;
        let mut out = [0u64; 8];
        let mut prev = first;
        for (slot, cut) in out.iter_mut().zip(self.at) {
            let v = if cut == UNSEEN { prev } else { cut.max(prev) };
            *slot = v;
            prev = v;
        }
        Some(out)
    }
}

/// One completed task's sojourn split into the seven phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition {
    /// Time the task's clock started (the resolved `arrived` cut).
    pub start_ps: u64,
    /// Total sojourn: resolved `observed` − resolved `arrived`. Always
    /// equal to `phases.iter().sum()` by construction.
    pub sojourn_ps: u64,
    /// Per-phase durations, indexed by [`Phase::ALL`] order.
    pub phases: [u64; 7],
}

/// Decomposes one task's cuts into phase durations. `None` until the
/// task reached `freed`.
pub fn decompose(cuts: &Cuts) -> Option<Decomposition> {
    let resolved = cuts.resolve()?;
    let mut phases = [0u64; 7];
    for (i, p) in phases.iter_mut().enumerate() {
        *p = resolved[i + 1] - resolved[i];
    }
    Some(Decomposition {
        start_ps: resolved[0],
        sojourn_ps: resolved[7] - resolved[0],
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cut_set_decomposes_to_all_phases() {
        let mut c = Cuts::default();
        c.note_mark(MarkKind::Arrived, 100);
        c.note_mark(MarkKind::Admitted, 150);
        c.note_state(TaskState::Spawned, 180);
        c.note_state(TaskState::Enqueued, 300);
        c.note_state(TaskState::Placed, 450);
        c.note_state(TaskState::Running, 500);
        c.note_state(TaskState::Freed, 900);
        c.note_mark(MarkKind::Observed, 1000);
        let d = decompose(&c).unwrap();
        assert_eq!(d.start_ps, 100);
        assert_eq!(d.sojourn_ps, 900);
        assert_eq!(d.phases, [50, 30, 120, 150, 50, 400, 100]);
        assert_eq!(d.phases.iter().sum::<u64>(), d.sojourn_ps);
    }

    #[test]
    fn missing_marks_impute_to_zero_width_phases() {
        // Single-GPU run without a serving layer: lifecycle spans only.
        let mut c = Cuts::default();
        c.note_state(TaskState::Spawned, 1_000);
        c.note_state(TaskState::Enqueued, 1_200);
        c.note_state(TaskState::Placed, 1_500);
        c.note_state(TaskState::Running, 1_600);
        c.note_state(TaskState::Freed, 2_000);
        let d = decompose(&c).unwrap();
        assert_eq!(d.start_ps, 1_000);
        assert_eq!(d.sojourn_ps, 1_000);
        assert_eq!(d.phases, [0, 0, 200, 300, 100, 400, 0]);
    }

    #[test]
    fn incomplete_task_does_not_decompose() {
        let mut c = Cuts::default();
        c.note_state(TaskState::Spawned, 10);
        c.note_state(TaskState::Running, 20);
        assert!(decompose(&c).is_none());
    }

    #[test]
    fn out_of_order_cuts_clamp_instead_of_underflowing() {
        let mut c = Cuts::default();
        c.note_mark(MarkKind::Arrived, 500);
        c.note_state(TaskState::Spawned, 400); // before arrived
        c.note_state(TaskState::Freed, 600);
        let d = decompose(&c).unwrap();
        assert_eq!(d.phases.iter().sum::<u64>(), d.sojourn_ps);
        assert_eq!(d.sojourn_ps, 100); // clamped: 500 -> 500 -> 600
    }

    #[test]
    fn first_observation_wins() {
        let mut c = Cuts::default();
        c.note_state(TaskState::Spawned, 10);
        c.note_state(TaskState::Spawned, 99);
        c.note_state(TaskState::Freed, 50);
        let d = decompose(&c).unwrap();
        assert_eq!((d.start_ps, d.sojourn_ps), (10, 40));
    }
}
