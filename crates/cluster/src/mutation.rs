//! Seeded bugs for checker validation.
//!
//! A checker that has never caught a bug is untested code. [`Mutation`]
//! lets a test harness re-introduce, one at a time, the cross-device
//! merge bugs the fleet's design exists to prevent — the class
//! highlighted by work on parallelizing GPU simulators, where
//! thread-scheduling-dependent merges rot silently. Each variant is a
//! single guarded deviation inside [`ClusterHandle`]; the
//! `pagoda-check` mutation-smoke mode runs the fleet once per variant
//! and asserts its invariant checker flags every one.
//!
//! Mutations are test-only instrumentation: they are never enabled by
//! configuration, only by an explicit
//! [`ClusterHandle::inject_mutation`] call.
//!
//! [`ClusterHandle`]: crate::ClusterHandle
//! [`ClusterHandle::inject_mutation`]: crate::ClusterHandle::inject_mutation

/// A deliberately seeded fleet bug, applied at exactly one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Skip the `(fleet instant, device, key)` sort of the per-device
    /// completion harvests before applying them — the
    /// scheduling-dependent merge bug. Completions apply device by
    /// device instead of in fleet-time order, so `Freed` events regress
    /// in time within a sync batch.
    SkipMergeSort,
    /// Charge the inter-device staging transfer counter twice per
    /// genuine transfer — the double-accounting bug. Staged transfers
    /// overtake off-affinity placements, which is impossible (a
    /// transfer is only charged for an off-home placement).
    DoubleChargeStaging,
    /// Silently forget the first task stranded by a device kill instead
    /// of queueing it for resubmission — the lost-update bug. The task
    /// was spawned but never reaches a terminal state, breaking
    /// end-of-run conservation.
    DropResubmit,
    /// Disable the causal-harvest gate: completions whose device-local
    /// timestamps map *past* the current fleet instant become fleet
    /// visible immediately — the future-read bug a slowed device's
    /// run-ahead would otherwise hide behind the gate.
    SkipCausalGate,
}

impl Mutation {
    /// All mutations, declaration order — the mutation-smoke sweep.
    pub const ALL: [Mutation; 4] = [
        Mutation::SkipMergeSort,
        Mutation::DoubleChargeStaging,
        Mutation::DropResubmit,
        Mutation::SkipCausalGate,
    ];

    /// Stable snake_case name (used in smoke output).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::SkipMergeSort => "skip_merge_sort",
            Mutation::DoubleChargeStaging => "double_charge_staging",
            Mutation::DropResubmit => "drop_resubmit",
            Mutation::SkipCausalGate => "skip_causal_gate",
        }
    }
}
