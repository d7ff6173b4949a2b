//! Mutation smoke: prove the checker can actually catch bugs.
//!
//! A checker that silently passes everything is worse than none. This
//! module seeds each known [`Mutation`] into a fleet run tailored to
//! trip exactly that bug and asserts the invariant checker flags it —
//! and that the *same* scenario runs clean without the mutation, so a
//! flag means detection, not a noisy scenario.
//!
//! | mutation               | scenario shape                          | expected violation        |
//! |------------------------|-----------------------------------------|---------------------------|
//! | `skip_merge_sort`      | 3 devices, varied task sizes, all-home  | [`Violation::MergeOrder`] |
//! | `double_charge_staging`| spread 1, round-robin off-home spawns   | [`Violation::StagingOverCharge`] |
//! | `drop_resubmit`        | kill mid-flight under `Resubmit`        | [`Violation::ConservationLeak`] |
//! | `skip_causal_gate`     | slowed device, long tasks               | [`Violation::CausalityBreach`] |

use pagoda_cluster::{Mutation, Placement};

use crate::explore::{kill, run_one, slow, Scenario};
use crate::invariants::Violation;

/// The scenario tuned to trip `m`, and a predicate recognizing the
/// violation the checker must raise for it.
pub fn smoke_case(m: Mutation) -> (Scenario, fn(&Violation) -> bool) {
    match m {
        // All-home (spread = devices) so no staging noise; round-robin
        // spreads the five task-size classes across devices, so one
        // sync batch harvests interleaved completion times — exactly
        // what the sorted merge exists for.
        Mutation::SkipMergeSort => (
            Scenario {
                devices: 3,
                placement: Placement::RoundRobin,
                spread: 3,
                tasks: 48,
                tenants: 1,
                ..Scenario::default()
            },
            |v| matches!(v, Violation::MergeOrder { .. }),
        ),
        // One tenant homed on a single device: every round-robin
        // placement off device 0 stages state, and the first
        // double-charged transfer pushes staged past off-affinity.
        Mutation::DoubleChargeStaging => (
            Scenario {
                devices: 4,
                placement: Placement::RoundRobin,
                spread: 1,
                tasks: 16,
                tenants: 1,
                ..Scenario::default()
            },
            |v| matches!(v, Violation::StagingOverCharge { .. }),
        ),
        // Long tasks guarantee in-flight work when the kill lands; the
        // mutation silently discards one stranded task, which only
        // end-of-run conservation can see.
        Mutation::DropResubmit => (
            Scenario {
                devices: 2,
                tasks: 24,
                base_cycles: 200_000,
                max_attempts: 3,
                faults: vec![kill(5, 0)],
                ..Scenario::default()
            },
            |v| matches!(v, Violation::ConservationLeak { .. }),
        ),
        // An 8x-slowed device's local head start maps far into the
        // fleet's future; with the harvest gate off, its completions
        // become fleet-visible past the sync instant.
        Mutation::SkipCausalGate => (
            Scenario {
                devices: 2,
                tasks: 16,
                base_cycles: 2_000_000,
                faults: vec![slow(2, 1, 8.0)],
                ..Scenario::default()
            },
            |v| matches!(v, Violation::CausalityBreach { .. }),
        ),
    }
}

/// Result of one mutation-smoke case.
#[derive(Debug)]
pub struct SmokeResult {
    /// The seeded mutation.
    pub mutation: Mutation,
    /// The scenario it ran under.
    pub scenario: Scenario,
    /// Whether the unmutated run was violation-free (it must be).
    pub baseline_clean: bool,
    /// Whether the mutated run raised the expected violation class.
    pub detected: bool,
    /// Every violation the mutated run raised, rendered.
    pub findings: Vec<String>,
}

impl SmokeResult {
    /// Baseline clean *and* mutant detected.
    pub fn pass(&self) -> bool {
        self.baseline_clean && self.detected
    }
}

/// Runs every known mutation through its tailored scenario.
pub fn mutation_smoke() -> Vec<SmokeResult> {
    Mutation::ALL
        .iter()
        .map(|&m| {
            let (scenario, expected) = smoke_case(m);
            let baseline = run_one(&scenario, None);
            let mutated = run_one(&scenario, Some(m));
            SmokeResult {
                mutation: m,
                baseline_clean: baseline.violations.is_empty() && baseline.dropped == 0,
                detected: mutated.violations.iter().any(expected),
                findings: mutated.violations.iter().map(|v| v.to_string()).collect(),
                scenario,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seeded_mutation_is_detected() {
        for r in mutation_smoke() {
            assert!(
                r.baseline_clean,
                "{}: unmutated scenario must run clean: {:?}",
                r.mutation.name(),
                r.findings
            );
            assert!(
                r.detected,
                "{}: checker missed the seeded bug (saw: {:?})",
                r.mutation.name(),
                r.findings
            );
        }
    }
}
