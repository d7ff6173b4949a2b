//! Deterministic schedule exploration: sweep fleet configurations and
//! fault schedules under the invariant checker, and shrink failures to
//! minimal reproducers.
//!
//! A [`Scenario`] is a complete, replayable description of one fleet
//! run — seed, topology, placement policy, task batch, and fault
//! schedule. [`check_scenario`] records it and reports every invariant
//! violation [`check`] finds in the log.
//! [`shrink`] greedily reduces a failing scenario (drop faults, halve
//! the batch) to the smallest configuration that still fails, and
//! [`Scenario::replay_cli`] prints the exact `pagoda_check replay`
//! invocation that reproduces it.

use desim::SimTime;
use gpu_sim::WarpWork;
use pagoda_cluster::{
    ClusterConfig, ClusterHandle, FaultKind, FaultSpec, Mutation, Placement, RetryPolicy,
};
use pagoda_core::{Backend, TaskDesc};
use pagoda_obs::Obs;

use crate::invariants::{check, CheckLimits, Violation};

/// A complete, replayable fleet-run description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Placement-sampling seed ([`ClusterConfig::seed`]).
    pub seed: u64,
    /// Fleet size.
    pub devices: usize,
    /// Routing policy.
    pub placement: Placement,
    /// Tasks submitted.
    pub tasks: usize,
    /// Tenants the batch round-robins over.
    pub tenants: u32,
    /// Home-set width ([`ClusterConfig::affinity_spread`]).
    pub spread: u32,
    /// Base device cycles per task; sizes vary deterministically around
    /// this so completions interleave across devices.
    pub base_cycles: u64,
    /// Submit attempts per task ([`RetryPolicy::Resubmit`]); 0 means
    /// [`RetryPolicy::Fail`].
    pub max_attempts: u32,
    /// Scheduled device faults.
    pub faults: Vec<FaultSpec>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            seed: 1,
            devices: 4,
            placement: Placement::LeastOutstanding,
            tasks: 32,
            tenants: 4,
            spread: 1,
            base_cycles: 40_000,
            max_attempts: 3,
            faults: Vec::new(),
        }
    }
}

/// Stable CLI name of a placement policy.
pub fn placement_name(p: Placement) -> &'static str {
    match p {
        Placement::RoundRobin => "round-robin",
        Placement::LeastOutstanding => "least-outstanding",
        Placement::PowerOfTwo => "power-of-two",
        Placement::TenantAffinity => "tenant-affinity",
    }
}

/// Inverse of [`placement_name`].
pub fn parse_placement(s: &str) -> Option<Placement> {
    Some(match s {
        "round-robin" => Placement::RoundRobin,
        "least-outstanding" => Placement::LeastOutstanding,
        "power-of-two" => Placement::PowerOfTwo,
        "tenant-affinity" => Placement::TenantAffinity,
        _ => return None,
    })
}

/// `kill@US:DEV` or `slow@US:DEV:FACTOR` — the `--fault` argument form.
pub fn fault_arg(f: &FaultSpec) -> String {
    let us = f.at.as_ps() / 1_000_000;
    match f.kind {
        FaultKind::Kill => format!("kill@{us}:{}", f.device),
        FaultKind::Slow { factor } => format!("slow@{us}:{}:{factor}", f.device),
    }
}

/// Inverse of [`fault_arg`].
pub fn parse_fault(s: &str) -> Option<FaultSpec> {
    let (kind, rest) = s.split_once('@')?;
    let mut parts = rest.split(':');
    let at = SimTime::from_us(parts.next()?.parse().ok()?);
    let device: usize = parts.next()?.parse().ok()?;
    let kind = match kind {
        "kill" => {
            if parts.next().is_some() {
                return None;
            }
            FaultKind::Kill
        }
        "slow" => {
            let factor: f64 = parts.next()?.parse().ok()?;
            if parts.next().is_some() || !factor.is_finite() || factor < 1.0 {
                return None;
            }
            FaultKind::Slow { factor }
        }
        _ => return None,
    };
    Some(FaultSpec { at, device, kind })
}

impl Scenario {
    /// The fleet configuration this scenario describes.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::uniform(self.devices);
        cfg.placement = self.placement;
        cfg.seed = self.seed;
        cfg.affinity_spread = self.spread;
        cfg.faults = self.faults.clone();
        cfg.retry = if self.max_attempts == 0 {
            RetryPolicy::Fail
        } else {
            RetryPolicy::Resubmit {
                max_attempts: self.max_attempts,
            }
        };
        cfg
    }

    /// Task `i` of the batch: sizes cycle through five classes around
    /// [`base_cycles`](Scenario::base_cycles) so per-device completion
    /// times interleave (a uniform batch would finish in lockstep and
    /// never exercise the merge).
    pub fn task(&self, i: usize) -> TaskDesc {
        let cycles = self.base_cycles + (i % 5) as u64 * 70_000;
        let mut t = TaskDesc::uniform(64, WarpWork::compute(cycles, 4.0));
        t.input_bytes = 1024;
        t.output_bytes = 1024;
        t
    }

    /// The exact `pagoda_check replay` invocation reproducing this
    /// scenario.
    pub fn replay_cli(&self) -> String {
        let mut s = format!(
            "pagoda_check replay --devices {} --placement {} --seed {} \
             --tasks {} --tenants {} --spread {} --base-cycles {} \
             --max-attempts {}",
            self.devices,
            placement_name(self.placement),
            self.seed,
            self.tasks,
            self.tenants,
            self.spread,
            self.base_cycles,
            self.max_attempts,
        );
        for f in &self.faults {
            s.push_str(&format!(" --fault {}", fault_arg(f)));
        }
        s
    }
}

/// Everything one run produces that exploration cares about.
#[derive(Debug)]
pub struct RunOutcome {
    /// Invariant violations (including end-of-run conservation).
    pub violations: Vec<Violation>,
    /// Violations beyond the reporting cap.
    pub dropped: u64,
    /// Determinism fingerprint: recorder stream, per-task completion
    /// instants, engine stats, fleet report. Byte-identical across
    /// replays of one scenario.
    pub fingerprint: String,
}

/// Runs one scenario, with an optional seeded [`Mutation`], and checks
/// its log.
pub fn run_one(sc: &Scenario, mutation: Option<Mutation>) -> RunOutcome {
    let cfg = sc.cluster_config();
    let limits = CheckLimits::of(&cfg.devices[0]);
    let (obs, rec) = Obs::recording();
    let mut fleet = ClusterHandle::new(cfg).expect("scenario config is valid");
    fleet.attach_obs(obs);
    if let Some(m) = mutation {
        fleet.inject_mutation(m);
    }
    let keys: Vec<u64> = (0..sc.tasks)
        .map(|i| {
            fleet
                .spawn_blocking(i as u32 % sc.tenants, sc.task(i))
                .expect("scenario tasks fit the scenario's devices")
        })
        .collect();
    fleet.wait_all();
    let (violations, dropped) = check(&rec, Some(limits));
    let times: Vec<Option<u64>> = keys
        .iter()
        .map(|&k| fleet.completion_time(k).map(|t| t.as_ps()))
        .collect();
    let fingerprint = format!(
        "{}|{times:?}|{:?}|{:?}",
        rec.snapshot().to_json(),
        fleet.engine_stats(),
        fleet.report(),
    );
    RunOutcome {
        violations,
        dropped,
        fingerprint,
    }
}

/// One failed scenario check: what went wrong, phrased for a human.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Human-readable findings (one per violation).
    pub findings: Vec<String>,
}

/// Runs `sc` under the invariant checker. Returns `None` when every
/// invariant holds.
pub fn check_scenario(sc: &Scenario) -> Option<Failure> {
    let out = run_one(sc, None);
    let mut findings: Vec<String> = out.violations.iter().map(|v| v.to_string()).collect();
    if out.dropped > 0 {
        findings.push(format!("(+{} more violations)", out.dropped));
    }
    if findings.is_empty() {
        None
    } else {
        Some(Failure { findings })
    }
}

/// Greedy delta-debugging shrink: starting from a scenario on which
/// `fails` holds, repeatedly drop single faults and halve the batch
/// while the failure persists. Returns the smallest still-failing
/// scenario found. `fails` is re-evaluated on every candidate, so it
/// must be deterministic (every run here is).
pub fn shrink(sc: &Scenario, fails: &dyn Fn(&Scenario) -> bool) -> Scenario {
    debug_assert!(fails(sc), "shrink needs a failing scenario");
    let mut best = sc.clone();
    let mut progress = true;
    while progress {
        progress = false;
        // Drop one fault at a time.
        for i in 0..best.faults.len() {
            let mut cand = best.clone();
            cand.faults.remove(i);
            if fails(&cand) {
                best = cand;
                progress = true;
                break;
            }
        }
        if progress {
            continue;
        }
        // Halve the batch.
        if best.tasks > 1 {
            let mut cand = best.clone();
            cand.tasks /= 2;
            if fails(&cand) {
                best = cand;
                progress = true;
            }
        }
    }
    best
}

/// The scenario grid of one exploration run.
pub fn sweep_scenarios(extended: bool) -> Vec<Scenario> {
    let mut out = Vec::new();
    if extended {
        // Full cross-product: seeds x placements x fault schedules.
        // Small batches keep each run cheap; the coverage is in the
        // combinations, not the batch size.
        for seed in 1..=9 {
            for placement in [
                Placement::RoundRobin,
                Placement::LeastOutstanding,
                Placement::PowerOfTwo,
                Placement::TenantAffinity,
            ] {
                for faults in fault_schedules() {
                    out.push(Scenario {
                        seed,
                        placement,
                        tasks: 24,
                        faults,
                        ..Scenario::default()
                    });
                }
            }
        }
    } else {
        // Smoke: one representative of each interesting axis.
        out.push(Scenario::default());
        out.push(Scenario {
            placement: Placement::RoundRobin,
            spread: 4,
            ..Scenario::default()
        });
        out.push(Scenario {
            placement: Placement::PowerOfTwo,
            seed: 0xb17e,
            faults: vec![kill(40, 2)],
            ..Scenario::default()
        });
        out.push(Scenario {
            placement: Placement::TenantAffinity,
            faults: vec![slow(15, 1, 4.0)],
            ..Scenario::default()
        });
        out.push(Scenario {
            devices: 2,
            tasks: 24,
            max_attempts: 0,
            faults: vec![kill(10, 0)],
            ..Scenario::default()
        });
        out.push(Scenario {
            devices: 3,
            base_cycles: 200_000,
            faults: vec![slow(5, 0, 8.0), kill(60, 2)],
            ..Scenario::default()
        });
    }
    out
}

fn fault_schedules() -> Vec<Vec<FaultSpec>> {
    vec![
        Vec::new(),
        vec![kill(40, 2)],
        vec![slow(10, 1, 8.0)],
        vec![slow(5, 0, 4.0), kill(50, 3)],
    ]
}

/// `kill@us:device` as a [`FaultSpec`].
pub fn kill(us: u64, device: usize) -> FaultSpec {
    FaultSpec {
        at: SimTime::from_us(us),
        device,
        kind: FaultKind::Kill,
    }
}

/// `slow@us:device:factor` as a [`FaultSpec`].
pub fn slow(us: u64, device: usize, factor: f64) -> FaultSpec {
    FaultSpec {
        at: SimTime::from_us(us),
        device,
        kind: FaultKind::Slow { factor },
    }
}

/// Outcome of [`explore`]: scenarios checked and shrunk reproducers for
/// every failure.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Scenarios checked.
    pub checked: usize,
    /// `(shrunk scenario, findings)` per failing scenario.
    pub failures: Vec<(Scenario, Vec<String>)>,
}

/// Runs the exploration sweep, shrinking every failure to a minimal
/// reproducer. `progress` receives one line per scenario.
pub fn explore(extended: bool, mut progress: impl FnMut(&str)) -> ExploreOutcome {
    let scenarios = sweep_scenarios(extended);
    let total = scenarios.len();
    let mut failures = Vec::new();
    for (i, sc) in scenarios.iter().enumerate() {
        match check_scenario(sc) {
            None => progress(&format!("[{}/{total}] ok: {}", i + 1, sc.replay_cli())),
            Some(fail) => {
                progress(&format!(
                    "[{}/{total}] FAIL ({} finding(s)): {}",
                    i + 1,
                    fail.findings.len(),
                    sc.replay_cli()
                ));
                let shrunk = shrink(sc, &|cand| check_scenario(cand).is_some());
                let findings = check_scenario(&shrunk)
                    .map(|f| f.findings)
                    .unwrap_or_else(|| fail.findings.clone());
                progress(&format!("    minimal reproducer: {}", shrunk.replay_cli()));
                failures.push((shrunk, findings));
            }
        }
    }
    ExploreOutcome {
        checked: total,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_args_round_trip() {
        for f in [kill(40, 2), slow(5, 0, 8.0)] {
            assert_eq!(parse_fault(&fault_arg(&f)), Some(f));
        }
        assert_eq!(parse_fault("melt@3:0"), None);
        assert_eq!(parse_fault("slow@3:0:0.5"), None);
        assert_eq!(parse_fault("kill@3:0:9"), None);
    }

    #[test]
    fn placement_names_round_trip() {
        for p in [
            Placement::RoundRobin,
            Placement::LeastOutstanding,
            Placement::PowerOfTwo,
            Placement::TenantAffinity,
        ] {
            assert_eq!(parse_placement(placement_name(p)), Some(p));
        }
        assert_eq!(parse_placement("random"), None);
    }

    #[test]
    fn clean_scenario_checks_clean() {
        let sc = Scenario {
            tasks: 16,
            ..Scenario::default()
        };
        assert!(check_scenario(&sc).is_none());
    }

    #[test]
    fn kill_scenario_checks_clean() {
        let sc = Scenario {
            placement: Placement::PowerOfTwo,
            faults: vec![kill(40, 2)],
            ..Scenario::default()
        };
        assert!(check_scenario(&sc).is_none());
    }

    #[test]
    fn shrink_reaches_a_minimal_failing_scenario() {
        // A synthetic failure predicate: "fails" iff the schedule still
        // contains the kill on device 1 and at least 4 tasks. Shrink
        // must strip the irrelevant faults and halve 32 -> 4.
        let sc = Scenario {
            tasks: 32,
            faults: vec![slow(1, 0, 2.0), kill(10, 1), slow(20, 2, 4.0)],
            ..Scenario::default()
        };
        let fails = |c: &Scenario| {
            c.tasks >= 4
                && c.faults
                    .iter()
                    .any(|f| f.device == 1 && f.kind == FaultKind::Kill)
        };
        let min = shrink(&sc, &fails);
        assert_eq!(min.faults.len(), 1);
        assert_eq!(min.tasks, 4);
    }
}
