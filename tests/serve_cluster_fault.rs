//! End-to-end: the serving front-end riding a faulty fleet.
//!
//! `serve_on` drives a 4-device [`ClusterHandle`] through the shared
//! [`Backend`] trait while a kill fault takes one device down
//! mid-stream. Under [`RetryPolicy::Resubmit`] the fleet must lose
//! nothing: every offered task completes, admitted-task p99 stays
//! finite, and the whole run holds under the pagoda-check invariant
//! checker (observability log) and QoS auditor (scheduler traffic)
//! at once — the full stack, checked at every layer it crosses.

use pagoda_check::{check, CheckLimits, QosCheck};
use pagoda_cluster::{ClusterConfig, ClusterHandle, FaultKind, FaultSpec, RetryPolicy};
use pagoda_obs::Obs;
use pagoda_serve::{percentile, serve_on, Outcome, Policy, ServeConfig, TenantSpec};
use workloads::Bench;

#[test]
fn serve_survives_device_kill_without_losing_tasks() {
    const DEVICES: usize = 4;
    const TENANTS: usize = 4;
    const TASKS_PER_TENANT: usize = 32;

    let mut ccfg = ClusterConfig::uniform(DEVICES);
    ccfg.retry = RetryPolicy::Resubmit { max_attempts: 3 };
    ccfg.faults = vec![FaultSpec {
        at: desim::SimTime::from_us(30),
        device: 1,
        kind: FaultKind::Kill,
    }];
    let limits = CheckLimits::of(&ccfg.devices[0]);
    let mut fleet = ClusterHandle::new(ccfg).expect("uniform config is valid");

    let tenants: Vec<TenantSpec> = (0..TENANTS)
        .map(|i| {
            let mut t = TenantSpec::new(&format!("t{i}"), Bench::Des3, 6e5);
            // No shedding: "loses zero tasks" must mean every *offered*
            // task, not just the ones admission let through.
            t.queue_cap = usize::MAX;
            t
        })
        .collect();
    let mut scfg = ServeConfig::new(tenants, Policy::Fifo);
    scfg.tasks_per_tenant = TASKS_PER_TENANT;
    scfg.mix = "kill-one-device".into();
    let (obs, rec) = Obs::recording();
    scfg.obs = obs;
    let audit = std::rc::Rc::new(QosCheck::fifo());
    scfg.qos_audit = Some(audit.clone());

    let out = serve_on(&scfg, &mut fleet).expect("mix serves");
    let rep = fleet.report();

    // The fault landed, and nothing was lost to it.
    assert_eq!(rep.kills, 1, "the scheduled kill must apply");
    assert_eq!(rep.tasks_lost, 0, "resubmit policy must save every task");
    assert!(
        rep.resubmits > 0,
        "a 30 us kill under open-loop load must strand in-flight work"
    );

    // Every offered arrival ran to completion with a measured sojourn.
    let offered = TENANTS * TASKS_PER_TENANT;
    assert_eq!(out.records.len(), offered);
    let sojourns: Vec<f64> = out
        .records
        .iter()
        .map(|r| {
            assert_eq!(r.outcome, Outcome::Done, "task {} did not finish", r.seq);
            r.sojourn_us.expect("done tasks have a sojourn")
        })
        .collect();
    let p99 = percentile(&sojourns, 99.0);
    assert!(
        p99.is_finite() && p99 > 0.0,
        "p99 must be finite, got {p99}"
    );

    // The invariant checker reads the whole run: lifecycle order,
    // conservation, merge order, causality, device liveness.
    let (violations, _) = check(&rec, Some(limits));
    assert!(violations.is_empty(), "invariants broken: {violations:?}");
    // And the FIFO contract held across every push/pop/requeue.
    assert!(audit.is_clean(), "qos audit: {:?}", audit.violations());
}
