//! End-to-end failover: kill one device of four mid-run and lose zero
//! tasks under the resubmit policy — and do it *deterministically*: a
//! replay of the same configuration reproduces the recorder stream,
//! completion instants, engine counters and fleet report byte for byte.

use desim::SimTime;
use gpu_sim::WarpWork;
use pagoda_cluster::{
    ClusterConfig, ClusterHandle, FaultKind, FaultSpec, Placement, RetryPolicy, TaskStatus,
};
use pagoda_core::{Backend, TaskDesc};
use pagoda_obs::{Obs, ObsBuffer};
use proptest::prelude::*;

fn kill_at(us: u64, device: usize) -> FaultSpec {
    FaultSpec {
        at: SimTime::from_us(us),
        device,
        kind: FaultKind::Kill,
    }
}

fn kill_one_of_four() -> ClusterConfig {
    let mut cfg = ClusterConfig::uniform(4);
    cfg.placement = Placement::PowerOfTwo;
    cfg.seed = 0xdead_f1ee7;
    cfg.retry = RetryPolicy::Resubmit { max_attempts: 4 };
    cfg.faults = vec![kill_at(40, 2)];
    cfg
}

/// ~230 us of device time per task, so plenty is in flight at the
/// 40 us kill.
fn long_task() -> TaskDesc {
    TaskDesc::uniform(96, WarpWork::compute(500_000, 8.0))
}

/// ~90 us of device time: still long enough that faults land mid-flight.
fn short_task() -> TaskDesc {
    TaskDesc::uniform(64, WarpWork::compute(200_000, 8.0))
}

/// A finished, recorded fleet run.
struct Run {
    fleet: ClusterHandle,
    snap: ObsBuffer,
    keys: Vec<u64>,
}

impl Run {
    /// Everything a replay must reproduce, stringly so a mismatch shows
    /// a readable diff.
    fn bundle(&mut self) -> (String, Vec<Option<SimTime>>, String, String) {
        (
            self.snap.to_json(),
            self.keys
                .iter()
                .map(|&k| self.fleet.completion_time(k))
                .collect(),
            format!("{:?}", self.fleet.engine_stats()),
            format!("{:?}", self.fleet.report()),
        )
    }
}

/// Runs `n` copies of `desc` to completion on a recorded fleet, task
/// `i` on behalf of tenant `i % tenants`.
fn run(cfg: ClusterConfig, desc: &TaskDesc, n: usize, tenants: u32) -> Run {
    let (obs, rec) = Obs::recording();
    let mut fleet = ClusterHandle::new(cfg).expect("valid config");
    fleet.attach_obs(obs);
    let keys: Vec<u64> = (0..n)
        .map(|i| {
            fleet
                .spawn_blocking(i as u32 % tenants, desc.clone())
                .expect("task rejected")
        })
        .collect();
    fleet.wait_all();
    Run {
        fleet,
        snap: rec.snapshot(),
        keys,
    }
}

#[test]
fn kill_one_of_four_loses_zero_tasks_under_resubmit() {
    for (desc, n) in [(long_task(), 96), (short_task(), 64)] {
        let Run {
            mut fleet, keys, ..
        } = run(kill_one_of_four(), &desc, n, 1);
        for key in keys {
            assert_eq!(
                fleet.status(key).expect("key issued"),
                TaskStatus::Done,
                "task {key} of {n} did not survive the kill"
            );
        }
        let rep = fleet.report();
        assert_eq!(rep.tasks_lost, 0, "resubmit policy must lose nothing");
        assert_eq!(rep.completed, n as u64);
        assert_eq!(rep.kills, 1);
        assert!(rep.resubmits > 0, "the kill must strand some work");
        assert!(!rep.devices[2].alive);
        assert!(rep.devices[0].spawned > 0);
        // The dead device's TaskTable left the admission pool.
        assert_eq!(
            fleet.capacity().total,
            3 * 1536,
            "capacity shrinks to the three survivors"
        );
    }
}

/// Under tenant-affinity with a single tenant homed on device 0,
/// devices 1–3 never receive a task. They must stay out of the stream
/// except for their liveness samples — and killing one of them, the
/// emptiest possible kill, still shows on its device track.
#[test]
fn idle_devices_stay_idle_and_an_idle_kill_is_sampled() {
    let mut cfg = ClusterConfig::uniform(4);
    cfg.placement = Placement::TenantAffinity;
    cfg.affinity_spread = 1; // tenant 0's home is exactly device 0
    cfg.faults = vec![kill_at(20, 2)];
    let Run {
        mut fleet, snap, ..
    } = run(cfg, &short_task(), 16, 1);
    let rep = fleet.report();
    assert_eq!(rep.off_affinity, 0);
    assert_eq!(rep.completed, 16);
    assert!(rep.devices[0].spawned > 0);
    for d in &rep.devices[1..] {
        assert_eq!(d.spawned, 0, "device {} must stay idle", d.device);
    }
    assert!(snap.devices.iter().any(|s| s.device == 2 && !s.alive));
}

#[test]
fn failover_run_is_deterministic() {
    let mut a = run(kill_one_of_four(), &long_task(), 96, 1);
    let mut b = run(kill_one_of_four(), &long_task(), 96, 1);
    assert_eq!(a.bundle(), b.bundle());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs two full fleet simulations
        ..ProptestConfig::default()
    })]

    #[test]
    fn replay_is_byte_identical_across_seeds_and_policies(
        seed in 0u64..=0xffff_ffff,
        placement_idx in 0usize..4,
        devices in 2usize..5,
        kill in prop::bool::ANY,
    ) {
        let mut cfg = ClusterConfig::uniform(devices);
        cfg.placement = [
            Placement::RoundRobin,
            Placement::LeastOutstanding,
            Placement::PowerOfTwo,
            Placement::TenantAffinity,
        ][placement_idx];
        cfg.seed = seed;
        cfg.affinity_spread = 1 + (seed % devices as u64) as u32;
        if kill {
            cfg.faults = vec![kill_at(17, devices - 1)];
        }
        let mut first = run(cfg.clone(), &short_task(), 24, 3);
        let mut second = run(cfg, &short_task(), 24, 3);
        prop_assert_eq!(first.bundle(), second.bundle());
    }
}
