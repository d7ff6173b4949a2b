//! `serve_on`'s completion harvest: handed over ≡ polled, and it costs
//! what changed.
//!
//! [`Backend::drain_completed`] is defaulted — a wrapper written before
//! it existed (the repo benchmark's `TimedBackend`) runs the default
//! poll over the in-flight keys, while `PagodaRuntime` and
//! `ClusterHandle` hand over the keys their copy-backs flipped. Both
//! paths must serve byte-identical runs, and the handed-over path must
//! make no per-in-flight-task call at all.

use std::cell::Cell;

use desim::{Dur, EngineStats, SimTime};
use gpu_sim::WarpWork;
use pagoda_cluster::{ClusterConfig, ClusterHandle, FaultKind, FaultSpec, Placement, RetryPolicy};
use pagoda_core::trace::TaskTrace;
use pagoda_core::{Capacity, PagodaConfig, PagodaError, PagodaRuntime, SubmitError, TaskDesc};
use pagoda_obs::Obs;
use pagoda_serve::{
    calibrate_capacity, serve_on, serving_slice, ArrivalSpec, Backend, Outcome, Policy,
    ServeConfig, ServeOutcome, TenantSpec,
};
use workloads::{Bench, GenOpts};

/// Calls to the two completion getters `serve_on` could poll with.
#[derive(Default)]
struct Calls {
    observed_done: Cell<u64>,
    completion_time: Cell<u64>,
}

impl Calls {
    fn total(&self) -> u64 {
        self.observed_done.get() + self.completion_time.get()
    }
}

/// Every pre-existing `Backend` method, passed through to `self.0`
/// (counting the two completion getters in `self.1`).
macro_rules! pass_through {
    () => {
        fn submit(&mut self, tenant: u32, desc: TaskDesc) -> Result<u64, SubmitError> {
            self.0.submit(tenant, desc)
        }
        fn capacity(&self) -> Capacity {
            self.0.capacity()
        }
        fn check(&mut self, key: u64) -> Result<bool, PagodaError> {
            self.0.check(key)
        }
        fn wait(&mut self, key: u64) -> Result<SimTime, PagodaError> {
            self.0.wait(key)
        }
        fn observed_done(&self, key: u64) -> bool {
            self.1.observed_done.set(self.1.observed_done.get() + 1);
            self.0.observed_done(key)
        }
        fn completion_time(&self, key: u64) -> Option<SimTime> {
            self.1.completion_time.set(self.1.completion_time.get() + 1);
            self.0.completion_time(key)
        }
        fn now(&self) -> SimTime {
            self.0.now()
        }
        fn advance_to(&mut self, t: SimTime) {
            self.0.advance_to(t)
        }
        fn sync(&mut self) {
            self.0.sync()
        }
        fn wait_timeout(&self) -> Dur {
            self.0.wait_timeout()
        }
        fn warp_occupancy(&mut self) -> f64 {
            self.0.warp_occupancy()
        }
        fn traces(&self) -> Vec<TaskTrace> {
            self.0.traces()
        }
        fn attach_obs(&mut self, obs: Obs) {
            self.0.attach_obs(obs)
        }
        fn engine_stats(&self) -> Vec<EngineStats> {
            self.0.engine_stats()
        }
        fn num_devices(&self) -> u32 {
            self.0.num_devices()
        }
    };
}

/// A wrapper that predates `drain_completed`: it does not override it,
/// so `serve_on` polls through the default body.
struct Polled<'a, B: Backend>(&'a mut B, Calls);

impl<B: Backend> Backend for Polled<'_, B> {
    pass_through!();
}

/// A wrapper that forwards `drain_completed` to the backend's own log.
struct Forwarding<'a, B: Backend>(&'a mut B, Calls);

impl<B: Backend> Backend for Forwarding<'_, B> {
    pass_through!();

    fn drain_completed(&mut self, pending: &mut dyn Iterator<Item = u64>, out: &mut Vec<u64>) {
        self.0.drain_completed(pending, out);
    }
}

/// Everything a serving run emits, serialized.
fn streams(cfg: &ServeConfig, run: impl FnOnce(&ServeConfig) -> ServeOutcome) -> [String; 3] {
    let (obs, rec) = Obs::recording();
    let mut cfg = cfg.clone();
    cfg.obs = obs;
    let out = run(&cfg);
    [
        serde_json::to_string(&out.records).unwrap(),
        serde_json::to_string(&out.report).unwrap(),
        serde_json::to_string(&rec.snapshot()).unwrap(),
    ]
}

fn assert_same_streams(direct: &[String; 3], polled: &[String; 3], what: &str) {
    for (name, (d, p)) in ["records", "report", "obs buffer"]
        .iter()
        .zip(direct.iter().zip(polled))
    {
        assert!(d == p, "{what}: {name} differ between harvest and poll");
    }
}

/// EDF + `cancel_late` on a 2-SMM slice at about twice its capacity:
/// bounded queues shed and stale work expires.
fn overloaded_slice() -> ServeConfig {
    let runtime = serving_slice(2).unwrap();
    let cap = calibrate_capacity(&runtime, Bench::Des3, &GenOpts::default(), 128).unwrap();
    let mut packets = TenantSpec::new("packets", Bench::Des3, 1.4 * cap);
    packets.queue_cap = 24;
    packets.deadline = Some(Dur::from_us(150));
    let mut tiles = TenantSpec::new("tiles", Bench::Fb, 0.6 * cap);
    tiles.queue_cap = 24;
    tiles.deadline = Some(Dur::from_us(400));
    tiles.arrival = ArrivalSpec::Mmpp {
        calm_rate_per_s: 0.3 * cap,
        burst_rate_per_s: 1.5 * cap,
        mean_calm_us: 300.0,
        mean_burst_us: 100.0,
    };
    let mut cfg = ServeConfig::new(vec![packets, tiles], Policy::Edf);
    cfg.cancel_late = true;
    cfg.tasks_per_tenant = 600;
    cfg.runtime = runtime;
    cfg
}

/// Four tenants, WFQ, well under a 4-device fleet's capacity.
fn fleet_tenants(tasks_per_tenant: usize) -> ServeConfig {
    let benches = [Bench::Des3, Bench::Dct, Bench::Mm, Bench::Conv];
    let tenants = benches
        .iter()
        .enumerate()
        .map(|(i, &bench)| {
            let mut t = TenantSpec::new(&format!("t{i}"), bench, 1.0e5 * (i + 1) as f64);
            t.weight = 1 + i as u32;
            t.queue_cap = usize::MAX;
            t
        })
        .collect();
    let mut cfg = ServeConfig::new(tenants, Policy::WeightedFair);
    cfg.tasks_per_tenant = tasks_per_tenant;
    cfg
}

fn faulty_fleet(retry: RetryPolicy) -> ClusterHandle {
    let mut cfg = ClusterConfig::uniform(4);
    cfg.placement = Placement::PowerOfTwo;
    cfg.retry = retry;
    cfg.faults = vec![FaultSpec {
        at: SimTime::from_us(150),
        device: 2,
        kind: FaultKind::Kill,
    }];
    ClusterHandle::new(cfg).unwrap()
}

#[test]
fn polled_and_handed_over_runs_are_byte_identical_on_one_runtime() {
    let cfg = overloaded_slice();
    let mut shed_and_expired = (0, 0);
    let direct = streams(&cfg, |cfg| {
        let out = serve_on(cfg, &mut PagodaRuntime::new(cfg.runtime.clone())).unwrap();
        for t in &out.report.tenants {
            shed_and_expired.0 += t.shed;
            shed_and_expired.1 += t.expired;
        }
        out
    });
    assert!(
        shed_and_expired.0 > 0 && shed_and_expired.1 > 0,
        "the overload must both shed and expire: {shed_and_expired:?}"
    );
    let polled = streams(&cfg, |cfg| {
        let mut rt = PagodaRuntime::new(cfg.runtime.clone());
        let mut wrapped = Polled(&mut rt, Calls::default());
        let out = serve_on(cfg, &mut wrapped).unwrap();
        assert!(wrapped.1.observed_done.get() > 0, "the default body polls");
        out
    });
    assert_same_streams(&direct, &polled, "2-SMM slice, EDF + cancel_late");
}

#[test]
fn polled_and_handed_over_runs_are_byte_identical_on_a_faulty_fleet() {
    let cfg = fleet_tenants(150);
    for retry in [RetryPolicy::Resubmit { max_attempts: 3 }, RetryPolicy::Fail] {
        let direct = streams(&cfg, |cfg| {
            let mut fleet = faulty_fleet(retry);
            let out = serve_on(cfg, &mut fleet).unwrap();
            let rep = fleet.report();
            assert_eq!(rep.kills, 1);
            match retry {
                RetryPolicy::Fail => assert!(rep.tasks_lost > 0, "the kill lost nothing"),
                RetryPolicy::Resubmit { .. } => {
                    assert!(rep.resubmits > 0, "the kill stranded nothing")
                }
            }
            // A lost task's sojourn ends at its loss instant: every
            // arrival resolves either way.
            assert!(out.records.iter().all(|r| r.outcome == Outcome::Done));
            out
        });
        let polled = streams(&cfg, |cfg| {
            let mut fleet = faulty_fleet(retry);
            serve_on(cfg, &mut Polled(&mut fleet, Calls::default())).unwrap()
        });
        assert_same_streams(&direct, &polled, &format!("4-device fleet, WFQ, {retry:?}"));
    }
}

#[test]
fn spawn_blocking_through_a_wrapper_idles_the_wrapped_backends_timeout() {
    // `Polled` overrides nothing, so this is the provided body; it must
    // idle what the backend behind the wrapper says (5 ms, one slice of
    // which outlasts every ~0.1 ms task), not a constant of its own.
    let timeout = Dur::from_us(5_000);
    let cfg = PagodaConfig {
        rows_per_column: 1,
        wait_timeout: timeout,
        ..PagodaConfig::default()
    };
    cfg.validate().unwrap();
    let mut rt = PagodaRuntime::new(cfg);
    let mut wrapped = Polled(&mut rt, Calls::default());
    let task = TaskDesc::uniform(64, WarpWork::compute(400_000, 8.0));
    while wrapped.capacity().has_room() {
        wrapped.submit(0, task.clone()).unwrap();
    }
    let before = wrapped.now();
    wrapped.spawn_blocking(0, task).unwrap();
    let idled = wrapped.now() - before;
    assert!(
        timeout <= idled && idled < timeout + timeout,
        "idled {idled:?}"
    );
}

/// Serves `cfg` through a [`Forwarding`] wrapper and checks the harvest
/// made no poll: returns (dispatched tasks, completion-getter calls).
fn harvest_calls<B: Backend>(cfg: &ServeConfig, backend: &mut B) -> (u64, u64) {
    let mut wrapped = Forwarding(backend, Calls::default());
    let out = serve_on(cfg, &mut wrapped).unwrap();
    let dispatched = out.records.iter().filter(|r| r.spawn_us.is_some()).count() as u64;
    assert_eq!(wrapped.1.observed_done.get(), 0, "the harvest polled");
    assert_eq!(
        wrapped.1.completion_time.get(),
        dispatched,
        "one completion_time call per completed-or-lost task"
    );
    (dispatched, wrapped.1.total())
}

#[test]
fn the_harvest_costs_one_getter_call_per_task_on_both_backends() {
    let slice = overloaded_slice();
    let (dispatched, _) = harvest_calls(&slice, &mut PagodaRuntime::new(slice.runtime.clone()));
    assert!(dispatched > 0);

    // Fixed rates, nothing shed: twice the arrivals are twice the tasks,
    // and may cost at most twice the getter calls. `Fail` so that lost
    // tasks are among them.
    let (small_n, small) = harvest_calls(&fleet_tenants(100), &mut faulty_fleet(RetryPolicy::Fail));
    let (large_n, large) = harvest_calls(&fleet_tenants(200), &mut faulty_fleet(RetryPolicy::Fail));
    assert_eq!((small_n, large_n), (400, 800));
    assert!(large <= 2 * small, "{large} calls against {small}");

    // The poll it replaces asks every in-flight task every round.
    let mut fleet = faulty_fleet(RetryPolicy::Fail);
    let mut polled = Polled(&mut fleet, Calls::default());
    serve_on(&fleet_tenants(100), &mut polled).unwrap();
    assert!(
        polled.1.total() > 4 * small,
        "poll made {} calls against the harvest's {small}",
        polled.1.total()
    );
}
