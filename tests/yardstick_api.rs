//! `benchmark/` is its own package, so `cargo test` never builds it.
//! This uses `pagoda::prelude` the way its workloads and traced run do,
//! so an API break fails tier-1 instead of the minutes-long CI smoke.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pagoda::pagoda_core::TaskTrace;
use pagoda::prelude::*;

struct Counters(AtomicU64);

impl Recorder for Counters {
    fn count(&self, _: Counter, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    fn retains(&self) -> bool {
        false
    }
}

#[test]
fn the_obs_surface_the_yardstick_uses_holds() {
    let counters = Arc::new(Counters(AtomicU64::new(0)));
    let obs = Obs::new(counters.clone());
    obs.task(1, 0, TaskState::Spawned); // the default `event` drops it
    obs.count(Counter::TasksSpawned, 2);
    obs.count(Counter::EngineEvents, 5);
    assert_eq!(counters.0.load(Ordering::Relaxed), 7);
    assert!(!obs.enabled() && !Obs::off().enabled());

    let (obs, rec) = Obs::recording();
    assert!(obs.enabled());
    obs.task(0, 7, TaskState::Spawned);
    obs.task(900, 7, TaskState::Freed);
    let buffer: ObsBuffer = rec.snapshot();
    let prof: ProfReport = ProfReport::from_buffer(&buffer);
    assert_eq!(prof.total().tasks, 1);
    let mut text = Vec::new();
    write_prometheus(&prof, &mut text).expect("render exposition");
    assert!(!text.is_empty());
}

/// `benchmark/`'s blocking spawn (`workloads::spawn_blocking`): generic
/// over the backend, tenant 0, the host view refreshed on a full table
/// and one polling slice idled while it stays full.
fn spawn_blocking<B: Backend>(rt: &mut B, desc: TaskDesc) -> u64 {
    let mut pending = desc;
    loop {
        match rt.submit(0, pending) {
            Ok(key) => return key,
            Err(SubmitError::Full(back)) => {
                rt.sync();
                if !rt.capacity().has_room() {
                    let t = rt.now() + rt.wait_timeout();
                    rt.advance_to(t);
                }
                pending = back;
            }
            Err(e) => panic!("benchmark task refused: {e}"),
        }
    }
}

/// Sojourns read in place, as `fig5` reads them. The bound is the point:
/// were `rt.traces()` to resolve to `Backend::traces`, its `Vec` (a copy
/// of every timeline) would not compile here.
fn sojourns_us(traces: impl ExactSizeIterator<Item = TaskTrace>) -> Vec<f64> {
    let mut out = Vec::with_capacity(traces.len());
    for tr in traces {
        let done = tr
            .output_done
            .expect("waitAll returned, so every output landed");
        out.push((done - tr.spawned).as_us_f64());
    }
    out
}

#[test]
fn the_runtime_surface_the_yardstick_uses_holds() {
    // `fig5`: a runtime per benchmark with obs attached, blocking spawns
    // into a table small enough to fill, `waitAll`, the report, every
    // timeline, the engine counters.
    let (obs, rec) = Obs::recording();
    let mut rt = PagodaRuntime::new(PagodaConfig {
        rows_per_column: 1,
        ..PagodaConfig::default()
    });
    rt.attach_obs(obs.clone());
    let task = TaskDesc::uniform(128, WarpWork::compute(50_000, 8.0));
    for _ in 0..200 {
        spawn_blocking(&mut rt, task.clone());
    }
    rt.wait_all();
    let summary: RunSummary = rt.report();
    assert_eq!(summary.tasks, 200);
    let sojourns = sojourns_us(rt.traces());
    assert_eq!(sojourns.len(), 200);
    assert!(sojourns.iter().all(|&s| s > 0.0));
    let engines = rt.engine_stats();
    assert_eq!(engines.len(), 1, "one engine per device");
    assert!(engines[0].delivered > 0);
    assert_eq!(rec.snapshot().counter(Counter::TasksSpawned), 200);

    // `netmix`: `serve_on` over a runtime on a 2-SMM slice.
    let mut slice = PagodaConfig::default();
    slice.device.spec.num_sms = 2;
    let mut tenant = TenantSpec::new("mb", Bench::Mb, 2.0e5);
    tenant.queue_cap = 32;
    tenant.tasks = Some(64);
    let mut cfg = ServeConfig::new(vec![tenant], Policy::Edf);
    cfg.runtime = slice.clone();
    let mut rt = PagodaRuntime::new(slice);
    let out = serve_on(&cfg, &mut rt).expect("a valid serve config");
    assert_eq!(out.records.len(), 64);
    let completed = out
        .records
        .iter()
        .filter(|r| r.sojourn_us.is_some())
        .count();
    assert!(completed > 0);
    assert_eq!(rt.report().tasks, completed as u64);
    assert_eq!(rt.engine_stats().len(), 1);
}
