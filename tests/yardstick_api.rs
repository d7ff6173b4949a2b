//! `benchmark/` is its own package, so `cargo test` never builds it.
//! This uses `pagoda::prelude` the way its traced run does, so an API
//! break fails tier-1 instead of the minutes-long CI smoke.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
