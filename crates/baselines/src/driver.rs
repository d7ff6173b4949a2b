//! Drivers that run a task list through the Pagoda runtime — continuous
//! spawning (the real system) and batched spawning (the Fig. 11 ablation).

use pagoda_core::{PagodaConfig, PagodaRuntime, TaskDesc};
use pagoda_obs::Obs;

use crate::summary::RunSummary;

/// Continuous spawning: tasks are spawned as fast as the host can issue
/// them and reaped with one `waitAll` — the paper's Pagoda configuration.
pub fn run_pagoda(cfg: PagodaConfig, tasks: &[TaskDesc]) -> RunSummary {
    run_pagoda_with_obs(cfg, tasks, Obs::off())
}

/// [`run_pagoda`] with an observability sink attached to every layer
/// (runtime, device, bus) for the duration of the run.
pub fn run_pagoda_with_obs(cfg: PagodaConfig, tasks: &[TaskDesc], obs: Obs) -> RunSummary {
    let mut rt = PagodaRuntime::new(cfg);
    rt.attach_obs(obs);
    for t in tasks {
        rt.spawn_blocking(t.clone())
            .expect("invalid task for Pagoda");
    }
    rt.wait_all();
    rt.report()
}

/// Batched spawning (Fig. 11, "Pagoda-Batching"): no task of batch *k+1*
/// is spawned until every task of batch *k* has completed. Concurrent
/// scheduling inside each batch is unchanged; only the continuous,
/// pipelined spawning is removed.
pub fn run_pagoda_batched(cfg: PagodaConfig, tasks: &[TaskDesc], batch_size: usize) -> RunSummary {
    assert!(batch_size > 0, "zero batch size");
    let mut rt = PagodaRuntime::new(cfg);
    for chunk in tasks.chunks(batch_size) {
        for t in chunk {
            rt.spawn_blocking(t.clone())
                .expect("invalid task for Pagoda");
        }
        rt.wait_all();
    }
    rt.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;

    fn narrow(n: usize, instrs: u64) -> Vec<TaskDesc> {
        (0..n)
            .map(|_| TaskDesc::uniform(128, WarpWork::compute(instrs, 4.0)))
            .collect()
    }

    #[test]
    fn continuous_beats_batched_on_many_tasks() {
        let tasks = narrow(2000, 60_000);
        let cont = run_pagoda(PagodaConfig::default(), &tasks);
        let batched = run_pagoda_batched(PagodaConfig::default(), &tasks, 384);
        assert_eq!(cont.tasks, 2000);
        assert_eq!(batched.tasks, 2000);
        assert!(
            cont.makespan < batched.makespan,
            "continuous {:?} vs batched {:?}",
            cont.makespan,
            batched.makespan
        );
    }
}
