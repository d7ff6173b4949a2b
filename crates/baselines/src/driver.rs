//! The driver that runs tasks through the Pagoda runtime: waves of
//! spawns, each reaped by one `waitAll`.

use pagoda_core::{Backend, PagodaConfig, PagodaRuntime, TaskDesc};
use pagoda_obs::Obs;

use crate::summary::RunSummary;

/// Continuous spawning: tasks are spawned as fast as the host can issue
/// them and reaped with one `waitAll` — the paper's Pagoda configuration.
pub fn run_pagoda(cfg: PagodaConfig, tasks: &[TaskDesc]) -> RunSummary {
    run_pagoda_waves(cfg, [tasks], Obs::off())
}

/// Runs `waves` in order on one runtime with `obs` attached to every
/// layer (runtime, device, bus): a wave's tasks all spawn, then the
/// runtime `waitAll`s, before the next wave spawns anything — SLUD's
/// dependency waves, or with `tasks.chunks(batch_size)` Fig. 11's
/// "Pagoda-Batching" (pipelined spawning removed, scheduling unchanged).
///
/// # Panics
/// On a task the runtime can never take ([`TaskDesc::validate`]).
pub fn run_pagoda_waves<'a>(
    cfg: PagodaConfig,
    waves: impl IntoIterator<Item = &'a [TaskDesc]>,
    obs: Obs,
) -> RunSummary {
    let mut rt = PagodaRuntime::new(cfg);
    rt.attach_obs(obs);
    for wave in waves {
        for t in wave {
            rt.spawn_blocking(0, t.clone())
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
        let batched = run_pagoda_waves(PagodaConfig::default(), tasks.chunks(384), Obs::off());
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
