//! Behavioural tests of the Pagoda runtime through its public API: the
//! Table 1 semantics, resource virtualization corner cases, and protocol
//! edge conditions.

use pagoda::prelude::*;

fn narrow(instrs: u64) -> TaskDesc {
    TaskDesc::uniform(128, WarpWork::compute(instrs, 8.0))
}

/// [`narrow`] with `smem_per_tb` bytes of shared memory per threadblock.
fn narrow_with_smem(instrs: u64, smem_per_tb: u32) -> TaskDesc {
    let t = narrow(instrs);
    TaskDesc {
        kernel: Kernel::new(128, smem_per_tb, false, t.blocks.to_vec()).unwrap(),
        ..t
    }
}

#[test]
fn wait_blocks_until_the_task_is_done() {
    let mut rt = PagodaRuntime::titan_x();
    let id = rt.submit(0, narrow(1_000_000)).unwrap();
    assert!(
        rt.trace(id).unwrap().latency().is_none(),
        "not done at spawn"
    );
    rt.wait(id).unwrap();
    assert!(rt.trace(id).unwrap().latency().is_some());
}

#[test]
fn check_is_nonblocking_and_eventually_true() {
    let mut rt = PagodaRuntime::titan_x();
    let id = rt.submit(0, narrow(2_000_000)).unwrap();
    // check() may say false early; after wait() it must say true.
    let _ = rt.check(id).unwrap();
    rt.wait(id).unwrap();
    assert!(rt.check(id).unwrap());
}

#[test]
fn wait_on_already_finished_task_returns_immediately() {
    let mut rt = PagodaRuntime::titan_x();
    let a = rt.submit(0, narrow(10_000)).unwrap();
    let b = rt.submit(0, narrow(50_000_000)).unwrap();
    rt.wait(b).unwrap(); // by now `a` is long done
    let before = rt.now();
    rt.wait(a).unwrap();
    let after = rt.now();
    // Only the observation copy-back, not another task's runtime.
    assert!((after - before).as_us_f64() < 100.0);
}

#[test]
fn spawning_more_tasks_than_table_entries_recycles_entries() {
    // 48 x 32 = 1536 entries; 4000 spawns force the lazy aggregate
    // copy-back path repeatedly.
    let mut rt = PagodaRuntime::titan_x();
    for _ in 0..4000 {
        rt.spawn_blocking(0, narrow(20_000)).unwrap();
    }
    rt.wait_all();
    assert_eq!(rt.report().tasks, 4000);
}

#[test]
fn single_task_runs_via_the_flush_path() {
    // A lone task has no successor to advance the pipeline; only the
    // timeout-driven flush of §4.2.2 can schedule it.
    let mut rt = PagodaRuntime::titan_x();
    let id = rt.submit(0, narrow(100_000)).unwrap();
    rt.wait(id).unwrap();
    assert!(rt.check(id).unwrap());
}

#[test]
fn interleaved_spawn_wait_cycles() {
    // wait() flushes the chain; subsequent spawns must start a new chain
    // and still execute.
    let mut rt = PagodaRuntime::titan_x();
    for round in 0..5 {
        let ids: Vec<_> = (0..10)
            .map(|_| rt.submit(0, narrow(50_000)).unwrap())
            .collect();
        rt.wait(ids[0]).unwrap();
        rt.wait_all();
        assert_eq!(rt.report().tasks, (round + 1) * 10);
    }
}

#[test]
fn smem_tasks_share_the_mtb_pool() {
    // 16 KB per threadblock: only 2 task TBs fit an MTB's 32 KB slice at
    // once; the buddy allocator must recycle across many tasks.
    let mut rt = PagodaRuntime::titan_x();
    for _ in 0..300 {
        rt.spawn_blocking(0, narrow_with_smem(50_000, 16 * 1024))
            .unwrap();
    }
    rt.wait_all();
    assert_eq!(rt.report().tasks, 300);
}

#[test]
fn full_pool_smem_tasks_serialize_but_complete() {
    // 32 KB tasks: exactly one per MTB at a time; the do/while alloc loop
    // with deferred deallocation must not deadlock.
    let mut rt = PagodaRuntime::titan_x();
    for _ in 0..100 {
        rt.spawn_blocking(0, narrow_with_smem(30_000, 32 * 1024))
            .unwrap();
    }
    rt.wait_all();
    assert_eq!(rt.report().tasks, 100);
}

#[test]
fn sync_tasks_exercise_named_barriers() {
    let mut rt = PagodaRuntime::titan_x();
    for _ in 0..200 {
        rt.submit(0, TaskDesc::uniform(128, WarpWork::phased(80_000, 4, 8.0)))
            .unwrap();
    }
    rt.wait_all();
    assert_eq!(rt.report().tasks, 200);
}

#[test]
fn many_sync_tasks_exhaust_and_recycle_barrier_ids() {
    // 31 single-warp sync tasks can run per MTB — more than the 16
    // barrier IDs, so allocation must stall and recycle.
    let mut rt = PagodaRuntime::titan_x();
    for _ in 0..500 {
        rt.submit(0, TaskDesc::uniform(32, WarpWork::phased(40_000, 2, 8.0)))
            .unwrap();
    }
    rt.wait_all();
    assert_eq!(rt.report().tasks, 500);
}

#[test]
fn multi_threadblock_tasks_schedule_tb_by_tb() {
    let mut rt = PagodaRuntime::titan_x();
    for _ in 0..50 {
        let work = WarpWork::compute(30_000, 8.0);
        let blocks = vec![BlockWork::uniform(4, work); 4];
        let t = TaskDesc {
            kernel: Kernel::new(128, 2048, false, blocks).unwrap(),
            cpu_ops: 4 * 4 * 30_000,
            input_bytes: 0,
            output_bytes: 0,
        };
        rt.submit(0, t).unwrap();
    }
    rt.wait_all();
    assert_eq!(rt.report().tasks, 50);
}

#[test]
fn wide_task_spanning_all_executors() {
    // A 992-thread task occupies every executor warp of one MTB.
    let mut rt = PagodaRuntime::titan_x();
    for _ in 0..60 {
        rt.submit(0, TaskDesc::uniform(992, WarpWork::compute(100_000, 8.0)))
            .unwrap();
    }
    rt.wait_all();
    assert_eq!(rt.report().tasks, 60);
}

#[test]
fn task_bigger_than_one_mtb_is_rejected() {
    let mut rt = PagodaRuntime::titan_x();
    let t = TaskDesc::uniform(1000, WarpWork::compute(1, 1.0));
    assert!(matches!(
        rt.submit(0, t),
        Err(SubmitError::Invalid(TaskError::TooManyThreadsPerTb { .. }))
    ));
}

#[test]
fn oversized_smem_is_rejected() {
    let mut rt = PagodaRuntime::titan_x();
    assert!(matches!(
        rt.submit(0, narrow_with_smem(1, 33 * 1024)),
        Err(SubmitError::Invalid(TaskError::SmemTooLarge { .. }))
    ));
}

#[test]
fn zero_work_tasks_complete() {
    let mut rt = PagodaRuntime::titan_x();
    for _ in 0..64 {
        rt.submit(0, narrow(0)).unwrap();
    }
    rt.wait_all();
    assert_eq!(rt.report().tasks, 64);
}

#[test]
fn mixed_width_tasks_pack_executors() {
    let mut rt = PagodaRuntime::titan_x();
    for i in 0..300u32 {
        let threads = [32u32, 96, 128, 256, 480][i as usize % 5];
        rt.spawn_blocking(
            0,
            TaskDesc::uniform(threads, WarpWork::compute(60_000, 8.0)),
        )
        .unwrap();
    }
    rt.wait_all();
    let r = rt.report();
    assert_eq!(r.tasks, 300);
    assert!(r.avg_running_occupancy > 0.0);
}

#[test]
fn io_heavy_tasks_account_pcie_time() {
    let mut rt = PagodaRuntime::titan_x();
    for _ in 0..100 {
        let mut t = narrow(10_000);
        t.input_bytes = 64 * 1024;
        t.output_bytes = 64 * 1024;
        rt.submit(0, t).unwrap();
    }
    rt.wait_all();
    let r = rt.report();
    // 100 x 64 KB at 12 GB/s is ≥ 530 us on each channel.
    assert!(r.h2d_busy.as_us_f64() > 500.0);
    assert!(r.d2h_busy.as_us_f64() > 500.0);
}

#[test]
fn report_latency_metrics_are_consistent() {
    let mut rt = PagodaRuntime::titan_x();
    let ids: Vec<_> = (0..50)
        .map(|_| rt.submit(0, narrow(100_000)).unwrap())
        .collect();
    rt.wait_all();
    let r = rt.report();
    let mean = r.mean_task_latency.as_us_f64();
    let max = ids
        .iter()
        .map(|&i| rt.trace(i).unwrap().latency().unwrap().as_us_f64())
        .fold(0.0f64, f64::max);
    assert!(mean <= max + 1e-9);
    assert!(r.compute_done.as_ps() <= r.makespan.as_ps());
}
