//! Behavioural tests of the Pagoda runtime through its public API: the
//! Table 1 semantics, resource virtualization corner cases, and protocol
//! edge conditions. The blocking-loop tests at the end run on fleets too.

use std::panic::{catch_unwind, AssertUnwindSafe};

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

// ---------------------------------------------------------------------
// Blocking loops stop on a stall, not on a poll count: on a runtime, a
// 1-device fleet and a 3-device fleet, through `Backend` where the loop
// is the trait's.
// ---------------------------------------------------------------------

/// A task whose work outlasts the simulated clock: its completion is
/// predicted at `SimTime::MAX`, so once its warps run the device has
/// nothing left to do and the entry it holds is never freed.
fn never_finishes() -> TaskDesc {
    TaskDesc::uniform(64, WarpWork::compute(u64::MAX / 2, 1.0))
}

/// [`never_finishes`] as wide as an MTB's 31 executor warps, at a CPI
/// that keeps the prediction past the clock's end with a 32nd of the
/// work per warp (so the task's op count fits a `u64`).
fn never_finishes_wide() -> TaskDesc {
    TaskDesc::uniform(992, WarpWork::compute(u64::MAX / 64, 64.0))
}

/// A runtime configuration with a `rows_per_column`-row TaskTable and
/// polling slice `wait_timeout`.
fn table(rows_per_column: u32, wait_timeout: Dur) -> PagodaConfig {
    let cfg = PagodaConfig {
        rows_per_column,
        wait_timeout,
        ..PagodaConfig::default()
    };
    cfg.validate().unwrap();
    cfg
}

/// A fleet of `devices` devices, each configured as `cfg`.
fn fleet(devices: usize, cfg: &PagodaConfig) -> ClusterHandle {
    let mut c = ClusterConfig::uniform(devices);
    c.devices = vec![cfg.clone(); devices];
    ClusterHandle::new(c).unwrap()
}

/// What one aggregate copy-back costs the clock of a runtime built on
/// `cfg`: a sync with nothing spawned. A fleet's clock pays none.
fn copyback(cfg: &PagodaConfig) -> Dur {
    let mut rt = PagodaRuntime::new(cfg.clone());
    rt.sync();
    rt.now() - SimTime::ZERO
}

/// Runs `body` on a runtime, a 1-device fleet and a 3-device fleet,
/// each built on `cfg`, with a name for failure messages and what one
/// aggregate copy-back costs the backend's clock.
fn on_every_backend(cfg: &PagodaConfig, mut body: impl FnMut(&str, &mut dyn Backend, Dur)) {
    body(
        "runtime",
        &mut PagodaRuntime::new(cfg.clone()),
        copyback(cfg),
    );
    body("1-device fleet", &mut fleet(1, cfg), Dur::ZERO);
    body("3-device fleet", &mut fleet(3, cfg), Dur::ZERO);
}

/// Runs `blocking` on `b`, which must stop on a stall, and checks the
/// stop: the message names `culprit` (the stalled task, by its device's
/// key), and `b`'s clock stopped within one polling slice plus
/// `copyback` of the instant the device went idle. The message reports
/// that instant; on a runtime it cannot precede a task's first warp
/// start.
fn assert_stops_on_the_stall<B: Backend + ?Sized>(
    name: &str,
    b: &mut B,
    copyback: Dur,
    culprit: TaskId,
    blocking: impl FnOnce(&mut B),
) {
    let err = catch_unwind(AssertUnwindSafe(|| blocking(&mut *b)))
        .expect_err("a loop blocked on a task that never finishes must stop");
    let msg = err
        .downcast_ref::<String>()
        .unwrap_or_else(|| panic!("{name}: the stall panics with a formatted message"));
    assert!(msg.contains("stalled"), "{name}: {msg}");
    assert!(msg.contains(&format!("{culprit:?} holds")), "{name}: {msg}");
    let idle = msg
        .split("nothing to do since SimTime(")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .and_then(|ps| ps.parse().ok())
        .map(SimTime::from_ps)
        .unwrap_or_else(|| panic!("{name}: the message reports the idle instant: {msg}"));
    if let Some(last) = b.traces().iter().filter_map(|t| t.first_exec).max() {
        assert!(
            idle >= last,
            "{name}: idle at {idle:?}, a warp started at {last:?}"
        );
    }
    assert!(
        b.now() <= idle + b.wait_timeout() + copyback,
        "{name}: stopped at {:?}, the device idle since {idle:?}",
        b.now()
    );
}

#[test]
fn a_stalled_wait_stops_within_one_poll() {
    let cfg = table(1, Dur::from_us(20));
    on_every_backend(&cfg, |name, b, copyback| {
        let key = b.submit(0, never_finishes()).unwrap();
        assert_stops_on_the_stall(name, b, copyback, TaskId::FIRST, |b| {
            let _ = b.wait(key);
        });
    });
}

#[test]
fn a_stalled_wait_all_stops_within_one_poll() {
    let cfg = table(1, Dur::from_us(20));
    let mut rt = PagodaRuntime::new(cfg.clone());
    rt.submit(0, never_finishes()).unwrap();
    let copyback = copyback(&cfg);
    assert_stops_on_the_stall("runtime", &mut rt, copyback, TaskId::FIRST, |rt| {
        rt.wait_all()
    });
    for devices in [1, 3] {
        let mut f = fleet(devices, &cfg);
        f.submit(0, never_finishes()).unwrap();
        let name = format!("{devices}-device fleet");
        assert_stops_on_the_stall(&name, &mut f, Dur::ZERO, TaskId::FIRST, |f| f.wait_all());
    }
}

#[test]
fn a_blocking_spawn_on_a_stalled_full_table_stops_within_one_poll() {
    let cfg = table(1, Dur::from_us(20));
    on_every_backend(&cfg, |name, b, copyback| {
        while b.capacity().has_room() {
            b.submit(0, never_finishes()).unwrap();
        }
        // Every entry is held for good; the first, (0, 0) on device 0,
        // by the first task spawned there.
        assert_stops_on_the_stall(name, b, copyback, TaskId::FIRST, |b| {
            let _ = b.spawn_blocking(0, never_finishes());
        });
    });
}

#[test]
fn serve_on_stops_within_one_poll_while_draining_stalled_tasks() {
    // One task as wide as an MTB's executors in every column, for good:
    // the served tasks find room in the table, and no MTB ever places
    // them.
    let cfg = table(2, Dur::from_us(20));
    on_every_backend(&cfg, |name, b, copyback| {
        let mtbs = b.capacity().total / 2;
        for _ in 0..mtbs {
            b.submit(0, never_finishes_wide()).unwrap();
        }
        assert!(b.capacity().has_room(), "{name}");
        let mut tenant = TenantSpec::new("t", Bench::Conv, 1.0e7);
        tenant.tasks = Some(4);
        let serve_cfg = ServeConfig::new(vec![tenant], Policy::Fifo);
        assert_stops_on_the_stall(name, b, copyback, TaskId::FIRST, |b| {
            let _ = serve_on(&serve_cfg, b);
        });
    });
}

/// Fills a 3-row table so that a chain update is owed that no MTB will
/// ever make: row 0 of every column holds its MTB's executors for good,
/// row 1 leaves every MTB placing a task with no warp free, and of two
/// more tasks the first waits at `Ready::Ref` in a column whose MTB is
/// stuck, so the second, the chain's tail, never leaves `Ref` and the
/// final-task flush has nothing it can write.
fn fill_behind_a_chain_no_mtb_can_update(b: &mut dyn Backend) {
    let mtbs = b.capacity().total / 3;
    for _ in 0..2 * mtbs {
        b.submit(0, never_finishes_wide()).unwrap();
    }
    for _ in 0..2 {
        b.submit(0, never_finishes()).unwrap();
    }
}

#[test]
fn a_wait_all_stalled_behind_a_chain_no_mtb_can_update_stops_within_one_poll() {
    let cfg = table(3, Dur::from_us(20));
    let mut rt = PagodaRuntime::new(cfg.clone());
    fill_behind_a_chain_no_mtb_can_update(&mut rt);
    let copyback = copyback(&cfg);
    assert_stops_on_the_stall("runtime", &mut rt, copyback, TaskId::FIRST, |rt| {
        rt.wait_all()
    });
    for devices in [1, 3] {
        let mut f = fleet(devices, &cfg);
        fill_behind_a_chain_no_mtb_can_update(&mut f);
        let name = format!("{devices}-device fleet");
        assert_stops_on_the_stall(&name, &mut f, Dur::ZERO, TaskId::FIRST, |f| f.wait_all());
    }
}

/// About 2 500 simulated seconds of one warp's work on a Titan X: more
/// than 10⁸ polls at the default 20 µs slice.
fn runs_2500_s() -> TaskDesc {
    TaskDesc::uniform(32, WarpWork::compute(80_000_000_000_000, 1.0))
}

/// A task that runs longer than 10⁸ polling slices is never a stall:
/// `wait` returns when it completes. At a 1 s slice the run takes 2 500
/// polls; the ignored twin below takes the default slice's 1.25 × 10⁸.
#[test]
fn a_task_outlasting_a_hundred_million_default_slices_completes() {
    let cfg = table(32, Dur::from_secs_f64(1.0));
    on_every_backend(&cfg, |name, b, _| {
        let key = b.submit(0, runs_2500_s()).unwrap();
        let done = b.wait(key).unwrap();
        let polls = (done - SimTime::ZERO).as_ps() / Dur::from_us(20).as_ps();
        assert!(polls > 100_000_000, "{name}: done at {done:?}");
    });
}

/// [`a_task_outlasting_a_hundred_million_default_slices_completes`] on a
/// runtime at the default 20 µs slice: 1.25 × 10⁸ polls, a few seconds
/// in a release build.
#[test]
#[ignore]
fn a_task_outlasting_a_hundred_million_default_slices_completes_polled_at_the_default_slice() {
    let mut rt = PagodaRuntime::titan_x();
    let key = rt.submit(0, runs_2500_s()).unwrap();
    let done = rt.wait(key).unwrap();
    assert!(
        done > SimTime::ZERO + Dur::from_secs_f64(2_000.0),
        "{done:?}"
    );
}
