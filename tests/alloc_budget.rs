//! A delivery allocates nothing — held without a wall clock.
//!
//! The MasterKernel is persistent so that a narrow task pays no launch,
//! no allocation and no lookup on its way to a warp; the simulator's own
//! delivery loop (`PagodaRuntime::pump` → `GpuDevice::step_bounded_into`
//! → `settle` → `on_notify`) is held to the same here, by counting calls
//! into the global allocator instead of timing anything: the `Notify`
//! batch, the completion queue, the staged host events, the chain links
//! and each entry's per-threadblock progress all live in buffers that
//! are reused in place, so once a runtime is warm only what grows with
//! the *number of tasks ever spawned* (the `tasks` vector, one record
//! per task for `trace()`) may allocate. Reading those records back
//! through `traces()` allocates nothing: it is a view, not a copy.
//!
//! Task generation is held the same way: SLUD's tiles share their
//! kind's work, so building a paper-scale factorization allocates per
//! wave, not per tile, and a block keeps each run of identical warps
//! once, so a uniform task costs the same however wide it is. So is the
//! HyperQ baseline's launch: the device shares a launched kernel's work
//! and runs each run of identical warps as one context in a reused
//! slot, so a wider kernel costs nothing more. And so is reading a
//! recorded run: a snapshot of the log shares its sealed chunks, so its
//! bytes do not grow with the events recorded.
//!
//! What the host keeps is held by the same allocator, which also counts
//! frees: the live bytes left per finished task after a batch, for one
//! runtime, for a 16-device fleet and for 16 bare runtimes running the
//! same tasks (the fleet's own share is the difference of the last two).
//!
//! The counters are per thread, so the tests of this file do not see
//! each other's (or the harness's) allocations.

use baselines::{run_hyperq, HyperQConfig};
use desim::Dur;
use gpu_sim::{BlockWork, Kernel, WarpWork};
use pagoda_cluster::{ClusterConfig, ClusterHandle, Placement};
use pagoda_core::{Backend, PagodaRuntime, SubmitError, TaskDesc};
use pagoda_obs::stream::CHUNK;
use pagoda_obs::{MarkKind, Obs, TaskState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::{slud, Bench, GenOpts};

thread_local! {
    /// `alloc` + `realloc` calls made by this thread. Const-initialised
    /// and without a destructor, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for: an `alloc`'s size, a `realloc`'s new
    /// size.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread's calls hold: what they took minus what
    /// `dealloc` and `realloc` gave back.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn bump(size: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

fn hold(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `bump` touches only a `Cell<u64>`
// and neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        hold(layout.size() as i64);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        hold(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// The three scheduling kinds (whole-task `pSched`; per-threadblock with
/// shared memory; synchronizing, so barrier groups form), each with an
/// output copy and `instrs` thread-instructions per warp, built once: a
/// clone bumps the kernel's reference count.
fn descs(instrs: u64) -> [TaskDesc; 3] {
    let plain = TaskDesc::uniform(128, WarpWork::compute(instrs, 2.0));
    let block = BlockWork::uniform(2, WarpWork::compute(instrs, 2.0));
    let smem = TaskDesc {
        kernel: Kernel::new(64, 4 * 1024, false, vec![block; 2]).unwrap(),
        ..plain.clone()
    };
    let sync = TaskDesc::uniform(96, WarpWork::phased(instrs, 3, 2.0));
    [plain, smem, sync].map(|mut d| {
        d.output_bytes = 4096;
        d
    })
}

/// Spawns `n` tasks round-robin over `descs` through the blocking spawn.
fn spawn<B: Backend>(backend: &mut B, descs: &[TaskDesc], n: usize) {
    for i in 0..n {
        backend
            .spawn_blocking(0, descs[i % descs.len()].clone())
            .unwrap();
    }
}

/// Submits round-robin over `descs` until the TaskTable is full in the
/// CPU's view, returning how many went in.
fn fill(rt: &mut PagodaRuntime, descs: &[TaskDesc]) -> usize {
    let mut n = 0;
    loop {
        match rt.submit(0, descs[n % descs.len()].clone()) {
            Ok(_) => n += 1,
            Err(SubmitError::Full(_)) => return n,
            Err(e) => panic!("{e:?}"),
        }
    }
}

/// A warm runtime: every TaskTable entry has held the task with the most
/// threadblocks (an entry's `tbs` is as long as its widest tenant, exactly),
/// every executor warp and barrier-group slot has had tenants of each
/// kind, and the event queue has been as deep as a full table makes it.
fn warm(descs: &[TaskDesc; 3]) -> PagodaRuntime {
    let mut rt = PagodaRuntime::titan_x();
    let widest = descs.iter().max_by_key(|d| d.num_tbs()).unwrap();
    assert_eq!(fill(&mut rt, std::slice::from_ref(widest)), 1536);
    rt.wait_all();
    spawn(&mut rt, descs, 6_000);
    rt.wait_all();
    rt
}

#[test]
fn a_window_of_deliveries_allocates_nothing() {
    // Long tasks: a full table's worth is still running when the last
    // `submit` returns, so the window below holds their completions.
    let descs = descs(10_000_000);
    let mut rt = warm(&descs);
    // Fill the table, then only deliver: entry copies land, chains
    // settle, schedulers place, executors finish, outputs copy back.
    fill(&mut rt, &descs);
    let done_before = rt.report().tasks;
    let until = rt.now() + Dur::from_us(500_000);
    let before = allocs();
    rt.advance_to(until);
    let spent = allocs() - before;
    let finished = rt.report().tasks - done_before;
    println!("window: {finished} tasks finished, {spent} allocations");
    assert!(finished >= 1_000, "{finished} tasks finished in the window");
    assert_eq!(
        spent, 0,
        "{spent} allocations while {finished} tasks were delivered"
    );
}

#[test]
fn ten_thousand_tasks_allocate_only_for_their_records() {
    let descs = descs(20_000);
    let mut rt = warm(&descs);
    let before = allocs();
    spawn(&mut rt, &descs, 10_000);
    rt.wait_all();
    let spent = allocs() - before;
    println!("runtime: {spent} allocations for 10 000 tasks");
    // Measured: 2 — `tasks` (one record per task ever spawned, kept for
    // `trace()`) doubling past 8 192 and past 16 384 records. Nothing else.
    assert!(
        spent <= 2,
        "{spent} allocations for 10 000 tasks on a warm runtime"
    );
}

#[test]
fn reading_every_trace_allocates_nothing() {
    let descs = descs(20_000);
    let mut rt = warm(&descs);
    spawn(&mut rt, &descs, 10_000);
    rt.wait_all();
    let before = allocs();
    let mut sojourn = Dur::ZERO;
    let traces = rt.traces();
    let read = traces.len();
    for tr in traces {
        sojourn += tr.output_done.expect("wait_all returned") - tr.spawned;
    }
    let spent = allocs() - before;
    println!("traces: {read} read, {spent} allocations");
    assert_eq!(read as u64, rt.spawned());
    assert!(sojourn > Dur::ZERO);
    // A collected `Vec<TaskTrace>` is one allocation, 104 B per task;
    // the view reads the records where they lie.
    assert_eq!(spent, 0, "{spent} allocations while reading {read} traces");
}

#[test]
fn paper_scale_slud_waves_allocate_per_wave_not_per_tile() {
    let opts = GenOpts::default();
    let nb = slud::grid_for(Bench::Slud.paper_task_count(), opts.seed);
    let before = allocs();
    let waves = slud::waves_as_tasks(nb, slud::DENSITY, &opts);
    let spent = allocs() - before;
    let tasks: usize = waves.iter().map(Vec::len).sum();
    println!(
        "slud: {spent} allocations for {} waves of {tasks} tasks",
        waves.len()
    );
    assert_eq!((waves.len(), tasks), (298, 299_541));
    // Measured: 325 — each wave's task list, the list of wave sizes, the
    // fill-in bitset and the three kinds' kernels; one work list per
    // tile would be 2 098 534.
    assert!(
        spent <= 8 * waves.len() as u64,
        "{spent} allocations for {} waves",
        waves.len()
    );
}

#[test]
fn a_two_device_fleet_states_its_own_budget() {
    let descs = descs(20_000);
    for placement in [Placement::LeastOutstanding, Placement::PowerOfTwo] {
        let config = ClusterConfig {
            placement,
            ..ClusterConfig::uniform(2)
        };
        let mut fleet = ClusterHandle::new(config).unwrap();
        spawn(&mut fleet, &descs, 6_000);
        fleet.wait_all();
        let before = allocs();
        spawn(&mut fleet, &descs, 10_000);
        fleet.wait_all();
        let spent = allocs() - before;
        println!("fleet of 2, {placement:?}: {spent} allocations for 10 000 tasks");
        // Measured: 9 under either policy — its statuses and scratch
        // growing. A sync harvests into one buffer the fleet keeps, its
        // devices' deliveries allocate nothing (as above), and neither
        // does a placement. 3 497 while every sync collected one vector
        // per device.
        assert!(
            spent <= 100,
            "{placement:?}: {spent} allocations for 10 000 tasks on a warm two-device fleet"
        );
    }
}

#[test]
fn a_uniform_task_costs_the_same_at_any_width() {
    // Its warps' work, the block's one run, the kernel's block list and
    // the kernel: four allocations at 128 threads and at 1024. While a
    // block kept one work list per warp: 7 and 35.
    for threads in [32, 128, 1024] {
        let before = allocs();
        let task = TaskDesc::uniform(threads, WarpWork::phased(20_000, 2, 2.0));
        let spent = allocs() - before;
        println!("TaskDesc::uniform({threads}): {spent} allocations");
        assert_eq!(task.total_warps(), threads / 32);
        assert!(
            spent <= 4,
            "{spent} allocations for a {threads}-thread task"
        );
    }
}

#[test]
fn a_hyperq_launch_copies_no_work() {
    // The device shares each launched kernel's work lists, and runs each
    // run of identical warps as one context: a placed threadblock takes
    // the slots and buffers a retired one left, so a wider kernel costs
    // nothing per warp. A launch that copied its work would add a work
    // list per warp, and a block list per launch; a block that made its
    // warps fresh, a buffer per warp.
    const N: u64 = 1_000;
    let run = |threads: u32| {
        let task = TaskDesc::uniform(threads, WarpWork::compute(20_000, 2.0));
        let tasks = vec![task; N as usize];
        let before = allocs();
        run_hyperq(&HyperQConfig::default(), &tasks);
        allocs() - before
    };
    let (narrow, wide) = (run(32), run(1024));
    println!("hyperq: {narrow} allocations for {N} 1-warp kernels, {wide} for 32-warp ones");
    let extra_warps = 31 * N;
    // Measured: 50 and 55 — the device's launch bookkeeping, the same at
    // either width. While each placed warp was made fresh: 2 062 and
    // 33 085, 1.0007 per extra warp; while each launch also copied its
    // blocks: 5 062 and 67 085, 2.0007.
    assert!(
        wide.saturating_sub(narrow) <= N / 10,
        "{} allocations for {extra_warps} more warps",
        wide.saturating_sub(narrow)
    );
}

#[test]
fn a_snapshot_copies_no_sealed_chunk() {
    // A snapshot clones each stream of the log: an `Arc` per sealed
    // chunk, 8 B in the clone's chunk list, plus a copy of the open
    // chunk. N and 4N are multiples of the chunk, so both logs end in a
    // full open chunk and only the chunk lists differ. A copying
    // snapshot grows by every extra event's bytes instead.
    const N: u64 = 16 * CHUNK as u64;
    let snapshot_bytes = |n: u64| {
        let (obs, rec) = Obs::recording();
        for i in 0..n {
            obs.mark(i, i, MarkKind::Arrived);
            obs.task(i + 1, i, TaskState::Spawned);
            obs.tenant(i, (i % 8) as u32);
        }
        let before = bytes();
        let snap = rec.snapshot();
        let spent = bytes() - before;
        assert_eq!(
            snap.marks.len() + snap.tasks.len() + snap.tenants.len(),
            3 * n as usize
        );
        spent
    };
    let (small, large) = (snapshot_bytes(N), snapshot_bytes(4 * N));
    let extra_chunks = 3 * (4 * N - N) / CHUNK as u64;
    println!(
        "snapshot: {small} B for {N} events per stream, {large} B for {}; {extra_chunks} more sealed chunks",
        4 * N
    );
    // Measured: 8 B per extra sealed chunk. Copied, the 3 × 3N extra
    // events (24 + 24 + 16 B) would be 12.6 MB.
    assert!(
        large.saturating_sub(small) <= 16 * extra_chunks,
        "a snapshot of 4N events took {large} B, of N {small} B: {} B for {extra_chunks} more sealed chunks",
        large.saturating_sub(small)
    );
}

/// Live bytes `backends` keep per finished task once `n` 128-thread tasks
/// have run on them — spawned round-robin, then waited for — past what
/// they held before the first spawn.
fn kept_per_task<B: Backend>(mut backends: Vec<B>, n: usize, wait_all: fn(&mut B)) -> f64 {
    let desc = TaskDesc::uniform(128, WarpWork::compute(20_000, 2.0));
    let before = live();
    let len = backends.len();
    for i in 0..n {
        backends[i % len].spawn_blocking(0, desc.clone()).unwrap();
    }
    backends.iter_mut().for_each(wait_all);
    (live() - before) as f64 / n as f64
}

#[test]
fn the_host_keeps_what_it_needs_per_finished_task() {
    for n in [100_000, 400_000] {
        // Each row runs on a thread of its own, read by that thread's counter.
        let [runtime, fleet, bare] = std::thread::scope(|s| {
            let runtime = s.spawn(|| {
                kept_per_task(vec![PagodaRuntime::titan_x()], n, PagodaRuntime::wait_all)
            });
            let fleet = s.spawn(|| {
                let fleet = ClusterHandle::new(ClusterConfig::uniform(16)).unwrap();
                kept_per_task(vec![fleet], n, ClusterHandle::wait_all)
            });
            let bare = s.spawn(|| {
                let bare = (0..16).map(|_| PagodaRuntime::titan_x()).collect();
                kept_per_task(bare, n, PagodaRuntime::wait_all)
            });
            [runtime, fleet, bare].map(|row| row.join().unwrap())
        });
        let share = fleet - bare;
        println!(
            "{n} tasks, live bytes kept per task: one runtime {runtime:.1}, \
             16-device fleet {fleet:.1}, 16 runtimes {bare:.1}, fleet share {share:.1}"
        );
        // Measured: 73.8 / 73.5 B — a 56 B record per task for `trace()`,
        // in a vector that has doubled past the task count.
        assert!(
            (73.0..=74.5).contains(&runtime),
            "{n} tasks: {runtime:.1} B"
        );
        // Measured: 32.1 / 23.8 B — a 16 B status per key, in a vector
        // that has doubled past the task count. A task's payload lives
        // with its device only until the host sees it finish, and the
        // harvest gate, through which nearly every completion of a batch
        // waits, gives back what it grew past the TaskTable once it
        // drains. While it kept its peak: 57.6 / 53.7 B; when each key
        // also kept its descriptor and each device a list of its keys:
        // 128.5 / 126.5 B. Held with 8 B of margin over the first.
        assert!(share <= 40.0, "{n} tasks: the fleet keeps {share:.1} B");
    }
}
