//! Quickstart: spawn narrow tasks onto Pagoda, wait, read the report.
//!
//! Mirrors the host-code structure of the paper's Fig. 1a: create the
//! runtime (the MasterKernel starts occupying the GPU), spawn tasks
//! asynchronously as they "arrive", synchronize, inspect.
//!
//! Run with `cargo run --release --example quickstart`.

use pagoda::prelude::*;

fn main() {
    // Boot Pagoda on the paper's Maxwell Titan X. The MasterKernel's 48
    // MTBs (2 per SMM, 1024 threads each) now hold 100 % of the device.
    let mut rt = PagodaRuntime::titan_x();

    // A narrow task: 128 threads in one threadblock — 0.5 % of the GPU.
    // Running one at a time would leave 99.5 % of the machine idle; the
    // whole point of Pagoda is to run hundreds of these concurrently.
    let make_task = || {
        let mut t = TaskDesc::uniform(128, WarpWork::compute(400_000, 8.0));
        t.input_bytes = 4 * 1024; // copied inside the TaskTable entry
        t.output_bytes = 4 * 1024; // copied back at completion
        t
    };

    // taskSpawn: 2000 spawns stream into the TaskTable while earlier
    // tasks are already being scheduled and executed. When the CPU's view
    // of the table fills (it holds 1536 entries), spawn_blocking refreshes
    // it with the lazy aggregate copy-back, idles one wait timeout if that
    // freed nothing, and retries; submit() is the non-blocking probe
    // underneath.
    let ids: Vec<u64> = (0..2000)
        .map(|_| {
            rt.spawn_blocking(0, make_task())
                .expect("the task fits the device")
        })
        .collect();
    println!("spawned {} tasks by host time {}", ids.len(), rt.now());

    // Wait for a specific task (wait), poll another (check), then drain
    // everything (waitAll) — the paper's Table 1 API.
    let landed = rt.wait(ids[0]).expect("key issued by this runtime");
    let latency = rt
        .trace(ids[0])
        .expect("key issued by this runtime")
        .latency();
    println!(
        "task {} done: latency {}, output in host memory at {landed}",
        ids[0],
        latency.expect("a task waited for has finished")
    );
    let done_500 = rt.check(ids[500]).expect("key issued by this runtime");
    println!("task {} finished yet? {done_500}", ids[500]);
    rt.wait_all();

    let r = rt.report();
    println!("--- run report ---");
    println!("tasks completed : {}", r.tasks);
    println!("makespan        : {}", r.makespan);
    println!("mean latency    : {}", r.mean_task_latency);
    println!(
        "warp occupancy  : {:.1}% of the device's 1536 warp slots",
        r.avg_running_occupancy * 100.0
    );
    println!("PCIe busy       : H2D {}, D2H {}", r.h2d_busy, r.d2h_busy);
}
