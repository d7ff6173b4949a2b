//! Packet router: the paper's 3DES scenario (Table 4) end to end.
//!
//! A router receives packets of wildly varying size (NetBench-style
//! 2 KB – 64 KB) and encrypts each with Triple-DES as it arrives — each
//! packet is one narrow task. This example pushes the stream through
//! Pagoda and compares against running the same stream on the 20-core
//! CPU model.
//!
//! Run with `cargo run --release --example packet_router`.

use pagoda::prelude::*;
use workloads::des3;

fn main() {
    // --- the router under load ------------------------------------------
    let n = 8192;
    let opts = GenOpts::default();
    let tasks = des3::tasks(n, &opts);
    let total_bytes: u64 = tasks.iter().map(|t| u64::from(t.input_bytes)).sum();
    println!(
        "routing {n} packets ({:.1} MB total, sizes {}-{} B)",
        total_bytes as f64 / 1e6,
        tasks.iter().map(|t| t.input_bytes).min().unwrap(),
        tasks.iter().map(|t| t.input_bytes).max().unwrap(),
    );

    let mut rt = PagodaRuntime::titan_x();
    for t in &tasks {
        rt.spawn_blocking(0, t.clone())
            .expect("the task fits the device");
    }
    rt.wait_all();
    let gpu = rt.report();

    let cpu = run_pthreads(&CpuConfig::default(), &tasks);

    println!("--- results ---");
    println!(
        "Pagoda   : {} ({:.2} Gbit/s line rate)",
        gpu.makespan,
        total_bytes as f64 * 8.0 / gpu.makespan.as_secs_f64() / 1e9
    );
    println!(
        "20-core  : {} ({:.2} Gbit/s)",
        cpu.makespan,
        total_bytes as f64 * 8.0 / cpu.makespan.as_secs_f64() / 1e9
    );
    println!(
        "Pagoda speedup over PThreads: {:.2}x; mean packet latency {}",
        gpu.speedup_over(&cpu),
        gpu.mean_task_latency
    );
}
