//! Multi-programmed environment: the paper's MPE benchmark (Table 4).
//!
//! Four applications with different personalities — 3DES and Mandelbrot
//! (irregular), FilterBank (needs `syncBlock`), MatrixMul (wants shared
//! memory) — share one GPU, their tasks arriving interleaved as if from
//! independent programs. Batch systems collapse here (a batch's time is
//! its slowest member's); Pagoda's warp-granularity scheduling keeps
//! every application flowing.
//!
//! Run with `cargo run --release --example multiprogram`.

use pagoda::prelude::*;
use workloads::mpe;

fn main() {
    let n = 8192; // 2048 tasks from each of the four applications
    let opts = GenOpts {
        use_smem: true, // MM contributes its shared-memory variant
        ..GenOpts::default()
    };
    let tasks = mpe::tasks(n, &opts);
    let sync_tasks = tasks.iter().filter(|t| t.sync).count();
    let smem_tasks = tasks.iter().filter(|t| t.smem_per_tb > 0).count();
    println!(
        "MPE mix: {n} tasks ({} need syncBlock, {} use shared memory)",
        sync_tasks, smem_tasks
    );

    // Pagoda with everything enabled.
    let mut rt = PagodaRuntime::titan_x();
    for t in &tasks {
        rt.spawn_blocking(0, t.clone())
            .expect("the task fits the device");
    }
    rt.wait_all();
    let pagoda = rt.report();

    // GeMTC must run without shared memory (unsupported there).
    let plain = mpe::tasks(n, &GenOpts::default());
    let gm_cfg = GemtcConfig {
        worker_threads: plain.iter().map(|t| t.threads_per_tb).max().unwrap(),
    };
    let gemtc = run_gemtc(&gm_cfg, &plain);
    let hyperq = run_hyperq(&HyperQConfig::default(), &tasks);
    let pth = run_pthreads(&CpuConfig::default(), &tasks);

    println!("--- results ---");
    println!("Pagoda        : {}", pagoda.makespan);
    println!("CUDA-HyperQ   : {}", hyperq.makespan);
    println!(
        "GeMTC         : {}  (batch barrier pays for every straggler)",
        gemtc.makespan
    );
    println!("20-core CPU   : {}", pth.makespan);
    println!(
        "Pagoda speedups: {:.2}x over HyperQ, {:.2}x over GeMTC, {:.2}x over PThreads",
        pagoda.speedup_over(&hyperq),
        pagoda.speedup_over(&gemtc),
        pagoda.speedup_over(&pth),
    );
}
