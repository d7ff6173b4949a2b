//! Surveillance hub: the paper's DCT scenario (Table 4).
//!
//! An online surveillance system gathers frames from many cameras and
//! compresses them concurrently; each frame's 8×8-block DCT is one narrow
//! task. This example compares runtimes on the stream — including the
//! shared-memory ablation of Table 5
//! (DCT is copy-bound, so GPU wins are modest; smem staging still helps
//! compute time).
//!
//! Run with `cargo run --release --example surveillance_dct`.

use pagoda::prelude::*;

fn main() {
    // --- the camera farm --------------------------------------------------
    let n = 8192;
    println!("compressing {n} frames from simulated camera streams");
    for use_smem in [false, true] {
        let opts = GenOpts {
            use_smem,
            ..GenOpts::default()
        };
        let tasks = workloads::Bench::Dct.tasks(n, &opts);
        let mut rt = PagodaRuntime::titan_x();
        for t in &tasks {
            rt.spawn_blocking(0, t.clone())
                .expect("the task fits the device");
        }
        rt.wait_all();
        let r = rt.report();
        let hq = run_hyperq(&HyperQConfig::default(), &tasks);
        println!(
            "Pagoda {}  makespan {}  compute-done {}  vs HyperQ makespan {}",
            if use_smem { "(smem)" } else { "(plain)" },
            r.makespan,
            r.compute_done,
            hq.makespan,
        );
    }
    println!("note: DCT moves 64 KB per frame each way; Table 3 marks it 81% copy-bound,");
    println!("so end-to-end wins are small even though smem lowers the kernels' CPI.");
}
