//! Sparse LU solver: the paper's SLUD scenario (Table 4).
//!
//! A block-sparse matrix factorizes in dependency waves whose task count
//! is *not known up front* (fill-in): the case that rules out GeMTC's
//! batches and static fusion entirely, and the paper's largest run
//! (273 K tasks). This example generates the symbolic wave structure
//! for a block matrix and drives the waves through Pagoda with `waitAll`
//! as the inter-wave dependency barrier.
//!
//! Run with `cargo run --release --example sparse_solver`.

use pagoda::prelude::*;
use workloads::slud;

fn main() {
    // --- the block-sparse factorization as narrow-task waves -------------
    let nb = 48; // 48x48 tiles of 32x32
    let opts = GenOpts::default();
    let waves = slud::waves_as_tasks(nb, slud::DENSITY, &opts);
    let total: usize = waves.iter().map(Vec::len).sum();
    println!(
        "symbolic factorization of a {nb}x{nb} tile grid: {} tasks in {} waves \
         (count is input-dependent — GeMTC cannot run this)",
        total,
        waves.len()
    );

    let mut rt = PagodaRuntime::titan_x();
    for wave in &waves {
        for t in wave {
            rt.spawn_blocking(0, t.clone())
                .expect("the task fits the device");
        }
        // Dependency barrier: the next wave needs this wave's tiles.
        rt.wait_all();
    }
    let r = rt.report();

    // CPU comparison, wave by wave.
    let cpu_ms: f64 = waves
        .iter()
        .map(|w| {
            run_pthreads(&CpuConfig::default(), w)
                .makespan
                .as_secs_f64()
                * 1e3
        })
        .sum();

    println!("--- results ---");
    println!("Pagoda: {} for {} tile tasks", r.makespan, r.tasks);
    println!("20-core PThreads (wave-synchronous): {cpu_ms:.2} ms");
    println!(
        "speedup {:.2}x; mean tile-task latency {}",
        cpu_ms / (r.makespan.as_secs_f64() * 1e3),
        r.mean_task_latency
    );
}
