//! Pipeline inspection: where do narrow tasks spend their time?
//!
//! Runs a burst of MPE tasks through Pagoda, then breaks every task's
//! life into the paper's §4.3 pipeline stages (spawn → entry copy →
//! chain/flush → pSched dispatch → execution → output copy), printing
//! stage-duration percentiles and writing a Chrome-tracing/Perfetto file
//! you can open at `chrome://tracing`.
//!
//! Run with `cargo run --release --example inspect_trace`.

use pagoda::prelude::*;
use pagoda_core::write_chrome_trace;
use workloads::mpe;

fn pct(sorted: &[f64], p: f64) -> f64 {
    sorted[(p * (sorted.len() - 1) as f64).round() as usize]
}

fn main() {
    let n = 2048;
    let tasks = mpe::tasks(n, &GenOpts::default());
    let mut rt = PagodaRuntime::titan_x();
    for t in &tasks {
        rt.spawn_blocking(t.clone())
            .expect("the task fits the device");
    }
    rt.wait_all();

    let traces = rt.traces();
    println!("traced {} tasks through the Pagoda pipeline", traces.len());
    println!(
        "{:>22} {:>10} {:>10} {:>10}",
        "stage", "p50 us", "p90 us", "p99 us"
    );
    for stage in [
        "spawn→visible",
        "visible→schedulable",
        "schedulable→exec",
        "exec→done",
        "done→output",
    ] {
        let mut durs: Vec<f64> = traces
            .iter()
            .flat_map(|t| t.phases())
            .filter(|(name, _, _)| *name == stage)
            .map(|(_, s, e)| (e - s).as_us_f64())
            .collect();
        if durs.is_empty() {
            continue;
        }
        durs.sort_by(f64::total_cmp);
        println!(
            "{:>22} {:>10.2} {:>10.2} {:>10.2}",
            stage,
            pct(&durs, 0.5),
            pct(&durs, 0.9),
            pct(&durs, 0.99),
        );
    }

    let path = std::env::temp_dir().join("pagoda_trace.json");
    let file = std::fs::File::create(&path).expect("create trace file");
    write_chrome_trace(&traces, std::io::BufWriter::new(file)).expect("write trace");
    println!("\nChrome-tracing file written to {} —", path.display());
    println!("open chrome://tracing (or ui.perfetto.dev) and load it; rows are MTB columns.");

    let lats: Vec<f64> = traces
        .iter()
        .filter_map(|t| t.latency().map(|d| d.as_us_f64()))
        .collect();
    let mut sorted = lats.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "\nend-to-end task latency: p50 {:.1} us, p99 {:.1} us over {} tasks",
        pct(&sorted, 0.5),
        pct(&sorted, 0.99),
        sorted.len()
    );
}
