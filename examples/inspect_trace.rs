//! Pipeline inspection: where do narrow tasks spend their time?
//!
//! Runs a burst of MPE tasks through Pagoda with a recorder attached,
//! then breaks every task's life into the paper's §4.3 pipeline stages
//! (spawn → entry copy → chain/flush → pSched dispatch → execution →
//! output copy), printing stage-duration percentiles and writing a
//! Chrome-tracing/Perfetto file you can open at `chrome://tracing`.
//!
//! Doubles as a smoke test (`ci.sh` runs it): it panics unless every
//! task's stages chain from its spawn to its output copy and the trace
//! file is well-formed JSON.
//!
//! Run with `cargo run --release --example inspect_trace`.

use pagoda::prelude::*;
use pagoda_obs::export::check_json;
use workloads::mpe;

fn pct(sorted: &[f64], p: f64) -> f64 {
    sorted[(p * (sorted.len() - 1) as f64).round() as usize]
}

fn main() {
    let n = 2048;
    let tasks = mpe::tasks(n, &GenOpts::default());
    let mut rt = PagodaRuntime::titan_x();
    let (obs, recorder) = Obs::recording();
    rt.attach_obs(obs);
    for t in &tasks {
        rt.spawn_blocking(t.clone())
            .expect("the task fits the device");
    }
    rt.wait_all();

    // Collected once: the stage table below indexes and rereads it.
    let traces: Vec<_> = rt.traces().collect();
    assert_eq!(traces.len(), n);
    for t in &traces {
        let stages = t.phases();
        assert_eq!(stages.len(), 5, "{:?} stopped short", t.task);
        assert_eq!(stages[0].1, t.spawned);
        for w in stages.windows(2) {
            assert_eq!(w[0].2, w[1].1, "{:?}: stages must chain", t.task);
        }
        assert_eq!(Some(stages[4].2), t.output_done);
    }
    println!("traced {} tasks through the Pagoda pipeline", traces.len());
    println!(
        "{:>22} {:>10} {:>10} {:>10}",
        "stage", "p50 us", "p90 us", "p99 us"
    );
    for (i, (stage, _, _)) in traces[0].phases().into_iter().enumerate() {
        let mut durs: Vec<f64> = traces
            .iter()
            .map(|t| {
                let (_, s, e) = t.phases()[i];
                (e - s).as_us_f64()
            })
            .collect();
        durs.sort_by(f64::total_cmp);
        println!(
            "{:>22} {:>10.2} {:>10.2} {:>10.2}",
            stage,
            pct(&durs, 0.5),
            pct(&durs, 0.9),
            pct(&durs, 0.99),
        );
    }

    let mut trace = Vec::new();
    pagoda_obs::write_chrome_trace(&recorder.snapshot(), &mut trace).expect("render trace");
    check_json(std::str::from_utf8(&trace).expect("trace is utf-8")).expect("trace parses");
    let path = std::env::temp_dir().join("pagoda_trace.json");
    std::fs::write(&path, &trace).expect("write trace file");
    println!("\nChrome-tracing file written to {} —", path.display());
    println!("open chrome://tracing (or ui.perfetto.dev) and load it.");

    let mut sorted: Vec<f64> = traces
        .iter()
        .filter_map(|t| t.latency().map(|d| d.as_us_f64()))
        .collect();
    sorted.sort_by(f64::total_cmp);
    println!(
        "\nend-to-end task latency: p50 {:.1} us, p99 {:.1} us over {} tasks",
        pct(&sorted, 0.5),
        pct(&sorted, 0.99),
        sorted.len()
    );
}
