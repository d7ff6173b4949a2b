//! `pagoda_sim` — the general-purpose driver: run any benchmark under any
//! scheme at any scale, without editing a harness.
//!
//! ```text
//! pagoda_sim --bench FB --scheme pagoda --tasks 8192 --threads 128
//! pagoda_sim --bench MPE --scheme all --tasks 4096 --smem
//! pagoda_sim --list
//! ```

#![forbid(unsafe_code)]

use baselines::RunSummary;
use gpu_arch::GpuSpec;
use pagoda_bench::{bench_waves, run_waves, usage_exit, Scheme};
use pagoda_core::TaskDesc;
use workloads::{Bench, GenOpts};

const USAGE: &str = "usage: pagoda_sim [--bench NAME|all] [--scheme NAME|all] [--tasks N]\n\
     \x20                 [--threads N] [--smem] [--no-io] [--seed N] [--work-scale X]\n\
     \x20                 [--list]\n\
     benches: MB FB BF CONV DCT MM SLUD 3DES MPE\n\
     schemes: sequential pthreads hyperq gemtc pagoda pagoda-batching fusion";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_bench(s: &str) -> Option<Bench> {
    Bench::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(s))
}

fn parse_scheme(s: &str) -> Option<Scheme> {
    Some(match s.to_ascii_lowercase().as_str() {
        "sequential" | "seq" => Scheme::Sequential,
        "pthreads" | "cpu" => Scheme::PThreads,
        "hyperq" | "hq" => Scheme::HyperQ,
        "gemtc" => Scheme::Gemtc,
        "pagoda" => Scheme::Pagoda,
        "pagoda-batching" | "batching" => Scheme::PagodaBatched(384),
        "fusion" => Scheme::Fusion(256),
        _ => return None,
    })
}

/// Why `scheme` cannot run `waves`, if it cannot: a Pagoda task must fit
/// an MTB ([`TaskDesc::validate`]), a fused sub-task its slot, and what
/// a baseline launches must be a threadblock the Titan X can run.
fn unfit(scheme: Scheme, waves: &[Vec<TaskDesc>]) -> Option<String> {
    let spec = GpuSpec::titan_x();
    waves.iter().flatten().find_map(|t| {
        Some(match scheme {
            Scheme::Sequential | Scheme::PThreads => return None,
            Scheme::Pagoda | Scheme::PagodaBatched(_) => t.validate().err()?.to_string(),
            Scheme::Fusion(w) if t.threads_per_tb > w => format!(
                "task of {} threads is wider than the {w}-thread fused sub-task",
                t.threads_per_tb
            ),
            Scheme::HyperQ | Scheme::Gemtc | Scheme::Fusion(_) => {
                spec.validate(&t.native_shape()).err()?.to_string()
            }
        })
    })
}

fn print_row(bench: Bench, scheme: Scheme, s: &RunSummary) {
    println!(
        "{:>6} {:>16} | {:>10.3} ms makespan | {:>10.3} ms compute | {:>8.1} us lat | occ {:>5.1}% | {:>7} tasks",
        bench.name(),
        scheme.name(),
        s.makespan.as_secs_f64() * 1e3,
        s.compute_done.as_secs_f64() * 1e3,
        s.mean_task_latency.as_us_f64(),
        s.avg_running_occupancy * 100.0,
        s.tasks,
    );
}

fn main() {
    let mut benches: Vec<Bench> = vec![Bench::Fb];
    let mut schemes: Vec<Scheme> = vec![Scheme::Pagoda];
    let mut opts = GenOpts::default();
    let mut n = 4096usize;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--bench" => {
                let v = val();
                benches = if v.eq_ignore_ascii_case("all") {
                    Bench::ALL.to_vec()
                } else {
                    vec![parse_bench(&v).unwrap_or_else(|| usage())]
                };
            }
            "--scheme" => {
                let v = val();
                schemes = if v.eq_ignore_ascii_case("all") {
                    vec![
                        Scheme::Sequential,
                        Scheme::PThreads,
                        Scheme::HyperQ,
                        Scheme::Gemtc,
                        Scheme::Pagoda,
                    ]
                } else {
                    vec![parse_scheme(&v).unwrap_or_else(|| usage())]
                };
            }
            "--tasks" => n = val().parse().unwrap_or_else(|_| usage()),
            "--threads" => opts.threads_per_task = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = val().parse().unwrap_or_else(|_| usage()),
            "--work-scale" => opts.work_scale = val().parse().unwrap_or_else(|_| usage()),
            "--smem" => opts.use_smem = true,
            "--no-io" => opts.with_io = false,
            "--list" => {
                for b in Bench::ALL {
                    println!(
                        "{:>6}  paper tasks {:>7}  gemtc {}  fusion {}  smem {}",
                        b.name(),
                        b.paper_task_count(),
                        if b.supports_gemtc() { "yes" } else { "no " },
                        if b.supports_fusion() { "yes" } else { "no " },
                        if b.uses_smem() { "yes" } else { "no " },
                    );
                }
                return;
            }
            _ => usage(),
        }
    }
    // A zero-thread task or a zero, negative or unbounded work scale
    // would reach the generators: checked before any task is built.
    if let Some(problem) = opts.problem() {
        usage_exit(problem, USAGE);
    }

    for b in &benches {
        // GeMTC cannot take shared-memory tasks; fall back per scheme.
        let waves = bench_waves(*b, n, &opts);
        let plain_opts = GenOpts {
            use_smem: false,
            ..opts.clone()
        };
        let waves_plain = bench_waves(*b, n, &plain_opts);
        for s in &schemes {
            match s {
                Scheme::Gemtc if !b.supports_gemtc() => {
                    println!(
                        "{:>6} {:>16} | n/a (dynamic task count)",
                        b.name(),
                        s.name()
                    );
                }
                Scheme::Fusion(_) if !b.supports_fusion() => {
                    println!(
                        "{:>6} {:>16} | n/a (no static task list)",
                        b.name(),
                        s.name()
                    );
                }
                _ => {
                    let waves = if *s == Scheme::Gemtc {
                        &waves_plain
                    } else {
                        &waves
                    };
                    match unfit(*s, waves) {
                        Some(why) => println!("{:>6} {:>16} | n/a ({why})", b.name(), s.name()),
                        None => print_row(*b, *s, &run_waves(*s, waves)),
                    }
                }
            }
        }
    }
}
