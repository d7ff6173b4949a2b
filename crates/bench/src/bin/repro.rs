//! `repro` — prints the paper's tables and figures (and the four studies
//! beyond them) from `pagoda_bench::figures::FIGURES`, or runs any
//! benchmark under any scheme at any scale as `repro cell`.
//!
//! ```text
//! repro fig5                    # paper scale; what results/fig5.txt holds
//! repro fig6 fig10 --quick      # 1/16 scale
//! repro all --tasks 512 --json  # every figure, each followed by its points as JSON lines
//! repro cell --bench MPE --scheme all --smem --tasks 8192   # 4 096 tasks without --tasks
//! ```

#![forbid(unsafe_code)]

use pagoda_bench::{Cli, Command};
use workloads::Bench;

fn main() {
    let (cli, command) = Cli::parse();
    match command {
        Command::Figures(figures) => {
            for figure in figures {
                let (text, points) = figure.run(&cli);
                print!("{text}");
                if cli.json {
                    for p in &points {
                        println!("{}", serde_json::to_string(p).expect("serializable"));
                    }
                }
            }
        }
        Command::Cells(cells) => {
            for cell in cells {
                let head = format!("{:>6} {:>16}", cell.bench.name(), cell.scheme.name());
                match cell.try_run() {
                    Ok(s) => println!(
                        "{head} | {:>10.3} ms makespan | {:>10.3} ms compute | {:>8.1} us lat | occ {:>5.1}% | {:>7} tasks",
                        s.makespan.as_secs_f64() * 1e3,
                        s.compute_done.as_secs_f64() * 1e3,
                        s.mean_task_latency.as_us_f64(),
                        s.avg_running_occupancy * 100.0,
                        s.tasks,
                    ),
                    Err(why) => println!("{head} | n/a ({why})"),
                }
            }
        }
        Command::List => {
            let yes_no = |flag| if flag { "yes" } else { "no " };
            for b in Bench::ALL {
                println!(
                    "{:>6}  paper tasks {:>7}  gemtc {}  fusion {}  smem {}",
                    b.name(),
                    b.paper_task_count(),
                    yes_no(b.supports_gemtc()),
                    yes_no(b.supports_fusion()),
                    yes_no(b.uses_smem()),
                );
            }
        }
    }
}
