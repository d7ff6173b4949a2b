//! `repro` — prints the paper's tables and figures (and the four studies
//! beyond them) from `pagoda_bench::figures::FIGURES`.
//!
//! ```text
//! repro fig5                    # paper scale; what results/fig5.txt holds
//! repro fig6 fig10 --quick      # 1/16 scale
//! repro all --tasks 512 --json  # every figure, each followed by its points as JSON lines
//! ```

#![forbid(unsafe_code)]

use pagoda_bench::figures::FIGURES;
use pagoda_bench::{usage_exit, Cli};

fn main() {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    let usage = format!(
        "usage: repro <figure>... | all  [--quick] [--tasks N] [--json]\nfigures: {}",
        names.join(" ")
    );
    let (cli, asked) = Cli::parse(&usage);
    if asked.is_empty() {
        usage_exit("no figure named", &usage);
    }
    // Resolve every name before running any: a typo must not cost a run.
    let mut picked = Vec::new();
    for name in &asked {
        match FIGURES.iter().find(|f| f.name == name) {
            Some(figure) => picked.push(figure),
            None if name == "all" => picked.extend(FIGURES),
            None => usage_exit(&format!("unknown figure {name}"), &usage),
        }
    }
    for figure in picked {
        let (text, points) = figure.run(&cli);
        print!("{text}");
        if cli.json {
            for p in &points {
                println!("{}", serde_json::to_string(p).expect("serializable"));
            }
        }
    }
}
