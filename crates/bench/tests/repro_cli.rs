//! `repro`'s command line: a bad figure name or flag is a usage error —
//! exit code 2 and the list of figure names on stderr, nothing run — and
//! `--json` appends each figure's points to its text.

use pagoda_bench::figures::FIGURES;
use pagoda_bench::Cli;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn a_bad_command_line_exits_2_with_the_figure_names() {
    for (args, problem) in [
        (&["fig55"][..], "unknown figure fig55"),
        (&["table5", "fig55"], "unknown figure fig55"),
        (&["fig5", "--bogus"], "unknown flag --bogus"),
        (&["fig5", "--tasks"], "--tasks needs a number"),
        (&["fig5", "--tasks", "many"], "--tasks needs a number"),
        (
            &["fig5", "--tasks", "0"],
            "--tasks needs a number of at least 1",
        ),
        (&["--quick"], "no figure named"),
        // The retired `cluster_scaling` binary's own flags.
        (&["cluster_scaling", "--smoke"], "unknown flag --smoke"),
        (&["cluster_scaling", "--gate", "3"], "unknown flag --gate"),
        (&["cluster_scaling", "--out", "x"], "unknown flag --out"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a figure");
        assert!(stderr.starts_with(problem), "{args:?}: {stderr}");
        for figure in FIGURES {
            assert!(stderr.contains(figure.name), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn figures_print_in_the_order_asked_each_followed_by_its_points() {
    let cli = Cli {
        tasks: Some(64),
        json: true,
        quick: false,
    };
    let mut expected = String::new();
    for name in ["table5", "table3"] {
        let figure = FIGURES.iter().find(|f| f.name == name).expect("a figure");
        let (text, points) = figure.run(&cli);
        expected += &text;
        for p in &points {
            expected += &serde_json::to_string(p).expect("serializable");
            expected.push('\n');
        }
    }
    let out = repro(&["table5", "--json", "table3", "--tasks", "64"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8"), expected);
}

#[test]
fn all_is_every_figure_in_table_order() {
    let out = repro(&["all", "--tasks", "8"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let cli = Cli {
        tasks: Some(8),
        json: false,
        quick: false,
    };
    let expected: String = FIGURES.iter().map(|f| f.run(&cli).0).collect();
    assert_eq!(stdout, expected);
    assert_eq!(FIGURES.len(), 13);
}
