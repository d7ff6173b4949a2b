//! `repro`'s command line: a bad figure name or flag is a usage error —
//! exit code 2 and the list of figure names on stderr, nothing run — and
//! `--json` appends each figure's points to its text. `repro cell` prints
//! a row per (benchmark, scheme) cell: a scheme that cannot take the
//! generated tasks prints an `n/a (<why>)` row and the other schemes
//! still run; a generator flag no task can have exits 2 before any task
//! is built.

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
    let too_big = "the work scale must be at most GenOpts::MAX_WORK_SCALE (1000)";
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
        // A cell of no tasks has nothing to show either.
        (
            &["cell", "--bench", "MM", "--tasks", "0", "--scheme", "all"],
            "--tasks needs a number of at least 1",
        ),
        // A flag of one command is a usage error on the other.
        (&["fig5", "--smem"], "unknown flag --smem for a figure"),
        (&["cell", "--json"], "unknown flag --json for repro cell"),
        // Work scales whose tasks outlast `wait_all` or never end.
        (
            &[
                "cell",
                "--bench",
                "MB",
                "--tasks",
                "4",
                "--scheme",
                "pagoda",
                "--work-scale",
                "1e8",
            ],
            too_big,
        ),
        (
            &[
                "cell",
                "--bench",
                "MB",
                "--tasks",
                "4",
                "--scheme",
                "pagoda",
                "--work-scale",
                "1e300",
            ],
            too_big,
        ),
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

/// `repro cell`'s stdout for `args`; asserts it exited 0.
fn cell(args: &str) -> String {
    let words: Vec<&str> = std::iter::once("cell")
        .chain(args.split_whitespace())
        .collect();
    let out = repro(&words);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `repro cell`'s rows for `args`, keyed by scheme name.
fn rows(args: &str) -> Vec<(String, String)> {
    cell(args)
        .lines()
        .map(|l| {
            let (head, row) = l.split_once(" | ").expect("a row");
            let scheme = head
                .split_whitespace()
                .skip(1)
                .collect::<Vec<_>>()
                .join(" ");
            (scheme, row.to_owned())
        })
        .collect()
}

fn row<'a>(rows: &'a [(String, String)], scheme: &str) -> &'a str {
    let (_, row) = rows.iter().find(|(s, _)| s == scheme).expect(scheme);
    row
}

/// The whole cell grid at 512 tasks and the benchmark list, as
/// committed under `tests/golden/`. A model change that moves them on
/// purpose rewrites them with `repro cell --bench all --scheme all
/// --tasks 512 > crates/bench/tests/golden/cell_all_512.txt` (and
/// `repro cell --list > crates/bench/tests/golden/cell_list.txt`).
#[test]
fn cells_print_the_committed_grid_and_list() {
    for (args, golden) in [
        (
            "--bench all --scheme all --tasks 512",
            include_str!("golden/cell_all_512.txt"),
        ),
        ("--list", include_str!("golden/cell_list.txt")),
    ] {
        assert_eq!(cell(args), golden, "repro cell {args}");
    }
}

#[test]
fn a_task_wider_than_an_mtb_skips_pagoda_and_runs_the_rest() {
    let rows = rows("--bench MM --tasks 64 --threads 1024 --scheme all");
    assert_eq!(rows.len(), 5);
    assert_eq!(
        row(&rows, "Pagoda"),
        "n/a (task threadblock of 1024 threads exceeds the 992-thread MTB executor capacity)"
    );
    for scheme in ["Sequential", "PThreads", "CUDA-HyperQ", "GeMTC"] {
        assert!(row(&rows, scheme).contains("64 tasks"), "{rows:?}");
    }
}

#[test]
fn a_threadblock_no_device_can_launch_leaves_the_cpu_schemes() {
    let mut rows = rows("--bench MM --tasks 64 --threads 16384 --scheme all");
    rows.extend(self::rows(
        "--bench MM --tasks 64 --threads 16384 --scheme fusion",
    ));
    for scheme in ["CUDA-HyperQ", "GeMTC"] {
        assert_eq!(
            row(&rows, scheme),
            "n/a (threadblock size 16384 outside 1..=1024)"
        );
    }
    assert!(row(&rows, "Pagoda").starts_with("n/a (task threadblock of 16384 threads"));
    assert_eq!(
        row(&rows, "Static-Fusion"),
        "n/a (task of 16384 threads is wider than the 256-thread fused sub-task)"
    );
    for scheme in ["Sequential", "PThreads"] {
        assert!(row(&rows, scheme).contains("64 tasks"), "{rows:?}");
    }
}

#[test]
fn generator_flags_no_task_can_have_exit_2_before_generating() {
    let scale = "the work scale must be finite and above 0";
    for (flags, problem) in [
        ("--threads 0", "tasks need at least one thread"),
        ("--work-scale -2", scale),
        ("--work-scale nan", scale),
        ("--work-scale inf", scale),
    ] {
        let args = format!("cell --bench all --tasks 64 --scheme all {flags}");
        let args: Vec<&str> = args.split_whitespace().collect();
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(problem), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed rows");
    }
}
