//! `pagoda_sim`'s command line: a scheme that cannot take the generated
//! tasks prints an `n/a (<why>)` row, and the other schemes still run; a
//! generator flag no task can have exits 2 before any task is built.

use std::process::Command;

/// `pagoda_sim`'s rows for `args`, keyed by scheme name; asserts it
/// exited 0.
fn rows(args: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_pagoda_sim"))
        .args(args.split_whitespace())
        .output()
        .expect("run pagoda_sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8(out.stdout)
        .expect("utf-8 stdout")
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
        let args = format!("--bench all --tasks 64 --scheme all {flags}");
        let out = Command::new(env!("CARGO_BIN_EXE_pagoda_sim"))
            .args(args.split_whitespace())
            .output()
            .expect("run pagoda_sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(problem), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: pagoda_sim"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed rows");
    }
}
