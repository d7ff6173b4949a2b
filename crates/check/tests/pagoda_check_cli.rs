//! `pagoda_check replay`'s command line: a scenario the fleet cannot be
//! built from is refused with exit 2 and the configuration error, and a
//! valid one replays clean.

use std::process::{Command, Output};

fn replay(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pagoda_check"))
        .arg("replay")
        .args(args.split_whitespace())
        .output()
        .expect("run pagoda_check")
}

#[test]
fn a_scenario_with_an_invalid_fleet_config_exits_2_with_the_error() {
    let out_of_range = "device index out of range";
    for (args, index, reason) in [
        ("--devices 2 --fault kill@5:3", 0, out_of_range),
        (
            "--devices 2 --fault kill@5:0 --fault slow@9:2:2",
            1,
            out_of_range,
        ),
        (
            "--fault slow@5:1:1e12",
            0,
            "slow factor must be between 1 and 1000",
        ),
    ] {
        let out = replay(args);
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        let problem = format!("invalid scenario: fault spec {index} invalid: {reason}");
        assert!(stderr.contains(&problem), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    }
}

#[test]
fn a_valid_scenario_replays_clean() {
    let out = replay("--devices 2 --tasks 8 --fault kill@5:1");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("clean: no violations"), "{stderr}");
}
