//! pagoda_check — CLI front-end for the invariant checker.
//!
//! ```text
//! pagoda_check explore [--extended]     sweep scenarios under the checker
//! pagoda_check mutation-smoke           assert seeded bugs are all caught
//! pagoda_check replay [OPTIONS]         re-run one scenario (reproducers)
//! pagoda_check fingerprint [--extended] dump per-scenario fingerprints
//! ```
//!
//! `explore` checks every scenario under the invariant checker and
//! shrinks failures to minimal reproducers, printed as replayable
//! `pagoda_check replay` command lines. The extended
//! cross-product sweep runs with `--extended` or
//! `PAGODA_CHECK_EXTENDED=1`. Exit status is nonzero on any finding.

#![forbid(unsafe_code)]

use pagoda_check::{
    check_scenario, explore, mutation_smoke, parse_fault, parse_placement, run_one,
    sweep_scenarios, Scenario,
};

fn usage() -> ! {
    eprintln!(
        "usage: pagoda_check <explore [--extended] | mutation-smoke | replay [OPTIONS] | fingerprint [--extended]>\n\
         replay options:\n\
           --devices N            fleet size (default 4)\n\
           --placement P          round-robin | least-outstanding | power-of-two | tenant-affinity\n\
           --seed S               placement seed (default 1)\n\
           --tasks T              batch size (default 32)\n\
           --tenants K            tenants round-robined over (default 4)\n\
           --spread W             home-set width (default 1)\n\
           --base-cycles C        base task cycles (default 40000)\n\
           --max-attempts A       submit attempts per task, 0 = fail-fast (default 3)\n\
           --fault kill@US:DEV | slow@US:DEV:FACTOR   (repeatable)"
    );
    std::process::exit(2);
}

fn explore_main(mut args: std::env::Args) -> i32 {
    let mut extended = std::env::var("PAGODA_CHECK_EXTENDED").is_ok_and(|v| v == "1");
    for a in args.by_ref() {
        match a.as_str() {
            "--extended" => extended = true,
            _ => usage(),
        }
    }
    let out = explore(extended, |line| eprintln!("{line}"));
    eprintln!(
        "explore: {} scenario(s) checked ({}), {} failure(s)",
        out.checked,
        if extended { "extended" } else { "smoke" },
        out.failures.len()
    );
    for (sc, findings) in &out.failures {
        eprintln!("FAILURE — minimal reproducer:");
        eprintln!("  {}", sc.replay_cli());
        for f in findings {
            eprintln!("  {f}");
        }
    }
    i32::from(!out.failures.is_empty())
}

fn smoke_main() -> i32 {
    let results = mutation_smoke();
    let mut failed = false;
    for r in &results {
        let verdict = if r.pass() {
            "caught"
        } else if !r.baseline_clean {
            failed = true;
            "NOISY BASELINE"
        } else {
            failed = true;
            "MISSED"
        };
        eprintln!("mutation {:22} {}", r.mutation.name(), verdict);
        if !r.pass() {
            eprintln!("  scenario: {}", r.scenario.replay_cli());
            for f in &r.findings {
                eprintln!("  saw: {f}");
            }
        }
    }
    eprintln!(
        "mutation-smoke: {}/{} seeded bug(s) detected",
        results.iter().filter(|r| r.pass()).count(),
        results.len()
    );
    i32::from(failed)
}

fn replay_main(mut args: std::env::Args) -> i32 {
    let mut sc = Scenario::default();
    sc.faults.clear();
    let need = |args: &mut std::env::Args, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--devices" => {
                sc.devices = need(&mut args, "--devices")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--placement" => {
                sc.placement =
                    parse_placement(&need(&mut args, "--placement")).unwrap_or_else(|| usage())
            }
            "--seed" => {
                sc.seed = need(&mut args, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--tasks" => {
                sc.tasks = need(&mut args, "--tasks")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--tenants" => {
                sc.tenants = need(&mut args, "--tenants")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--spread" => {
                sc.spread = need(&mut args, "--spread")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--base-cycles" => {
                sc.base_cycles = need(&mut args, "--base-cycles")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--max-attempts" => {
                sc.max_attempts = need(&mut args, "--max-attempts")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--fault" => sc
                .faults
                .push(parse_fault(&need(&mut args, "--fault")).unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if sc.devices == 0 || sc.tasks == 0 || sc.tenants == 0 {
        usage();
    }
    // A fault on a device the fleet lacks, say, parses but cannot run.
    if let Err(e) = sc.cluster_config().validate() {
        eprintln!("invalid scenario: {e}");
        return 2;
    }
    eprintln!("replaying: {}", sc.replay_cli());
    match check_scenario(&sc) {
        None => {
            eprintln!("clean: no violations");
            0
        }
        Some(fail) => {
            for f in &fail.findings {
                eprintln!("{f}");
            }
            1
        }
    }
}

/// Dumps every sweep scenario's fingerprint to stdout, one record per
/// line. Capturing this before and after a hot-path change is how
/// "byte-identical behavior" is audited: diff the dumps and every
/// divergence is pinned to a scenario. (The `[serial]` label dates from
/// when a second driver existed; it stays so old dumps still diff.)
fn fingerprint_main(mut args: std::env::Args) -> i32 {
    let mut extended = std::env::var("PAGODA_CHECK_EXTENDED").is_ok_and(|v| v == "1");
    for a in args.by_ref() {
        match a.as_str() {
            "--extended" => extended = true,
            _ => usage(),
        }
    }
    for sc in sweep_scenarios(extended) {
        let out = run_one(&sc, None);
        println!("{} [serial] {}", sc.replay_cli(), out.fingerprint);
    }
    0
}

fn main() {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let code = match args.next().as_deref() {
        Some("explore") => explore_main(args),
        Some("mutation-smoke") => smoke_main(),
        Some("replay") => replay_main(args),
        Some("fingerprint") => fingerprint_main(args),
        _ => usage(),
    };
    std::process::exit(code);
}
