//! Fleet byte-identity gate: every scenario of `pagoda_check`'s smoke
//! and extended sweeps must reproduce the fingerprint (recorder stream,
//! completion instants, engine stats, fleet report) committed in
//! `tests/golden/fleet_fingerprints.txt` (smoke) and
//! `tests/golden/fleet_fingerprints_extended.txt` (the 144-scenario
//! cross-product, half of it under a `slow@` fault), one
//! `<replay command> <fnv1a64 of the fingerprint>` line per scenario.
//!
//! A fleet change that claims "no behaviour change" passes this without
//! regenerating; an intentional stream change regenerates with
//! `PAGODA_UPDATE_GOLDEN=1 cargo test --test fleet_fingerprints` and
//! says so.

mod common;

use pagoda_check::{run_one, sweep_scenarios};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One `<replay command> <digest>` line per scenario of the sweep.
fn sweep_digests(extended: bool) -> String {
    sweep_scenarios(extended)
        .iter()
        .map(|sc| {
            let digest = fnv1a64(run_one(sc, None).fingerprint.as_bytes());
            format!("{} {digest:016x}\n", sc.replay_cli())
        })
        .collect()
}

#[test]
fn smoke_sweep_fingerprints_match_the_committed_golden() {
    common::assert_golden("fleet_fingerprints.txt", &sweep_digests(false));
}

#[test]
fn extended_sweep_fingerprints_match_the_committed_golden() {
    common::assert_golden("fleet_fingerprints_extended.txt", &sweep_digests(true));
}
