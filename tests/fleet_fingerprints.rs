//! Fleet byte-identity gate: every smoke-sweep scenario of
//! `pagoda_check` must reproduce the fingerprint (recorder stream,
//! completion instants, engine stats, fleet report) committed in
//! `tests/golden/fleet_fingerprints.txt`, one
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

#[test]
fn smoke_sweep_fingerprints_match_the_committed_golden() {
    let actual: String = sweep_scenarios(false)
        .iter()
        .map(|sc| {
            let digest = fnv1a64(run_one(sc, None).fingerprint.as_bytes());
            format!("{} {digest:016x}\n", sc.replay_cli())
        })
        .collect();
    common::assert_golden("fleet_fingerprints.txt", &actual);
}
