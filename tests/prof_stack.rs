//! Profiler stack tests: golden-file byte-stability of the `pagoda-prof`
//! exports and the telescoping phase contract on a real served
//! workload.
//!
//! The goldens live in `tests/golden/`. They are byte-exact on purpose:
//! the exports are integer-only (picoseconds, counts) precisely so that
//! a determinism regression anywhere in the stack — engine, fleet
//! merge, profiler aggregation — shows up as a diff here. Regenerate
//! after an intentional stream change with
//! `PAGODA_UPDATE_GOLDEN=1 cargo test --test prof_stack`.

mod common;

use pagoda_cluster::{ClusterConfig, ClusterHandle};
use pagoda_obs::Obs;
use pagoda_prof::{check_exposition, write_folded, write_prometheus, Phase, ProfReport, SloSpec};
use pagoda_serve::{serve_on, Policy, ServeConfig, TenantSpec};
use workloads::Bench;

use common::assert_golden;

/// A small deterministic two-tenant mix on a two-device fleet.
fn profiled_run() -> (ProfReport, String) {
    let mut alpha = TenantSpec::new("alpha", Bench::Des3, 4.0e5);
    alpha.queue_cap = 64;
    alpha.weight = 2;
    alpha.slo = Some(SloSpec::p99_us(2_000));
    let mut beta = TenantSpec::new("beta", Bench::Dct, 2.0e5);
    beta.queue_cap = 64;
    let mut cfg = ServeConfig::new(vec![alpha, beta], Policy::WeightedFair);
    cfg.tasks_per_tenant = 64;
    cfg.mix = "prof-golden".into();
    let (obs, rec) = Obs::recording();
    cfg.obs = obs;
    let mut fleet = ClusterHandle::new(ClusterConfig::uniform(2)).expect("uniform config is valid");
    let out = serve_on(&cfg, &mut fleet).expect("golden config serves");
    let slo_json = serde_json::to_string(&out.report.slo).expect("slo reports serialize");
    (ProfReport::from_buffer(&rec.snapshot()), slo_json)
}

fn render(report: &ProfReport) -> (String, String) {
    let mut prom = Vec::new();
    write_prometheus(report, &mut prom).expect("render exposition");
    let mut folded = Vec::new();
    write_folded(report, &mut folded).expect("render folded stacks");
    (
        String::from_utf8(prom).expect("exposition is utf-8"),
        String::from_utf8(folded).expect("folded is utf-8"),
    )
}

#[test]
fn exports_match_the_committed_goldens() {
    let (report, slo) = profiled_run();
    let (prom, folded) = render(&report);
    check_exposition(&prom).expect("exposition parses");
    assert_golden("prof.prom", &prom);
    assert_golden("prof.folded", &folded);
    assert_golden("slo.json", &slo);
}

#[test]
fn phases_partition_sojourn_in_every_group() {
    let (report, _) = profiled_run();
    assert!(report.total().tasks > 0, "the run must complete tasks");
    for g in &report.groups {
        let phase_sum: u64 = Phase::ALL.iter().map(|&p| g.phase_total_ps(p)).sum();
        assert_eq!(phase_sum, g.sojourn.sum(), "group {}", g.label);
    }
}
