//! Determinism: the whole stack — generators, DES engine, runtimes — must
//! produce bit-identical results across repeated runs. This is what makes
//! every figure in EXPERIMENTS.md reproducible.

use pagoda::pagoda_serve::serving_slice;
use pagoda::prelude::*;
use workloads::Bench;

fn run_pagoda_once(seed: u64) -> (u64, u64, u64) {
    let opts = GenOpts {
        seed,
        ..GenOpts::default()
    };
    let tasks = Bench::Mpe.tasks(256, &opts);
    let r = run_pagoda(PagodaConfig::default(), &tasks);
    (r.makespan.as_ps(), r.compute_done.as_ps(), r.tasks)
}

#[test]
fn pagoda_runs_are_bit_identical() {
    assert_eq!(run_pagoda_once(7), run_pagoda_once(7));
}

#[test]
fn seeds_change_irregular_workloads() {
    assert_ne!(run_pagoda_once(7), run_pagoda_once(8));
}

#[test]
fn hyperq_and_gemtc_are_deterministic() {
    let tasks = Bench::Des3.tasks(256, &GenOpts::default());
    let a = run_hyperq(&HyperQConfig::default(), &tasks);
    let b = run_hyperq(&HyperQConfig::default(), &tasks);
    assert_eq!(a.makespan, b.makespan);
    let cfg = GemtcConfig {
        worker_threads: 128,
    };
    let c = run_gemtc(&cfg, &tasks);
    let d = run_gemtc(&cfg, &tasks);
    assert_eq!(c.makespan, d.makespan);
}

#[test]
fn fusion_and_cpu_are_deterministic() {
    let tasks = Bench::Mm.tasks(128, &GenOpts::default());
    assert_eq!(
        run_fusion(&tasks, 256).makespan,
        run_fusion(&tasks, 256).makespan
    );
    assert_eq!(
        run_pthreads(&CpuConfig::default(), &tasks).makespan,
        run_pthreads(&CpuConfig::default(), &tasks).makespan
    );
}

// The same serving experiment serve_curves sweeps: a device slice,
// bursty + deadline tenants, overload. Same seed ⇒ byte-identical
// serialized metric records and report.
fn serve_curves_style_run(policy: Policy, seed: u64) -> (String, String) {
    let mut packets = TenantSpec::new("packets", Bench::Des3, 4.0e5);
    packets.weight = 2;
    packets.queue_cap = 32;
    packets.deadline = Some(Dur::from_us(1_500));
    let mut tiles = TenantSpec::new("tiles", Bench::Mb, 0.0);
    tiles.queue_cap = 32;
    tiles.arrival = ArrivalSpec::Mmpp {
        calm_rate_per_s: 1.0e5,
        burst_rate_per_s: 4.0e5,
        mean_calm_us: 300.0,
        mean_burst_us: 100.0,
    };
    let mut cfg = ServeConfig::new(vec![packets, tiles], policy);
    cfg.tasks_per_tenant = 96;
    cfg.seed = seed;
    cfg.mix = "determinism".into();
    cfg.cancel_late = policy == Policy::Edf;
    cfg.runtime = serving_slice(2).expect("nonzero slice");
    let out = serve(&cfg).expect("valid serving config");
    (
        serde_json::to_string(&out.records).expect("records serialize"),
        serde_json::to_string(&out.report).expect("report serializes"),
    )
}

#[test]
fn serve_metric_records_are_byte_identical() {
    for policy in [Policy::Fifo, Policy::WeightedFair, Policy::Edf] {
        let (rec_a, rep_a) = serve_curves_style_run(policy, 42);
        let (rec_b, rep_b) = serve_curves_style_run(policy, 42);
        assert_eq!(rec_a, rec_b, "{policy:?} records must be byte-identical");
        assert_eq!(rep_a, rep_b, "{policy:?} report must be byte-identical");
    }
}

#[test]
fn serve_seeds_change_the_records() {
    let (rec_a, _) = serve_curves_style_run(Policy::Fifo, 42);
    let (rec_b, _) = serve_curves_style_run(Policy::Fifo, 43);
    assert_ne!(rec_a, rec_b, "different seeds must change arrival timing");
}

// Observability must not perturb determinism: two identical runs
// recorded at every layer produce byte-identical buffers.
fn observed_pagoda_run(seed: u64) -> String {
    let opts = GenOpts {
        seed,
        ..GenOpts::default()
    };
    let tasks = Bench::Mpe.tasks(192, &opts);
    let (obs, rec) = Obs::recording();
    run_pagoda_waves(PagodaConfig::default(), [&tasks[..]], obs);
    rec.snapshot().to_json()
}

#[test]
fn recorder_buffers_are_byte_identical_across_runs() {
    let a = observed_pagoda_run(11);
    let b = observed_pagoda_run(11);
    assert_eq!(a, b, "observed runs must be byte-identical");
    assert!(a.len() > 2, "the recorder actually captured events");
    let c = observed_pagoda_run(12);
    assert_ne!(a, c, "a different seed must change the recorded history");
}

// The obs handle attaches through the serving layer too, and recording
// does not change what serve() returns.
#[test]
fn serve_with_recorder_matches_serve_without() {
    let mk = |obs: Obs| {
        let mut t = TenantSpec::new("t", Bench::Des3, 3.0e5);
        t.queue_cap = 16;
        let mut cfg = ServeConfig::new(vec![t], Policy::Fifo);
        cfg.tasks_per_tenant = 48;
        cfg.seed = 5;
        cfg.obs = obs;
        serde_json::to_string(&serve(&cfg).expect("valid config").records)
            .expect("records serialize")
    };
    let (obs, rec) = Obs::recording();
    assert_eq!(mk(Obs::off()), mk(obs));
    let buf = rec.snapshot();
    assert_eq!(buf.counter(Counter::AdmissionAdmitted), 48);
}

#[test]
fn generator_determinism_across_all_benchmarks() {
    for b in Bench::ALL {
        let o = GenOpts::default();
        let a: Vec<u64> = b.tasks(64, &o).iter().map(|t| t.total_instrs()).collect();
        let c: Vec<u64> = b.tasks(64, &o).iter().map(|t| t.total_instrs()).collect();
        assert_eq!(a, c, "{} generation must be deterministic", b.name());
    }
}
