//! Cross-crate integration: every runtime scheme executes the same
//! workloads to completion, and the paper's qualitative claims hold at
//! test scale.

use pagoda::prelude::*;
use workloads::Bench;

fn opts() -> GenOpts {
    GenOpts::default()
}

#[test]
fn all_benchmarks_complete_on_all_gpu_runtimes() {
    for b in Bench::ALL {
        let tasks = b.tasks(96, &opts());
        let n = tasks.len() as u64;

        let pg = run_pagoda(PagodaConfig::default(), &tasks);
        assert_eq!(pg.tasks, n, "Pagoda lost tasks on {}", b.name());

        let hq = run_hyperq(&HyperQConfig::default(), &tasks);
        assert_eq!(hq.tasks, n, "HyperQ lost tasks on {}", b.name());

        if b.supports_gemtc() {
            let plain = b.tasks(
                96,
                &GenOpts {
                    use_smem: false,
                    ..opts()
                },
            );
            let cfg = GemtcConfig {
                worker_threads: plain.iter().map(|t| t.threads_per_tb).max().unwrap(),
            };
            let gm = run_gemtc(&cfg, &plain);
            assert_eq!(
                gm.tasks,
                plain.len() as u64,
                "GeMTC lost tasks on {}",
                b.name()
            );
        }
    }
}

#[test]
fn pagoda_beats_hyperq_beyond_512_tasks() {
    // Fig. 6's finding: once the task count exceeds what 32 concurrent
    // kernels can occupy, Pagoda pulls ahead.
    let tasks = Bench::Fb.tasks(1024, &opts());
    let pg = run_pagoda(PagodaConfig::default(), &tasks);
    let hq = run_hyperq(&HyperQConfig::default(), &tasks);
    assert!(
        pg.makespan < hq.makespan,
        "Pagoda {} vs HyperQ {}",
        pg.makespan,
        hq.makespan
    );
}

#[test]
fn small_task_counts_do_not_favor_pagoda_much() {
    // Fig. 6's other half: at 64 tasks nobody fills the GPU; HyperQ is
    // within ~2x of Pagoda rather than the >1.5x gap seen at scale.
    let tasks = Bench::Conv.tasks(64, &opts());
    let pg = run_pagoda(PagodaConfig::default(), &tasks);
    let hq = run_hyperq(&HyperQConfig::default(), &tasks);
    let ratio = pg.speedup_over(&hq);
    assert!(ratio < 2.0, "tiny run should be close, got {ratio}x");
}

#[test]
fn gpu_runtimes_beat_20_core_cpu_at_scale() {
    for b in [Bench::Mb, Bench::Fb, Bench::Conv] {
        let tasks = b.tasks(1024, &opts());
        let pg = run_pagoda(PagodaConfig::default(), &tasks);
        let pth = run_pthreads(&CpuConfig::default(), &tasks);
        assert!(
            pg.speedup_over(&pth) > 1.5,
            "{} should favor the GPU",
            b.name()
        );
    }
}

#[test]
fn copy_bound_dct_shows_small_gpu_wins() {
    // Table 3/Fig. 5: DCT moves 64 KB per task each way; no GPU runtime
    // can beat the copy chain by much.
    let tasks = Bench::Dct.tasks(512, &opts());
    let pg = run_pagoda(PagodaConfig::default(), &tasks);
    let hq = run_hyperq(&HyperQConfig::default(), &tasks);
    let ratio = pg.speedup_over(&hq);
    assert!(
        (0.7..1.6).contains(&ratio),
        "DCT is copy-bound, got {ratio}x"
    );
}

#[test]
fn batching_ablation_is_slower_than_continuous() {
    // Fig. 11: removing continuous spawning costs real time.
    let tasks = Bench::Mpe.tasks(1024, &opts());
    let cont = run_pagoda(PagodaConfig::default(), &tasks);
    let batched = run_pagoda_waves(PagodaConfig::default(), tasks.chunks(384), Obs::off());
    assert!(
        cont.makespan < batched.makespan,
        "continuous {} vs batched {}",
        cont.makespan,
        batched.makespan
    );
}

#[test]
fn fused_task_latency_grows_with_batch_while_pagoda_stays_flat() {
    // Fig. 10.
    let small = Bench::Mm.tasks(128, &opts());
    let large = Bench::Mm.tasks(2048, &opts());
    let f_small = run_fusion(&small, 256);
    let f_large = run_fusion(&large, 256);
    assert!(
        f_large.mean_task_latency.as_ps() > 4 * f_small.mean_task_latency.as_ps(),
        "fused latency must grow ~linearly: {} vs {}",
        f_small.mean_task_latency,
        f_large.mean_task_latency,
    );
    // Pagoda's latency plateaus once the 1536-entry TaskTable throttles
    // admission; beyond that point it stays flat while fusion keeps
    // growing linearly (a 4x task increase here).
    let plateau_a = run_pagoda(PagodaConfig::default(), &Bench::Mm.tasks(2048, &opts()));
    let plateau_b = run_pagoda(PagodaConfig::default(), &Bench::Mm.tasks(8192, &opts()));
    let growth =
        plateau_b.mean_task_latency.as_secs_f64() / plateau_a.mean_task_latency.as_secs_f64();
    assert!(
        growth < 2.0,
        "Pagoda latency should stay near-flat past the table size, grew {growth}x"
    );
}

#[test]
fn slud_waves_run_through_pagoda() {
    let waves = workloads::slud::waves_as_tasks(12, workloads::slud::DENSITY, &opts());
    let total: usize = waves.iter().map(Vec::len).sum();
    let waves = waves.iter().map(Vec::as_slice);
    let summary = run_pagoda_waves(PagodaConfig::default(), waves, Obs::off());
    assert_eq!(summary.tasks as usize, total);
}
