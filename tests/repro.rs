//! The evaluation gate: every figure of `pagoda_bench::figures::FIGURES`
//! (the paper's Fig. 5–11, Tables 3 and 5, and the four studies beyond
//! them), run at 1/64 of paper scale, must print the text committed under
//! `tests/golden/repro/<name>.txt` byte for byte, and its points must
//! have the shapes EXPERIMENTS.md claims. `results/<name>.txt` is the same
//! table at paper scale, held to the `repro` binary by `ci.sh`.
//!
//! The shape assertions compare schemes with each other — never with the
//! sequential CPU on a seeded benchmark, whose "speed-up" is a property of
//! the draw (MB spans 49×–116× over six seeds at one model). A claim that
//! needs more tasks than a run has (Fig. 6's pull-ahead past 512 tasks,
//! Fig. 10's plateau from 8 K, the geomean bands) is asserted where the
//! run reaches that size: in `paper_scale_shapes`, which `ci.sh` runs in
//! release under `PAGODA_CHECK_EXTENDED=1` — except for the serving
//! curves and the fleet study, whose paper scale a debug build reaches in
//! seconds and which `paper_scale` therefore runs in tier-1, and Fig. 5's
//! three geomean bands, which `fig5_bands` holds in tier-1 at the
//! smallest task count where each holds with margin on three seeds.
//!
//! A formatter, generator-seed or cost-model change fails the golden with
//! the figure named; an intended one regenerates with
//! `PAGODA_UPDATE_GOLDEN=1 cargo test --test repro` (and `results/` with
//! the loop in `ci.sh`) and says so.

mod common;

use baselines::geomean;
use pagoda_bench::figures::{fig5_cells, Figure, FIGURES};
use pagoda_bench::{Cli, CurvePoint, DataPoint, Point, ScalingPoint, Scheme, SkewPoint};
use pagoda_prof::GroupSummary;
use std::collections::BTreeSet;

const HQ: &str = "CUDA-HyperQ";
const GM: &str = "GeMTC";
const PG: &str = "Pagoda";
const ALL_BUT_SLUD: [&str; 8] = ["MB", "FB", "BF", "CONV", "DCT", "MM", "3DES", "MPE"];

/// One run of a figure, with the lookups the shape checks read it by.
struct Run {
    name: &'static str,
    /// The run is at the paper's task count.
    full: bool,
    text: String,
    /// The scheme runs; the other kinds of point follow, each in run order.
    points: Vec<DataPoint>,
    curves: Vec<CurvePoint>,
    scaling: Vec<ScalingPoint>,
    skew: Vec<SkewPoint>,
    attribution: Vec<GroupSummary>,
}

impl Run {
    fn of(figure: &'static Figure, tasks: Option<usize>) -> Run {
        let cli = Cli {
            tasks,
            json: false,
            quick: false,
        };
        let (text, points) = figure.run(&cli);
        Run::new(figure.name, tasks.is_none(), text, points)
    }

    fn new(name: &'static str, full: bool, text: String, points: Vec<Point>) -> Run {
        let mut run = Run {
            name,
            full,
            text,
            points: Vec::new(),
            curves: Vec::new(),
            scaling: Vec::new(),
            skew: Vec::new(),
            attribution: Vec::new(),
        };
        for point in points {
            match point {
                Point::Scheme(p) => run.points.push(p),
                Point::Curve(p) => run.curves.push(p),
                Point::Scaling(p) => run.scaling.push(p),
                Point::Skew(p) => run.skew.push(p),
                Point::Attribution(p) => run.attribution.push(p),
            }
        }
        run
    }

    fn find(
        &self,
        experiment: &str,
        bench: &str,
        scheme: &str,
        param: Option<u64>,
    ) -> Option<&DataPoint> {
        self.points.iter().find(|p| {
            p.experiment == experiment && p.bench == bench && p.scheme == scheme && p.param == param
        })
    }

    /// The point of this figure for `(bench, scheme, param)`.
    fn at(&self, bench: &str, scheme: &str, param: Option<u64>) -> &DataPoint {
        self.find(self.name, bench, scheme, param)
            .unwrap_or_else(|| panic!("{}: no point for {bench} {scheme} {param:?}", self.name))
    }

    /// The distinct `param`s of a bench's points, ascending.
    fn params(&self, bench: &str) -> Vec<u64> {
        let set: BTreeSet<u64> = self
            .points
            .iter()
            .filter(|p| p.bench == bench)
            .filter_map(|p| p.param)
            .collect();
        set.into_iter().collect()
    }
}

/// `value` is within `tolerance` (a fraction) of `target`.
fn near(value: f64, target: f64, tolerance: f64) -> bool {
    (value / target - 1.0).abs() <= tolerance
}

/// Fig. 5: who wins, and by about how much.
fn fig5(run: &Run) {
    let makespan = |bench, scheme| run.at(bench, scheme, None).makespan_ms;
    let (mut over_pth, mut over_hq, mut over_gm) = (Vec::new(), Vec::new(), Vec::new());
    for bench in ALL_BUT_SLUD.into_iter().chain(["SLUD"]) {
        let (pg, hq, pth) = (
            makespan(bench, PG),
            makespan(bench, HQ),
            makespan(bench, "PThreads"),
        );
        let gm = run.find("fig5", bench, GM, None).map(|p| p.makespan_ms);
        assert_eq!(
            gm.is_none(),
            bench == "SLUD",
            "fig5: GeMTC runs all but SLUD's dynamic task count"
        );
        if let Some(gm) = gm {
            assert!(pg < gm, "fig5 {bench}: Pagoda {pg} ms behind GeMTC {gm} ms");
            if matches!(bench, "MB" | "3DES" | "MPE") {
                assert!(
                    gm > hq,
                    "fig5 {bench}: GeMTC {gm} ms ahead of HyperQ {hq} ms on an irregular bench"
                );
            }
            over_gm.push(gm / pg);
        }
        // HyperQ edging Pagoda on the copy-bound pair is part of the shape:
        // by a sliver at paper scale, by up to 15 % on 512 tasks. SLUD's
        // waves are too small to fill the GPU below paper scale.
        let edge = match bench {
            _ if run.full => 1.02,
            "DCT" | "MM" => 1.15,
            "SLUD" => f64::INFINITY,
            _ => 1.0,
        };
        assert!(
            pg < hq * edge,
            "fig5 {bench}: Pagoda {pg} ms, HyperQ {hq} ms"
        );
        assert!(
            !run.full || pg < pth,
            "fig5 {bench}: Pagoda {pg} ms, PThreads {pth} ms"
        );
        over_pth.push(pth / pg);
        over_hq.push(hq / pg);
    }
    if run.full {
        // The paper's geomeans are 5.70 / 1.51 / 1.69. Ours sit within 15 %
        // of the first two; GeMTC's is the known deviation (EXPERIMENTS.md
        // Fig. 5, ROADMAP item 3), held in its own band around 2.72 so that
        // a fix to the batch-barrier model has to restate it.
        let (pth, hq, gm) = (geomean(&over_pth), geomean(&over_hq), geomean(&over_gm));
        assert!(
            near(pth, 5.70, 0.15),
            "fig5: geomean over PThreads {pth:.2}, paper 5.70"
        );
        assert!(
            near(hq, 1.51, 0.15),
            "fig5: geomean over HyperQ {hq:.2}, paper 1.51"
        );
        assert!(
            near(gm, 2.72, 0.10),
            "fig5: geomean over GeMTC {gm:.2}, recorded 2.72 (paper 1.69)"
        );
    }
}

/// Fig. 5's geomean of Pagoda's speed-up over `baseline`, across the
/// nine benchmarks (eight for GeMTC, which cannot run SLUD), at `n` tasks
/// each and generator seed `seed`: `repro fig5`'s own cells.
fn fig5_geomean(baseline: Scheme, n: usize, seed: u64) -> f64 {
    let mut cells = fig5_cells(&Cli {
        tasks: Some(n),
        ..Cli::default()
    });
    for cell in &mut cells {
        cell.opts.seed = seed;
    }
    let over: Vec<f64> = cells
        .iter()
        .filter(|pg| pg.scheme == Scheme::Pagoda)
        .filter_map(|pg| {
            let theirs = cells
                .iter()
                .find(|c| c.bench == pg.bench && c.scheme == baseline)?;
            Some(pg.run().speedup_over(&theirs.run()))
        })
        .collect();
    geomean(&over)
}

/// Fig. 5's three geomean bands (the paper's 5.70× over PThreads and
/// 1.51× over HyperQ within 15 %, the recorded 2.72× over GeMTC within
/// 10 %), each at the smallest task count, on a 1 024 grid, where seeds
/// 42, 7 and 99 all land within three quarters of the band (bisected in
/// release): 8 192 tasks over PThreads (seed 99 reads −10.8 %; −11.6 % at
/// 7 168), 2 048 over HyperQ (−5.1 / −6.9 / −9.6 %), 3 072 over GeMTC
/// (−6.2 / −6.4 / −5.9 %; −8.3 % at 2 048). At paper scale
/// `paper_scale_shapes` holds them on seed 42 as well.
fn fig5_bands(seed: u64) {
    for (baseline, n, target, band) in [
        (Scheme::PThreads, 8_192, 5.70, 0.15),
        (Scheme::HyperQ, 2_048, 1.51, 0.15),
        (Scheme::Gemtc, 3_072, 2.72, 0.10),
    ] {
        let g = fig5_geomean(baseline, n, seed);
        assert!(
            near(g, target, band),
            "fig5 seed {seed}, {n} tasks: geomean over {} {g:.2}, band {target} ± {}%",
            baseline.name(),
            band * 100.0
        );
    }
}

mod fig5_bands {
    #[test]
    fn seed_42() {
        super::fig5_bands(42);
    }

    #[test]
    fn seed_7() {
        super::fig5_bands(7);
    }

    #[test]
    fn seed_99() {
        super::fig5_bands(99);
    }
}

/// Fig. 6: tied while the GPU is underfilled, Pagoda ahead past 512 tasks,
/// DCT pinned to the copy chain, near-linear growth.
fn fig6(run: &Run) {
    for bench in ["MB", "CONV", "DCT", "3DES", "MPE"] {
        let time = |scheme, n| run.at(bench, scheme, Some(n)).makespan_ms;
        for n in run.params(bench) {
            let (hq, gm, pg) = (time(HQ, n), time(GM, n), time(PG, n));
            if bench == "DCT" {
                assert!(
                    near(pg, hq, 0.35),
                    "fig6 DCT @{n}: Pagoda {pg} ms, HyperQ {hq} ms"
                );
                assert!(gm > hq.max(pg), "fig6 DCT @{n}: GeMTC {gm} ms is not last");
            } else if n == 64 {
                assert!(
                    near(hq, pg, 0.10),
                    "fig6 {bench} @64: HyperQ {hq} ms, Pagoda {pg} ms"
                );
            } else if n > 512 {
                assert!(
                    pg < hq.min(gm),
                    "fig6 {bench} @{n}: Pagoda {pg} ms, HyperQ {hq}, GeMTC {gm}"
                );
            }
            if n == 16_384 {
                let growth = pg / time(PG, 4_096);
                assert!(
                    (3.5..4.3).contains(&growth),
                    "fig6 {bench}: 4 K → 16 K tasks grew {growth:.2}×"
                );
            }
        }
    }
}

/// Fig. 7: Pagoda wins at every width, its lead over HyperQ shrinks as
/// tasks widen, GeMTC barely moves.
fn fig7(run: &Run) {
    let widths = [32, 64, 128, 256, 512];
    let (mut over_hq, mut over_gm) = (Vec::new(), Vec::new());
    for bench in ALL_BUT_SLUD {
        let time = |scheme, w| run.at(bench, scheme, Some(w)).compute_ms;
        let lead: Vec<f64> = widths.iter().map(|&w| time(HQ, w) / time(PG, w)).collect();
        for (i, &w) in widths.iter().enumerate() {
            assert!(lead[i] > 1.0, "fig7 {bench} @{w}: HyperQ ahead of Pagoda");
            assert!(
                time(GM, w) > time(PG, w),
                "fig7 {bench} @{w}: GeMTC ahead of Pagoda"
            );
            // Non-increasing, give or take the last digits once both
            // schemes have flattened out (and a 512-task MPE draw).
            let slack = if run.full { 1.05 } else { 1.15 };
            assert!(
                i == 0 || lead[i] <= lead[i - 1] * slack,
                "fig7 {bench}: lead over HyperQ grew {:.2} → {:.2} at {w} threads",
                lead[i - 1],
                lead[i]
            );
        }
        assert!(
            lead[4] < lead[0] * 0.9,
            "fig7 {bench}: lead did not shrink, {lead:?}"
        );
        let spread = |scheme| {
            let times = widths[1..].iter().map(|&w| time(scheme, w));
            let (lo, hi) = times.fold((f64::INFINITY, 0.0), |(lo, hi), t| (t.min(lo), t.max(hi)));
            hi / lo
        };
        assert!(
            spread(GM) < 1.35 && spread(GM) < spread(HQ),
            "fig7 {bench}: GeMTC moves {:.2}× over 64–512 threads, HyperQ {:.2}×",
            spread(GM),
            spread(HQ)
        );
        over_hq.push(lead[2]);
        over_gm.push(time(GM, 128) / time(PG, 128));
    }
    if run.full {
        let (hq, gm) = (geomean(&over_hq), geomean(&over_gm));
        assert!(
            near(hq, 2.29, 0.20),
            "fig7: geomean over HyperQ at 128 threads {hq:.2}, paper 2.29"
        );
        assert!(
            near(gm, 2.26, 0.20),
            "fig7: geomean over GeMTC at 128 threads {gm:.2}, paper 2.26"
        );
    }
}

/// Fig. 8: a clear win while tasks are narrow, MM below 1 once HyperQ can
/// fill the machine, CONV never below 1.
fn fig8(run: &Run) {
    let cell = |bench, dim: u64, threads: u64| run.at(bench, PG, Some(dim << 32 | threads)).speedup;
    for bench in ["MM", "CONV"] {
        for dim in [16, 32, 64] {
            for threads in [256, 512] {
                let s = cell(bench, dim, threads);
                assert!(
                    s > 1.3,
                    "fig8 {bench} {dim}² @{threads}: narrow-task speed-up {s:.2}"
                );
            }
        }
    }
    for dim in [128, 256] {
        let (narrow, wide) = (cell("MM", dim, 256), cell("MM", dim, 16_384));
        assert!(
            wide < 1.0 && wide < narrow,
            "fig8 MM {dim}²: {narrow:.2} @256 → {wide:.2} @16384"
        );
    }
    if run.full {
        for p in run.points.iter().filter(|p| p.bench == "CONV") {
            assert!(
                p.speedup >= 1.0,
                "fig8 CONV param {:#x}: {:.2} < 1",
                p.param.unwrap(),
                p.speedup
            );
        }
    }
}

/// Fig. 9: the runtime schemes beat static fusion on irregular tasks (MB
/// is the exception), and the 20-core CPU is last.
fn fig9(run: &Run) {
    let benches = ["MB", "CONV", "DCT", "FB", "BF", "MM", "3DES", "MPE"];
    let time = |bench, scheme| run.at(bench, scheme, None).makespan_ms;
    let mut over_fusion = Vec::new();
    for bench in benches {
        let (fus, pg, hq, pth) = (
            time(bench, "Static-Fusion"),
            time(bench, PG),
            time(bench, HQ),
            time(bench, "PThreads"),
        );
        assert!(
            pth > fus.max(pg).max(hq),
            "fig9 {bench}: PThreads {pth} ms is not last"
        );
        assert!(
            pg < hq,
            "fig9 {bench}: Pagoda {pg} ms behind HyperQ {hq} ms"
        );
        over_fusion.push(fus / pg);
    }
    let wins = over_fusion.iter().filter(|&&r| r > 1.0).count();
    assert!(
        wins >= 6,
        "fig9: Pagoda beats fusion on {wins} of 8, {over_fusion:?}"
    );
    if run.full {
        let g = geomean(&over_fusion);
        assert!(
            near(g, 1.79, 0.20),
            "fig9: geomean over fusion {g:.2}, paper 1.79"
        );
    }
}

/// Fig. 10: fused latency grows with the batch, Pagoda's stays below it
/// and plateaus from 8 K tasks on.
fn fig10(run: &Run) {
    for bench in ["3DES", "MM"] {
        let latency = |scheme, n| run.at(bench, scheme, Some(n)).latency_us;
        let counts = run.params(bench);
        for (i, &n) in counts.iter().enumerate() {
            let (fused, pg) = (latency("Static-Fusion", n), latency(PG, n));
            assert!(
                pg < fused,
                "fig10 {bench} @{n}: Pagoda {pg} µs, fused {fused} µs"
            );
            if i > 0 {
                let before = latency("Static-Fusion", counts[i - 1]);
                assert!(
                    fused > before * 1.4,
                    "fig10 {bench} @{n}: fused {before} → {fused} µs"
                );
            }
        }
        if counts.contains(&32_768) {
            let (at_8k, at_32k) = (latency(PG, 8_192), latency(PG, 32_768));
            assert!(
                at_32k < at_8k * 1.15,
                "fig10 {bench}: Pagoda {at_8k} µs @8 K → {at_32k} µs @32 K"
            );
            let gap = latency("Static-Fusion", 32_768) / at_32k;
            assert!(
                gap > 15.0,
                "fig10 {bench}: fused only {gap:.1}× Pagoda at 32 K"
            );
        }
    }
}

/// Fig. 11: both mechanisms help everywhere; continuous spawning helps the
/// unbalanced benchmarks most.
fn fig11(run: &Run) {
    let mut increments = Vec::new();
    for bench in ALL_BUT_SLUD {
        let speedup = |scheme| run.at(bench, scheme, None).speedup;
        let (batching, pg) = (speedup("Pagoda-Batching"), speedup(PG));
        assert!(
            1.0 < batching && batching < pg,
            "fig11 {bench}: GeMTC 1.00, Pagoda-Batching {batching:.2}, Pagoda {pg:.2}"
        );
        increments.push((pg - batching, bench));
    }
    increments.sort_by(|a, b| b.0.total_cmp(&a.0));
    let top: BTreeSet<&str> = increments[..2].iter().map(|&(_, bench)| bench).collect();
    assert_eq!(
        top,
        BTreeSet::from(["MB", "MPE"]),
        "fig11: increments {increments:?}"
    );
}

/// Table 3: DCT is the most copy-bound benchmark, SLUD the least. The
/// copy share is not in the points, so this reads the printed column.
fn table3(run: &Run) {
    let shares: Vec<(&str, u32)> = run
        .text
        .lines()
        .skip(2)
        .map(|line| {
            let mut cols = line.split_whitespace();
            let bench = cols.next().expect("bench column");
            let copy = cols.nth(1).expect("copy% column").trim_end_matches('%');
            (bench, copy.parse().expect("a percentage"))
        })
        .collect();
    assert_eq!(shares.len(), 8, "table3: rows {shares:?}");
    let most = shares.iter().max_by_key(|s| s.1).expect("rows");
    let least = shares.iter().min_by_key(|s| s.1).expect("rows");
    assert_eq!(
        (most.0, least.0),
        ("DCT", "SLUD"),
        "table3: copy shares {shares:?}"
    );
}

/// Table 5: the shared-memory version is faster at lower occupancy.
fn table5(run: &Run) {
    for bench in ["DCT", "MM"] {
        let (smem, plain) = (run.at(bench, PG, Some(1)), run.at(bench, PG, Some(0)));
        assert!(
            smem.speedup > plain.speedup && smem.occupancy < plain.occupancy,
            "table5 {bench}: smem {:.2}× at {:.0} %, plain {:.2}× at {:.0} %",
            smem.speedup,
            smem.occupancy * 100.0,
            plain.speedup,
            plain.occupancy * 100.0
        );
    }
}

/// Machine sweep: Pagoda leads HyperQ on both platforms; on the regular
/// benchmark (FB) by the same factor.
fn machines(run: &Run) {
    let lead = |bench, sms| run.at(bench, PG, Some(sms)).speedup;
    for bench in ["FB", "MB"] {
        for sms in [24, 15] {
            assert!(
                lead(bench, sms) > 1.0,
                "machines {bench} on {sms} SMMs: {:.2}",
                lead(bench, sms)
            );
        }
    }
    if run.full {
        assert!(
            near(lead("FB", 15), lead("FB", 24), 0.05),
            "machines FB: {:.2}× on the Titan X, {:.2}× on the K40",
            lead("FB", 24),
            lead("FB", 15)
        );
    }
}

/// The four design-choice studies.
fn ablations(run: &Run) {
    let at = |ablation, scheme, param| {
        run.find(
            ablation,
            if ablation == "ablation1" { "MB" } else { "FB" },
            scheme,
            Some(param),
        )
        .unwrap_or_else(|| panic!("ablations: no {ablation} point for {scheme} @{param}"))
    };
    let per_warp = at("ablation1", HQ, 1).speedup;
    assert!(
        per_warp > 1.05,
        "ablation 1: per-warp freeing gains {per_warp:.2}×"
    );

    if run.full {
        let rows = [2, 4, 8, 16, 32, 64].map(|r| at("ablation2", PG, r).makespan_ms);
        let flat = rows.iter().all(|&ms| near(ms, rows[4], 0.05));
        assert!(
            flat,
            "ablation 2: makespan is not flat in rows per column, {rows:?}"
        );
    }

    let cost = |scale| at("ablation3", PG, scale).makespan_ms;
    assert!(
        near(cost(0), cost(1), 0.02) && near(cost(4), cost(1), 0.02),
        "ablation 3: 0×/1×/4× differ"
    );
    assert!(
        cost(16) > cost(1) * 2.0,
        "ablation 3: 16× the scheduler cost is only {:.2}×",
        cost(16) / cost(1)
    );

    for (latency_ns, pagoda_leads) in [(200, true), (800, true), (3_200, false)] {
        let lead = at("ablation4", PG, latency_ns).speedup;
        assert_eq!(
            lead > 1.0,
            pagoda_leads,
            "ablation 4 @{latency_ns} ns: Pagoda over HyperQ {lead:.2}×"
        );
    }
}

/// Serving curves, each point against its `fifo-unbounded` sibling at the
/// same load: without admission control nothing is ever shed, and below
/// saturation admission control does not act — bounded FIFO is the same
/// run. The claim the curves exist for needs paper scale: every bounded
/// variant sheds at 2.0× and keeps its p99 under the unbounded one's,
/// whose tail grows with run length and at `--quick`'s 256 tasks per
/// tenant has not yet passed them (1555 vs 1627 µs on netmix, 860 vs
/// 1039 µs on vision).
fn serve_curves(run: &Run) {
    for p in &run.curves {
        let (mix, variant, load) = (&p.mix, p.variant.as_str(), p.offered_load);
        let sibling = |q: &&CurvePoint| {
            q.mix == *mix && q.variant == "fifo-unbounded" && q.offered_load == load
        };
        let unbounded = run.curves.iter().find(sibling).expect("baseline point");
        assert_eq!(unbounded.shed_frac, 0.0, "serve_curves {mix} @{load}");
        if variant == "fifo" && load == 0.8 {
            assert_eq!(
                (p.throughput_per_s, p.p50_us, p.p99_us),
                (
                    unbounded.throughput_per_s,
                    unbounded.p50_us,
                    unbounded.p99_us
                ),
                "serve_curves {mix} @0.8: the queue cap changed an underloaded run"
            );
        }
        if run.full && variant != "fifo-unbounded" && load == 2.0 {
            assert!(
                p.shed_frac > 0.0 && p.p99_us < unbounded.p99_us,
                "serve_curves {mix} {variant} @2.0: shed {}, p99 {} µs, unbounded {} µs",
                p.shed_frac,
                p.p99_us,
                unbounded.p99_us
            );
        }
    }
}

/// Fleet study: throughput grows with the fleet (3.2× at 4 devices at
/// paper scale); the skew mix does not separate the policies —
/// round-robin and least-outstanding place identically at every skew,
/// tenant-affinity never leaves home and pays for it with the worst tail
/// at s = 1.2; the attribution's seven phases sum to sojourn.
fn cluster_scaling(run: &Run) {
    for pair in run.scaling.windows(2) {
        let (few, many) = (&pair[0], &pair[1]);
        assert!(
            many.speedup >= few.speedup && (!run.full || many.speedup > few.speedup),
            "cluster_scaling: {few:?} then {many:?}"
        );
        assert!(
            !run.full || many.devices != 4 || many.speedup >= 3.2,
            "cluster_scaling: {many:?}"
        );
    }

    // Four policies per skew, in `Placement` order.
    for policies in run.skew.chunks(4) {
        let [rr, lo, p2, home] = policies else {
            panic!("cluster_scaling: skew row {policies:?}");
        };
        for p in policies {
            assert_eq!(p.completed, p.offered, "cluster_scaling: {p:?}");
        }
        assert_eq!(
            (rr.p50_us, rr.p99_us, rr.off_affinity),
            (lo.p50_us, lo.p99_us, lo.off_affinity),
            "cluster_scaling: this mix now separates {rr:?} from {lo:?}"
        );
        assert_eq!(home.off_affinity, 0, "cluster_scaling: {home:?}");
        assert!(
            !run.full || home.zipf_s != 1.2 || home.p99_us > rr.p99_us.max(p2.p99_us),
            "cluster_scaling: {home:?} is no longer the worst tail"
        );
    }

    for group in &run.attribution {
        // The summary keeps the mean sojourn, rounded down, not its sum.
        let phase_sum: u64 = group.phases.iter().map(|p| p.total_ps).sum();
        assert_eq!(
            (group.phases.len(), phase_sum / group.tasks),
            (7, group.sojourn.mean_ps),
            "cluster_scaling {}: phases do not sum to sojourn",
            group.label
        );
    }
}

/// The shape check of a figure; every `FIGURES` name has one.
fn shape_of(name: &str) -> fn(&Run) {
    match name {
        "fig5" => fig5,
        "fig6" => fig6,
        "fig7" => fig7,
        "fig8" => fig8,
        "fig9" => fig9,
        "fig10" => fig10,
        "fig11" => fig11,
        "table3" => table3,
        "table5" => table5,
        "machines" => machines,
        "ablations" => ablations,
        "serve_curves" => serve_curves,
        "cluster_scaling" => cluster_scaling,
        other => panic!("no shape check for figure {other}"),
    }
}

fn figure(name: &str) -> &'static Figure {
    FIGURES.iter().find(|f| f.name == name).expect("in FIGURES")
}

/// Runs `name` at 1/64 of paper scale against its golden, then its shape.
fn gate(name: &str) {
    let figure = figure(name);
    let run = Run::of(figure, Some(figure.paper_tasks / 64));
    common::assert_golden(&format!("repro/{name}.txt"), &run.text);
    shape_of(name)(&run);
}

/// Runs `name` at paper scale: the text `results/` holds, and every shape.
fn results_gate(name: &str) {
    let run = Run::of(figure(name), None);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/{name}.txt"));
    let committed = std::fs::read_to_string(&path).expect("results file");
    assert_eq!(
        run.text, committed,
        "{name} diverged from results/{name}.txt"
    );
    shape_of(name)(&run);
}

macro_rules! gates {
    ($gate:ident: $($name:ident)*) => {$(
        #[test]
        fn $name() {
            super::$gate(stringify!($name));
        }
    )*};
}

// A test per figure, so they run in parallel and fail by name. The modules
// keep the test names apart from the functions above.
mod reduced_scale {
    gates!(gate: fig5 fig6 fig7 fig8 fig9 fig10 fig11 table3 table5 machines ablations);
    gates!(gate: serve_curves cluster_scaling);
}

// The two figures a debug build runs at paper scale in seconds (5 s and
// under 1 s), and whose claims no shorter run shows: the unbounded p99
// passing the bounded ones, 3.2× on four devices.
mod paper_scale {
    gates!(results_gate: serve_curves cluster_scaling);
}

fn stems(dir: &str) -> BTreeSet<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| {
            path.file_stem()
                .expect("stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

/// No orphan file, no ungated figure: `results/`, the goldens and the
/// shape checks all name exactly `FIGURES`.
#[test]
fn every_figure_is_gated_and_every_result_has_a_figure() {
    let figures: BTreeSet<String> = FIGURES.iter().map(|f| f.name.to_string()).collect();
    assert_eq!(figures.len(), FIGURES.len(), "duplicate name in FIGURES");
    assert_eq!(stems("results"), figures, "results/*.txt vs FIGURES");
    assert_eq!(
        stems("tests/golden/repro"),
        figures,
        "tests/golden/repro/*.txt vs FIGURES"
    );
    for figure in FIGURES {
        shape_of(figure.name);
    }
}

/// Every figure at paper scale, including the shapes a 512-task run
/// cannot reach. About a minute in release; `ci.sh` runs it with
/// `PAGODA_CHECK_EXTENDED=1`.
#[test]
#[ignore = "paper scale: run in release, `cargo test --release --test repro -- --ignored`"]
fn paper_scale_shapes() {
    for figure in FIGURES {
        results_gate(figure.name);
    }
}

/// `repro serve_curves --quick --json`: two mixes × four front-end
/// variants × two loads, every one through `serve_on`, byte for byte. A
/// serving-loop change that claims "no behaviour change" passes this
/// unregenerated.
#[test]
fn serve_curves_quick_json_lines() {
    let cli = Cli {
        tasks: None,
        json: true,
        quick: true,
    };
    let (text, points) = figure("serve_curves").run(&cli);
    let lines: String = points
        .iter()
        .map(|p| serde_json::to_string(p).expect("serializable") + "\n")
        .collect();
    common::assert_golden("serve_curves_quick.jsonl", &lines);
    let run = Run::new("serve_curves", false, text, points);
    serve_curves(&run);
    let overloaded = run.curves.iter().filter(|p| p.offered_load == 2.0);
    for p in overloaded.filter(|p| p.variant != "fifo-unbounded") {
        assert!(p.shed_frac > 0.0, "serve_curves --quick: {p:?}");
    }
}
