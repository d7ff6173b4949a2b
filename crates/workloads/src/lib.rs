//! The Pagoda evaluation workloads (paper Tables 3-4), as simulator work
//! models.
//!
//! Every benchmark module is a **task generator**: per-thread operation
//! counts derived from the benchmark's shape, synchronisation,
//! shared-memory use and copy volume (Table 3), timed through calibrated
//! CPI ([`calib`]). No kernel output is ever computed; where the work
//! depends on the input, the generator runs that input-dependent part:
//! Mandelbrot iteration images drive the divergence model, SLUD's
//! fill-in drives its wave sizes, and NetBench-style packet sizes drive
//! 3DES task sizes.
//!
//! | Bench | Source | Irregular? | Sync | Smem | I/O per task |
//! |---|---|---|---|---|---|
//! | MB   | Quinn | per-pixel iterations | – | – | 64 B / 8 KB |
//! | FB   | StreamIt | – | ✓ | – | 8 KB / 8 KB |
//! | BF   | StreamIt | – | – | – | 8 KB / 8 KB |
//! | CONV | CUDA SDK | – | – | – | 16 KB / 16 KB |
//! | DCT  | CUDA SDK | – | ✓ | ✓ | 64 KB / 64 KB |
//! | MM   | CUDA SDK | – | ✓ | ✓ | 32 KB / 16 KB |
//! | SLUD | BOTS | dynamic task count | – | – | resident |
//! | 3DES | NIST | packet sizes | – | – | packet / packet |
//! | MPE  | mix | ✓ | ✓ | ✓ | mixed |
//!
//! When a `pagoda_obs` recorder is attached to the runtime serving these
//! benchmarks (directly or through `pagoda-serve` tenants), each task
//! stream appears as its own span track in the chrome://tracing export,
//! which is how the irregular benchmarks' size distributions become
//! visible next to the per-SMM resource timelines.

#![forbid(unsafe_code)]

pub mod beamformer;
pub mod calib;
pub mod conv;
pub mod dct;
pub mod des3;
pub mod filterbank;
pub mod gen;
pub mod mandelbrot;
pub mod matmul;
pub mod mpe;
pub mod slud;

use std::rc::Rc;

use gpu_sim::Kernel;
use pagoda_core::TaskDesc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Knobs common to every generator.
#[derive(Debug, Clone)]
pub struct GenOpts {
    /// GPU threads per task (the paper's default evaluation point: 128).
    pub threads_per_task: u32,
    /// Generate the shared-memory variants of DCT/MM (Table 5).
    pub use_smem: bool,
    /// Attach the benchmark's input/output copy volume; cleared for the
    /// compute-only experiments (Figs. 7, 8).
    pub with_io: bool,
    /// Generator seed (irregular benchmarks).
    pub seed: u64,
    /// Multiplier on each task's computational work (1.0 = the default
    /// input sizes). The compute-bound experiments (Fig. 9, Table 5) use
    /// larger inputs per task — still narrow in *threads* — so that
    /// kernel time rather than the spawn path is the contended resource.
    pub work_scale: f64,
}

impl Default for GenOpts {
    fn default() -> Self {
        GenOpts {
            threads_per_task: 128,
            use_smem: false,
            with_io: true,
            seed: 42,
            work_scale: 1.0,
        }
    }
}

impl GenOpts {
    /// The largest work scale a generator accepts. In-tree experiments
    /// use 0.05–16; at 1 000 the widest Mandelbrot tile runs about 0.08
    /// simulated seconds. Far larger scales push op counts towards
    /// `u64` saturation: at 1e300 every count is `u64::MAX`, a task
    /// that never finishes.
    pub const MAX_WORK_SCALE: f64 = 1_000.0;

    /// Why no generator can build tasks from these knobs, if none can:
    /// a task needs at least one thread (no generator can deal its work
    /// out to none), and the work scale must be finite, above 0 (a NaN,
    /// zero or negative one scales no work) and at most
    /// [`GenOpts::MAX_WORK_SCALE`] (an infinite or huge one gives tasks
    /// that never end). A positive scale has no floor: op counts are
    /// rounded after scaling, so a tiny scale gives tasks whose counts
    /// round to 0, and those run as tasks of no work. Threads above the
    /// MTB's 992 are the runtime's to refuse.
    pub fn problem(&self) -> Option<&'static str> {
        if self.threads_per_task == 0 {
            Some("tasks need at least one thread")
        } else if !(self.work_scale.is_finite() && self.work_scale > 0.0) {
            Some("the work scale must be finite and above 0")
        } else if self.work_scale > Self::MAX_WORK_SCALE {
            Some("the work scale must be at most GenOpts::MAX_WORK_SCALE (1000)")
        } else {
            None
        }
    }
}

/// The benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// Mandelbrot.
    Mb,
    /// FilterBank.
    Fb,
    /// BeamFormer.
    Bf,
    /// Image convolution.
    Conv,
    /// DCT8x8.
    Dct,
    /// Matrix multiply.
    Mm,
    /// Sparse LU decomposition.
    Slud,
    /// 3DES packet encryption.
    Des3,
    /// Multi-programmed mix.
    Mpe,
}

impl Bench {
    /// Every benchmark, in the paper's figure order.
    pub const ALL: [Bench; 9] = [
        Bench::Mb,
        Bench::Fb,
        Bench::Bf,
        Bench::Conv,
        Bench::Dct,
        Bench::Mm,
        Bench::Slud,
        Bench::Des3,
        Bench::Mpe,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Mb => "MB",
            Bench::Fb => "FB",
            Bench::Bf => "BF",
            Bench::Conv => "CONV",
            Bench::Dct => "DCT",
            Bench::Mm => "MM",
            Bench::Slud => "SLUD",
            Bench::Des3 => "3DES",
            Bench::Mpe => "MPE",
        }
    }

    /// Generates `n` tasks (SLUD generates its natural, input-dependent
    /// count of at least `n` — see [`slud::tasks`]).
    pub fn tasks(self, n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
        match self {
            Bench::Mb => mandelbrot::tasks(n, opts),
            Bench::Fb => filterbank::tasks(n, opts),
            Bench::Bf => beamformer::tasks(n, opts),
            Bench::Conv => conv::tasks(n, opts),
            Bench::Dct => dct::tasks(n, opts),
            Bench::Mm => matmul::tasks(n, opts),
            Bench::Slud => slud::tasks(n, opts),
            Bench::Des3 => des3::tasks(n, opts),
            Bench::Mpe => mpe::tasks(n, opts),
        }
    }

    /// GeMTC needs the task count up front; SLUD's is input-dependent
    /// (paper §6.2: "We could not implement SLUD in GeMTC").
    pub fn supports_gemtc(self) -> bool {
        self != Bench::Slud
    }

    /// Static fusion needs a static task list; SLUD has none (§6.3).
    pub fn supports_fusion(self) -> bool {
        self != Bench::Slud
    }

    /// Table 3's "May benefit from shared memory".
    pub fn uses_smem(self) -> bool {
        matches!(self, Bench::Dct | Bench::Mm | Bench::Mpe)
    }

    /// Table 3's task counts: 32 K everywhere, 273 K for SLUD.
    pub fn paper_task_count(self) -> usize {
        if self == Bench::Slud {
            273_000
        } else {
            32_768
        }
    }
}

/// How the Fig. 9 irregular tasks pick their thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadPolicy {
    /// Runtime schemes (Pagoda, HyperQ) size each task to its input:
    /// 32-256 threads.
    Matched,
    /// Static fusion fixes every sub-task at this width (the paper: 256);
    /// small tasks leave lanes idle.
    Fixed(u32),
}

/// Fig. 9 workload: pseudo-random input sizes. Each task draws a size
/// class `s ∈ {32, 64, 128, 256}` threads-worth of work; under
/// [`ThreadPolicy::Matched`] the task launches with `s` threads, under
/// [`ThreadPolicy::Fixed`] it launches at the fixed width with only `s`
/// lanes active.
pub fn irregular_tasks(
    bench: Bench,
    n: usize,
    policy: ThreadPolicy,
    opts: &GenOpts,
) -> Vec<TaskDesc> {
    assert!(bench.supports_fusion(), "Fig. 9 excludes SLUD");
    // Base profile: the benchmark at 256 threads. Irregular benchmarks
    // (MB, 3DES) vary task-to-task, so take the median-work sample of a
    // small batch as the representative profile.
    let mut base_opts = opts.clone();
    base_opts.threads_per_task = 256;
    let mut samples = bench.tasks(11, &base_opts);
    samples.sort_by_key(|t| t.total_instrs());
    let base = samples.swap_remove(samples.len() / 2);
    let w0 = base.blocks[0].warp(0);
    let per_thread_ops = w0.total_instrs() / 32;
    let cpi = w0.cpi;
    let fracs = gen::phase_fracs(w0);

    // A task's kernel depends on its size class alone: each class builds
    // its kernel the first time it is drawn.
    let mut kernels: [Option<Rc<Kernel>>; 4] = Default::default();
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xf193);
    (0..n)
        .map(|_| {
            let class = rng.gen_range(0..4usize);
            let s: u32 = [32u32, 64, 128, 256][class];
            let scale = f64::from(s) / 256.0;
            let threads = match policy {
                ThreadPolicy::Matched => s,
                ThreadPolicy::Fixed(w) => {
                    assert!(s <= w, "size class exceeds fixed width");
                    w
                }
            };
            let kernel = kernels[class].get_or_insert_with(|| {
                let mut thread_ops = vec![0u64; threads as usize];
                thread_ops[..s as usize].fill(per_thread_ops);
                gen::kernel(
                    threads,
                    base.smem_per_tb,
                    base.sync,
                    [gen::build_block(&thread_ops, cpi, &fracs)],
                )
            });
            TaskDesc {
                kernel: Rc::clone(kernel),
                cpu_ops: u64::from(s) * per_thread_ops,
                input_bytes: (f64::from(base.input_bytes) * scale) as u32,
                output_bytes: (f64::from(base.output_bytes) * scale) as u32,
            }
        })
        .collect()
}

/// A digest of `tasks` by value: their `{:?}` text, which spells out
/// each kernel's work and every launch argument. Equal tasks digest
/// equal whether or not they share kernels, on any thread.
#[cfg(test)]
pub(crate) fn digest(tasks: &[TaskDesc]) -> u64 {
    use std::hash::{DefaultHasher, Hasher};
    let mut h = DefaultHasher::new();
    for t in tasks {
        h.write(format!("{t:?}").as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_benches_generate_valid_tasks() {
        let opts = GenOpts::default();
        for b in Bench::ALL {
            let ts = b.tasks(32, &opts);
            assert!(ts.len() >= 32, "{}", b.name());
            for t in &ts {
                t.validate().unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            }
        }
    }

    #[test]
    fn smem_benches_respond_to_flag() {
        let opts = GenOpts {
            use_smem: true,
            ..GenOpts::default()
        };
        for b in [Bench::Dct, Bench::Mm] {
            let ts = b.tasks(4, &opts);
            assert!(ts.iter().all(|t| t.smem_per_tb > 0), "{}", b.name());
        }
        for b in [Bench::Mb, Bench::Fb, Bench::Bf, Bench::Conv, Bench::Des3] {
            let ts = b.tasks(4, &opts);
            assert!(ts.iter().all(|t| t.smem_per_tb == 0), "{}", b.name());
        }
    }

    #[test]
    fn thread_count_sweep_conserves_work() {
        // Fig. 7: "the amount of work per task remains constant in all
        // thread configurations".
        for threads in [32u32, 64, 128, 256, 512] {
            let o = GenOpts {
                threads_per_task: threads,
                ..GenOpts::default()
            };
            let a = Bench::Fb.tasks(1, &o)[0].total_instrs();
            let o128 = GenOpts::default();
            let b = Bench::Fb.tasks(1, &o128)[0].total_instrs();
            let ratio = a as f64 / b as f64;
            assert!((0.8..1.25).contains(&ratio), "{threads} threads: {ratio}");
        }
    }

    #[test]
    fn irregular_matched_tasks_vary_in_threads_and_work() {
        let ts = irregular_tasks(Bench::Conv, 64, ThreadPolicy::Matched, &GenOpts::default());
        let threads: Vec<u32> = ts.iter().map(|t| t.threads_per_tb).collect();
        assert!(threads.contains(&32));
        assert!(threads.contains(&256));
        let works: Vec<u64> = ts.iter().map(|t| t.total_instrs()).collect();
        assert!(works.iter().max().unwrap() > &(works.iter().min().unwrap() * 4));
    }

    #[test]
    fn irregular_fixed_concentrates_work_on_active_lanes() {
        let matched = irregular_tasks(Bench::Conv, 64, ThreadPolicy::Matched, &GenOpts::default());
        let fixed = irregular_tasks(
            Bench::Conv,
            64,
            ThreadPolicy::Fixed(256),
            &GenOpts::default(),
        );
        // Same total work per index (same seed -> same size classes)...
        for (m, f) in matched.iter().zip(&fixed) {
            assert_eq!(m.total_instrs(), f.total_instrs());
            // ...but the fixed version always ships 256 threads (8 warps).
            assert_eq!(f.threads_per_tb, 256);
        }
    }

    #[test]
    fn irregular_sync_structure_preserved() {
        let ts = irregular_tasks(Bench::Fb, 8, ThreadPolicy::Fixed(256), &GenOpts::default());
        assert!(ts[0].sync);
        assert_eq!(ts[0].blocks[0].warp(0).barrier_count(), 3);
        for t in &ts {
            t.validate().unwrap();
        }
    }

    /// Distinct kernels among `ts`, by address.
    fn kernels(ts: &[TaskDesc]) -> usize {
        ts.iter()
            .map(|t| Rc::as_ptr(&t.kernel))
            .collect::<HashSet<_>>()
            .len()
    }

    /// Distinct work shapes among 3DES tasks (`des3::shape`): `cpu_ops`
    /// is a packet's block count times a constant.
    fn packet_shapes(ts: &[TaskDesc], opts: &GenOpts) -> usize {
        let per_block = gen::scale_ops(des3::OPS_PER_BLOCK, opts.work_scale);
        let threads = opts.threads_per_task as usize;
        ts.iter()
            .map(|t| des3::shape((t.cpu_ops / per_block) as usize, threads))
            .collect::<HashSet<_>>()
            .len()
    }

    /// Each distinct input builds its kernel once. The bounds count
    /// inputs, not contents: two deep-interior Mandelbrot regions may
    /// render equal work and still hold two kernels.
    #[test]
    fn each_distinct_input_builds_its_work_once() {
        const N: usize = 4096;
        let variants = [
            GenOpts::default(),
            GenOpts {
                use_smem: true,
                with_io: false,
                seed: 7,
                ..GenOpts::default()
            },
            GenOpts {
                threads_per_task: 32,
                work_scale: 2.5,
                ..GenOpts::default()
            },
        ];
        for opts in &variants {
            for b in Bench::ALL {
                let ts = b.tasks(N, opts);
                let bound = match b {
                    Bench::Fb | Bench::Bf | Bench::Conv | Bench::Dct | Bench::Mm => 1,
                    Bench::Mb => 64,
                    Bench::Des3 => packet_shapes(&ts, opts),
                    Bench::Slud => 3,
                    // MB's pool, its quarter's packet shapes, FB, MM.
                    Bench::Mpe => 64 + packet_shapes(&des3::tasks(N / 4, opts), opts) + 2,
                };
                let kernels = kernels(&ts);
                assert!(
                    kernels <= bound,
                    "{}: {kernels} kernels for at most {bound} inputs",
                    b.name()
                );
            }
            for policy in [ThreadPolicy::Matched, ThreadPolicy::Fixed(256)] {
                let ts = irregular_tasks(Bench::Conv, N, policy, opts);
                assert!(kernels(&ts) <= 4, "{policy:?}: one kernel per size class");
            }
        }
    }

    #[test]
    fn paper_task_counts() {
        assert_eq!(Bench::Mb.paper_task_count(), 32_768);
        assert_eq!(Bench::Slud.paper_task_count(), 273_000);
        assert!(!Bench::Slud.supports_gemtc());
    }
}
