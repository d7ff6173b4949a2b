//! Generator byte-identity gate: every benchmark's task generator must
//! reproduce the digests committed in
//! `tests/golden/workload_fingerprints.txt`, one
//! `<bench> seed=<s> smem=<b> tasks=<n> <fnv1a64>` line per
//! `Bench::ALL` × seeds {42, 7} × `use_smem` {false, true} at n = 512,
//! then a `<bench> seed=42 threads=<t> work_scale=<w> tasks=<n>` line
//! for each generator whose shared work depends on the thread count or
//! the work scale (MB's rendered pool, 3DES's per-shape kernels and MPE,
//! which holds both) at 32 and 1 024 threads and at work scale 8.
//! The digest covers everything a runtime reads off a [`TaskDesc`]: the
//! shape, `smem_per_tb`, `sync`, I/O bytes, `cpu_ops`, and every warp's
//! segments and CPI.
//!
//! A generator rewrite that claims "same tasks, cheaper to build" passes
//! this without regenerating; an intentional workload change regenerates
//! with `PAGODA_UPDATE_GOLDEN=1 cargo test --test workload_fingerprints`
//! and says so. Without it only the full-size repo benchmark would
//! notice a generator drifting.

mod common;

use std::rc::Rc;

use gpu_sim::Segment;
use pagoda_core::TaskDesc;
use workloads::{Bench, GenOpts};

const TASKS: usize = 512;

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn task(&mut self, t: &TaskDesc) {
        self.u64(u64::from(t.threads_per_tb));
        self.u64(u64::from(t.num_tbs()));
        self.u64(u64::from(t.smem_per_tb));
        self.u64(u64::from(t.sync));
        self.u64(u64::from(t.input_bytes));
        self.u64(u64::from(t.output_bytes));
        self.u64(t.cpu_ops);
        self.u64(t.blocks.len() as u64);
        for block in t.blocks.iter() {
            self.u64(u64::from(block.num_warps()));
            for warp in block.warps() {
                self.u64(warp.cpi.to_bits());
                self.u64(warp.segments.len() as u64);
                for seg in &warp.segments {
                    match *seg {
                        Segment::Compute(instrs) => {
                            self.u64(0);
                            self.u64(instrs);
                        }
                        Segment::Barrier => self.u64(1),
                    }
                }
            }
        }
    }
}

fn digest(tasks: &[TaskDesc]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for t in tasks {
        h.task(t);
    }
    h.0
}

#[test]
fn generators_match_the_committed_golden() {
    let mut actual = String::new();
    for bench in Bench::ALL {
        for seed in [42, 7] {
            for use_smem in [false, true] {
                let opts = GenOpts {
                    seed,
                    use_smem,
                    ..GenOpts::default()
                };
                let tasks = bench.tasks(TASKS, &opts);
                actual.push_str(&format!(
                    "{} seed={seed} smem={use_smem} tasks={} {:016x}\n",
                    bench.name(),
                    tasks.len(),
                    digest(&tasks)
                ));
            }
        }
    }
    for bench in [Bench::Mb, Bench::Des3, Bench::Mpe] {
        for (threads_per_task, work_scale) in [(32, 1.0), (1024, 1.0), (128, 8.0)] {
            let opts = GenOpts {
                threads_per_task,
                work_scale,
                ..GenOpts::default()
            };
            let tasks = bench.tasks(TASKS, &opts);
            actual.push_str(&format!(
                "{} seed={} threads={threads_per_task} work_scale={work_scale} tasks={} {:016x}\n",
                bench.name(),
                opts.seed,
                tasks.len(),
                digest(&tasks)
            ));
        }
    }
    common::assert_golden("workload_fingerprints.txt", &actual);
}

/// MPE generated while MB's tasks for the same knobs are alive shares
/// MB's Mandelbrot pool instead of rendering its own, and still equals
/// the committed MPE rows.
#[test]
fn mpe_sharing_mbs_pool_matches_the_committed_golden() {
    let golden = include_str!("golden/workload_fingerprints.txt");
    for seed in [42, 7] {
        for use_smem in [false, true] {
            let opts = GenOpts {
                seed,
                use_smem,
                ..GenOpts::default()
            };
            // 4 096 draws hold every one of the pool's 64 tiles.
            let mb = Bench::Mb.tasks(4096, &opts);
            let mpe = Bench::Mpe.tasks(TASKS, &opts);
            let shares = |t: &TaskDesc| mb.iter().any(|m| Rc::ptr_eq(&t.kernel, &m.kernel));
            assert!(
                mpe.iter().any(shares),
                "seed {seed}: MPE rendered its own pool"
            );
            let row = format!(
                "MPE seed={seed} smem={use_smem} tasks={} {:016x}",
                mpe.len(),
                digest(&mpe)
            );
            let prefix = format!("MPE seed={seed} smem={use_smem} ");
            let committed = golden.lines().find(|l| l.starts_with(&prefix));
            assert_eq!(Some(row.as_str()), committed);
        }
    }
}
