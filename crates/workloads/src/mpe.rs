//! MPE: the multi-programmed environment benchmark (paper Table 4). Four
//! applications chosen for heterogeneity — 3DES and Mandelbrot (irregular
//! computation), FilterBank (threadblock synchronization), MatrixMul
//! (shared memory) — each contribute 8 K tasks, interleaved as if arriving
//! asynchronously from independent programs.

use pagoda_core::TaskDesc;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{des3, filterbank, mandelbrot, matmul, GenOpts};

/// Generates an MPE mix of `n` tasks (n/4 from each constituent),
/// shuffled deterministically to model asynchronous multi-program
/// arrival.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let quarter = n / 4;
    let mut all = Vec::with_capacity(n);
    all.extend(des3::tasks(quarter, opts));
    all.extend(mandelbrot::tasks(quarter, opts));
    all.extend(filterbank::tasks(quarter, opts));
    all.extend(matmul::tasks(n - 3 * quarter, opts));
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x3b9e);
    all.shuffle(&mut rng);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::rc::Rc;
    use std::thread;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// MPE generated while MB's tasks for the same knobs are held
        /// shares MB's Mandelbrot pool, and equals MPE generated alone
        /// (on a thread that has built no pool).
        #[test]
        fn mpe_after_mb_equals_mpe_alone(
            seed in 0u64..=u64::MAX,
            threads_per_task in 1u32..=1024,
            work_scale in 0.05f64..16.0,
        ) {
            const N: usize = 64;
            let opts = GenOpts { seed, threads_per_task, work_scale, ..GenOpts::default() };
            let alone = thread::scope(|s| {
                s.spawn(|| crate::digest(&tasks(N, &opts))).join().expect("MPE alone")
            });
            // 2 048 draws hold all 64 tiles but with odds of about 1e-12.
            let mb = mandelbrot::tasks(2048, &opts);
            let after = tasks(N, &opts);
            prop_assert!(
                after.iter().any(|t| mb.iter().any(|m| Rc::ptr_eq(&t.kernel, &m.kernel))),
                "MPE rendered its own pool"
            );
            prop_assert_eq!(crate::digest(&after), alone);
        }
    }

    #[test]
    fn mix_contains_all_four_behaviours() {
        let ts = tasks(64, &GenOpts::default());
        assert_eq!(ts.len(), 64);
        assert!(ts.iter().any(|t| t.sync), "FilterBank/MM present");
        assert!(ts.iter().any(|t| !t.sync), "3DES/MB present");
        // Heterogeneous work.
        let min = ts.iter().map(|t| t.total_instrs()).min().unwrap();
        let max = ts.iter().map(|t| t.total_instrs()).max().unwrap();
        assert!(max > min * 2);
    }

    #[test]
    fn smem_flag_flows_through() {
        let o = GenOpts {
            use_smem: true,
            ..GenOpts::default()
        };
        let ts = tasks(40, &o);
        assert!(ts.iter().any(|t| t.smem_per_tb > 0), "MM smem variant");
    }

    #[test]
    fn shuffle_is_deterministic() {
        let o = GenOpts::default();
        let a = tasks(32, &o);
        let b = tasks(32, &o);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_instrs(), y.total_instrs());
        }
    }
}
