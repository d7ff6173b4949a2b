//! Sparse LU Decomposition (SLUD): a multifrontal-style block-sparse LU
//! solver (Barcelona OpenMP Task Suite's sparselu). The matrix is a grid
//! of 32×32 dense tiles, many of which are empty; factorization proceeds
//! in waves — factor the diagonal tile, triangular-solve its row and
//! column, then Schur-update the trailing submatrix, *creating fill-in*.
//!
//! Two properties matter for the paper:
//!
//! * the task count is **not known statically** (fill-in depends on the
//!   pattern), which is why GeMTC cannot run SLUD (§6.2) and static fusion
//!   cannot fuse it (§6.3);
//! * tasks are tiny (one 32×32 tile of dense work) and irregular in count
//!   per wave — the extreme narrow-task case (273 K tasks in the paper).

use pagoda_core::TaskDesc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::calib;
use crate::gen::uniform_block;
use crate::GenOpts;

/// Tile side (paper Table 3: 32×32 matrix per task).
pub const TILE: usize = 32;

/// The kind of tile task a factorization step generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileTask {
    /// LU-factor the diagonal tile (`lu0` in BOTS).
    Factor,
    /// Triangular solve of a row/column tile (`fwd`/`bdiv`).
    Solve,
    /// Schur-complement GEMM update of a trailing tile (`bmod`).
    Update,
}

impl TileTask {
    /// Thread-ops of one tile task (dense 32×32 kernels: ~2/3·b³ for the
    /// factor, b³ per triangular solve, 2·b³ for the GEMM update, with ~2
    /// ops per MAC plus addressing).
    pub fn ops(self) -> u64 {
        let b = TILE as u64;
        match self {
            TileTask::Factor => 2 * b * b * b / 3 * 3,
            TileTask::Solve => b * b * b * 3,
            TileTask::Update => 2 * b * b * b * 3,
        }
    }
}

/// Symbolic block factorization of an `nb×nb` tile grid with random
/// off-diagonal density. Returns dependency *waves*: all tasks within one
/// wave are independent; wave *k+1* depends on wave *k*. Three waves per
/// elimination step: `[factor]`, `[solves…]`, `[updates…]`.
pub fn symbolic_waves(nb: usize, density: f64, seed: u64) -> Vec<Vec<TileTask>> {
    wave_sizes(nb, density, seed)
        .into_iter()
        .map(|(kind, n)| vec![kind; n])
        .collect()
}

/// [`symbolic_waves`] as each wave's kind and size, the waves' only
/// content: a wave holds one kind. Step *k* has one factor, a solve per
/// nonzero below the diagonal in column *k* (`below`) and per nonzero
/// right of it in row *k* (`right`), and `below × right` updates, one per
/// pair; each update's tile becomes nonzero (fill-in), which is row *k*'s
/// tail OR'd into every row with a nonzero in column *k*, a word at a
/// time. Empty solve and update waves are left out.
fn wave_sizes(nb: usize, density: f64, seed: u64) -> Vec<(TileTask, usize)> {
    assert!(nb > 0, "empty grid");
    assert!((0.0..=1.0).contains(&density), "density out of range");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x515d);
    // Row-major bitset: row `i` is words `i * words ..`, bit `j` its column.
    let words = nb.div_ceil(64);
    let mut nz = vec![0u64; nb * words];
    for i in 0..nb {
        let row = &mut nz[i * words..(i + 1) * words];
        row[i / 64] |= 1 << (i % 64); // structurally nonsingular diagonal
        for j in 0..nb {
            if i != j && rng.gen_bool(density) {
                row[j / 64] |= 1 << (j % 64);
            }
        }
    }
    let mut waves = Vec::with_capacity(3 * nb);
    for k in 0..nb {
        let (kw, bit) = (k / 64, 1u64 << (k % 64));
        let (upper, lower) = nz.split_at_mut((k + 1) * words);
        // Row `k`'s columns past `k`: word `kw` above bit `k`, then the
        // whole words after it.
        let head = upper[k * words + kw] & ((u64::MAX << (k % 64)) << 1);
        let rest = &upper[k * words + kw + 1..];
        let right = (head.count_ones() + rest.iter().map(|w| w.count_ones()).sum::<u32>()) as usize;
        let mut below = 0;
        for row in lower.chunks_exact_mut(words) {
            if row[kw] & bit != 0 {
                below += 1;
                row[kw] |= head;
                for (w, &t) in row[kw + 1..].iter_mut().zip(rest) {
                    *w |= t;
                }
            }
        }
        waves.push((TileTask::Factor, 1));
        waves.push((TileTask::Solve, below + right));
        waves.push((TileTask::Update, below * right));
    }
    waves.retain(|&(_, n)| n > 0);
    waves
}

fn task_of(t: TileTask, opts: &GenOpts) -> TaskDesc {
    let scaled = crate::gen::scale_ops(t.ops(), opts.work_scale);
    let ops_per_thread = scaled.div_ceil(u64::from(opts.threads_per_task));
    let block = uniform_block(
        opts.threads_per_task,
        ops_per_thread,
        calib::SLUD.cpi,
        &[1.0],
    );
    TaskDesc {
        kernel: crate::gen::kernel(opts.threads_per_task, 0, false, [block]),
        cpu_ops: crate::gen::scale_ops(t.ops(), opts.work_scale),
        // The matrix lives in device memory for the whole factorization
        // (Table 3: SLUD spends 3 % in data copy — only control traffic).
        input_bytes: 0,
        output_bytes: 0,
    }
}

/// Dependency waves of `TaskDesc`s for an `nb×nb` grid. A tile's work
/// depends on its kind alone, so each kind's descriptor is built once
/// and every tile of that kind clones it: the ~300 k tiles of a
/// paper-scale grid share three work lists.
pub fn waves_as_tasks(nb: usize, density: f64, opts: &GenOpts) -> Vec<Vec<TaskDesc>> {
    let [factor, solve, update] =
        [TileTask::Factor, TileTask::Solve, TileTask::Update].map(|t| task_of(t, opts));
    wave_sizes(nb, density, opts.seed)
        .into_iter()
        .map(|(kind, n)| {
            let desc = match kind {
                TileTask::Factor => &factor,
                TileTask::Solve => &solve,
                TileTask::Update => &update,
            };
            vec![desc.clone(); n]
        })
        .collect()
}

/// Default off-diagonal block density.
pub const DENSITY: f64 = 0.35;

/// Smallest grid size whose factorization generates at least `n` tasks
/// (task count grows ~cubically with fill-in, so this is a short search).
pub fn grid_for(n: usize, seed: u64) -> usize {
    let mut nb = 4;
    while nb < 160 {
        let count: usize = wave_sizes(nb, DENSITY, seed).iter().map(|&(_, n)| n).sum();
        if count >= n {
            break;
        }
        nb += 4;
    }
    nb
}

/// A flat task list whose total count approximates `n` (at least `n`,
/// input-dependent). Used by harnesses that treat SLUD like the
/// fixed-count benchmarks.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let nb = grid_for(n, opts.seed);
    waves_as_tasks(nb, DENSITY, opts)
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Kernel;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::rc::Rc;

    /// [`symbolic_waves`] as it was before it counted: every tile task
    /// listed, fill-in one `bool` at a time.
    fn symbolic_waves_by_listing(nb: usize, density: f64, seed: u64) -> Vec<Vec<TileTask>> {
        assert!(nb > 0, "empty grid");
        assert!((0.0..=1.0).contains(&density), "density out of range");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x515d);
        let mut nz = vec![false; nb * nb];
        for i in 0..nb {
            nz[i * nb + i] = true; // structurally nonsingular diagonal
            for j in 0..nb {
                if i != j && rng.gen_bool(density) {
                    nz[i * nb + j] = true;
                }
            }
        }
        let mut waves = Vec::new();
        for k in 0..nb {
            waves.push(vec![TileTask::Factor]);
            let mut solves = Vec::new();
            for i in k + 1..nb {
                if nz[i * nb + k] {
                    solves.push(TileTask::Solve);
                }
                if nz[k * nb + i] {
                    solves.push(TileTask::Solve);
                }
            }
            if !solves.is_empty() {
                waves.push(solves);
            }
            let mut updates = Vec::new();
            for i in k + 1..nb {
                if !nz[i * nb + k] {
                    continue;
                }
                for j in k + 1..nb {
                    if nz[k * nb + j] {
                        updates.push(TileTask::Update);
                        nz[i * nb + j] = true; // fill-in
                    }
                }
            }
            if !updates.is_empty() {
                waves.push(updates);
            }
        }
        waves
    }

    /// [`grid_for`] over the listed waves.
    fn grid_for_by_listing(n: usize, seed: u64) -> usize {
        let mut nb = 4;
        while nb < 160 {
            let count: usize = symbolic_waves_by_listing(nb, DENSITY, seed)
                .iter()
                .map(Vec::len)
                .sum();
            if count >= n {
                break;
            }
            nb += 4;
        }
        nb
    }

    /// The counted waves against the listed ones on every grid side up to
    /// two bitset words and a half, at the seeds the benchmarks use and
    /// densities from empty (no solve or update wave) to full.
    #[test]
    fn lockstep_counted_waves_equal_listed_waves() {
        for seed in [42, 7, 99] {
            for density in [0.0, 0.05, 0.35, 1.0] {
                for nb in 1..=128 {
                    assert_eq!(
                        symbolic_waves(nb, density, seed),
                        symbolic_waves_by_listing(nb, density, seed),
                        "{nb}x{nb} at density {density}, seed {seed}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The same lockstep at any seed and density.
        #[test]
        fn lockstep_counted_waves_equal_listed_waves_anywhere(
            nb in 1usize..=160,
            density in 0.0f64..=1.0,
            seed in 0u64..=u64::MAX,
        ) {
            prop_assert_eq!(
                symbolic_waves(nb, density, seed),
                symbolic_waves_by_listing(nb, density, seed)
            );
        }
    }

    #[test]
    fn grid_for_equals_the_listed_search() {
        for seed in [42, 7, 99] {
            for n in [
                0, 1, 10, 100, 1_000, 5_000, 40_000, 273_000, 1_000_000, 2_000_000,
            ] {
                assert_eq!(
                    grid_for(n, seed),
                    grid_for_by_listing(n, seed),
                    "{n} tasks, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn waves_respect_structure() {
        let waves = symbolic_waves(8, 0.3, 42);
        // First wave is always the first diagonal factor.
        assert_eq!(waves[0], vec![TileTask::Factor]);
        // Factor waves are singletons.
        for w in &waves {
            if w.contains(&TileTask::Factor) {
                assert_eq!(w.len(), 1);
            }
        }
    }

    #[test]
    fn fill_in_grows_task_count() {
        let sparse: usize = symbolic_waves(16, 0.1, 1).iter().map(Vec::len).sum();
        let dense: usize = symbolic_waves(16, 0.6, 1).iter().map(Vec::len).sum();
        assert!(dense > 2 * sparse, "{sparse} vs {dense}");
    }

    #[test]
    fn task_count_is_input_dependent_not_closed_form() {
        // Same size, different seeds -> different counts: the property
        // that rules GeMTC out.
        let a: usize = symbolic_waves(16, 0.25, 1).iter().map(Vec::len).sum();
        let b: usize = symbolic_waves(16, 0.25, 2).iter().map(Vec::len).sum();
        assert_ne!(a, b);
    }

    /// The waves against a `task_of` build per tile, field for field and
    /// the kernel by content; the three kinds' kernels are shared, one
    /// each.
    fn assert_shared_per_kind(nb: usize, opts: &GenOpts) {
        let symbolic = symbolic_waves(nb, DENSITY, opts.seed);
        let waves = waves_as_tasks(nb, DENSITY, opts);
        assert_eq!(waves.len(), symbolic.len());
        let mut kernels: HashMap<*const Kernel, TileTask> = HashMap::new();
        for (wave, kinds) in waves.iter().zip(&symbolic) {
            assert_eq!(wave.len(), kinds.len());
            for (t, &kind) in wave.iter().zip(kinds) {
                let alone = task_of(kind, opts);
                assert_eq!(t.kernel, alone.kernel);
                assert_eq!(
                    (t.input_bytes, t.output_bytes, t.cpu_ops),
                    (alone.input_bytes, alone.output_bytes, alone.cpu_ops)
                );
                let first = *kernels.entry(Rc::as_ptr(&t.kernel)).or_insert(kind);
                assert_eq!(first, kind, "two kinds, one kernel");
            }
        }
        assert_eq!(kernels.len(), 3, "{nb}x{nb}: one kernel per kind");
    }

    #[test]
    fn shared_waves_equal_per_tile_builds() {
        let variants = [
            GenOpts::default(),
            GenOpts {
                threads_per_task: 32,
                work_scale: 2.5,
                seed: 7,
                ..GenOpts::default()
            },
        ];
        for opts in &variants {
            assert_shared_per_kind(12, opts);
        }
    }

    #[test]
    fn paper_scale_waves_hold_three_kernels() {
        let opts = GenOpts::default();
        let nb = grid_for(273_000, opts.seed);
        assert_eq!(nb, 100);
        assert_shared_per_kind(nb, &opts);
    }

    #[test]
    fn flat_tasks_reach_requested_scale() {
        let ts = tasks(5_000, &GenOpts::default());
        assert!(ts.len() >= 5_000, "got {}", ts.len());
        ts[0].validate().unwrap();
    }
}
