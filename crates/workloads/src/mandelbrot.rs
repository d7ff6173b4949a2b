//! Mandelbrot (MB): fractal escape-time rendering, the paper's archetypal
//! *irregular* narrow task — each task renders one 64×64 image whose
//! per-pixel iteration counts vary wildly, so warp lanes diverge and task
//! durations are unpredictable (Table 4: "the required computation per
//! pixel is highly irregular").

use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::rc::{Rc, Weak};
use std::thread;

use gpu_sim::{BlockWork, Kernel};
use pagoda_core::TaskDesc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::calib;
use crate::gen::{build_block, distribute_cyclic, io_bytes};
use crate::GenOpts;

/// Image side length per task (paper Table 3: 64×64 images).
pub const DIM: usize = 64;
/// Iteration cap.
pub const MAX_ITER: u32 = 256;
/// Distinct regions rendered per generation; tasks sample them.
const POOL: usize = 64;

/// A rectangular window of the complex plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// Left edge (real axis).
    pub x0: f64,
    /// Top edge (imaginary axis).
    pub y0: f64,
    /// Window width.
    pub w: f64,
    /// Window height.
    pub h: f64,
}

/// Whether `c = cx + i·cy` lies in the main cardioid or the period-2
/// bulb, the two components of the set with closed forms: there `z←z²+c`
/// converges to an attracting fixed point or 2-cycle and never escapes.
/// Exact in real arithmetic; in `f64` a point on the wrong side of the
/// boundary lies within rounding (≈ 1e-16) of it, where escape takes
/// orders of magnitude more than `u16::MAX` iterations (≈ π/√ε at the
/// cusp). A NaN coordinate fails both comparisons.
fn in_main_bulbs(cx: f64, cy: f64) -> bool {
    let y2 = cy * cy;
    let xq = cx - 0.25;
    let q = xq * xq + y2;
    q * (q + xq) <= 0.25 * y2 || (cx + 1.0) * (cx + 1.0) + y2 <= 0.0625
}

/// Escape iterations for one point `c = cx + i·cy` (the classic z←z²+c).
/// A point in the main cardioid or the period-2 bulb answers `max_iter`
/// without iterating, for caps up to `u16::MAX` (see `in_main_bulbs`).
pub fn escape_iters(cx: f64, cy: f64, max_iter: u32) -> u32 {
    if max_iter <= u32::from(u16::MAX) && in_main_bulbs(cx, cy) {
        return max_iter;
    }
    iterate(cx, cy, max_iter)
}

/// [`escape_iters`] by plain iteration.
fn iterate(cx: f64, cy: f64, max_iter: u32) -> u32 {
    let (mut zx, mut zy) = (0.0f64, 0.0f64);
    for i in 0..max_iter {
        let zx2 = zx * zx;
        let zy2 = zy * zy;
        if zx2 + zy2 > 4.0 {
            return i;
        }
        zy = 2.0 * zx * zy + cy;
        zx = zx2 - zy2 + cx;
    }
    max_iter
}

/// [`iterate`] for four points at once, in lockstep lanes: every
/// lane performs exactly the per-pixel operation sequence, and a lane's
/// count — the trips it stayed live — is frozen at its first escape
/// (what its `z` does afterwards, overflow to infinity or NaN, is never
/// read). One trip advances four independent `z←z²+c` chains, so their
/// latencies overlap where the one-pixel loop is a single serial chain.
/// The count is branch-free in 64-bit lanes (`live` is 1 or 0) so the
/// trip has one exit test and everything stays the width of the `f64`s;
/// `<= 4.0` is `!(> 4.0)` on a live lane, which holds no NaN.
///
/// Not inlined: folded into `render`, the same loop compiled 1.7× slower
/// (the lane arithmetic got interleaved with the caller's point set-up).
#[inline(never)]
fn escape_iters4(cx: [f64; 4], cy: [f64; 4], max_iter: u32) -> [u32; 4] {
    let (mut zx, mut zy) = ([0.0f64; 4], [0.0f64; 4]);
    let mut iters = [0u64; 4];
    let mut live = [1u64; 4];
    for _ in 0..max_iter {
        for l in 0..4 {
            let zx2 = zx[l] * zx[l];
            let zy2 = zy[l] * zy[l];
            live[l] &= u64::from(zx2 + zy2 <= 4.0);
            iters[l] += live[l];
            zy[l] = 2.0 * zx[l] * zy[l] + cy[l];
            zx[l] = zx2 - zy2 + cx[l];
        }
        if live == [0; 4] {
            break;
        }
    }
    iters.map(|n| n as u32)
}

/// Renders a `dim`×`dim` iteration image of `region`, row-major. A pixel
/// in the main cardioid or the period-2 bulb is `max_iter` outright; the
/// rest are packed four to a loop trip, with a scalar tail for the last
/// one to three. Each column's x is computed once, by the expression a
/// pixel would evaluate, and read from a table.
///
/// # Panics
///
/// If `max_iter` exceeds `u16::MAX`, the largest count a pixel holds.
pub fn render(region: Region, dim: usize, max_iter: u32) -> Vec<u16> {
    let cap = u16::try_from(max_iter).expect("render: max_iter above u16::MAX");
    let mut out = vec![cap; dim * dim];
    let (mut at, mut cx, mut cy) = ([0usize; 4], [0.0; 4], [0.0; 4]);
    let mut lanes = 0;
    let xs: Vec<f64> = (0..dim)
        .map(|px| region.x0 + region.w * (px as f64 + 0.5) / dim as f64)
        .collect();
    for py in 0..dim {
        let y = region.y0 + region.h * (py as f64 + 0.5) / dim as f64;
        for (px, &x) in xs.iter().enumerate() {
            if in_main_bulbs(x, y) {
                continue;
            }
            (at[lanes], cx[lanes], cy[lanes]) = (py * dim + px, x, y);
            lanes += 1;
            if lanes == 4 {
                for (&i, it) in at.iter().zip(escape_iters4(cx, cy, max_iter)) {
                    out[i] = it as u16;
                }
                lanes = 0;
            }
        }
    }
    for l in 0..lanes {
        out[at[l]] = iterate(cx[l], cy[l], max_iter) as u16;
    }
    out
}

/// GPU operation count for one pixel: the loop body is ~10 thread-ops per
/// iteration plus setup.
fn pixel_ops(iters: u16) -> u64 {
    8 + 10 * u64::from(iters)
}

/// Random windows over the whole interesting plane. Some land entirely
/// inside the set (every pixel runs to `MAX_ITER` — heavy tiles), some in
/// far-escaping regions (a few iterations per pixel), most straddle the
/// boundary. Task durations therefore vary by well over an order of
/// magnitude, which is exactly what defeats batch schedulers on this
/// benchmark (§6.2: "GeMTC performs worse than HyperQ in MB … because
/// these applications contain irregular workloads").
fn random_region(rng: &mut SmallRng) -> Region {
    let (cx, cy) = if rng.gen_bool(0.05) {
        // Rare deep-interior tile: every pixel runs to MAX_ITER.
        (rng.gen_range(-0.4..0.1), rng.gen_range(-0.2..0.2))
    } else {
        // Exterior-leaning window: rejection-sample a centre that escapes
        // quickly-ish, giving mostly light tiles with boundary texture.
        loop {
            let cx = rng.gen_range(-2.0..0.6);
            let cy = rng.gen_range(-1.2..1.2);
            let it = escape_iters(cx, cy, MAX_ITER);
            if (1..64).contains(&it) {
                break (cx, cy);
            }
        }
    };
    let scale = 10f64.powf(rng.gen_range(-2.5..-0.3));
    Region {
        x0: cx - scale / 2.0,
        y0: cy - scale / 2.0,
        w: scale,
        h: scale,
    }
}

/// One tile's work, derived from a *real* render of its region (the
/// iteration image drives the divergence model): the task threadblock
/// and the sequential CPU operation count.
fn tile(region: Region, opts: &GenOpts) -> (BlockWork, u64) {
    let img = render(region, DIM, MAX_ITER);
    let item_ops: Vec<u64> = img
        .iter()
        .map(|&it| crate::gen::scale_ops(pixel_ops(it), opts.work_scale))
        .collect();
    let cpu_ops = item_ops.iter().sum();
    let per_thread = distribute_cyclic(&item_ops, opts.threads_per_task as usize);
    (build_block(&per_thread, calib::MB.cpi, &[1.0]), cpu_ops)
}

/// The pool: `POOL` regions drawn from `rng` on this thread, their tiles
/// rendered by `workers` threads over contiguous runs of regions (this
/// thread takes the first run, so one worker spawns no thread), and each
/// tile's kernel built here, in region order. The tiles share nothing,
/// so the pool is the same whatever `workers` is.
fn pool(rng: &mut SmallRng, opts: &GenOpts, workers: usize) -> Vec<TaskDesc> {
    let regions: Vec<Region> = (0..POOL).map(|_| random_region(rng)).collect();
    let tiles_of = |run: &[Region]| -> Vec<_> { run.iter().map(|&r| tile(r, opts)).collect() };
    let tiles = thread::scope(|s| {
        let mut runs = regions.chunks(POOL.div_ceil(workers));
        let first = runs.next().expect("a non-empty pool");
        let rest: Vec<_> = runs.map(|run| s.spawn(move || tiles_of(run))).collect();
        let mut tiles = tiles_of(first);
        for worker in rest {
            tiles.extend(worker.join().expect("a tile worker panicked"));
        }
        tiles
    });
    tiles
        .into_iter()
        .map(|(block, cpu_ops)| {
            let kernel = crate::gen::kernel(opts.threads_per_task, 0, false, [block]);
            tile_task(kernel, cpu_ops, opts)
        })
        .collect()
}

/// The task of one tile: its kernel, its CPU count and MB's copies.
fn tile_task(kernel: Rc<Kernel>, cpu_ops: u64, opts: &GenOpts) -> TaskDesc {
    TaskDesc {
        kernel,
        cpu_ops,
        input_bytes: io_bytes(opts, 64), // region params
        output_bytes: io_bytes(opts, DIM * DIM * 2),
    }
}

/// The knobs a pool is built from. MB has no shared-memory variant, so
/// `use_smem` is not one of them; the work scale is compared by its bits.
#[derive(PartialEq, Eq)]
struct PoolKey {
    seed: u64,
    threads_per_task: u32,
    work_scale: u64,
    with_io: bool,
}

impl PoolKey {
    fn of(opts: &GenOpts) -> PoolKey {
        PoolKey {
            seed: opts.seed,
            threads_per_task: opts.threads_per_task,
            work_scale: opts.work_scale.to_bits(),
            with_io: opts.with_io,
        }
    }
}

/// The last pool [`tasks`] built on this thread: its key, the random
/// stream where sampling starts, and each tile's kernel with its CPU
/// count. The kernels are held by `Weak`, so the record keeps no tile's
/// work alive: once the tasks sampling them are dropped, the next
/// generation renders the pool again.
struct LastPool {
    key: PoolKey,
    rng: SmallRng,
    tiles: Vec<(Weak<Kernel>, u64)>,
}

impl LastPool {
    /// The pool and the stream to sample it with, if it was built from
    /// `opts` and every one of its kernels is still held by some task.
    fn reuse(&self, opts: &GenOpts) -> Option<(SmallRng, Vec<TaskDesc>)> {
        if self.key != PoolKey::of(opts) {
            return None;
        }
        let pool = self
            .tiles
            .iter()
            .map(|(kernel, cpu_ops)| Some(tile_task(kernel.upgrade()?, *cpu_ops, opts)))
            .collect::<Option<_>>()?;
        Some((self.rng.clone(), pool))
    }
}

thread_local! {
    static LAST_POOL: RefCell<Option<LastPool>> = const { RefCell::new(None) };
}

/// Generates `n` Mandelbrot tasks. A pool of 64 distinct regions is
/// rendered once, on every available core, and sampled, so generation
/// stays cheap at 32 K tasks while preserving cross-task irregularity.
/// A pool that live tasks of this thread still hold, built from the
/// same knobs, is not rendered again: its kernels are shared and the
/// sampling reads the random stream from where the pool left it (MPE's
/// Mandelbrot quarter, generated while MB's tasks are held, renders
/// nothing). The tasks are the same either way.
pub fn tasks(n: usize, opts: &GenOpts) -> Vec<TaskDesc> {
    let reused = LAST_POOL.with_borrow(|last| last.as_ref()?.reuse(opts));
    let (mut rng, pool) = reused.unwrap_or_else(|| {
        let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x6d62);
        let pool = pool(&mut rng, opts, workers.min(POOL));
        LAST_POOL.set(Some(LastPool {
            key: PoolKey::of(opts),
            rng: rng.clone(),
            tiles: pool
                .iter()
                .map(|t| (Rc::downgrade(&t.kernel), t.cpu_ops))
                .collect(),
        }));
        (rng, pool)
    });
    (0..n)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The render as it was before the four-lane loop and the interior
    /// test: plain iteration per pixel, row-major.
    fn render_per_pixel(region: Region, dim: usize, max_iter: u32) -> Vec<u16> {
        let mut out = Vec::with_capacity(dim * dim);
        for py in 0..dim {
            for px in 0..dim {
                let cx = region.x0 + region.w * (px as f64 + 0.5) / dim as f64;
                let cy = region.y0 + region.h * (py as f64 + 0.5) / dim as f64;
                let (mut zx, mut zy, mut iters) = (0.0f64, 0.0f64, max_iter);
                for i in 0..max_iter {
                    let (zx2, zy2) = (zx * zx, zy * zy);
                    if zx2 + zy2 > 4.0 {
                        iters = i;
                        break;
                    }
                    zy = 2.0 * zx * zy + cy;
                    zx = zx2 - zy2 + cx;
                }
                out.push(iters as u16);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Whole-plane windows at every scale the generator draws, plus a
        /// deep-interior window per case (no lane ever escapes), at sides
        /// with and without a scalar tail (`dim² mod 4` is 0 or 1) and
        /// with rows that straddle a four-pixel group.
        #[test]
        fn render_equals_per_pixel_escape_iters(
            cx in -2.0f64..0.6,
            cy in -1.2f64..1.2,
            log_scale in -2.5f64..0.5,
            inner_x in -0.4f64..0.1,
            inner_y in -0.2f64..0.2,
        ) {
            let scale = 10f64.powf(log_scale);
            let windows = [
                Region { x0: cx - scale / 2.0, y0: cy - scale / 2.0, w: scale, h: scale },
                Region { x0: inner_x, y0: inner_y, w: 0.01, h: 0.02 },
            ];
            for region in windows {
                for dim in [1, 3, 4, 7, 64] {
                    prop_assert_eq!(
                        render(region, dim, MAX_ITER),
                        render_per_pixel(region, dim, MAX_ITER),
                        "{:?} at {}x{}", region, dim, dim
                    );
                }
            }
        }

        /// Windows 1e-3 to 1e-16 wide centred on the boundary of the main
        /// cardioid (`e^{iθ}/2 − e^{2iθ}/4`) or of the period-2 bulb
        /// (`−1 + e^{iθ}/4`), where the interior test is closest to
        /// wrong: every pixel it answers must be one plain iteration
        /// does not see escape.
        #[test]
        fn render_equals_per_pixel_on_the_bulb_boundaries(
            theta in 0.0f64..std::f64::consts::TAU,
            log_width in -16.0f64..-3.0,
            bulb in prop::bool::ANY,
        ) {
            let theta: f64 = theta;
            let (bx, by) = if bulb {
                (-1.0 + theta.cos() / 4.0, theta.sin() / 4.0)
            } else {
                (
                    theta.cos() / 2.0 - (2.0 * theta).cos() / 4.0,
                    theta.sin() / 2.0 - (2.0 * theta).sin() / 4.0,
                )
            };
            let w = 10f64.powf(log_width);
            let region = Region { x0: bx - w / 2.0, y0: by - w / 2.0, w, h: w };
            for dim in [1, 3, 4, 7, 16, 64] {
                prop_assert_eq!(
                    render(region, dim, MAX_ITER),
                    render_per_pixel(region, dim, MAX_ITER),
                    "{:?} at {}x{}", region, dim, dim
                );
            }
            let centre = Region { x0: bx, y0: by, w: 0.0, h: 0.0 };
            prop_assert_eq!(
                escape_iters(bx, by, MAX_ITER),
                u32::from(render_per_pixel(centre, 1, MAX_ITER)[0])
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// The pool one worker builds is the pool 2, 3 and 4 build: every
        /// tile in region order, and the generator's random stream left
        /// where the sampling reads it.
        #[test]
        fn pool_is_independent_of_workers(
            seed in 0u64..=u64::MAX,
            threads_per_task in 1u32..=1024,
            work_scale in 0.05f64..16.0,
        ) {
            let opts = GenOpts { seed, threads_per_task, work_scale, ..GenOpts::default() };
            let built = |workers| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let tasks: Vec<_> = pool(&mut rng, &opts, workers)
                    .into_iter()
                    .map(|t| (t.kernel, t.cpu_ops, t.input_bytes, t.output_bytes))
                    .collect();
                (tasks, rng.gen::<u64>())
            };
            let alone = built(1);
            prop_assert_eq!(alone.0.len(), POOL);
            for workers in 2..=4 {
                prop_assert!(built(workers) == alone, "{} workers", workers);
            }
        }
    }

    /// The kernels `ts` launch, by address.
    fn kernels(ts: &[TaskDesc]) -> HashSet<*const Kernel> {
        ts.iter().map(|t| Rc::as_ptr(&t.kernel)).collect()
    }

    #[test]
    fn a_pool_live_tasks_hold_is_reused_and_one_they_dropped_is_rendered_again() {
        const N: usize = 4096;
        let opts = GenOpts::default();
        let held = tasks(N, &opts);
        assert_eq!(kernels(&held).len(), POOL, "{N} draws hold every tile");

        // The same knobs while `held` lives: the same kernels, in the same
        // order, since the sampling reads the stream from where it was.
        let reused = tasks(N, &opts);
        let shared = |a: &TaskDesc, b: &TaskDesc| Rc::ptr_eq(&a.kernel, &b.kernel);
        assert!(held.iter().zip(&reused).all(|(a, b)| shared(a, b)));
        // MB has no shared-memory variant.
        let smem = tasks(
            16,
            &GenOpts {
                use_smem: true,
                ..opts.clone()
            },
        );
        assert!(held.iter().zip(&smem).all(|(a, b)| shared(a, b)));

        // Any other knob a tile reads renders its own pool, even while
        // a pool of the first knobs is live and last built.
        for other in [
            GenOpts {
                seed: 7,
                ..opts.clone()
            },
            GenOpts {
                threads_per_task: 64,
                ..opts.clone()
            },
            GenOpts {
                work_scale: 2.0,
                ..opts.clone()
            },
            GenOpts {
                with_io: false,
                ..opts.clone()
            },
        ] {
            let live = tasks(N, &opts);
            let ts = tasks(N, &other);
            assert!(kernels(&ts).is_disjoint(&kernels(&live)), "{other:?}");
        }

        // The last of those replaced the record: the same knobs now render
        // afresh, equal in value to the shared path.
        let fresh = tasks(N, &opts);
        assert!(kernels(&fresh).is_disjoint(&kernels(&held)));
        assert_eq!(crate::digest(&fresh), crate::digest(&reused));

        // One tile no task holds is enough to render the pool again.
        let dropped = Rc::as_ptr(&fresh[0].kernel);
        let kept: Vec<Rc<Kernel>> = fresh
            .iter()
            .map(|t| Rc::clone(&t.kernel))
            .filter(|k| Rc::as_ptr(k) != dropped)
            .collect();
        let want = crate::digest(&fresh);
        drop((held, reused, smem, fresh));
        let again = tasks(N, &opts);
        assert!(again
            .iter()
            .all(|t| !kept.iter().any(|k| Rc::ptr_eq(k, &t.kernel))));
        assert_eq!(crate::digest(&again), want);
    }

    #[test]
    #[should_panic(expected = "max_iter above u16::MAX")]
    fn render_refuses_caps_a_pixel_cannot_hold() {
        let origin = Region {
            x0: -0.1,
            y0: -0.1,
            w: 0.2,
            h: 0.2,
        };
        assert_eq!(render(origin, 1, u32::from(u16::MAX)), [u16::MAX]);
        render(origin, 1, 70_000);
    }

    #[test]
    fn known_points() {
        // Origin is in the set; a far point escapes after one step
        // (z1 = c already has |z| > 2).
        assert_eq!(escape_iters(0.0, 0.0, 256), 256);
        assert_eq!(escape_iters(2.5, 2.5, 256), 1);
        // c = -1 is periodic (in the set).
        assert_eq!(escape_iters(-1.0, 0.0, 256), 256);
    }

    #[test]
    fn render_is_deterministic_and_irregular() {
        let r = Region {
            x0: -1.5,
            y0: -1.0,
            w: 2.0,
            h: 2.0,
        };
        let a = render(r, 32, 128);
        let b = render(r, 32, 128);
        assert_eq!(a, b);
        let min = *a.iter().min().unwrap();
        let max = *a.iter().max().unwrap();
        assert!(max > min, "boundary window must be irregular");
    }

    #[test]
    fn tasks_have_irregular_work() {
        let opts = GenOpts::default();
        let ts = tasks(100, &opts);
        assert_eq!(ts.len(), 100);
        let works: Vec<u64> = ts.iter().map(|t| t.total_instrs()).collect();
        let min = works.iter().min().unwrap();
        let max = works.iter().max().unwrap();
        assert!(max > &(min * 2), "iteration irregularity: {min} vs {max}");
        for t in &ts {
            t.validate().unwrap();
            assert!(!t.sync);
        }
    }

    #[test]
    fn io_toggle() {
        let mut opts = GenOpts {
            with_io: false,
            ..GenOpts::default()
        };
        assert_eq!(tasks(1, &opts)[0].output_bytes, 0);
        opts.with_io = true;
        assert_eq!(tasks(1, &opts)[0].output_bytes, 8192);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let opts = GenOpts::default();
        let a = tasks(10, &opts);
        let b = tasks(10, &opts);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_instrs(), y.total_instrs());
        }
    }
}
