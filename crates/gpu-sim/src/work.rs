//! Descriptions of the work a warp, threadblock, or kernel performs.
//!
//! The simulator does not interpret instructions; it accounts for them. A
//! warp's work is a sequence of [`Segment`]s: compute phases measured in
//! *thread-instructions* (one lane-operation each; a full warp instruction
//! is 32 of them) separated by threadblock-level barriers. Per-workload
//! memory intensity is folded into a cycles-per-warp-instruction figure
//! ([`WarpWork::cpi`]): a streaming kernel that stalls on DRAM has a high
//! CPI, a register-resident kernel sits near 1.
//!
//! A threadblock's work ([`BlockWork`]) is stored as its distinct warps:
//! runs of identical consecutive warps, each kept once with its length.
//! Generated blocks are mostly one run, so a block costs the same to
//! build, share and place at 1 warp or 32.

use std::rc::Rc;

use gpu_arch::{TaskShape, WARP_SIZE};

/// One phase of a warp's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Execute this many thread-instructions.
    Compute(u64),
    /// Arrive at the threadblock barrier and wait for the group
    /// (`__syncthreads()` / Pagoda `syncBlock()`).
    Barrier,
}

/// The work one warp performs, with its effective CPI.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpWork {
    /// Phases in execution order.
    pub segments: Vec<Segment>,
    /// Average cycles per warp-instruction for this warp (≥ 1.0); encodes
    /// memory stalls and divergence.
    pub cpi: f64,
}

/// Whether `cpi` is a CPI a warp can run at: finite and at least 1
/// (below 1 is super-scalar fiction; NaN or infinity never finishes).
fn valid_cpi(cpi: f64) -> bool {
    (1.0..f64::INFINITY).contains(&cpi)
}

/// Panics unless `cpi` is [`valid_cpi`].
#[track_caller]
pub(crate) fn assert_cpi(cpi: f64) {
    assert!(
        valid_cpi(cpi),
        "CPI below 1 (super-scalar fiction) or not finite: {cpi}"
    );
}

impl WarpWork {
    /// A single compute phase of `instrs` thread-instructions.
    ///
    /// # Panics
    /// Panics unless `cpi` is finite and at least 1.
    pub fn compute(instrs: u64, cpi: f64) -> Self {
        assert_cpi(cpi);
        WarpWork {
            segments: vec![Segment::Compute(instrs)],
            cpi,
        }
    }

    /// Work split into `phases` equal compute phases with a barrier between
    /// consecutive phases (the FilterBank / DCT pattern).
    pub fn phased(total_instrs: u64, phases: usize, cpi: f64) -> Self {
        assert!(phases > 0, "at least one phase");
        assert_cpi(cpi);
        let per = total_instrs / phases as u64;
        let mut rem = total_instrs - per * phases as u64;
        let mut segments = Vec::with_capacity(phases * 2 - 1);
        for i in 0..phases {
            let extra = u64::from(rem > 0);
            rem = rem.saturating_sub(1);
            if i > 0 {
                segments.push(Segment::Barrier);
            }
            segments.push(Segment::Compute(per + extra));
        }
        WarpWork { segments, cpi }
    }

    /// Total thread-instructions across all compute segments.
    pub fn total_instrs(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Compute(n) => *n,
                Segment::Barrier => 0,
            })
            .sum()
    }

    /// Number of barrier arrivals in this work.
    pub fn barrier_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Barrier))
            .count()
    }
}

/// A run of identical consecutive warps in a [`BlockWork`].
#[derive(Debug, Clone, PartialEq)]
struct Run {
    work: WarpWork,
    /// One past the index of the run's last warp: the warps of this run
    /// and of every run before it.
    end: u32,
}

/// The work of one threadblock, warp by warp, stored as its distinct
/// warps: each maximal run of consecutive equal warps is kept once, with
/// its length. A block whose warps all do the same work — every block a
/// generator builds from uniform per-thread counts — is one run however
/// wide it is.
///
/// The runs are a storage detail: [`BlockWork::warp`] and
/// [`BlockWork::warps`] read the block warp by warp, and equality is by
/// value (two blocks are equal iff their warps are, in order), because
/// [`BlockWork::new`] always merges equal neighbours.
/// [`BlockWork::runs`] is for consumers that treat a run as one unit —
/// the device places each run of a native threadblock as one execution
/// entry.
///
/// All warps of a block synchronize at the same barriers, so their
/// [`WarpWork::barrier_count`]s must agree; [`BlockWork::new`] enforces it
/// and keeps the count ([`BlockWork::barriers`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWork {
    runs: Vec<Run>,
    barriers: usize,
}

impl BlockWork {
    /// Builds a block from per-warp work, in warp order, merging
    /// consecutive equal warps into one run as they arrive.
    ///
    /// # Panics
    /// Panics if `warps` is empty or barrier counts differ between warps
    /// (such a block would deadlock on real hardware).
    pub fn new(warps: impl IntoIterator<Item = WarpWork>) -> Self {
        let mut runs: Vec<Run> = Vec::new();
        let mut barriers = 0;
        for (i, w) in warps.into_iter().enumerate() {
            let end = i as u32 + 1;
            match runs.last_mut() {
                Some(run) if run.work == w => run.end = end,
                last => {
                    if last.is_none() {
                        barriers = w.barrier_count();
                    }
                    assert_eq!(
                        w.barrier_count(),
                        barriers,
                        "warp {i} has {} barriers, warp 0 has {barriers}: block would deadlock",
                        w.barrier_count()
                    );
                    runs.push(Run { work: w, end });
                }
            }
        }
        assert!(!runs.is_empty(), "block with zero warps");
        BlockWork { runs, barriers }
    }

    /// A block of `num_warps` identical warps: one run.
    pub fn uniform(num_warps: u32, work: WarpWork) -> Self {
        assert!(num_warps > 0, "block with zero warps");
        BlockWork {
            barriers: work.barrier_count(),
            runs: vec![Run {
                work,
                end: num_warps,
            }],
        }
    }

    /// Warp `i`'s work, in O(log runs).
    ///
    /// # Panics
    /// Panics if `i` is not below [`BlockWork::num_warps`].
    pub fn warp(&self, i: u32) -> &WarpWork {
        assert!(
            i < self.num_warps(),
            "warp {i} of a {}-warp block",
            self.num_warps()
        );
        &self.runs[self.runs.partition_point(|r| r.end <= i)].work
    }

    /// The per-warp work, in warp order: a view that iterates every warp,
    /// each run's work once per warp of the run.
    pub fn warps(&self) -> Warps<'_> {
        Warps { runs: &self.runs }
    }

    /// The distinct warps, in warp order: each run's work and how many
    /// consecutive warps do it. Consecutive runs differ.
    pub fn runs(&self) -> impl Iterator<Item = (&WarpWork, u32)> + '_ {
        self.runs.iter().scan(0, |start, r| {
            let k = r.end - std::mem::replace(start, r.end);
            Some((&r.work, k))
        })
    }

    /// Barriers every warp of the block arrives at.
    pub fn barriers(&self) -> usize {
        self.barriers
    }

    /// Warp count.
    pub fn num_warps(&self) -> u32 {
        self.runs.last().map_or(0, |r| r.end)
    }

    /// Total thread-instructions in the block.
    pub fn total_instrs(&self) -> u64 {
        self.runs()
            .map(|(w, k)| w.total_instrs() * u64::from(k))
            .sum()
    }
}

/// A block's warps in warp order ([`BlockWork::warps`]): a `Copy` view
/// whose [`Warps::iter`] (and `IntoIterator`) yields each warp's work.
#[derive(Debug, Clone, Copy)]
pub struct Warps<'a> {
    runs: &'a [Run],
}

impl<'a> Warps<'a> {
    /// Every warp's work, in warp order.
    pub fn iter(self) -> WarpIter<'a> {
        WarpIter {
            runs: self.runs,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for Warps<'a> {
    type Item = &'a WarpWork;
    type IntoIter = WarpIter<'a>;

    fn into_iter(self) -> WarpIter<'a> {
        self.iter()
    }
}

/// Iterator over a block's warps ([`Warps::iter`]).
#[derive(Debug, Clone)]
pub struct WarpIter<'a> {
    /// The runs not yet finished; the first is the current one.
    runs: &'a [Run],
    /// Index of the next warp in the block.
    next: u32,
}

impl<'a> Iterator for WarpIter<'a> {
    type Item = &'a WarpWork;

    fn next(&mut self) -> Option<&'a WarpWork> {
        let (run, rest) = self.runs.split_first()?;
        self.next += 1;
        if self.next == run.end {
            self.runs = rest;
        }
        Some(&run.work)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.runs.last().map_or(0, |r| (r.end - self.next) as usize);
        (left, Some(left))
    }
}

impl ExactSizeIterator for WarpIter<'_> {}

/// Registers per thread of every native launch: the paper compiles every
/// kernel with `-maxrregcount 32`.
pub const NATIVE_REGS_PER_THREAD: u32 = 32;

/// Why [`Kernel::new`] rejects a kernel's structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// A block's warp count disagrees with `threads_per_tb`.
    ShapeMismatch,
    /// Blocks contain barriers but `sync` is false — on real hardware the
    /// kernel would synchronize on a barrier ID it never allocated.
    UndeclaredSync,
    /// A warp's [`WarpWork::cpi`] is NaN, infinite or below 1: its work
    /// would never finish, or finish faster than the issue rate allows.
    BadCpi,
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::ShapeMismatch => {
                write!(f, "block work disagrees with the declared threadblock size")
            }
            KernelError::UndeclaredSync => {
                write!(f, "kernel uses barriers but did not set the sync flag")
            }
            KernelError::BadCpi => write!(f, "a warp's CPI is not a finite number of at least 1"),
        }
    }
}

impl std::error::Error for KernelError {}

/// A kernel: threadblock size, shared memory, the sync flag and the work
/// of each threadblock — what a Pagoda spawn names and what a native
/// launch runs.
///
/// [`Kernel::new`] checks its structure once; each consumer checks only
/// its own capacity (an MTB's executor warps and shared-memory slice, an
/// SMM's limits). A kernel is immutable and shared behind an [`Rc`]:
/// every launch of it holds the same work lists, and a clone or drop of
/// a launch is a plain count, no atomic. A kernel stays on the thread
/// that built it.
#[derive(Debug, PartialEq)]
#[non_exhaustive]
pub struct Kernel {
    /// Threads per threadblock.
    pub threads_per_tb: u32,
    /// Dynamic shared memory per threadblock, bytes.
    pub smem_per_tb: u32,
    /// Whether the kernel synchronizes its threadblocks (`syncBlock()`).
    pub sync: bool,
    /// The work, one [`BlockWork`] per threadblock.
    pub blocks: Box<[BlockWork]>,
}

impl Kernel {
    /// Builds a kernel of `blocks`, each `threads_per_tb` threads wide.
    /// A kernel of zero threads or zero blocks is structurally valid; its
    /// consumers reject it.
    ///
    /// # Errors
    /// [`KernelError::ShapeMismatch`] if a block does not have
    /// [`Kernel::warps_per_tb`] warps, [`KernelError::UndeclaredSync`] if
    /// a block has barriers and `sync` is false, [`KernelError::BadCpi`]
    /// if a warp's CPI is not finite and at least 1 (checked once per run
    /// of identical warps).
    pub fn new(
        threads_per_tb: u32,
        smem_per_tb: u32,
        sync: bool,
        blocks: impl Into<Box<[BlockWork]>>,
    ) -> Result<Rc<Kernel>, KernelError> {
        let kernel = Kernel {
            threads_per_tb,
            smem_per_tb,
            sync,
            blocks: blocks.into(),
        };
        for b in kernel.blocks.iter() {
            if b.num_warps() != kernel.warps_per_tb() {
                return Err(KernelError::ShapeMismatch);
            }
            if !sync && b.barriers() > 0 {
                return Err(KernelError::UndeclaredSync);
            }
            if !b.runs().all(|(w, _)| valid_cpi(w.cpi)) {
                return Err(KernelError::BadCpi);
            }
        }
        Ok(Rc::new(kernel))
    }

    /// Threadblocks in the kernel.
    pub fn num_tbs(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// Warps per threadblock (partial warps round up).
    pub fn warps_per_tb(&self) -> u32 {
        self.threads_per_tb.div_ceil(WARP_SIZE)
    }

    /// Total warps across the kernel.
    pub fn total_warps(&self) -> u32 {
        self.warps_per_tb() * self.num_tbs()
    }

    /// Whether a Pagoda scheduler must place the kernel threadblock by
    /// threadblock (paper Algorithm 1, line 17): any kernel that needs
    /// shared memory or synchronization.
    pub fn per_tb_scheduling(&self) -> bool {
        self.smem_per_tb > 0 || self.sync
    }

    /// Total thread-instructions in the kernel.
    pub fn total_instrs(&self) -> u64 {
        self.blocks.iter().map(BlockWork::total_instrs).sum()
    }

    /// The kernel's shape as a native launch sees it, at
    /// [`NATIVE_REGS_PER_THREAD`] registers per thread.
    pub fn native_shape(&self) -> TaskShape {
        TaskShape {
            threads_per_tb: self.threads_per_tb,
            num_tbs: self.num_tbs(),
            regs_per_thread: NATIVE_REGS_PER_THREAD,
            smem_per_tb: self.smem_per_tb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_builder() {
        let w = WarpWork::compute(1000, 2.0);
        assert_eq!(w.total_instrs(), 1000);
        assert_eq!(w.barrier_count(), 0);
    }

    #[test]
    fn phased_builder_splits_work_and_inserts_barriers() {
        let w = WarpWork::phased(10, 3, 1.5);
        assert_eq!(w.total_instrs(), 10);
        assert_eq!(w.barrier_count(), 2);
        // 10 over 3 phases: 4, 3, 3.
        assert_eq!(
            w.segments,
            vec![
                Segment::Compute(4),
                Segment::Barrier,
                Segment::Compute(3),
                Segment::Barrier,
                Segment::Compute(3),
            ]
        );
    }

    #[test]
    fn blocks_keep_their_barrier_count() {
        let phased = WarpWork::phased(10, 3, 1.5);
        assert_eq!(BlockWork::uniform(2, phased.clone()).barriers(), 2);
        assert_eq!(BlockWork::new(vec![phased.clone(), phased]).barriers(), 2);
        assert_eq!(
            BlockWork::uniform(1, WarpWork::compute(5, 1.0)).barriers(),
            0
        );
    }

    /// A block of `warps` drawn from a small menu, so that neighbours are
    /// often equal: `i`'s work is `menu[picks[i]]`, each with two
    /// barriers.
    fn menu_block(picks: &[usize]) -> Vec<WarpWork> {
        let menu = [
            WarpWork::phased(300, 3, 1.0),
            WarpWork::phased(300, 3, 2.0),
            WarpWork::phased(0, 3, 1.0),
            WarpWork::phased(77, 3, 1.0),
        ];
        picks
            .iter()
            .map(|&p| menu[p % menu.len()].clone())
            .collect()
    }

    proptest::proptest! {
        /// The runs read exactly as the warps they were built from.
        #[test]
        fn runs_read_as_the_warps_they_hold(
            picks in proptest::collection::vec(0usize..4, 1..40),
            other in proptest::collection::vec(0usize..4, 1..40),
        ) {
            let warps = menu_block(&picks);
            let b = BlockWork::new(warps.clone());
            proptest::prop_assert_eq!(b.num_warps() as usize, warps.len());
            for (i, w) in warps.iter().enumerate() {
                proptest::prop_assert_eq!(b.warp(i as u32), w);
            }
            let iterated: Vec<&WarpWork> = b.warps().iter().collect();
            proptest::prop_assert_eq!(iterated, warps.iter().collect::<Vec<_>>());
            proptest::prop_assert_eq!(b.warps().iter().len(), warps.len());
            let expanded: Vec<&WarpWork> = b
                .runs()
                .flat_map(|(w, k)| std::iter::repeat_n(w, k as usize))
                .collect();
            proptest::prop_assert_eq!(expanded, warps.iter().collect::<Vec<_>>());
            proptest::prop_assert!(b.runs().zip(b.runs().skip(1)).all(|(x, y)| x.0 != y.0));
            let instrs: u64 = warps.iter().map(WarpWork::total_instrs).sum();
            proptest::prop_assert_eq!(b.total_instrs(), instrs);
            proptest::prop_assert_eq!(b.barriers(), 2);
            // Equality is by value: equal warp lists, equal blocks.
            let c = BlockWork::new(menu_block(&other));
            proptest::prop_assert_eq!(b == c, warps == menu_block(&other));
            let w = warps[0].clone();
            let k = picks.len() as u32;
            proptest::prop_assert_eq!(BlockWork::uniform(k, w.clone()), BlockWork::new(vec![w; k as usize]));
        }
    }

    #[test]
    fn a_uniform_block_is_one_run_read_warp_by_warp() {
        let w = WarpWork::phased(1_000, 2, 3.0);
        let b = BlockWork::uniform(32, w.clone());
        assert_eq!(b.runs().collect::<Vec<_>>(), [(&w, 32)]);
        assert_eq!((b.num_warps(), b.total_instrs()), (32, 32_000));
        assert_eq!(b.warp(31), &w);
        // The two ways callers read every warp: an iterator out of the
        // view (it borrows the block, not the view) and a `for` loop.
        let blocks = [
            b.clone(),
            BlockWork::new([w.clone(), WarpWork::phased(9, 2, 1.0)]),
        ];
        let flat: Vec<&WarpWork> = blocks.iter().flat_map(|b| b.warps().iter()).collect();
        assert_eq!(flat.len(), 34);
        let mut seen = 0;
        for warp in blocks[1].warps() {
            assert_eq!(warp.barrier_count(), 1);
            seen += 1;
        }
        assert_eq!(seen, 2);
    }

    #[test]
    #[should_panic(expected = "warp 32 of a 32-warp block")]
    fn reading_past_the_last_warp_panics() {
        BlockWork::uniform(32, WarpWork::compute(1, 1.0)).warp(32);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mismatched_barrier_counts_rejected() {
        BlockWork::new(vec![
            WarpWork::compute(10, 1.0),
            WarpWork::phased(10, 2, 1.0),
        ]);
    }

    #[test]
    #[should_panic(expected = "CPI below 1")]
    fn cpi_below_one_rejected() {
        WarpWork::compute(10, 0.5);
    }

    #[test]
    fn a_kernel_counts_its_blocks_and_warps() {
        let block = BlockWork::uniform(2, WarpWork::compute(100, 1.0));
        let k = Kernel::new(64, 0, false, vec![block; 2]).unwrap();
        assert_eq!((k.num_tbs(), k.warps_per_tb(), k.total_warps()), (2, 2, 4));
        assert_eq!(k.total_instrs(), 400);
        assert!(!k.per_tb_scheduling());
        let shape = k.native_shape();
        assert_eq!((shape.num_tbs, shape.regs_per_thread), (2, 32));
    }

    #[test]
    fn an_empty_kernel_is_structurally_valid() {
        let none = Vec::<BlockWork>::new;
        let k = Kernel::new(0, 0, false, none()).unwrap();
        assert_eq!((k.num_tbs(), k.total_warps(), k.total_instrs()), (0, 0, 0));
        assert_eq!(Kernel::new(64, 0, false, none()).unwrap().num_tbs(), 0);
    }

    #[test]
    fn a_block_of_the_wrong_width_is_a_shape_mismatch() {
        let block = BlockWork::uniform(2, WarpWork::compute(1, 1.0));
        assert_eq!(
            Kernel::new(96, 0, false, [block]),
            Err(KernelError::ShapeMismatch)
        );
    }

    #[test]
    fn barriers_without_sync_are_undeclared() {
        let block = BlockWork::uniform(2, WarpWork::phased(1000, 2, 1.0));
        assert_eq!(
            Kernel::new(64, 0, false, [block.clone()]),
            Err(KernelError::UndeclaredSync)
        );
        assert!(Kernel::new(64, 0, true, [block])
            .unwrap()
            .per_tb_scheduling());
        assert!(KernelError::UndeclaredSync
            .to_string()
            .contains("sync flag"));
    }
}
