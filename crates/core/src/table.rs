//! The TaskTable: Pagoda's CPU/GPU-mirrored spawning structure (paper §4.2).
//!
//! The TaskTable is a 48-column × 32-row array of task entries, mirrored in
//! host and device memory. Column *c* belongs to MTB *c*: only that MTB's
//! scheduler warp schedules from it. The protocol exploits an ownership
//! split that makes simultaneous host/device updates safe without PCIe
//! atomics:
//!
//! * the **CPU** only writes entries whose `ready` field is `Free` (0);
//! * the **GPU** only writes entries whose `ready` field is non-zero.
//!
//! Each entry's state is `(ready, sched)` per Fig. 2a:
//!
//! | `ready`       | meaning                                             |
//! |---------------|-----------------------------------------------------|
//! | `Free` (0)    | entry unused; CPU may claim it                      |
//! | `Ref(t)` (>1) | entry copied; `t` = previously spawned task whose   |
//! |               | parameters are now guaranteed complete (pipelining) |
//! | `Copied` (−1) | chain-processed; parameters complete, awaiting the  |
//! |               | *next* task's arrival (or a CPU flush) to schedule  |
//! | `Scheduling` (1) | being scheduled / executing on the MTB           |
//!
//! `sched = true` tells the scheduler warp to begin placing the task.
//!
//! This module holds the pure state machine with its transition rules; the
//! runtime layers PCIe visibility timing on top.

/// A Pagoda task identifier. The paper requires task IDs > 1 so the `ready`
/// field can overload 0/−1/1 as protocol states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl TaskId {
    /// The smallest legal task ID.
    pub const FIRST: TaskId = TaskId(2);

    /// The next ID after this one.
    pub fn next(self) -> TaskId {
        TaskId(self.0 + 1)
    }
}

/// The `ready` field of an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ready {
    /// 0 — unoccupied.
    #[default]
    Free,
    /// −1 — parameters copied; waiting for the pipeline to advance.
    Copied,
    /// 1 — under consideration for scheduling / executing.
    Scheduling,
    /// A task ID > 1: reference to the previously spawned task.
    Ref(TaskId),
}

/// Full per-entry protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntryState {
    /// The four-state `ready` field.
    pub ready: Ready,
    /// The scheduling flag.
    pub sched: bool,
}

/// Position of an entry: column = owning MTB, row within the column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryIndex {
    /// Owning MTB / TaskTable column.
    pub col: u32,
    /// Row within the column.
    pub row: u32,
}

/// Row bitmasks of one 64-row stretch of a column: bit `r` speaks for row
/// `64·word + r`. The paper's scheduler warp reads its column with 32
/// lanes at once; these are the three predicates those lanes evaluate,
/// kept so that a reader sees a whole column in `rows.div_ceil(64)` words.
#[derive(Debug, Clone, Copy, Default)]
struct RowMasks {
    /// `sched` is set.
    sched: u64,
    /// `ready` is `Ref(prev)` and `prev`'s entry is `Copied`: the row can
    /// chain-update now. The table cannot see which entry `prev` holds,
    /// so its owner says ([`TaskTableSide::set_chain`]); any other write
    /// to the row clears the bit.
    chain: u64,
    /// `ready` is `Free`.
    free: u64,
}

/// The rows whose bits are set in `bits`, the `word`-th 64-row stretch of
/// a column, ascending.
pub(crate) fn set_rows(word: usize, mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let row = 64 * word as u32 + bits.trailing_zeros();
            bits &= bits - 1;
            row
        })
    })
}

/// One side (CPU or GPU) of the mirrored table.
#[derive(Debug, Clone)]
pub struct TaskTableSide {
    cols: u32,
    rows: u32,
    entries: Vec<EntryState>,
    /// `words_per_col` [`RowMasks`] per column, mirroring `entries`. Only
    /// [`TaskTableSide::store`] writes either, so they cannot disagree.
    masks: Vec<RowMasks>,
    words_per_col: usize,
    /// Non-free entries across the whole table.
    used_total: u32,
}

impl TaskTableSide {
    /// An all-free table.
    pub fn new(cols: u32, rows: u32) -> Self {
        let words_per_col = rows.div_ceil(64) as usize;
        let mut masks = vec![RowMasks::default(); cols as usize * words_per_col];
        for (i, m) in masks.iter_mut().enumerate() {
            let rows_left = rows - 64 * (i % words_per_col) as u32;
            m.free = if rows_left >= 64 {
                u64::MAX
            } else {
                (1 << rows_left) - 1
            };
        }
        TaskTableSide {
            cols,
            rows,
            entries: vec![EntryState::default(); (cols * rows) as usize],
            masks,
            words_per_col,
            used_total: 0,
        }
    }

    /// Columns (= MTBs).
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Rows per column.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    fn idx(&self, e: EntryIndex) -> usize {
        assert!(e.col < self.cols && e.row < self.rows, "bad index {e:?}");
        (e.col * self.rows + e.row) as usize
    }

    fn col_masks(&self, col: u32) -> &[RowMasks] {
        let at = col as usize * self.words_per_col;
        &self.masks[at..at + self.words_per_col]
    }

    fn row_masks(&mut self, e: EntryIndex) -> (&mut RowMasks, u64) {
        let m = &mut self.masks[e.col as usize * self.words_per_col + (e.row / 64) as usize];
        (m, 1u64 << (e.row % 64))
    }

    /// The one write to an entry: every transition below ends here, so the
    /// masks and the used count follow `entries` by construction. `i` is
    /// `idx(e)`, which each caller has already computed for its own check.
    fn store(&mut self, i: usize, e: EntryIndex, s: EntryState) {
        let was_free = self.entries[i].ready == Ready::Free;
        let now_free = s.ready == Ready::Free;
        self.entries[i] = s;
        let (m, bit) = self.row_masks(e);
        let put = |word: &mut u64, on: bool| *word = if on { *word | bit } else { *word & !bit };
        put(&mut m.sched, s.sched);
        m.chain &= !bit;
        put(&mut m.free, now_free);
        match (was_free, now_free) {
            (true, false) => self.used_total += 1,
            (false, true) => self.used_total -= 1,
            _ => {}
        }
    }

    /// Reads an entry.
    pub fn get(&self, e: EntryIndex) -> EntryState {
        self.entries[self.idx(e)]
    }

    /// Raw write (used when applying a DMA-visible snapshot).
    pub fn set(&mut self, e: EntryIndex, s: EntryState) {
        let i = self.idx(e);
        self.store(i, e, s);
    }

    /// Says whether the task reference in row `e` can chain-update now —
    /// whether its predecessor's entry is `Copied` — until the row's next
    /// write.
    ///
    /// # Panics
    /// Panics if `on` is set for a row that holds no task reference.
    pub(crate) fn set_chain(&mut self, e: EntryIndex, on: bool) {
        let i = self.idx(e);
        assert!(
            !on || matches!(self.entries[i].ready, Ready::Ref(_)),
            "chain bit on {e:?} in state {:?}",
            self.entries[i]
        );
        let (m, bit) = self.row_masks(e);
        m.chain = if on { m.chain | bit } else { m.chain & !bit };
    }

    /// CPU spawn (Fig. 2b step 1): claim a free entry, recording either
    /// `Copied` (first task of a chain) or `Ref(prev)`.
    ///
    /// # Panics
    /// Panics if the entry is not free (the CPU may only touch free
    /// entries) or if `ready` is not one of the two legal spawn values.
    pub fn cpu_claim(&mut self, e: EntryIndex, ready: Ready) {
        let i = self.idx(e);
        assert_eq!(
            self.entries[i].ready,
            Ready::Free,
            "CPU spawning into occupied entry {e:?}"
        );
        assert!(
            matches!(ready, Ready::Copied | Ready::Ref(_)),
            "illegal spawn ready value {ready:?}"
        );
        let claimed = EntryState {
            ready,
            sched: false,
        };
        self.store(i, e, claimed);
    }

    /// GPU chain step, previous entry (Algorithm 1, lines 12-13):
    /// `Copied → (Scheduling, sched=1)`.
    ///
    /// # Panics
    /// Panics unless the entry is in `Copied` state.
    pub fn chain_mark_schedulable(&mut self, e: EntryIndex) {
        let i = self.idx(e);
        assert_eq!(
            self.entries[i].ready,
            Ready::Copied,
            "chain_mark_schedulable on {e:?} in state {:?}",
            self.entries[i]
        );
        let schedulable = EntryState {
            ready: Ready::Scheduling,
            sched: true,
        };
        self.store(i, e, schedulable);
    }

    /// GPU chain step, current entry: `Ref(_) → Copied` (parameters now
    /// known complete).
    ///
    /// # Panics
    /// Panics unless the entry holds a task reference.
    pub fn chain_settle(&mut self, e: EntryIndex) {
        let i = self.idx(e);
        assert!(
            matches!(self.entries[i].ready, Ready::Ref(_)),
            "chain_settle on {e:?} in state {:?}",
            self.entries[i]
        );
        let settled = EntryState {
            ready: Ready::Copied,
            sched: false,
        };
        self.store(i, e, settled);
    }

    /// Scheduler warp begins placing the task (Algorithm 1, line 15):
    /// clears `sched`.
    ///
    /// # Panics
    /// Panics if `sched` was not set.
    pub fn clear_sched(&mut self, e: EntryIndex) {
        let i = self.idx(e);
        assert!(self.entries[i].sched, "clear_sched on {e:?} without flag");
        let cleared = EntryState {
            sched: false,
            ..self.entries[i]
        };
        self.store(i, e, cleared);
    }

    /// Last executor warp of the task resets `ready` (Algorithm 1, line
    /// 42), freeing the entry for the CPU.
    ///
    /// # Panics
    /// Panics unless the entry was `Scheduling`.
    pub fn complete(&mut self, e: EntryIndex) {
        let i = self.idx(e);
        assert_eq!(
            self.entries[i].ready,
            Ready::Scheduling,
            "completing {e:?} in state {:?}",
            self.entries[i]
        );
        self.store(i, e, EntryState::default());
    }

    /// All entries of one column, row order (the scheduler warp's scan).
    pub fn column(&self, col: u32) -> impl Iterator<Item = (EntryIndex, EntryState)> + '_ {
        (0..self.rows).map(move |row| {
            let e = EntryIndex { col, row };
            (e, self.get(e))
        })
    }

    /// The rows of one column a scheduler warp can act on — `sched` set, or
    /// a task reference whose predecessor is `Copied` — in ascending row
    /// order, read from the masks. An idle column, or one whose references
    /// all wait on their predecessors, costs one word test per 64 rows.
    pub(crate) fn actionable(
        &self,
        col: u32,
    ) -> impl Iterator<Item = (EntryIndex, EntryState)> + '_ {
        self.col_masks(col)
            .iter()
            .enumerate()
            .flat_map(|(word, m)| set_rows(word, m.sched | m.chain))
            .map(move |row| {
                let e = EntryIndex { col, row };
                (e, self.get(e))
            })
    }

    /// Words of row mask per column.
    pub(crate) fn words_per_col(&self) -> usize {
        self.words_per_col
    }

    /// The `free` mask of rows `64·word ..` of one column.
    pub(crate) fn free_word(&self, col: u32, word: usize) -> u64 {
        self.col_masks(col)[word].free
    }

    /// The lowest free row of one column, if it has one.
    pub(crate) fn first_free_row(&self, col: u32) -> Option<u32> {
        (0u32..)
            .zip(self.col_masks(col))
            .find(|(_, m)| m.free != 0)
            .map(|(word, m)| 64 * word + m.free.trailing_zeros())
    }

    /// Non-free entries in one column (a popcount per 64 rows — equals
    /// what a `column` scan would count).
    pub fn used_in_col(&self, col: u32) -> u32 {
        let free: u32 = self
            .col_masks(col)
            .iter()
            .map(|m| m.free.count_ones())
            .sum();
        self.rows - free
    }

    /// Number of free entries, O(1).
    pub fn free_entries(&self) -> usize {
        (self.cols * self.rows - self.used_total) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(col: u32, row: u32) -> EntryIndex {
        EntryIndex { col, row }
    }

    #[test]
    fn fig2b_sequence_for_two_tasks() {
        // GPU-side table following Fig. 2b: TA spawned first (Copied), TB
        // spawned with Ref(TA); scheduler settles the chain.
        let mut t = TaskTableSide::new(2, 2);
        let ta = e(0, 0);
        let tb = e(1, 0);
        let id_a = TaskId::FIRST;

        // H2D copies arrive:
        t.set(
            ta,
            EntryState {
                ready: Ready::Copied,
                sched: false,
            },
        );
        t.set(
            tb,
            EntryState {
                ready: Ready::Ref(id_a),
                sched: false,
            },
        );

        // S2 (TB's scheduler) sees Ref(TA): marks TA schedulable, settles TB.
        t.chain_mark_schedulable(ta);
        t.chain_settle(tb);
        assert_eq!(
            t.get(ta),
            EntryState {
                ready: Ready::Scheduling,
                sched: true
            }
        );
        assert_eq!(
            t.get(tb),
            EntryState {
                ready: Ready::Copied,
                sched: false
            }
        );

        // S1 schedules TA: clears sched, runs, completes.
        t.clear_sched(ta);
        t.complete(ta);
        assert_eq!(t.get(ta), EntryState::default());

        // CPU flush path for TB: (Copied, 0) -> (Scheduling, sched).
        t.chain_mark_schedulable(tb);
        t.clear_sched(tb);
        t.complete(tb);
        assert_eq!(t.free_entries(), 4);
    }

    #[test]
    fn cpu_claim_rules() {
        let mut t = TaskTableSide::new(1, 2);
        t.cpu_claim(e(0, 0), Ready::Copied);
        t.cpu_claim(e(0, 1), Ready::Ref(TaskId(2)));
        assert_eq!(t.free_entries(), 0);
    }

    #[test]
    #[should_panic(expected = "occupied entry")]
    fn cpu_cannot_claim_occupied() {
        let mut t = TaskTableSide::new(1, 1);
        t.cpu_claim(e(0, 0), Ready::Copied);
        t.cpu_claim(e(0, 0), Ready::Copied);
    }

    #[test]
    #[should_panic(expected = "illegal spawn ready")]
    fn cpu_cannot_spawn_scheduling_state() {
        let mut t = TaskTableSide::new(1, 1);
        t.cpu_claim(e(0, 0), Ready::Scheduling);
    }

    #[test]
    #[should_panic(expected = "chain_mark_schedulable")]
    fn chain_mark_requires_copied() {
        let mut t = TaskTableSide::new(1, 1);
        t.chain_mark_schedulable(e(0, 0));
    }

    #[test]
    #[should_panic(expected = "completing")]
    fn complete_requires_scheduling() {
        let mut t = TaskTableSide::new(1, 1);
        t.complete(e(0, 0));
    }

    #[test]
    fn task_ids_start_above_one() {
        assert_eq!(TaskId::FIRST.0, 2);
        assert_eq!(TaskId::FIRST.next().0, 3);
    }

    #[test]
    fn incremental_used_counts_match_scans() {
        let mut t = TaskTableSide::new(2, 3);
        let scan_used = |t: &TaskTableSide, col: u32| {
            t.column(col)
                .filter(|(_, s)| s.ready != Ready::Free)
                .count() as u32
        };
        t.cpu_claim(e(0, 0), Ready::Copied);
        t.cpu_claim(e(1, 1), Ready::Ref(TaskId(2)));
        // Raw `set` transitions in both directions, including writes that
        // do not change free-ness.
        t.set(
            e(1, 2),
            EntryState {
                ready: Ready::Copied,
                sched: false,
            },
        );
        t.set(
            e(1, 2),
            EntryState {
                ready: Ready::Scheduling,
                sched: true,
            },
        );
        t.set(e(1, 1), EntryState::default());
        t.chain_mark_schedulable(e(0, 0));
        t.clear_sched(e(0, 0));
        t.complete(e(0, 0));
        for col in 0..2 {
            assert_eq!(t.used_in_col(col), scan_used(&t, col), "col {col}");
        }
        assert_eq!(
            t.free_entries(),
            6 - (scan_used(&t, 0) + scan_used(&t, 1)) as usize
        );
    }

    /// Everything the masks answer, against a `column` scan; `chained[i]`
    /// is what the owner last said of entry `i` with `set_chain`, unless a
    /// write to the entry came since.
    fn masks_match_scan(t: &TaskTableSide, chained: &[bool]) -> Result<(), TestCaseError> {
        let mut used = 0;
        for col in 0..t.cols() {
            let actionable: Vec<_> = t
                .column(col)
                .filter(|(e, s)| s.sched || chained[t.idx(*e)])
                .collect();
            prop_assert_eq!(t.actionable(col).collect::<Vec<_>>(), actionable);
            let free: Vec<u32> = t
                .column(col)
                .filter(|(_, s)| s.ready == Ready::Free)
                .map(|(e, _)| e.row)
                .collect();
            prop_assert_eq!(t.first_free_row(col), free.first().copied());
            let free_words = (0..t.words_per_col()).flat_map(|w| set_rows(w, t.free_word(col, w)));
            prop_assert_eq!(free_words.collect::<Vec<_>>(), free);
            let used_in_col = t.column(col).filter(|(_, s)| s.ready != Ready::Free);
            prop_assert_eq!(t.used_in_col(col), used_in_col.count() as u32);
            used += t.used_in_col(col);
        }
        prop_assert_eq!(t.free_entries(), (t.cols() * t.rows() - used) as usize);
        Ok(())
    }

    proptest! {
        /// After any sequence of legal transitions, raw `set`s to any
        /// state and chain bits set or cleared on task references, on
        /// column heights either side of the 64-row word boundary, the
        /// masks say what a scan of the entries says: `actionable` yields
        /// the rows with `sched` set or a standing chain bit.
        #[test]
        fn masks_match_column_scans(
            height in 0usize..6,
            cols in 1u32..4,
            ops in prop::collection::vec((0u8..10, 0u32..1000, 0u32..1000), 1..400),
        ) {
            let rows = [1, 2, 32, 64, 65, 130][height];
            let mut t = TaskTableSide::new(cols, rows);
            let mut chained = vec![false; (cols * rows) as usize];
            masks_match_scan(&t, &chained)?;
            for (op, a, b) in ops {
                let at = e(a % cols, b % rows);
                let st = t.get(at);
                let prev = Ready::Ref(TaskId(2 + u64::from(a)));
                match (op, st.ready) {
                    // The transition the entry's state allows, if the op
                    // drew one of them...
                    (0..=2, Ready::Free) => {
                        t.cpu_claim(at, if op == 0 { Ready::Copied } else { prev });
                    }
                    (0..=2, Ready::Copied) => t.chain_mark_schedulable(at),
                    (0..=2, Ready::Ref(_)) => t.chain_settle(at),
                    (0..=1, Ready::Scheduling) if st.sched => t.clear_sched(at),
                    (0..=2, Ready::Scheduling) => t.complete(at),
                    // ...or the owner's word on a task reference...
                    (8..=9, Ready::Ref(_)) => t.set_chain(at, op == 8),
                    // ...else a snapshot write of an arbitrary state.
                    _ => {
                        let ready = [Ready::Free, Ready::Copied, Ready::Scheduling, prev];
                        t.set(at, EntryState { ready: ready[(b % 4) as usize], sched: a % 2 == 0 });
                    }
                }
                chained[t.idx(at)] = op == 8 && matches!(st.ready, Ready::Ref(_));
                masks_match_scan(&t, &chained)?;
            }
        }
    }

    #[test]
    #[should_panic(expected = "chain bit")]
    fn chain_bit_needs_a_task_reference() {
        let mut t = TaskTableSide::new(1, 1);
        t.cpu_claim(e(0, 0), Ready::Copied);
        t.set_chain(e(0, 0), true);
    }

    #[test]
    fn column_iterates_rows_in_order() {
        let mut t = TaskTableSide::new(2, 3);
        t.cpu_claim(e(1, 2), Ready::Copied);
        let col: Vec<_> = t.column(1).collect();
        assert_eq!(col.len(), 3);
        assert_eq!(col[2].0, e(1, 2));
        assert_eq!(col[2].1.ready, Ready::Copied);
        assert_eq!(col[0].1.ready, Ready::Free);
    }
}
