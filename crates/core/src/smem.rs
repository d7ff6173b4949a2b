//! Software shared-memory management: the buddy allocator of paper §5.1.
//!
//! Each MTB statically reserves 32 KB of its SMM's shared memory and hands
//! pieces of it to the threadblocks of scheduled tasks. CUDA offers no
//! dynamic shared-memory allocation once a kernel is launched, so Pagoda
//! manages the region in software with a buddy system chosen for its O(log)
//! operations and tree-in-array layout (128 nodes fit in shared memory
//! alongside the WarpTable).
//!
//! The tree covers 32 KB at the root; each level halves the block size down
//! to the 512 B minimum granularity (7 levels, 127 nodes). The invariant —
//! *if a node is marked, its parent is marked* — is exactly the paper's:
//! allocation marks the chosen node, all its descendants, and all its
//! ancestors (Fig. 3); deallocation unmarks the descendants, then walks
//! rootward unmarking each parent whose other child is also unmarked
//! (Fig. 4).
//!
//! Deallocation is *deferred*: executor warps may not free shared memory
//! themselves (they would race the scheduler warp's allocations), so the
//! last warp of a threadblock only *marks* its block for deallocation
//! ([`BuddyAllocator::mark_for_dealloc`]) and the scheduler warp drains the
//! marks ([`BuddyAllocator::dealloc_marked`]) before attempting any new
//! allocation (Algorithm 1, line 22).

/// Bytes managed per MTB on the paper's Titan X (96 KB SMM shared
/// memory: 32 KB per MTB plus scheduling structures). Machines with less
/// shared memory get a smaller power-of-two pool
/// ([`BuddyAllocator::with_pool`]).
pub const SMEM_POOL_BYTES: u32 = 32 * 1024;
/// Smallest allocatable block.
pub const MIN_BLOCK_BYTES: u32 = 512;
/// Tree levels at the maximum pool size: 32 KB, 16 KB, …, 512 B.
pub const MAX_LEVELS: usize = 7;
/// Node capacity of the tree array (2^7 − 1, sized for the largest pool).
pub const NUM_NODES: usize = (1 << MAX_LEVELS) - 1;

/// Index of a tree node; doubles as the allocation handle (the paper's
/// `SMindex` stored in the WarpTable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u16);

/// Allocation failure: no free block large enough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfSharedMemory {
    /// The rounded block size that could not be found.
    pub wanted: u32,
}

/// The per-MTB buddy allocator.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Paper's marked bit per node: true = part of an allocation (as the
    /// allocated node itself, a descendant of one, or an ancestor).
    marked: [bool; NUM_NODES],
    /// True only for nodes returned by [`BuddyAllocator::alloc`] that have
    /// not been deallocated — guards against bogus frees.
    is_root: [bool; NUM_NODES],
    /// Blocks waiting for the scheduler warp to reclaim.
    pending_dealloc: Vec<NodeId>,
    /// Bytes currently allocated (sum of live allocation block sizes).
    allocated: u32,
    /// Pool size (root block), a power of two in 512 B ..= 32 KB.
    pool: u32,
    /// Tree depth for this pool.
    levels: usize,
}

impl Default for BuddyAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl BuddyAllocator {
    /// An empty pool of the Titan X's 32 KB MTB slice.
    pub fn new() -> Self {
        Self::with_pool(SMEM_POOL_BYTES)
    }

    /// An empty pool of `pool` bytes (for machines whose SMMs hold less
    /// shared memory, e.g. the K40's 48 KB → 16 KB per-MTB pool).
    ///
    /// # Panics
    /// Panics unless `pool` is a power of two in 512 ..= 32768.
    pub fn with_pool(pool: u32) -> Self {
        assert!(
            pool.is_power_of_two() && (MIN_BLOCK_BYTES..=SMEM_POOL_BYTES).contains(&pool),
            "pool must be a power of two in 512..=32768, got {pool}"
        );
        let levels = ((pool / MIN_BLOCK_BYTES).trailing_zeros() + 1) as usize;
        BuddyAllocator {
            marked: [false; NUM_NODES],
            is_root: [false; NUM_NODES],
            pending_dealloc: Vec::new(),
            allocated: 0,
            pool,
            levels,
        }
    }

    /// Pool size in bytes.
    pub fn pool_bytes(&self) -> u32 {
        self.pool
    }

    /// Level of a node (0 = root).
    fn level_of(node: usize) -> usize {
        (usize::BITS - 1 - (node + 1).leading_zeros()) as usize
    }

    /// Block size at a level.
    fn size_at(&self, level: usize) -> u32 {
        self.pool >> level
    }

    /// First node index at a level.
    fn level_base(level: usize) -> usize {
        (1 << level) - 1
    }

    /// Index one past the last node of this pool's tree.
    fn node_limit(&self) -> usize {
        (1 << self.levels) - 1
    }

    /// The level whose block size is the smallest not below `bytes`, or
    /// `None` if `bytes` exceeds the pool.
    fn level_for(&self, bytes: u32) -> Option<usize> {
        if bytes > self.pool {
            return None;
        }
        let want = bytes.max(MIN_BLOCK_BYTES).next_power_of_two();
        Some((self.pool / want).trailing_zeros() as usize)
    }

    /// Byte offset and size of a node's block within the pool.
    pub fn block_of(&self, node: NodeId) -> (u32, u32) {
        let n = node.0 as usize;
        let level = Self::level_of(n);
        let size = self.size_at(level);
        let idx_in_level = n - Self::level_base(level);
        (idx_in_level as u32 * size, size)
    }

    /// Allocates a block of at least `bytes`. Mirrors Fig. 3: find a free
    /// node on the right level, mark it plus all descendants and ancestors.
    pub fn alloc(&mut self, bytes: u32) -> Result<NodeId, OutOfSharedMemory> {
        assert!(bytes > 0, "zero-byte shared-memory request");
        let Some(level) = self.level_for(bytes) else {
            return Err(OutOfSharedMemory { wanted: bytes });
        };
        let base = Self::level_base(level);
        let count = 1 << level;
        // The scheduler warp's 32 threads scan this level in parallel on the
        // GPU; sequentially here, lowest index first (deterministic).
        let node = (base..base + count).find(|&n| self.node_fully_free(n));
        let Some(n) = node else {
            return Err(OutOfSharedMemory {
                wanted: self.size_at(level),
            });
        };
        self.marked[n] = true;
        self.is_root[n] = true;
        self.mark_descendants(n, true);
        // Ancestors.
        let mut a = n;
        while a > 0 {
            a = (a - 1) / 2;
            self.marked[a] = true;
        }
        self.allocated += self.size_at(level);
        Ok(NodeId(n as u16))
    }

    /// A node is usable iff neither it nor any descendant is marked.
    /// (Ancestor marks alone do not disqualify it: an ancestor is marked
    /// whenever *any* block under it is allocated.)
    fn node_fully_free(&self, n: usize) -> bool {
        if self.marked[n] {
            return false;
        }
        let l = 2 * n + 1;
        let r = 2 * n + 2;
        if l >= self.node_limit() {
            return true;
        }
        self.node_fully_free(l) && self.node_fully_free(r)
    }

    fn mark_descendants(&mut self, n: usize, v: bool) {
        let l = 2 * n + 1;
        if l >= self.node_limit() {
            return;
        }
        let r = l + 1;
        self.marked[l] = v;
        self.marked[r] = v;
        self.mark_descendants(l, v);
        self.mark_descendants(r, v);
    }

    /// Immediately frees an allocation (Fig. 4). Only the scheduler warp
    /// calls this; executor warps use [`BuddyAllocator::mark_for_dealloc`].
    ///
    /// # Panics
    /// Panics if `node` is not a live allocation root.
    pub fn dealloc(&mut self, node: NodeId) {
        let n = node.0 as usize;
        assert!(self.is_root[n], "dealloc of non-allocated node {node:?}");
        self.is_root[n] = false;
        self.mark_descendants(n, false);
        self.marked[n] = false;
        self.allocated -= self.size_at(Self::level_of(n));
        // Walk up while the sibling is also unmarked.
        let mut cur = n;
        while cur > 0 {
            let parent = (cur - 1) / 2;
            let sibling = if cur % 2 == 1 { cur + 1 } else { cur - 1 };
            if self.marked[sibling] {
                break;
            }
            self.marked[parent] = false;
            cur = parent;
        }
    }

    /// Defers a free until the next [`BuddyAllocator::dealloc_marked`] —
    /// the executor-warp side of Algorithm 1 (line 37, `markSMForDealloc`).
    pub fn mark_for_dealloc(&mut self, node: NodeId) {
        assert!(
            self.is_root[node.0 as usize],
            "marking non-allocated node {node:?} for dealloc"
        );
        assert!(
            !self.pending_dealloc.contains(&node),
            "node {node:?} marked twice"
        );
        self.pending_dealloc.push(node);
    }

    /// Drains deferred frees (Algorithm 1, line 22, `deallocMarkedSM`).
    /// Returns how many blocks were reclaimed.
    pub fn dealloc_marked(&mut self) -> usize {
        // In marking order, and keeping the list's capacity: this runs on
        // the scheduler warp's path, once per shared-memory threadblock.
        let n = self.pending_dealloc.len();
        for i in 0..n {
            self.dealloc(self.pending_dealloc[i]);
        }
        self.pending_dealloc.clear();
        n
    }

    /// Whether an [`BuddyAllocator::alloc`] of `bytes` would currently
    /// succeed, without mutating anything. The scheduler warp uses this to
    /// decide whether attempting an allocation is worth its cycles.
    pub fn can_alloc(&self, bytes: u32) -> bool {
        let Some(level) = self.level_for(bytes) else {
            return false;
        };
        let base = Self::level_base(level);
        (base..base + (1 << level)).any(|n| self.node_fully_free(n))
    }

    /// Bytes in live allocations (marked-for-dealloc blocks still count).
    pub fn allocated_bytes(&self) -> u32 {
        self.allocated
    }

    /// Whether any frees are waiting for the scheduler warp.
    pub fn has_pending_deallocs(&self) -> bool {
        !self.pending_dealloc.is_empty()
    }

    /// Checks the paper's structural invariant: a marked node implies a
    /// marked parent. Test/diagnostic use.
    pub fn check_invariant(&self) -> bool {
        (1..self.node_limit()).all(|n| !self.marked[n] || self.marked[(n - 1) / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_math() {
        let b = BuddyAllocator::new();
        assert_eq!(b.level_for(32 * 1024), Some(0));
        assert_eq!(b.level_for(16 * 1024), Some(1));
        assert_eq!(b.level_for(512), Some(6));
        assert_eq!(b.level_for(1), Some(6), "rounds up to 512B");
        assert_eq!(b.level_for(513), Some(5), "rounds to 1K");
        assert_eq!(b.level_for(33 * 1024), None);
    }

    #[test]
    fn smaller_pool_variant() {
        // The K40 configuration: 16 KB per MTB.
        let mut b = BuddyAllocator::with_pool(16 * 1024);
        assert_eq!(b.pool_bytes(), 16 * 1024);
        assert!(b.alloc(32 * 1024).is_err(), "bigger than the pool");
        let n = b.alloc(16 * 1024).unwrap();
        assert_eq!(b.block_of(n), (0, 16 * 1024));
        b.dealloc(n);
        // 32 x 512B fills it exactly.
        for _ in 0..32 {
            b.alloc(512).unwrap();
        }
        assert!(b.alloc(512).is_err());
        assert!(b.check_invariant());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_pool_rejected() {
        BuddyAllocator::with_pool(24 * 1024);
    }

    #[test]
    fn paper_fig3_alloc_8k() {
        let mut b = BuddyAllocator::new();
        let n = b.alloc(8 * 1024).unwrap();
        let (off, size) = b.block_of(n);
        assert_eq!((off, size), (0, 8 * 1024));
        assert!(b.check_invariant());
        assert_eq!(b.allocated_bytes(), 8 * 1024);
        // Root and the path down must be marked; the sibling 8K free.
        let n2 = b.alloc(8 * 1024).unwrap();
        assert_eq!(b.block_of(n2).0, 8 * 1024);
    }

    #[test]
    fn paper_fig4_dealloc_merges_up() {
        let mut b = BuddyAllocator::new();
        let a = b.alloc(4 * 1024).unwrap();
        let c = b.alloc(4 * 1024).unwrap();
        b.dealloc(a);
        assert!(b.check_invariant());
        // c still allocated: ancestors stay marked, so a 32K alloc fails...
        assert!(b.alloc(32 * 1024).is_err());
        b.dealloc(c);
        assert!(b.check_invariant());
        // ...but after both frees the whole tree merged back.
        let full = b.alloc(32 * 1024).unwrap();
        assert_eq!(b.block_of(full), (0, 32 * 1024));
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut b = BuddyAllocator::new();
        let mut blocks = Vec::new();
        // 4 x 4K + 8 x 1K + 16 x 512B = 32K exactly.
        for _ in 0..4 {
            let n = b.alloc(4 * 1024).unwrap();
            blocks.push(b.block_of(n));
        }
        for _ in 0..8 {
            let n = b.alloc(1024).unwrap();
            blocks.push(b.block_of(n));
        }
        for _ in 0..16 {
            let n = b.alloc(512).unwrap();
            blocks.push(b.block_of(n));
        }
        assert_eq!(b.allocated_bytes(), 32 * 1024);
        assert!(b.alloc(512).is_err(), "pool exhausted");
        blocks.sort();
        for w in blocks.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {w:?}");
        }
    }

    #[test]
    fn fragmentation_blocks_large_alloc() {
        let mut b = BuddyAllocator::new();
        // Two 512B blocks land in the first 1K region...
        let x = b.alloc(512).unwrap();
        let y = b.alloc(512).unwrap();
        b.dealloc(x);
        // ...16K is still available on the other half of the tree.
        assert!(b.alloc(16 * 1024).is_ok());
        // But 32K cannot be satisfied while y lives.
        assert!(b.alloc(32 * 1024).is_err());
        let _ = y;
    }

    #[test]
    fn deferred_dealloc_flow() {
        let mut b = BuddyAllocator::new();
        let n = b.alloc(32 * 1024).unwrap();
        // Executor warp marks; memory still counts as allocated.
        b.mark_for_dealloc(n);
        assert!(b.has_pending_deallocs());
        assert!(b.alloc(512).is_err(), "not yet reclaimed");
        // Scheduler warp drains before its next allocation.
        assert_eq!(b.dealloc_marked(), 1);
        assert!(b.alloc(512).is_ok());
    }

    #[test]
    #[should_panic(expected = "dealloc of non-allocated")]
    fn dealloc_of_free_node_panics() {
        let mut b = BuddyAllocator::new();
        b.dealloc(NodeId(0));
    }

    #[test]
    #[should_panic(expected = "marked twice")]
    fn double_mark_panics() {
        let mut b = BuddyAllocator::new();
        let n = b.alloc(1024).unwrap();
        b.mark_for_dealloc(n);
        b.mark_for_dealloc(n);
    }

    #[test]
    fn alloc_prefers_lowest_offset() {
        let mut b = BuddyAllocator::new();
        let a = b.alloc(1024).unwrap();
        assert_eq!(b.block_of(a).0, 0);
        let c = b.alloc(1024).unwrap();
        assert_eq!(b.block_of(c).0, 1024);
        b.dealloc(a);
        let d = b.alloc(512).unwrap();
        assert_eq!(b.block_of(d).0, 0, "reuses the freed hole");
    }

    #[test]
    fn node_block_geometry() {
        let b = BuddyAllocator::new();
        assert_eq!(b.block_of(NodeId(0)), (0, 32 * 1024));
        assert_eq!(b.block_of(NodeId(1)), (0, 16 * 1024));
        assert_eq!(b.block_of(NodeId(2)), (16 * 1024, 16 * 1024));
        // Last leaf.
        assert_eq!(b.block_of(NodeId(126)), (32 * 1024 - 512, 512));
    }
}
