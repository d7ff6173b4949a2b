//! Named-barrier ID management (paper §5.2).
//!
//! Pagoda implements `syncBlock()` — sub-threadblock synchronization among
//! only the warps of one *task* threadblock — with PTX named barriers
//! (`bar.sync id, count`). The PTX model exposes 16 barrier IDs per
//! threadblock, so each MTB owns a pool of 16 IDs that are handed to task
//! threadblocks at scheduling time (Algorithm 1, line 19) and recycled when
//! the threadblock finishes (line 39).

/// A named-barrier ID in `0..16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierId(pub u8);

/// Fixed pool of 16 recyclable barrier IDs.
#[derive(Debug, Clone)]
pub struct BarrierPool {
    /// Bit i set = ID i is free.
    free: u16,
}

impl Default for BarrierPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BarrierPool {
    /// A pool with all 16 IDs free.
    pub fn new() -> Self {
        BarrierPool { free: u16::MAX }
    }

    /// Takes the lowest free ID, or `None` if all 16 are in use (the
    /// scheduler warp then stalls until a threadblock recycles one).
    pub fn alloc(&mut self) -> Option<BarrierId> {
        if self.free == 0 {
            return None;
        }
        let id = self.free.trailing_zeros() as u8;
        self.free &= !(1 << id);
        Some(BarrierId(id))
    }

    /// Recycles an ID.
    ///
    /// # Panics
    /// Panics on double release or an out-of-range ID.
    pub fn release(&mut self, id: BarrierId) {
        assert!(id.0 < 16, "barrier id out of range: {id:?}");
        let bit = 1u16 << id.0;
        assert_eq!(self.free & bit, 0, "double release of {id:?}");
        self.free |= bit;
    }

    /// IDs currently free.
    pub fn available(&self) -> u32 {
        self.free.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_all_sixteen_then_stalls() {
        let mut p = BarrierPool::new();
        let ids: Vec<_> = (0..16).map(|_| p.alloc().unwrap()).collect();
        assert_eq!(p.available(), 0);
        assert!(p.alloc().is_none(), "17th alloc must stall");
        // Distinct IDs.
        let mut seen = [false; 16];
        for id in &ids {
            assert!(!seen[id.0 as usize]);
            seen[id.0 as usize] = true;
        }
    }

    #[test]
    fn recycling_enables_reuse() {
        let mut p = BarrierPool::new();
        let ids: Vec<_> = (0..16).map(|_| p.alloc().unwrap()).collect();
        p.release(ids[5]);
        let again = p.alloc().unwrap();
        assert_eq!(again, ids[5], "lowest free ID is recycled");
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut p = BarrierPool::new();
        let id = p.alloc().unwrap();
        p.release(id);
        p.release(id);
    }
}
