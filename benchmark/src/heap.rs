//! Keeps the process's heap pages once it has touched them.
//!
//! glibc hands allocations above 128 KB straight to `mmap` and gives
//! them back on `free`, so every rep of a workload that builds
//! multi-megabyte vectors touches fresh pages. On a sandbox VM whose
//! memory the host backs lazily, a first touch of a page the guest has
//! never used costs 30–100 µs against 2 µs for a recycled one (measured
//! with a 256 MB-at-a-time touch loop), and which of the two a rep gets
//! is the kernel's free list's business: `paper_fig5` (460 MB peak) ran
//! 30 % slower, with 8–11 s of system time in a 30 s run, until the
//! guest had warmed up. With the heap retained, the first full-size rep
//! pays for its pages and every later rep reuses them.

/// Tells the allocator to serve every request from the program break and
/// never to trim it. A no-op where the C library is not glibc.
pub fn retain() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_TOP_PAD: c_int = -2;
        const M_MMAP_MAX: c_int = -4;
        // SAFETY: `mallopt` only stores tunables; it is called once,
        // before the process starts a second thread.
        unsafe {
            mallopt(M_MMAP_MAX, 0);
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
            mallopt(M_TOP_PAD, 64 << 20);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn large_allocations_still_work_with_the_heap_retained() {
        super::retain();
        let v = vec![1u8; 64 << 20];
        assert_eq!(v.iter().map(|&b| b as usize).sum::<usize>(), 64 << 20);
    }
}
