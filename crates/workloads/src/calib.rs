//! Calibration: the machine-balance constants that turn algorithm
//! operation counts into simulated time.
//!
//! One set of constants serves every figure — nothing here is tuned per
//! experiment. What they set is the **per-warp CPI**: the *unhidden*
//! latency a lone warp of each kernel sees between issued instructions.
//! This is the knob that encodes the whole underutilization story — a
//! lone warp with CPI 12 runs at 32·f/12 ≈ 2.7 G thread-ops/s while a
//! full SMM sustains 128 G, so a device occupied at 8 % runs ~12× below
//! peak, which is precisely the gap Pagoda closes. Memory-bound kernels
//! (DCT, CONV) have CPI above 16, meaning even a fully occupied SMM
//! cannot reach issue peak — modelling bandwidth-boundedness.
//!
//! The CPU side of the balance (one core's throughput, the 20-core
//! memory-system cap) is the CPU baseline's own model, `baselines::cpu`.

/// Per-benchmark cost model: per-warp CPI with and without shared memory.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// CPI of the kernel's global-memory version.
    pub cpi: f64,
    /// CPI when staging through shared memory (only differs for the
    /// benchmarks Table 3 marks as shared-memory candidates).
    pub cpi_smem: f64,
}

/// Mandelbrot: compute-dense but divergent (warp lanes escape at
/// different iterations).
pub const MB: CostModel = CostModel {
    cpi: 12.0,
    cpi_smem: 12.0,
};
/// FilterBank: FIR taps stream from global memory.
pub const FB: CostModel = CostModel {
    cpi: 10.0,
    cpi_smem: 10.0,
};
/// BeamFormer: highest arithmetic density of the suite (87 % compute).
pub const BF: CostModel = CostModel {
    cpi: 8.0,
    cpi_smem: 8.0,
};
/// Image convolution: neighbourhood reads dominate.
pub const CONV: CostModel = CostModel {
    cpi: 14.0,
    cpi_smem: 14.0,
};
/// DCT8x8: short arithmetic bursts between strided loads; shared-memory
/// staging removes most of the stall (Table 5).
pub const DCT: CostModel = CostModel {
    cpi: 20.0,
    cpi_smem: 13.0,
};
/// Matrix multiply: classic smem-tiling beneficiary (Table 5).
pub const MM: CostModel = CostModel {
    cpi: 24.0,
    cpi_smem: 10.0,
};
/// Sparse LU: small dense tiles, decent locality.
pub const SLUD: CostModel = CostModel {
    cpi: 12.0,
    cpi_smem: 12.0,
};
/// 3DES: S-box table lookups.
pub const DES3: CostModel = CostModel {
    cpi: 10.0,
    cpi_smem: 10.0,
};

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::GpuSpec;

    #[test]
    fn saturation_occupancy_is_reachable_for_compute_kernels() {
        // A kernel with CPI c saturates an SMM once W >= issue_width * c.
        // For the compute-dense kernels that point must lie within the 64
        // warp slots, otherwise full occupancy could never reach peak.
        let spec = GpuSpec::titan_x();
        for m in [MB, FB, BF, CONV] {
            let w_needed = spec.issue_width() as f64 * m.cpi;
            assert!(
                w_needed <= spec.max_warps_per_sm as f64,
                "CPI {} needs {} warps to saturate",
                m.cpi,
                w_needed
            );
        }
    }

    #[test]
    fn memory_bound_kernels_never_reach_issue_peak() {
        let spec = GpuSpec::titan_x();
        for m in [DCT, MM] {
            let w_needed = spec.issue_width() as f64 * m.cpi;
            assert!(w_needed > spec.max_warps_per_sm as f64);
            // ...unless shared memory staging lowers the CPI (Table 5).
            let w_smem = spec.issue_width() as f64 * m.cpi_smem;
            assert!(w_smem < 1.5 * spec.max_warps_per_sm as f64);
        }
    }
}
