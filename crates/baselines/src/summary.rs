//! The common result record every runner produces, so the benchmark
//! harness can compare Pagoda against each baseline uniformly.

pub use pagoda_core::RunSummary;

/// Geometric mean of a slice of ratios (the paper reports geomean
/// speedups).
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{Dur, SimTime};

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_direction() {
        let zeroed = RunSummary {
            makespan: Dur::from_ms(10),
            compute_done: SimTime::from_ms(8),
            tasks: 1,
            mean_task_latency: Dur::ZERO,
            avg_running_occupancy: 0.0,
            h2d_busy: Dur::ZERO,
            d2h_busy: Dur::ZERO,
            gpu_busy: Dur::ZERO,
        };
        let fast = zeroed;
        let slow = RunSummary {
            makespan: Dur::from_ms(20),
            compute_done: SimTime::from_ms(24),
            ..zeroed
        };
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
        assert!((fast.compute_speedup_over(&slow) - 3.0).abs() < 1e-12);
    }
}
