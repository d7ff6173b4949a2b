//! Open-loop arrival processes for simulated clients.
//!
//! A serving experiment is *open-loop*: clients submit on their own
//! schedule regardless of how backed up the server is, which is what
//! exposes queueing divergence (a closed loop self-throttles and hides
//! it). Two processes cover the interesting regimes:
//!
//! * [`ArrivalSpec::Poisson`] — memoryless arrivals at a constant mean
//!   rate, the classic M/G/k offered load;
//! * [`ArrivalSpec::Mmpp`] — a 2-state Markov-modulated Poisson process
//!   that alternates exponentially-dwelling *calm* and *burst* phases,
//!   the standard compact model of bursty request traffic.
//!
//! Both are driven by a seeded [`SmallRng`], so an arrival timeline is a
//! pure function of `(spec, seed)`.

use desim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PS_PER_S: f64 = 1e12;

/// Slowest arrival rate a timeline is drawn at, tasks/s. One gap is at
/// most ≈ 37 mean gaps (−ln of the smallest `1 − u`), 37 s here, so
/// millions of arrivals fit in `SimTime`'s ≈ 213 days; at 10⁻⁹/s the
/// first one overflows it.
pub const MIN_RATE_PER_S: f64 = 1.0;

/// Shortest mean MMPP dwell time, µs. The generator redraws a gap at
/// every state switch, so one arrival costs about (mean gap / mean
/// dwell) draws: at most 10⁶ at these two floors, where a 1 ps dwell
/// against a 1 s gap would cost 10¹².
pub const MIN_DWELL_US: f64 = 1.0;

/// Statistical shape of one tenant's request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Poisson arrivals at `rate_per_s` tasks/second.
    Poisson {
        /// Mean arrival rate, tasks per second.
        rate_per_s: f64,
    },
    /// 2-state MMPP: Poisson at `calm_rate_per_s` in the calm state and
    /// `burst_rate_per_s` in the burst state, with exponentially
    /// distributed state dwell times.
    Mmpp {
        /// Arrival rate in the calm state, tasks per second.
        calm_rate_per_s: f64,
        /// Arrival rate in the burst state, tasks per second.
        burst_rate_per_s: f64,
        /// Mean dwell time in the calm state, microseconds.
        mean_calm_us: f64,
        /// Mean dwell time in the burst state, microseconds.
        mean_burst_us: f64,
    },
}

impl ArrivalSpec {
    /// Long-run mean arrival rate in tasks/second (burst-weighted for
    /// MMPP) — the "offered load" a curve sweeps.
    pub fn mean_rate_per_s(&self) -> f64 {
        match *self {
            ArrivalSpec::Poisson { rate_per_s } => rate_per_s,
            ArrivalSpec::Mmpp {
                calm_rate_per_s,
                burst_rate_per_s,
                mean_calm_us,
                mean_burst_us,
            } => {
                let total = mean_calm_us + mean_burst_us;
                (calm_rate_per_s * mean_calm_us + burst_rate_per_s * mean_burst_us) / total
            }
        }
    }

    /// Why no arrival timeline can be drawn from this spec, if none can:
    /// every rate must be finite and at least [`MIN_RATE_PER_S`], every
    /// dwell time finite and at least [`MIN_DWELL_US`]. (A zero, negative
    /// or NaN one has no exponential to sample, a tinier rate overflows
    /// the clock, and an MMPP that dwells next to no time in both states
    /// never, or all but never, emits an arrival.)
    pub fn problem(&self) -> Option<&'static str> {
        let (rates, dwells_us) = match *self {
            ArrivalSpec::Poisson { rate_per_s } => ([rate_per_s; 2], [MIN_DWELL_US; 2]),
            ArrivalSpec::Mmpp {
                calm_rate_per_s,
                burst_rate_per_s,
                mean_calm_us,
                mean_burst_us,
            } => (
                [calm_rate_per_s, burst_rate_per_s],
                [mean_calm_us, mean_burst_us],
            ),
        };
        let at_least = |min: f64| move |x: f64| x.is_finite() && x >= min;
        if !rates.into_iter().all(at_least(MIN_RATE_PER_S)) {
            Some("arrival rates must be finite and at least 1 task/s")
        } else if !dwells_us.into_iter().all(at_least(MIN_DWELL_US)) {
            Some("MMPP dwell times must be finite and at least 1 us")
        } else {
            None
        }
    }

    /// Returns a copy whose mean rate is scaled by `factor` (dwell times
    /// untouched — bursts keep their shape, only intensity scales).
    pub fn scaled(&self, factor: f64) -> ArrivalSpec {
        match *self {
            ArrivalSpec::Poisson { rate_per_s } => ArrivalSpec::Poisson {
                rate_per_s: rate_per_s * factor,
            },
            ArrivalSpec::Mmpp {
                calm_rate_per_s,
                burst_rate_per_s,
                mean_calm_us,
                mean_burst_us,
            } => ArrivalSpec::Mmpp {
                calm_rate_per_s: calm_rate_per_s * factor,
                burst_rate_per_s: burst_rate_per_s * factor,
                mean_calm_us,
                mean_burst_us,
            },
        }
    }
}

/// A deterministic stream of absolute arrival instants.
#[derive(Debug)]
pub struct ArrivalGen {
    spec: ArrivalSpec,
    rng: SmallRng,
    /// Virtual clock of the process (time of the last arrival emitted).
    now_ps: f64,
    /// MMPP only: currently in the burst state.
    bursting: bool,
    /// MMPP only: instant of the next state switch.
    switch_ps: f64,
}

impl ArrivalGen {
    /// A generator whose whole timeline is determined by `(spec, seed)`.
    /// Check [`problem`](ArrivalSpec::problem) first: a spec that has
    /// one may panic here or at a draw, or never emit an arrival.
    pub fn new(spec: ArrivalSpec, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0a22_17a1_5eed);
        let (bursting, switch_ps) = match spec {
            ArrivalSpec::Poisson { .. } => (false, f64::INFINITY),
            ArrivalSpec::Mmpp { mean_calm_us, .. } => {
                (false, exp_sample(&mut rng, 1.0 / (mean_calm_us * 1e6)))
            }
        };
        ArrivalGen {
            spec,
            rng,
            now_ps: 0.0,
            bursting,
            switch_ps,
        }
    }

    /// The next absolute arrival instant (strictly increasing).
    pub fn next_arrival(&mut self) -> SimTime {
        match self.spec {
            ArrivalSpec::Poisson { rate_per_s } => {
                self.now_ps += exp_sample(&mut self.rng, rate_per_s / PS_PER_S).max(1.0);
            }
            ArrivalSpec::Mmpp {
                calm_rate_per_s,
                burst_rate_per_s,
                mean_calm_us,
                mean_burst_us,
            } => loop {
                let rate = if self.bursting {
                    burst_rate_per_s
                } else {
                    calm_rate_per_s
                };
                let gap = exp_sample(&mut self.rng, rate / PS_PER_S).max(1.0);
                if self.now_ps + gap <= self.switch_ps {
                    self.now_ps += gap;
                    break;
                }
                // The modulating chain switches first. Poisson arrivals are
                // memoryless, so restart the draw from the switch instant
                // at the new state's rate.
                self.now_ps = self.switch_ps;
                self.bursting = !self.bursting;
                let mean_dwell_ps = 1e6
                    * if self.bursting {
                        mean_burst_us
                    } else {
                        mean_calm_us
                    };
                self.switch_ps = self.now_ps + exp_sample(&mut self.rng, 1.0 / mean_dwell_ps);
            },
        }
        SimTime::from_ps(self.now_ps as u64)
    }

    /// The first `n` arrivals as a sorted timeline.
    pub fn take_arrivals(&mut self, n: usize) -> Vec<SimTime> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

/// One draw from Exp(`rate_per_ps`), in picoseconds.
fn exp_sample(rng: &mut SmallRng, rate_per_ps: f64) -> f64 {
    assert!(rate_per_ps > 0.0, "arrival rate must be positive");
    let u: f64 = rng.gen(); // [0, 1)
    -(1.0 - u).ln() / rate_per_ps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_increasing() {
        let spec = ArrivalSpec::Poisson { rate_per_s: 1e6 };
        let a = ArrivalGen::new(spec, 7).take_arrivals(500);
        let b = ArrivalGen::new(spec, 7).take_arrivals(500);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let c = ArrivalGen::new(spec, 8).take_arrivals(500);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_mean_rate_calibrated() {
        let spec = ArrivalSpec::Poisson { rate_per_s: 1e6 }; // 1 task/us
        let arr = ArrivalGen::new(spec, 42).take_arrivals(20_000);
        let span_s = arr.last().unwrap().as_ps() as f64 / PS_PER_S;
        let rate = arr.len() as f64 / span_s;
        assert!((0.95e6..1.05e6).contains(&rate), "measured {rate}");
    }

    #[test]
    fn mmpp_rate_between_calm_and_burst() {
        let spec = ArrivalSpec::Mmpp {
            calm_rate_per_s: 2e5,
            burst_rate_per_s: 4e6,
            mean_calm_us: 400.0,
            mean_burst_us: 100.0,
        };
        let arr = ArrivalGen::new(spec, 3).take_arrivals(20_000);
        assert!(arr.windows(2).all(|w| w[0] < w[1]));
        let span_s = arr.last().unwrap().as_ps() as f64 / PS_PER_S;
        let rate = arr.len() as f64 / span_s;
        assert!(
            rate > 2e5 && rate < 4e6,
            "MMPP rate {rate} outside its state rates"
        );
        // And close-ish to the dwell-weighted mean.
        let mean = spec.mean_rate_per_s();
        assert!((0.7 * mean..1.3 * mean).contains(&rate), "{rate} vs {mean}");
    }

    #[test]
    fn problem_names_every_unsampleable_spec() {
        let mmpp = |calm, burst, calm_us, burst_us| ArrivalSpec::Mmpp {
            calm_rate_per_s: calm,
            burst_rate_per_s: burst,
            mean_calm_us: calm_us,
            mean_burst_us: burst_us,
        };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-12, 0.999] {
            for (spec, what) in [
                (ArrivalSpec::Poisson { rate_per_s: bad }, "rates"),
                (mmpp(bad, 1e6, 300.0, 100.0), "rates"),
                (mmpp(1e5, bad, 300.0, 100.0), "rates"),
                (mmpp(1e5, 1e6, bad, 100.0), "dwell"),
                (mmpp(1e5, 1e6, 300.0, bad), "dwell"),
            ] {
                assert!(spec.problem().unwrap().contains(what), "{spec:?}");
            }
        }
        assert_eq!(ArrivalSpec::Poisson { rate_per_s: 1e6 }.problem(), None);
        assert_eq!(mmpp(1e5, 1e6, 300.0, 100.0).problem(), None);
    }

    #[test]
    fn the_floors_draw_in_time() {
        // At both floors an arrival costs ≈ 10⁶ draws and a gap ≈ 1 s.
        let slow = ArrivalSpec::Mmpp {
            calm_rate_per_s: MIN_RATE_PER_S,
            burst_rate_per_s: MIN_RATE_PER_S,
            mean_calm_us: MIN_DWELL_US,
            mean_burst_us: MIN_DWELL_US,
        };
        assert_eq!(slow.problem(), None);
        let arr = ArrivalGen::new(slow, 1).take_arrivals(4);
        assert!(arr.windows(2).all(|w| w[0] < w[1]));
        let poisson = ArrivalSpec::Poisson {
            rate_per_s: MIN_RATE_PER_S,
        };
        let last = ArrivalGen::new(poisson, 1).take_arrivals(1000)[999];
        assert!((500.0..2000.0).contains(&last.as_secs_f64()), "{last:?}");
    }

    #[test]
    fn scaling_scales_mean_rate() {
        let spec = ArrivalSpec::Mmpp {
            calm_rate_per_s: 1e5,
            burst_rate_per_s: 1e6,
            mean_calm_us: 300.0,
            mean_burst_us: 100.0,
        };
        let s2 = spec.scaled(2.0);
        let r = s2.mean_rate_per_s() / spec.mean_rate_per_s();
        assert!((r - 2.0).abs() < 1e-9);
    }
}
