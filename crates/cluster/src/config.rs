//! Fleet topology, fault schedule and retry policy.

use desim::SimTime;
use pagoda_core::{ConfigError, PagodaConfig};

use crate::placement::Placement;

/// What happens to a device at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The device stops serving: its clock freezes, in-flight tasks are
    /// stranded (see [`RetryPolicy`]) and its TaskTable entries leave the
    /// fleet's admission capacity.
    Kill,
    /// The device keeps serving at `1/factor` of its former speed —
    /// while the fleet clock advances Δt, the device only simulates
    /// `Δt/factor`. `factor` must be finite, ≥ 1 and at most
    /// [`FaultKind::MAX_SLOW_FACTOR`].
    Slow {
        /// How many times slower the device becomes.
        factor: f64,
    },
}

impl FaultKind {
    /// The largest slowdown a fleet accepts. A device `factor` times
    /// slower stretches each of its tasks `factor` times on the fleet
    /// clock and the fleet steps through the stretch: at 10⁷ a replay
    /// that takes under a second ran for a minute, and at 10¹² a task's
    /// finish overflows the clock. Every in-tree slowdown is at most 8;
    /// one of 1 000 replays in under a second.
    pub const MAX_SLOW_FACTOR: f64 = 1_000.0;
}

/// One scheduled device fault, applied when the fleet clock first
/// reaches `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fleet instant at which the fault lands.
    pub at: SimTime,
    /// Fleet index of the device it hits.
    pub device: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// What the fleet does with in-flight tasks stranded by a device kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Stranded tasks are reported lost; [`wait`](pagoda_core::Backend::wait)
    /// returns [`PagodaError::TaskLost`](pagoda_core::PagodaError::TaskLost).
    Fail,
    /// Stranded tasks re-enter placement on the surviving devices, up to
    /// `max_attempts` total submit attempts per task.
    Resubmit {
        /// Total submit attempts allowed per task (the first spawn
        /// counts as one; `max_attempts: 1` never resubmits).
        max_attempts: u32,
    },
}

/// Configuration of a [`ClusterHandle`](crate::ClusterHandle).
///
/// Start from [`ClusterConfig::uniform`] and write the fields that
/// differ; [`ClusterHandle::new`](crate::ClusterHandle::new) runs
/// [`validate`](ClusterConfig::validate).
///
/// ```
/// use pagoda_cluster::{ClusterConfig, Placement};
///
/// let mut cfg = ClusterConfig::uniform(2);
/// cfg.placement = Placement::RoundRobin;
/// cfg.devices[1].rows_per_column = 16;
/// assert_eq!(cfg.validate(), Ok(()));
/// cfg.devices.clear();
/// assert!(cfg.validate().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One runtime configuration per device, fleet order; a device's
    /// index here is its id in observability streams and reports.
    /// Devices are independent — heterogeneous fleets are expressed by
    /// varying the per-device configs.
    pub devices: Vec<PagodaConfig>,
    /// Routing policy across the fleet.
    pub placement: Placement,
    /// Seed for the placement policy's sampling randomness
    /// (power-of-two-choices). Same seed ⇒ identical routing.
    pub seed: u64,
    /// Home-set width: each tenant's state is resident on this many
    /// consecutive devices (min 1, capped at the fleet size). A task
    /// placed off its home set first stages its tenant's state onto the
    /// target device.
    pub affinity_spread: u32,
    /// Scheduled device faults, applied in fleet-time order.
    pub faults: Vec<FaultSpec>,
    /// What happens to in-flight tasks on a killed device.
    pub retry: RetryPolicy,
}

impl ClusterConfig {
    /// A uniform fleet of `n` default (Titan X class) devices:
    /// least-outstanding placement, no faults, resubmit-on-kill with up
    /// to 3 attempts.
    pub fn uniform(n: usize) -> Self {
        ClusterConfig {
            devices: vec![PagodaConfig::default(); n],
            placement: Placement::LeastOutstanding,
            seed: 0x5eed_f1ee,
            affinity_spread: 1,
            faults: Vec::new(),
            retry: RetryPolicy::Resubmit { max_attempts: 3 },
        }
    }

    /// Check the config for internal consistency; every constructor of
    /// [`ClusterHandle`](crate::ClusterHandle) calls this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.devices.is_empty() {
            return Err(ConfigError::NoDevices);
        }
        for (device, cfg) in self.devices.iter().enumerate() {
            cfg.validate().map_err(|source| ConfigError::FleetDevice {
                device,
                source: Box::new(source),
            })?;
        }
        for (index, f) in self.faults.iter().enumerate() {
            if f.device >= self.devices.len() {
                return Err(ConfigError::BadFault {
                    index,
                    reason: "device index out of range",
                });
            }
            if let FaultKind::Slow { factor } = f.kind {
                if !(1.0..=FaultKind::MAX_SLOW_FACTOR).contains(&factor) {
                    return Err(ConfigError::BadFault {
                        index,
                        reason: "slow factor must be between 1 and 1000",
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_empty_fleet() {
        assert_eq!(
            ClusterConfig::uniform(0).validate(),
            Err(ConfigError::NoDevices)
        );
    }

    #[test]
    fn validate_wraps_bad_device_configs() {
        let mut cfg = ClusterConfig::uniform(2);
        cfg.devices[1].rows_per_column = 0;
        match cfg.validate().unwrap_err() {
            ConfigError::FleetDevice { device, source } => {
                assert_eq!(device, 1);
                assert_eq!(*source, ConfigError::ZeroRows);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_bad_faults() {
        let mut cfg = ClusterConfig::uniform(2);
        cfg.faults.push(FaultSpec {
            at: SimTime::from_us(10),
            device: 9,
            kind: FaultKind::Kill,
        });
        assert!(matches!(
            cfg.validate().unwrap_err(),
            ConfigError::BadFault { index: 0, .. }
        ));

        cfg.faults[0] = FaultSpec {
            at: SimTime::from_us(10),
            device: 0,
            kind: FaultKind::Slow { factor: 0.5 },
        };
        assert!(matches!(
            cfg.validate().unwrap_err(),
            ConfigError::BadFault { index: 0, .. }
        ));

        for (factor, ok) in [
            (1.0, true),
            (FaultKind::MAX_SLOW_FACTOR, true),
            (FaultKind::MAX_SLOW_FACTOR * 1.001, false),
            (1e12, false),
            (f64::MAX, false),
            (f64::INFINITY, false),
            (f64::NAN, false),
        ] {
            cfg.faults[0].kind = FaultKind::Slow { factor };
            assert_eq!(cfg.validate().is_ok(), ok, "factor {factor}");
        }
    }
}
