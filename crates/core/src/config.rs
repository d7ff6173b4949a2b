//! Runtime configuration: machine choice, TaskTable height, the polling
//! timeout, and the four scheduler-warp cycle costs the ablations vary.
//! Defaults approximate the paper's Titan X testbed; the benchmark harness
//! never tunes these per experiment — one calibration serves every figure,
//! and the rest of it (entry sizes, scan and barrier costs, CPI, spawn
//! cost) is constants in [`crate::runtime`].

use desim::Dur;
use gpu_arch::TaskShape;
use gpu_sim::DeviceConfig;
use pcie::PcieConfig;

use crate::smem::MIN_BLOCK_BYTES;

/// Full Pagoda runtime configuration.
#[derive(Debug, Clone)]
pub struct PagodaConfig {
    /// The simulated GPU.
    pub device: DeviceConfig,
    /// The simulated interconnect.
    pub pcie: PcieConfig,
    /// TaskTable rows per column (paper: 32).
    pub rows_per_column: u32,
    /// `wait`/`waitAll` polling timeout before forcing a TaskTable
    /// copy-back (paper §4.2.2, "these functions therefore use a timeout").
    pub wait_timeout: Dur,
    /// Cycles for the ready-chain update (Algorithm 1, lines 5-13).
    pub chain_update_cycles: u64,
    /// Fixed cycles of one `pSched` invocation (Algorithm 2 setup).
    pub psched_cycles_base: u64,
    /// Additional `pSched` cycles per warp placed.
    pub psched_cycles_per_warp: u64,
    /// Cycles for one shared-memory allocation attempt, including the
    /// deferred-deallocation drain (Algorithm 1, lines 21-24).
    pub smem_alloc_cycles: u64,
}

impl Default for PagodaConfig {
    fn default() -> Self {
        PagodaConfig {
            device: DeviceConfig::titan_x(),
            pcie: PcieConfig::default(),
            rows_per_column: 32,
            wait_timeout: Dur::from_us(20),
            chain_update_cycles: 150,
            psched_cycles_base: 100,
            psched_cycles_per_warp: 40,
            smem_alloc_cycles: 250,
        }
    }
}

impl PagodaConfig {
    /// MTBs the MasterKernel launches: two per SMM (paper §4.1).
    pub fn num_mtbs(&self) -> u32 {
        self.device.spec.num_sms * 2
    }

    /// Total TaskTable entries.
    pub fn total_entries(&self) -> u32 {
        self.num_mtbs() * self.rows_per_column
    }

    /// Bytes of the buddy shared-memory pool each MTB statically
    /// reserves: the largest power-of-two slice of its half of the SMM's
    /// shared memory, capped at the paper's 32 KB (Titan X: exactly
    /// 32 KB; K40: 16 KB of its 24 KB half, the rest holds the
    /// scheduling structures). The runtime sizes its pools from this;
    /// capacity checkers bound `MtbSample::free_smem` with it. Meaningful
    /// only for a device [`validate`](Self::validate) accepts.
    pub fn mtb_pool_bytes(&self) -> u32 {
        let per_mtb = self.device.spec.smem_per_sm / 2;
        if per_mtb >= 32 * 1024 {
            32 * 1024
        } else {
            1u32 << (31 - per_mtb.leading_zeros())
        }
    }

    /// The MasterKernel's launch shape (paper §4.1): two 1024-thread MTBs
    /// per SMM at the `-maxrregcount` cap of 32, each reserving its pool.
    pub(crate) fn master_kernel_shape(&self) -> TaskShape {
        TaskShape {
            threads_per_tb: 1024,
            num_tbs: self.num_mtbs(),
            regs_per_thread: 32,
            smem_per_tb: self.mtb_pool_bytes(),
        }
    }

    /// Checks the configuration's invariants. Build a configuration from
    /// [`PagodaConfig::default`] and call this before constructing a
    /// runtime; the runtime itself assumes a valid configuration (the
    /// serving loop and a fleet validate theirs).
    ///
    /// ```
    /// use pagoda_core::{ConfigError, PagodaConfig};
    ///
    /// let cfg = PagodaConfig {
    ///     rows_per_column: 16,
    ///     ..PagodaConfig::default()
    /// };
    /// assert_eq!(cfg.validate(), Ok(()));
    /// assert_eq!(cfg.total_entries(), cfg.num_mtbs() * 16);
    /// let empty = PagodaConfig {
    ///     rows_per_column: 0,
    ///     ..cfg
    /// };
    /// assert_eq!(empty.validate(), Err(ConfigError::ZeroRows));
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rows_per_column == 0 {
            return Err(ConfigError::ZeroRows);
        }
        if self.rows_per_column > MAX_ROWS_PER_COLUMN {
            return Err(ConfigError::TooManyRows {
                rows: self.rows_per_column,
                max: MAX_ROWS_PER_COLUMN,
            });
        }
        if self.wait_timeout < MIN_WAIT_TIMEOUT {
            return Err(ConfigError::WaitTimeoutTooShort {
                timeout: self.wait_timeout,
                min: MIN_WAIT_TIMEOUT,
            });
        }
        if let Some(field) = self.pcie.bad_bandwidth() {
            return Err(ConfigError::BadBandwidth { field });
        }
        let spec = &self.device.spec;
        let reason = if spec.num_sms == 0 {
            "the device has no SMMs"
        } else if spec.smem_per_sm / 2 < MIN_BLOCK_BYTES {
            "an SMM's shared memory cannot hold two 512 B MTB pools"
        } else if !spec
            .occupancy_of(&self.master_kernel_shape())
            .is_ok_and(|o| o.tbs_per_sm >= 2)
        {
            "fewer than two MTBs fit one SMM"
        } else {
            return Ok(());
        };
        Err(ConfigError::MasterKernelDoesNotFit { reason })
    }
}

/// Upper bound on TaskTable rows per column. The scheduler warp scans its
/// whole column every pass; beyond this the scan cost model (a flat
/// per-action scan charge) stops being credible.
pub const MAX_ROWS_PER_COLUMN: u32 = 1024;

/// Lower bound on the `wait`/`waitAll` polling timeout. A fleet moves its
/// clock one slice per poll, and a poll costs device time, not fleet
/// time: at zero a fleet's clock never moves, so a completion gated
/// behind it never comes due, and at 1 ps a fleet's `wait_all` takes
/// 10⁶ polls per simulated microsecond.
pub const MIN_WAIT_TIMEOUT: Dur = Dur::from_us(1);

/// Why a configuration was rejected — by [`PagodaConfig::validate`] for a
/// single runtime, or by the cluster layer's `ClusterConfig` validation
/// for a fleet (the fleet variants live here so callers match on one
/// error enum across both layers).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `rows_per_column == 0`: the TaskTable would hold no entries.
    ZeroRows,
    /// `rows_per_column` exceeds [`MAX_ROWS_PER_COLUMN`].
    TooManyRows {
        /// Requested rows.
        rows: u32,
        /// The cap.
        max: u32,
    },
    /// `wait_timeout` is below [`MIN_WAIT_TIMEOUT`]: a fleet's
    /// `wait`/`waitAll` would poll without moving its clock (zero), or
    /// crawl one sub-µs slice at a time.
    WaitTimeoutTooShort {
        /// Requested timeout.
        timeout: Dur,
        /// The floor.
        min: Dur,
    },
    /// A PCIe bandwidth is zero, negative or not finite, so a transfer
    /// over the bus has no duration to simulate.
    BadBandwidth {
        /// The offending direction, `bw_h2d` or `bw_d2h`.
        field: &'static str,
    },
    /// The device cannot hold the MasterKernel: two 1024-thread MTBs
    /// resident on every SMM, each with a buddy pool of at least 512 B.
    MasterKernelDoesNotFit {
        /// What the device lacks.
        reason: &'static str,
    },
    /// A fleet configuration named no devices.
    NoDevices,
    /// One device's [`PagodaConfig`] failed validation.
    FleetDevice {
        /// Index of the offending device within the fleet.
        device: usize,
        /// The device-level rejection.
        source: Box<ConfigError>,
    },
    /// A fault specification is unusable (device out of range, bad
    /// factor, …).
    BadFault {
        /// Index into the fault list.
        index: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroRows => write!(f, "rows_per_column must be at least 1"),
            ConfigError::TooManyRows { rows, max } => {
                write!(f, "rows_per_column {rows} exceeds the maximum {max}")
            }
            ConfigError::WaitTimeoutTooShort { timeout, min } => {
                write!(f, "wait_timeout {timeout} is below the minimum {min}")
            }
            ConfigError::BadBandwidth { field } => {
                write!(f, "pcie.{field} must be finite and > 0")
            }
            ConfigError::MasterKernelDoesNotFit { reason } => {
                write!(f, "the MasterKernel does not fit the device: {reason}")
            }
            ConfigError::NoDevices => write!(f, "a fleet needs at least one device"),
            ConfigError::FleetDevice { device, source } => {
                write!(f, "fleet device {device} configuration invalid: {source}")
            }
            ConfigError::BadFault { index, reason } => {
                write!(f, "fault spec {index} invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::FleetDevice { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_defaults() {
        let c = PagodaConfig::default();
        assert_eq!(c.num_mtbs(), 48);
        assert_eq!(c.total_entries(), 48 * 32);
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(PagodaConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_each_invalid_knob() {
        let with_rows = |rows_per_column| {
            PagodaConfig {
                rows_per_column,
                ..PagodaConfig::default()
            }
            .validate()
        };
        assert_eq!(with_rows(0), Err(ConfigError::ZeroRows));
        assert_eq!(
            with_rows(MAX_ROWS_PER_COLUMN + 1),
            Err(ConfigError::TooManyRows {
                rows: MAX_ROWS_PER_COLUMN + 1,
                max: MAX_ROWS_PER_COLUMN
            })
        );
        let with_timeout = |wait_timeout| {
            PagodaConfig {
                wait_timeout,
                ..PagodaConfig::default()
            }
            .validate()
        };
        for timeout in [Dur::ZERO, Dur::from_ps(1), Dur::from_ns(999)] {
            assert_eq!(
                with_timeout(timeout),
                Err(ConfigError::WaitTimeoutTooShort {
                    timeout,
                    min: MIN_WAIT_TIMEOUT
                })
            );
        }
        assert_eq!(with_timeout(MIN_WAIT_TIMEOUT), Ok(()));
        let bad_link = PagodaConfig {
            pcie: PcieConfig {
                bw_d2h: f64::NAN,
                ..PcieConfig::default()
            },
            ..PagodaConfig::default()
        };
        let err = bad_link.validate().unwrap_err();
        assert_eq!(err, ConfigError::BadBandwidth { field: "bw_d2h" });
        assert_eq!(err.to_string(), "pcie.bw_d2h must be finite and > 0");
    }

    #[test]
    fn validate_rejects_a_device_the_master_kernel_cannot_occupy() {
        fn with(edit: impl FnOnce(&mut gpu_arch::GpuSpec)) -> Result<(), ConfigError> {
            let mut cfg = PagodaConfig::default();
            edit(&mut cfg.device.spec);
            cfg.validate()
        }
        let misfit = |reason| Err(ConfigError::MasterKernelDoesNotFit { reason });
        assert_eq!(with(|s| s.num_sms = 0), misfit("the device has no SMMs"));
        for smem in [0, 1, 1023] {
            assert_eq!(
                with(|s| s.smem_per_sm = smem),
                misfit("an SMM's shared memory cannot hold two 512 B MTB pools")
            );
        }
        // One 1024-thread MTB at 32 registers a thread takes 32 K.
        assert_eq!(
            with(|s| s.regs_per_sm = 48 * 1024),
            misfit("fewer than two MTBs fit one SMM")
        );
        assert_eq!(
            with(|s| s.max_threads_per_tb = 512),
            misfit("fewer than two MTBs fit one SMM")
        );
        // The smallest pool, one SMM, and the K40 all fit.
        assert_eq!(with(|s| s.smem_per_sm = 1024), Ok(()));
        assert_eq!(with(|s| s.num_sms = 1), Ok(()));
        assert_eq!(with(|s| *s = gpu_arch::GpuSpec::tesla_k40()), Ok(()));
    }

    #[test]
    fn config_error_messages_name_the_knob() {
        assert!(ConfigError::ZeroRows
            .to_string()
            .contains("rows_per_column"));
        assert!(ConfigError::WaitTimeoutTooShort {
            timeout: Dur::ZERO,
            min: MIN_WAIT_TIMEOUT
        }
        .to_string()
        .contains("wait_timeout"));
        assert!(ConfigError::BadFault {
            index: 7,
            reason: "why"
        }
        .to_string()
        .contains('7'));
    }

    #[test]
    fn fleet_device_error_chains_source() {
        use std::error::Error as _;
        let e = ConfigError::FleetDevice {
            device: 2,
            source: Box::new(ConfigError::ZeroRows),
        };
        assert!(e.to_string().contains("device 2"));
        assert!(e.to_string().contains("rows_per_column"));
        assert!(matches!(
            e.source().unwrap().downcast_ref::<ConfigError>(),
            Some(ConfigError::ZeroRows)
        ));
    }
}
