//! Runtime configuration: machine choice plus the measured-constant knobs
//! of the Pagoda implementation (entry sizes, scheduler-warp cycle costs,
//! host API costs). Defaults approximate the paper's Titan X testbed; the
//! benchmark harness never tunes these per experiment — one calibration
//! serves every figure.

use desim::Dur;
use gpu_sim::DeviceConfig;
use pcie::PcieConfig;

/// Full Pagoda runtime configuration.
#[derive(Debug, Clone)]
pub struct PagodaConfig {
    /// The simulated GPU.
    pub device: DeviceConfig,
    /// The simulated interconnect.
    pub pcie: PcieConfig,
    /// TaskTable rows per column (paper: 32).
    pub rows_per_column: u32,
    /// Bytes of one TaskTable entry as copied over PCIe (parameters,
    /// kernel pointer, shape, flags).
    pub entry_bytes: u64,
    /// Host CPU work per `taskSpawn` call (find entry, marshal arguments,
    /// enqueue the copy).
    pub spawn_cpu_cost: Dur,
    /// `wait`/`waitAll` polling timeout before forcing a TaskTable
    /// copy-back (paper §4.2.2, "these functions therefore use a timeout").
    pub wait_timeout: Dur,
    /// Scheduler-warp cycles to scan the column and pick up one action.
    /// Added to every action below.
    pub sched_scan_cycles: u64,
    /// Cycles for the ready-chain update (Algorithm 1, lines 5-13).
    pub chain_update_cycles: u64,
    /// Fixed cycles of one `pSched` invocation (Algorithm 2 setup).
    pub psched_cycles_base: u64,
    /// Additional `pSched` cycles per warp placed.
    pub psched_cycles_per_warp: u64,
    /// Cycles for one shared-memory allocation attempt, including the
    /// deferred-deallocation drain (Algorithm 1, lines 21-24).
    pub smem_alloc_cycles: u64,
    /// Cycles to allocate a named barrier ID.
    pub barrier_alloc_cycles: u64,
    /// CPI of scheduler-warp bookkeeping code (shared-memory resident
    /// tables, some divergence).
    pub sched_cpi: f64,
    /// Extra cycles appended to every executor warp for the completion
    /// epilogue (Algorithm 1, lines 34-43: dealloc marking, doneCtr,
    /// flag clears).
    pub exec_epilogue_cycles: u64,
    /// Bytes of the flag-only host write used by the final-task flush.
    pub flag_write_bytes: u64,
}

impl Default for PagodaConfig {
    fn default() -> Self {
        PagodaConfig {
            device: DeviceConfig::titan_x(),
            pcie: PcieConfig::default(),
            rows_per_column: 32,
            entry_bytes: 192,
            spawn_cpu_cost: Dur::from_ns(1200),
            wait_timeout: Dur::from_us(20),
            sched_scan_cycles: 120,
            chain_update_cycles: 150,
            psched_cycles_base: 100,
            psched_cycles_per_warp: 40,
            smem_alloc_cycles: 250,
            barrier_alloc_cycles: 60,
            sched_cpi: 2.0,
            exec_epilogue_cycles: 80,
            flag_write_bytes: 8,
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
    /// capacity checkers bound `MtbSample::free_smem` with it.
    pub fn mtb_pool_bytes(&self) -> u32 {
        let per_mtb = self.device.spec.smem_per_sm / 2;
        if per_mtb >= 32 * 1024 {
            32 * 1024
        } else {
            1u32 << (31 - per_mtb.leading_zeros())
        }
    }

    /// Starts a builder seeded with the defaults; [`build`](PagodaConfigBuilder::build)
    /// validates the result.
    pub fn builder() -> PagodaConfigBuilder {
        PagodaConfigBuilder {
            cfg: PagodaConfig::default(),
        }
    }

    /// Checks the invariants [`PagodaConfigBuilder::build`] enforces.
    /// Hand-assembled configurations can call this before constructing a
    /// runtime; the runtime itself assumes a valid configuration.
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
        if self.entry_bytes == 0 {
            return Err(ConfigError::ZeroEntryBytes);
        }
        if !(self.sched_cpi.is_finite() && self.sched_cpi > 0.0) {
            return Err(ConfigError::NonPositiveCpi {
                cpi: self.sched_cpi,
            });
        }
        if self.wait_timeout == Dur::ZERO {
            return Err(ConfigError::ZeroWaitTimeout);
        }
        Ok(())
    }
}

/// Upper bound on TaskTable rows per column. The scheduler warp scans its
/// whole column every pass; beyond this the scan cost model (a flat
/// `sched_scan_cycles`) stops being credible.
pub const MAX_ROWS_PER_COLUMN: u32 = 1024;

/// Why a configuration build was rejected — by
/// [`PagodaConfigBuilder::build`] for a single runtime, or by the cluster
/// layer's `ClusterConfig` validation for a fleet (the fleet variants live
/// here so callers match on one error enum across both layers).
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
    /// `entry_bytes == 0`: entry copies would be free, hiding the PCIe
    /// cost the paper measures.
    ZeroEntryBytes,
    /// `sched_cpi` is not a finite positive number.
    NonPositiveCpi {
        /// The offending value.
        cpi: f64,
    },
    /// `wait_timeout == 0`: `wait`/`waitAll` would poll without advancing
    /// time and trip the livelock guard.
    ZeroWaitTimeout,
    /// A fleet configuration named no devices.
    NoDevices,
    /// Two fleet devices share an id; ids key observability streams and
    /// reports, so they must be unique.
    DuplicateDeviceId {
        /// The repeated id.
        id: u32,
    },
    /// A fleet named explicit device ids but not one per device.
    DeviceIdCountMismatch {
        /// Ids given.
        ids: usize,
        /// Devices configured.
        devices: usize,
    },
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
            ConfigError::ZeroEntryBytes => write!(f, "entry_bytes must be nonzero"),
            ConfigError::NonPositiveCpi { cpi } => {
                write!(f, "sched_cpi must be finite and positive, got {cpi}")
            }
            ConfigError::ZeroWaitTimeout => write!(f, "wait_timeout must be nonzero"),
            ConfigError::NoDevices => write!(f, "a fleet needs at least one device"),
            ConfigError::DuplicateDeviceId { id } => {
                write!(f, "fleet device id {id} is used more than once")
            }
            ConfigError::DeviceIdCountMismatch { ids, devices } => {
                write!(f, "{ids} device id(s) given for {devices} device(s)")
            }
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

/// Fluent constructor for [`PagodaConfig`]; invalid combinations are
/// rejected at [`build`](Self::build) instead of panicking inside the
/// runtime.
///
/// ```
/// use pagoda_core::PagodaConfig;
///
/// let cfg = PagodaConfig::builder()
///     .rows_per_column(16)
///     .entry_bytes(256)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.total_entries(), cfg.num_mtbs() * 16);
/// assert!(PagodaConfig::builder().rows_per_column(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct PagodaConfigBuilder {
    cfg: PagodaConfig,
}

impl PagodaConfigBuilder {
    /// Sets the simulated GPU.
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.cfg.device = device;
        self
    }
    /// Sets the simulated interconnect.
    pub fn pcie(mut self, pcie: PcieConfig) -> Self {
        self.cfg.pcie = pcie;
        self
    }
    /// Sets TaskTable rows per column (paper: 32).
    pub fn rows_per_column(mut self, rows: u32) -> Self {
        self.cfg.rows_per_column = rows;
        self
    }
    /// Sets the bytes of one TaskTable entry as copied over PCIe.
    pub fn entry_bytes(mut self, bytes: u64) -> Self {
        self.cfg.entry_bytes = bytes;
        self
    }
    /// Sets the host CPU work per spawn call.
    pub fn spawn_cpu_cost(mut self, cost: Dur) -> Self {
        self.cfg.spawn_cpu_cost = cost;
        self
    }
    /// Sets the `wait`/`waitAll` polling timeout.
    pub fn wait_timeout(mut self, timeout: Dur) -> Self {
        self.cfg.wait_timeout = timeout;
        self
    }
    /// Sets the scheduler-warp CPI.
    pub fn sched_cpi(mut self, cpi: f64) -> Self {
        self.cfg.sched_cpi = cpi;
        self
    }
    /// Sets the cycles for one column scan.
    pub fn sched_scan_cycles(mut self, cycles: u64) -> Self {
        self.cfg.sched_scan_cycles = cycles;
        self
    }
    /// Sets the cycles for one ready-chain update.
    pub fn chain_update_cycles(mut self, cycles: u64) -> Self {
        self.cfg.chain_update_cycles = cycles;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<PagodaConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
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
        assert!(PagodaConfig::builder().build().is_ok());
    }

    #[test]
    fn builder_rejects_each_invalid_knob() {
        assert_eq!(
            PagodaConfig::builder()
                .rows_per_column(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroRows
        );
        assert_eq!(
            PagodaConfig::builder()
                .rows_per_column(MAX_ROWS_PER_COLUMN + 1)
                .build()
                .unwrap_err(),
            ConfigError::TooManyRows {
                rows: MAX_ROWS_PER_COLUMN + 1,
                max: MAX_ROWS_PER_COLUMN
            }
        );
        assert_eq!(
            PagodaConfig::builder().entry_bytes(0).build().unwrap_err(),
            ConfigError::ZeroEntryBytes
        );
        assert!(matches!(
            PagodaConfig::builder().sched_cpi(0.0).build().unwrap_err(),
            ConfigError::NonPositiveCpi { .. }
        ));
        assert!(matches!(
            PagodaConfig::builder()
                .sched_cpi(f64::NAN)
                .build()
                .unwrap_err(),
            ConfigError::NonPositiveCpi { .. }
        ));
        assert_eq!(
            PagodaConfig::builder()
                .wait_timeout(Dur::ZERO)
                .build()
                .unwrap_err(),
            ConfigError::ZeroWaitTimeout
        );
    }

    #[test]
    fn builder_setters_apply() {
        let c = PagodaConfig::builder()
            .rows_per_column(8)
            .entry_bytes(128)
            .spawn_cpu_cost(Dur::from_ns(500))
            .wait_timeout(Dur::from_us(5))
            .sched_cpi(1.5)
            .sched_scan_cycles(90)
            .chain_update_cycles(110)
            .build()
            .unwrap();
        assert_eq!(c.rows_per_column, 8);
        assert_eq!(c.entry_bytes, 128);
        assert_eq!(c.spawn_cpu_cost, Dur::from_ns(500));
        assert_eq!(c.wait_timeout, Dur::from_us(5));
        assert!((c.sched_cpi - 1.5).abs() < 1e-12);
        assert_eq!(c.sched_scan_cycles, 90);
        assert_eq!(c.chain_update_cycles, 110);
    }

    #[test]
    fn config_error_messages_name_the_knob() {
        assert!(ConfigError::ZeroRows
            .to_string()
            .contains("rows_per_column"));
        assert!(ConfigError::ZeroWaitTimeout
            .to_string()
            .contains("wait_timeout"));
        assert!(ConfigError::DuplicateDeviceId { id: 7 }
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
