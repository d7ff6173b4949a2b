//! Simulated PCIe interconnect between the host CPU and the GPU.
//!
//! Pagoda's TaskTable design is driven by two properties of real PCIe that
//! this crate models explicitly:
//!
//! 1. **No atomics.** The host and device cannot perform atomic read-modify-
//!    write on each other's memory, so all coordination must be built from
//!    one-way DMA writes whose *visibility* the runtime reasons about.
//! 2. **Ordering is per stream only.** Two `cudaMemcpyAsync` calls on the
//!    same CUDA stream complete in issue order; writes from different
//!    transactions have no cross-ordering guarantee. The paper's §4.2.1
//!    pipelined spawn exists precisely because "the PCIe bus does not
//!    guarantee that the parameters will arrive in the GPU memory before the
//!    ready flag" if they travel in different transactions.
//!
//! The model: each direction (host→device, device→host) is a dedicated DMA
//! channel (Maxwell-class GPUs have dual copy engines). A transaction issued
//! at time *t* on stream *s* begins at `max(t, stream_tail, channel_free)`
//! and occupies the channel for `latency + bytes/bandwidth`. The bus is
//! *clairvoyant*: it computes the completion instant immediately and the
//! caller schedules whatever simulation event should fire then. Because
//! channels are FIFO, this is exact.

#![forbid(unsafe_code)]

use desim::{Dur, SimTime};
use pagoda_obs::{Counter, Obs};

/// Transfer direction; selects the DMA copy engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Host memory → device memory (task parameters, input data).
    HostToDevice,
    /// Device memory → host memory (results, TaskTable copy-backs).
    DeviceToHost,
}

impl Direction {
    fn idx(self) -> usize {
        match self {
            Direction::HostToDevice => 0,
            Direction::DeviceToHost => 1,
        }
    }
}

/// Identifies a CUDA-stream-like FIFO ordering domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(u32);

/// Tunable link parameters.
#[derive(Debug, Clone)]
pub struct PcieConfig {
    /// Fixed per-transaction setup cost (driver + DMA descriptor + link
    /// round trip). Dominates for the tiny TaskTable-entry copies narrow
    /// tasks generate.
    pub latency: Dur,
    /// Sustained host→device bandwidth, bytes per second.
    pub bw_h2d: f64,
    /// Sustained device→host bandwidth, bytes per second.
    pub bw_d2h: f64,
}

impl PcieConfig {
    /// Time a `bytes`-byte transfer in `dir` occupies the link, ignoring
    /// queueing: the per-transaction latency plus wire time. Pure — needs
    /// no [`PcieBus`] — so layers that only *model* a link (e.g. a fleet
    /// manager charging an inter-device staging cost) can price transfers
    /// from the config alone.
    pub fn transfer_time(&self, dir: Direction, bytes: u64) -> Dur {
        let bw = match dir {
            Direction::HostToDevice => self.bw_h2d,
            Direction::DeviceToHost => self.bw_d2h,
        };
        self.latency + Dur::from_secs_f64(bytes as f64 / bw)
    }

    /// The name of the first bandwidth field that is not finite and
    /// positive — a link [`transfer_time`](Self::transfer_time) cannot
    /// price — or `None` when both directions are usable.
    pub fn bad_bandwidth(&self) -> Option<&'static str> {
        [("bw_h2d", self.bw_h2d), ("bw_d2h", self.bw_d2h)]
            .into_iter()
            .find(|&(_, bw)| !(bw.is_finite() && bw > 0.0))
            .map(|(field, _)| field)
    }
}

impl Default for PcieConfig {
    /// PCIe 3.0 x16 as on the paper's testbed class of machine: ~12 GB/s
    /// sustained each way. The per-transaction overhead models *pipelined*
    /// `cudaMemcpyAsync` traffic (DMA descriptor processing, ~1.5 µs), not
    /// the ~8 µs cold-start API latency — narrow-task runtimes keep the
    /// copy queues deep, which is the regime every experiment here runs in.
    fn default() -> Self {
        PcieConfig {
            latency: Dur::from_ns(800),
            bw_h2d: 12.0e9,
            bw_d2h: 12.0e9,
        }
    }
}

/// Aggregate counters, per direction.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ChannelStats {
    /// Completed + in-flight transactions.
    pub transactions: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Total time the channel was occupied (latency + wire time).
    pub busy: Dur,
}

/// Completed-transfer description returned by [`PcieBus::transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the DMA engine started serving this transaction.
    pub start: SimTime,
    /// When the last byte is visible on the far side. Within a stream these
    /// are monotonically nondecreasing.
    pub complete: SimTime,
}

/// The bus. One instance is shared by every host-side runtime in a
/// simulation, so contention between (say) task spawning and result
/// copy-back is modelled.
#[derive(Debug)]
pub struct PcieBus {
    cfg: PcieConfig,
    /// Earliest instant each DMA channel is free.
    channel_free: [SimTime; 2],
    /// Tail (latest completion) of each stream, for FIFO ordering,
    /// indexed by [`StreamId`]: ids are handed out densely from 0.
    stream_tail: Vec<SimTime>,
    stats: [ChannelStats; 2],
    obs: Obs,
}

impl PcieBus {
    /// Creates a bus with the given parameters.
    pub fn new(cfg: PcieConfig) -> Self {
        PcieBus {
            cfg,
            channel_free: [SimTime::ZERO; 2],
            stream_tail: Vec::new(),
            stats: [ChannelStats::default(); 2],
            obs: Obs::off(),
        }
    }

    /// Attaches an observability handle; every subsequent [`transfer`]
    /// reports per-direction transaction and byte counters to it.
    ///
    /// [`transfer`]: PcieBus::transfer
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Creates a bus with [`PcieConfig::default`].
    pub fn new_default() -> Self {
        Self::new(PcieConfig::default())
    }

    /// Allocates a fresh ordering stream (like `cudaStreamCreate`).
    pub fn create_stream(&mut self) -> StreamId {
        self.stream_tail.push(SimTime::ZERO);
        StreamId(self.stream_tail.len() as u32 - 1)
    }

    /// Issues a `bytes`-byte DMA at time `now` on `stream` and returns when
    /// it starts and completes. Zero-byte transfers still pay the
    /// transaction latency (they exist: flag-only copy-backs).
    ///
    /// # Panics
    /// Panics if `stream` was not created by this bus.
    pub fn transfer(
        &mut self,
        now: SimTime,
        stream: StreamId,
        dir: Direction,
        bytes: u64,
    ) -> Transfer {
        let Some(tail) = self.stream_tail.get_mut(stream.0 as usize) else {
            panic!("foreign StreamId {stream:?}");
        };
        let ch = dir.idx();
        let start = now.max(self.channel_free[ch]).max(*tail);
        let occupied = self.cfg.transfer_time(dir, bytes);
        let complete = start + occupied;

        *tail = complete;
        self.channel_free[ch] = complete;
        let s = &mut self.stats[ch];
        s.transactions += 1;
        s.bytes += bytes;
        s.busy += occupied;
        match dir {
            Direction::HostToDevice => {
                self.obs.count(Counter::PcieH2dTransactions, 1);
                self.obs.count(Counter::PcieH2dBytes, bytes);
            }
            Direction::DeviceToHost => {
                self.obs.count(Counter::PcieD2hTransactions, 1);
                self.obs.count(Counter::PcieD2hBytes, bytes);
            }
        }
        Transfer { start, complete }
    }

    /// Counters for one direction.
    pub fn stats(&self, dir: Direction) -> ChannelStats {
        self.stats[dir.idx()]
    }

    /// The configured link parameters.
    pub fn config(&self) -> &PcieConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> PcieBus {
        PcieBus::new(PcieConfig {
            latency: Dur::from_us(8),
            bw_h2d: 12.0e9,
            bw_d2h: 12.0e9,
        })
    }

    #[test]
    fn single_transfer_time() {
        let mut b = bus();
        let s = b.create_stream();
        // 12 KB at 12 GB/s = 1 us wire + 8 us latency.
        let t = b.transfer(SimTime::ZERO, s, Direction::HostToDevice, 12_000);
        assert_eq!(t.start, SimTime::ZERO);
        assert_eq!(t.complete, SimTime::from_us(9));
    }

    #[test]
    fn same_stream_is_fifo() {
        let mut b = bus();
        let s = b.create_stream();
        let t1 = b.transfer(SimTime::ZERO, s, Direction::HostToDevice, 12_000);
        // Issued at t=0 as well, but must wait for t1.
        let t2 = b.transfer(SimTime::ZERO, s, Direction::HostToDevice, 0);
        assert_eq!(t2.start, t1.complete);
        assert!(t2.complete > t1.complete);
    }

    #[test]
    fn same_channel_serializes_across_streams() {
        let mut b = bus();
        let s1 = b.create_stream();
        let s2 = b.create_stream();
        let t1 = b.transfer(SimTime::ZERO, s1, Direction::HostToDevice, 12_000);
        let t2 = b.transfer(SimTime::ZERO, s2, Direction::HostToDevice, 12_000);
        assert_eq!(t2.start, t1.complete, "one H2D copy engine");
    }

    #[test]
    fn opposite_directions_overlap() {
        let mut b = bus();
        let s1 = b.create_stream();
        let s2 = b.create_stream();
        let t1 = b.transfer(SimTime::ZERO, s1, Direction::HostToDevice, 12_000);
        let t2 = b.transfer(SimTime::ZERO, s2, Direction::DeviceToHost, 12_000);
        assert_eq!(t1.start, t2.start, "dual copy engines run concurrently");
    }

    #[test]
    fn aggregation_beats_many_small_copies() {
        // The paper's lazy aggregate copy-back rationale: N small copies pay
        // N latencies; one bulk copy pays one.
        let mut b = bus();
        let s = b.create_stream();
        let mut t_small = SimTime::ZERO;
        for _ in 0..32 {
            t_small = b
                .transfer(t_small, s, Direction::DeviceToHost, 256)
                .complete;
        }
        let mut b2 = bus();
        let s2 = b2.create_stream();
        let t_bulk = b2
            .transfer(SimTime::ZERO, s2, Direction::DeviceToHost, 32 * 256)
            .complete;
        assert!(t_bulk.as_ps() < t_small.as_ps() / 10);
    }

    #[test]
    fn zero_byte_transfer_pays_latency() {
        let mut b = bus();
        let s = b.create_stream();
        let t = b.transfer(SimTime::ZERO, s, Direction::HostToDevice, 0);
        assert_eq!(t.complete, SimTime::from_us(8));
    }

    #[test]
    fn stats_accumulate() {
        let mut b = bus();
        let s = b.create_stream();
        b.transfer(SimTime::ZERO, s, Direction::HostToDevice, 100);
        b.transfer(SimTime::ZERO, s, Direction::HostToDevice, 200);
        let st = b.stats(Direction::HostToDevice);
        assert_eq!(st.transactions, 2);
        assert_eq!(st.bytes, 300);
        assert!(st.busy > Dur::from_us(16));
        assert_eq!(b.stats(Direction::DeviceToHost).transactions, 0);
    }

    #[test]
    #[should_panic(expected = "foreign StreamId")]
    fn foreign_stream_rejected() {
        let mut b = bus();
        b.transfer(SimTime::ZERO, StreamId(7), Direction::HostToDevice, 1);
    }

    #[test]
    fn obs_counts_transactions_and_bytes() {
        let mut b = bus();
        let (obs, rec) = Obs::recording();
        b.attach_obs(obs);
        let s = b.create_stream();
        b.transfer(SimTime::ZERO, s, Direction::HostToDevice, 100);
        b.transfer(SimTime::ZERO, s, Direction::DeviceToHost, 7);
        b.transfer(SimTime::ZERO, s, Direction::DeviceToHost, 0);
        let buf = rec.snapshot();
        assert_eq!(buf.counter(Counter::PcieH2dTransactions), 1);
        assert_eq!(buf.counter(Counter::PcieH2dBytes), 100);
        assert_eq!(buf.counter(Counter::PcieD2hTransactions), 2);
        assert_eq!(buf.counter(Counter::PcieD2hBytes), 7);
    }

    #[test]
    fn bad_bandwidth_names_the_first_unusable_direction() {
        assert_eq!(PcieConfig::default().bad_bandwidth(), None);
        for bw in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let h2d = PcieConfig {
                bw_h2d: bw,
                ..PcieConfig::default()
            };
            assert_eq!(h2d.bad_bandwidth(), Some("bw_h2d"));
            let d2h = PcieConfig {
                bw_d2h: bw,
                ..PcieConfig::default()
            };
            assert_eq!(d2h.bad_bandwidth(), Some("bw_d2h"));
        }
    }

    #[test]
    fn issue_after_channel_busy_starts_later() {
        let mut b = bus();
        let s = b.create_stream();
        let t1 = b.transfer(SimTime::ZERO, s, Direction::HostToDevice, 120_000);
        let s2 = b.create_stream();
        let later = t1.complete + Dur::from_us(5);
        let t2 = b.transfer(later, s2, Direction::HostToDevice, 1);
        assert_eq!(t2.start, later, "idle channel serves immediately");
    }
}
