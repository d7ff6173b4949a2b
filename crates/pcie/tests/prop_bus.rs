//! Property tests of the PCIe model: per-stream FIFO ordering, channel
//! serialization, and conservation of busy time under arbitrary traffic.

use desim::SimTime;
use pcie::{Direction, PcieBus, PcieConfig};
use proptest::prelude::*;

proptest! {
    #[test]
    fn streams_are_fifo_and_channels_serialize(
        txns in prop::collection::vec((0u8..4, 0u8..2, 0u64..100_000, 0u64..50), 1..200)
    ) {
        let mut bus = PcieBus::new(PcieConfig::default());
        let streams: Vec<_> = (0..4).map(|_| bus.create_stream()).collect();
        let mut last_per_stream = std::collections::HashMap::new();
        let mut channel_busy = [0u64; 2];
        let mut now = SimTime::ZERO;

        for (s, dir, bytes, advance) in txns {
            now = SimTime::from_ps(now.as_ps() + advance * 1_000);
            let dir = if dir == 0 { Direction::HostToDevice } else { Direction::DeviceToHost };
            let stream = streams[s as usize % streams.len()];
            let t = bus.transfer(now, stream, dir, bytes);
            prop_assert!(t.start >= now, "cannot start before issue");
            prop_assert!(t.complete > t.start, "latency is strictly positive");
            // FIFO within the stream.
            if let Some(prev) = last_per_stream.insert(stream, t.complete) {
                prop_assert!(t.start >= prev, "stream reordering");
            }
            channel_busy[matches!(dir, Direction::DeviceToHost) as usize] +=
                (t.complete - t.start).as_ps();
        }
        // Stats account exactly the occupied time per channel.
        prop_assert_eq!(bus.stats(Direction::HostToDevice).busy.as_ps(), channel_busy[0]);
        prop_assert_eq!(bus.stats(Direction::DeviceToHost).busy.as_ps(), channel_busy[1]);
    }

    #[test]
    fn transfer_time_is_monotone_in_bytes(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let bus = PcieBus::new(PcieConfig::default());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            bus.config().transfer_time(Direction::HostToDevice, lo)
                <= bus.config().transfer_time(Direction::HostToDevice, hi)
        );
    }
}
