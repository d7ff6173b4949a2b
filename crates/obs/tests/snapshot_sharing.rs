//! The sharing contract of `Recording::snapshot`: a snapshot's streams
//! share the log's sealed chunks, yet read exactly as the `Vec`s a
//! copying snapshot would hold — same events, same JSON bytes — and stay
//! as they were however much the run records afterwards.
//!
//! Streams are driven to lengths at and either side of the chunk edges
//! (0, 1, k·`CHUNK` and k·`CHUNK` ± 1 for k ≤ 3), interleaved at random.

use std::collections::BTreeMap;

use pagoda_obs::stream::CHUNK;
use pagoda_obs::{
    Counter, DeviceSample, Event, Events, MarkKind, MtbSample, Obs, ObsBuffer, Recording,
    SmmSample, SyncKind, SyncMark, TaskEvent, TaskMark, TaskRoute, TaskState, TenantTag,
};
use proptest::prelude::*;
use serde::Serialize;

/// Stream lengths on and around the chunk edges.
const LENGTHS: [usize; 11] = [
    0,
    1,
    CHUNK - 1,
    CHUNK,
    CHUNK + 1,
    2 * CHUNK - 1,
    2 * CHUNK,
    2 * CHUNK + 1,
    3 * CHUNK - 1,
    3 * CHUNK,
    3 * CHUNK + 1,
];

/// An `ObsBuffer` as a copying snapshot would hold it: plain `Vec`s,
/// fields in `ObsBuffer`'s order.
#[derive(Default, Serialize)]
struct Reference {
    tasks: Vec<TaskEvent>,
    tenants: Vec<TenantTag>,
    smm: Vec<SmmSample>,
    mtb: Vec<MtbSample>,
    devices: Vec<DeviceSample>,
    syncs: Vec<SyncMark>,
    marks: Vec<TaskMark>,
    routes: Vec<TaskRoute>,
    counters: BTreeMap<&'static str, u64>,
}

impl Reference {
    /// Every stream filtered out of the log's ordered walk.
    fn of(rec: &Recording) -> Reference {
        let mut r = Reference {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), rec.counter(c)))
                .collect(),
            ..Reference::default()
        };
        for ev in rec.events() {
            match ev {
                Event::Task(e) => r.tasks.push(e),
                Event::Tenant(t) => r.tenants.push(t),
                Event::Smm(s) => r.smm.push(s),
                Event::Mtb(s) => r.mtb.push(s),
                Event::Device(s) => r.devices.push(s),
                Event::Sync(m) => r.syncs.push(m),
                Event::Mark(m) => r.marks.push(m),
                Event::Route(route) => r.routes.push(route),
            }
        }
        r
    }

    /// Whether `buf` holds exactly these streams.
    fn matches(&self, buf: &ObsBuffer) -> bool {
        buf.tasks == self.tasks
            && buf.tenants == self.tenants
            && buf.smm == self.smm
            && buf.mtb == self.mtb
            && buf.devices == self.devices
            && buf.syncs == self.syncs
            && buf.marks == self.marks
            && buf.routes == self.routes
            && buf.counters == self.counters
    }
}

/// Whether every stream of `a` is a prefix of the same stream of `b`.
fn is_prefix(a: &ObsBuffer, b: &ObsBuffer) -> bool {
    fn pre<T: PartialEq>(a: &Events<T>, b: &Events<T>) -> bool {
        a.len() <= b.len() && a.iter().eq(b.iter().take(a.len()))
    }
    pre(&a.tasks, &b.tasks)
        && pre(&a.tenants, &b.tenants)
        && pre(&a.smm, &b.smm)
        && pre(&a.mtb, &b.mtb)
        && pre(&a.devices, &b.devices)
        && pre(&a.syncs, &b.syncs)
        && pre(&a.marks, &b.marks)
        && pre(&a.routes, &b.routes)
}

/// SplitMix64: the interleaving's shuffle and the events' field values.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Records `counts[s]` events of stream `s`, in an order shuffled by
/// `seed`, through the `Obs` method an instrumented crate would call,
/// bumping a counter per event.
fn record(obs: &Obs, counts: [usize; 8], seed: u64) {
    let mut order: Vec<u8> = (0..8u8)
        .flat_map(|s| std::iter::repeat_n(s, counts[s as usize]))
        .collect();
    for i in (1..order.len()).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    for (i, &s) in order.iter().enumerate() {
        let v = mix(seed.wrapping_add(i as u64));
        let (at_ps, small) = (v >> 8, (v & 0xff) as u32);
        match s {
            0 => obs.task(at_ps, v % 97, TaskState::ALL[small as usize % 5]),
            1 => obs.tenant(v % 97, small),
            2 => obs.smm(SmmSample {
                at_ps,
                sm: small,
                resident_warps: small + 1,
                running_warps: small / 2,
                free_regs: v % 65_536,
                free_smem: v % 98_304,
                free_tb_slots: small % 32,
            }),
            3 => obs.mtb(MtbSample {
                at_ps,
                mtb: small,
                free_warp_slots: small % 31,
                free_smem: v % 49_152,
                used_entries: small % 64,
            }),
            4 => obs.device(DeviceSample {
                at_ps,
                device: small % 4,
                known_free: small,
                outstanding: small / 3,
                alive: v & 1 == 0,
            }),
            5 => obs.sync_mark(
                at_ps,
                if v & 1 == 0 {
                    SyncKind::Sync
                } else {
                    SyncKind::KillHarvest
                },
            ),
            6 => obs.mark(at_ps, v % 97, MarkKind::ALL[small as usize % 3]),
            _ => obs.route(v % 97, small % 4),
        }
        obs.count(Counter::ALL[small as usize % Counter::ALL.len()], 1);
    }
}

/// Records `first`, snapshots, records `then`, snapshots again, and
/// holds both snapshots to the contract. JSON is a function of the
/// events, so once the early snapshot's bytes match, the later checks
/// compare events.
fn check(first: [usize; 8], then: [usize; 8], seed: u64) -> Result<(), TestCaseError> {
    let (obs, rec) = Obs::recording();
    record(&obs, first, seed);
    let early = rec.snapshot();
    let reference = Reference::of(&rec);
    prop_assert!(
        reference.matches(&early),
        "streams differ from the log's walk"
    );
    prop_assert_eq!(early.to_json(), serde_json::to_string(&reference).unwrap());

    record(&obs, then, !seed);
    prop_assert!(reference.matches(&early), "recording on changed a snapshot");
    let late = rec.snapshot();
    prop_assert!(is_prefix(&early, &late));
    prop_assert!(Reference::of(&rec).matches(&late));
    prop_assert_eq!(&late, &rec.snapshot());
    Ok(())
}

/// Eight stream lengths: each from `LENGTHS`, or (as often) 0–2 events,
/// so most cases mix long streams with short ones.
fn lengths() -> impl Strategy<Value = [usize; 8]> {
    let n = LENGTHS.len();
    prop::collection::vec(0..2 * n, 8).prop_map(move |ix| {
        let mut out = [0; 8];
        for (o, i) in out.iter_mut().zip(ix) {
            *o = if i < n { LENGTHS[i] } else { i % 3 };
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn a_snapshot_reads_as_a_copy_and_stays_one(
        first in lengths(),
        then in lengths(),
        seed in 0u64..u64::MAX,
    ) {
        check(first, then, seed)?;
    }
}

#[test]
fn every_stream_at_every_edge_length() {
    // Stream `s` of log `k` is `LENGTHS[(k + s) % 11]` long, so across
    // the eleven logs every stream takes every length, beside seven
    // others of different lengths; recording on adds one event per
    // stream, and a chunk to one of them.
    let n = LENGTHS.len();
    for k in 0..n {
        let first: [usize; 8] = std::array::from_fn(|s| LENGTHS[(k + s) % n]);
        let mut then = [1; 8];
        then[k % 8] += CHUNK;
        check(first, then, k as u64).unwrap();
    }
}
