//! Serving metrics: per-task records and per-tenant/run aggregates.
//!
//! Everything here derives `Serialize` so a run can be dumped as JSON
//! lines and diffed byte-for-byte across runs — the serving layer's
//! determinism contract is "same config + seed ⇒ identical records".
//! Latencies are *sojourn* times (arrival → output landed in host
//! memory), the serving analogue of the paper's Fig. 10 per-task
//! latency; phase splits come from [`pagoda_core::trace::TaskTrace`].

use serde::Serialize;

/// What became of one offered arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Outcome {
    /// Rejected at admission (queue budget full).
    Shed,
    /// Admitted but cancelled at dispatch: its deadline had already
    /// passed and the policy cancels late work.
    Expired,
    /// Ran to completion.
    Done,
}

/// One offered arrival, from the client's point of view.
#[derive(Debug, Clone, Serialize)]
pub struct TaskRecord {
    /// Tenant index.
    pub tenant: u32,
    /// Global arrival sequence number.
    pub seq: u64,
    /// Arrival instant, µs.
    pub arrival_us: f64,
    /// Fate of the arrival.
    pub outcome: Outcome,
    /// Spawn instant (µs) for tasks that reached the runtime.
    pub spawn_us: Option<f64>,
    /// Completion instant (µs; output copy landed) for finished tasks.
    pub done_us: Option<f64>,
    /// Sojourn time (arrival → done), µs.
    pub sojourn_us: Option<f64>,
    /// The task finished after its deadline (only meaningful when the
    /// tenant declared one and the policy does not cancel late work).
    pub deadline_missed: bool,
}

/// Aggregates for one tenant over a run.
#[derive(Debug, Clone, Serialize)]
pub struct TenantReport {
    /// Tenant display name.
    pub tenant: String,
    /// WFQ weight the run used.
    pub weight: u32,
    /// Arrivals offered.
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals shed at admission.
    pub shed: u64,
    /// Admitted tasks cancelled for missing their deadline pre-dispatch.
    pub expired: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Completed tasks that finished past their deadline.
    pub deadline_missed: u64,
    /// Queue-depth high-water mark.
    pub max_queue_depth: u64,
    /// Mean sojourn, µs.
    pub mean_sojourn_us: f64,
    /// Median sojourn, µs.
    pub p50_sojourn_us: f64,
    /// 95th-percentile sojourn, µs.
    pub p95_sojourn_us: f64,
    /// 99th-percentile sojourn, µs.
    pub p99_sojourn_us: f64,
}

/// Whole-run aggregates (one serving experiment).
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// QoS policy name (`fifo`, `wfq`, `edf`).
    pub policy: String,
    /// Tenant-mix label.
    pub mix: String,
    /// Experiment seed.
    pub seed: u64,
    /// Offered load relative to the calibrated service capacity.
    pub offered_load: f64,
    /// Host makespan of the run, µs.
    pub makespan_us: f64,
    /// Completed tasks per second of makespan.
    pub throughput_per_s: f64,
    /// Mean TaskTable occupancy over dispatch rounds (0..1).
    pub avg_slot_occupancy: f64,
    /// Device-level mean fraction of warp slots doing useful work.
    pub avg_warp_occupancy: f64,
    /// Per-tenant aggregates.
    pub tenants: Vec<TenantReport>,
    /// SLO outcomes, one per tenant that declared a
    /// [`pagoda_prof::SloSpec`] (tenant-index order; empty when none
    /// did).
    pub slo: Vec<pagoda_prof::SloReport>,
}

/// Nearest-rank percentile of an unsorted sample (q in 0..=100).
/// Returns 0.0 for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let [p] = percentiles(samples, [q]);
    p
}

/// The index the nearest-rank percentile `q` reads in an ascending
/// sample of `n > 0`.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// [`percentile`] at each of `qs` (ascending) from one copy of the
/// sample, with no sort: the copy is partitioned around the highest
/// rank, then its lower part around the next, and so on, so each
/// selection reads only the values at or below the rank before.
fn percentiles<const N: usize>(samples: &[f64], qs: [f64; N]) -> [f64; N] {
    let mut out = [0.0; N];
    if samples.is_empty() {
        return out;
    }
    let mut v = samples.to_vec();
    let mut end = v.len();
    for (p, &q) in out.iter_mut().zip(&qs).rev() {
        let i = rank_index(v.len(), q);
        debug_assert!(i < end, "percentiles must be asked for in ascending order");
        let (_, nth, _) = v[..end]
            .select_nth_unstable_by(i, |a, b| a.partial_cmp(b).expect("latencies are finite"));
        *p = *nth;
        end = i + 1;
    }
    out
}

/// Builds a [`TenantReport`] from completed-task sojourns and counters.
#[allow(clippy::too_many_arguments)]
pub fn tenant_report(
    tenant: String,
    weight: u32,
    offered: u64,
    admitted: u64,
    shed: u64,
    expired: u64,
    deadline_missed: u64,
    max_queue_depth: u64,
    sojourns_us: &[f64],
) -> TenantReport {
    let n = sojourns_us.len();
    let mean = if n == 0 {
        0.0
    } else {
        sojourns_us.iter().sum::<f64>() / n as f64
    };
    let [p50, p95, p99] = percentiles(sojourns_us, [50.0, 95.0, 99.0]);
    TenantReport {
        tenant,
        weight,
        offered,
        admitted,
        shed,
        expired,
        completed: n as u64,
        deadline_missed,
        max_queue_depth,
        mean_sojourn_us: mean,
        p50_sojourn_us: p50,
        p95_sojourn_us: p95,
        p99_sojourn_us: p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The nearest-rank percentile read off a sorted copy: the oracle
    /// for the selections.
    fn nearest_rank(samples: &[f64], q: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        if v.is_empty() {
            return 0.0;
        }
        v[rank_index(v.len(), q)]
    }

    proptest! {
        /// Samples of 0–300 values drawn from as few as 1 distinct value
        /// (all ties) to 1 000.
        #[test]
        fn selected_percentiles_equal_the_sorted_ones(
            distinct in 1u32..1_000,
            draws in prop::collection::vec(0u32..1_000_000, 0..300),
        ) {
            let sample: Vec<f64> = draws.iter().map(|d| f64::from(d % distinct) * 0.25).collect();
            let qs = [0.0, 1.0, 50.0, 95.0, 99.0, 100.0];
            let want = qs.map(|q| nearest_rank(&sample, q));
            prop_assert_eq!(percentiles(&sample, qs), want);
            let r = tenant_report("t".into(), 1, 0, 0, 0, 0, 0, 0, &sample);
            prop_assert_eq!(
                [r.p50_sojourn_us, r.p95_sojourn_us, r.p99_sojourn_us],
                [want[2], want[3], want[4]]
            );
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tenant_quantiles_equal_percentile() {
        let ties = [3.0, 1.0, 3.0, 2.0, 3.0, 1.0, 9.0, 3.0];
        let spread: Vec<f64> = (0..250).map(|i| f64::from((i * 37) % 101)).collect();
        for sample in [&ties[..], &[7.5], &[], &spread] {
            let r = tenant_report("t".into(), 1, 0, 0, 0, 0, 0, 0, sample);
            assert_eq!(
                [r.p50_sojourn_us, r.p95_sojourn_us, r.p99_sojourn_us],
                [50.0, 95.0, 99.0].map(|q| percentile(sample, q)),
                "{sample:?}"
            );
        }
    }

    #[test]
    fn records_serialize_to_stable_json() {
        let r = TaskRecord {
            tenant: 1,
            seq: 42,
            arrival_us: 10.5,
            outcome: Outcome::Done,
            spawn_us: Some(11.0),
            done_us: Some(20.25),
            sojourn_us: Some(9.75),
            deadline_missed: false,
        };
        let a = serde_json::to_string(&r).unwrap();
        let b = serde_json::to_string(&r).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"outcome\":\"Done\""), "{a}");
        assert!(a.contains("\"seq\":42"), "{a}");
    }
}
