//! The four workload drivers.
//!
//! Each module has an `Inputs` (made from the seed in set-up, outside
//! the timed region) and a `run` that drives the stack once and returns
//! an [`Outcome`] plus the workload's own detail. Drivers are generic
//! over a [`Probe`]: the end-to-end binary passes [`Untraced`], which
//! compiles to the bare calls; the traced binary passes a recorder that
//! wraps every call into a layer in a span.

use pagoda::pagoda_serve::ServeOutcome;
use pagoda::prelude::*;

use crate::fnv::Fnv;
use crate::stats;

pub mod fig5;
pub mod fleet_batch;
pub mod fleet_serve;
pub mod netmix;

/// The hook drivers call around every call into a layer.
pub trait Probe {
    /// Whether spans are being recorded (drivers skip collecting
    /// replay-only detail when not).
    const TRACED: bool;

    /// A coarse call: one span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;

    /// One of very many short calls: folded per name.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;

    /// `serve_on(cfg, backend)`, with the backend's own calls recorded
    /// as child spans when tracing.
    fn serve_on<B: Backend>(&mut self, cfg: &ServeConfig, backend: &mut B) -> ServeOutcome;
}

/// Tracing off: every hook is the bare call.
pub struct Untraced;

impl Probe for Untraced {
    const TRACED: bool = false;

    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn call<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn serve_on<B: Backend>(&mut self, cfg: &ServeConfig, backend: &mut B) -> ServeOutcome {
        serve_on(cfg, backend).expect("benchmark serve configs are valid")
    }
}

/// Device event-engine counters summed over every device a run used
/// (`max_queue_len` is the maximum).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTotals {
    /// Events popped.
    pub delivered: u64,
    /// Events scheduled.
    pub scheduled: u64,
    /// Events cancelled.
    pub cancelled: u64,
    /// Events re-aimed in place.
    pub rescheduled: u64,
    /// Largest pending-queue length on any device.
    pub max_queue_len: u64,
    /// Heap key comparisons.
    pub comparisons: u64,
}

impl EngineTotals {
    /// The counters of every engine behind `backend`.
    pub fn of<B: Backend>(backend: &B) -> EngineTotals {
        let mut t = EngineTotals::default();
        for s in backend.engine_stats() {
            t.merge(&EngineTotals {
                delivered: s.delivered,
                scheduled: s.scheduled,
                cancelled: s.cancelled,
                rescheduled: s.rescheduled,
                max_queue_len: s.max_queue_len as u64,
                comparisons: s.comparisons,
            });
        }
        t
    }

    /// Folds another run's counters in.
    pub fn merge(&mut self, o: &EngineTotals) {
        self.delivered += o.delivered;
        self.scheduled += o.scheduled;
        self.cancelled += o.cancelled;
        self.rescheduled += o.rescheduled;
        self.max_queue_len = self.max_queue_len.max(o.max_queue_len);
        self.comparisons += o.comparisons;
    }
}

/// What every workload reports from one rep.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds of the timed region, split where the workload has
    /// seams (one entry per benchmark, per 16 SLUD waves or per ladder
    /// point; a single entry otherwise). The end-to-end rate is computed
    /// from each segment's fastest rep, which filters whatever the host
    /// added to the others.
    pub segments_s: Vec<f64>,
    /// Simulated throughput (see each workload for the exact reading).
    pub sim_tasks_per_s: f64,
    /// Sojourns (µs, ascending) the latency percentiles are read from.
    pub sojourns_us: Vec<f64>,
    /// Tasks (arrivals) offered — the numerator of `tasks_per_host_s`:
    /// every one of them is resolved by the end of the rep.
    pub offered: u64,
    /// Arrivals completed.
    pub completed: u64,
    /// Arrivals refused at admission.
    pub shed: u64,
    /// Admitted arrivals cancelled past their deadline.
    pub expired: u64,
    /// Tasks lost to a device failure after retries.
    pub lost: u64,
    /// Arrivals that ended the run in no final state.
    pub unresolved: u64,
    /// FNV-1a over the simulated outcome.
    pub fingerprint: u64,
    /// Engine counters.
    pub engine: EngineTotals,
}

impl Outcome {
    /// Host seconds of the whole timed region.
    pub fn host_s(&self) -> f64 {
        self.segments_s.iter().sum()
    }

    /// `completed / offered`.
    pub fn completed_frac(&self) -> f64 {
        self.completed as f64 / self.offered.max(1) as f64
    }

    /// `(shed + expired + lost + unresolved) / offered`.
    pub fn failed_frac(&self) -> f64 {
        (self.shed + self.expired + self.lost + self.unresolved) as f64 / self.offered.max(1) as f64
    }

    /// Median sojourn, simulated µs.
    pub fn p50_us(&self) -> f64 {
        stats::percentile(&self.sojourns_us, 50.0)
    }

    /// 99th-percentile sojourn, simulated µs.
    pub fn p99_us(&self) -> f64 {
        stats::percentile(&self.sojourns_us, 99.0)
    }

    /// 99.9th percentile, where at least ten samples lie beyond it.
    pub fn p999_us(&self) -> Option<f64> {
        stats::percentile_supported(self.sojourns_us.len(), 99.9)
            .then(|| stats::percentile(&self.sojourns_us, 99.9))
    }

    /// Every arrival is accounted for exactly once.
    pub fn conserved(&self) -> bool {
        self.unresolved == 0
            && self.completed + self.shed + self.expired + self.lost == self.offered
    }

    /// The simulated metrics that must repeat exactly, in a fixed order.
    pub fn exact_metrics(&self) -> [f64; 5] {
        [
            self.sim_tasks_per_s,
            self.p50_us(),
            self.p99_us(),
            self.completed_frac(),
            self.failed_frac(),
        ]
    }
}

/// Hashes a sojourn sample into a fingerprint (before sorting, so the
/// completion *order* counts too).
pub(crate) fn hash_sojourns(h: &mut Fnv, sojourns_us: &[f64]) {
    h.u64(sojourns_us.len() as u64);
    for &s in sojourns_us {
        h.f64(s);
    }
}

/// SplitMix64: derives independent sub-seeds from the one `--seed`.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Span names for the three calls of a blocking spawn on one layer.
pub struct SpawnNames {
    /// Name for `submit` calls.
    pub submit: &'static str,
    /// Name for `sync` calls.
    pub sync: &'static str,
    /// Name for `advance_to` calls.
    pub advance: &'static str,
}

/// The blocking spawn of paper §4.2.2 over any backend: submit; on a
/// full table refresh the host view; if still full, idle one polling
/// slice; retry. The same loop as `baselines::spawn_blocking` and
/// `cluster_scaling`'s `drive_batch` (both poll at 20 µs).
pub fn spawn_blocking<B: Backend, P: Probe>(
    probe: &mut P,
    names: &SpawnNames,
    rt: &mut B,
    desc: TaskDesc,
) -> u64 {
    let mut pending = desc;
    loop {
        match probe.call(names.submit, || rt.submit(0, pending)) {
            Ok(key) => return key,
            Err(SubmitError::Full(back)) => {
                probe.call(names.sync, || rt.sync());
                if !rt.capacity().has_room() {
                    let t = rt.now() + rt.wait_timeout();
                    probe.call(names.advance, || rt.advance_to(t));
                }
                pending = back;
            }
            Err(e) => panic!("benchmark task refused: {e}"),
        }
    }
}
