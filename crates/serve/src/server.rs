//! The serving loop: simulated clients → admission → QoS queue → any
//! [`Backend`].
//!
//! [`serve_on`] runs one experiment as a discrete-event co-simulation on
//! the backend's own clock — one [`PagodaRuntime`] ([`serve`] builds it),
//! an N-device fleet, or a wrapper around either. Per iteration it
//!
//! 1. **admits** every arrival whose instant has passed — each tenant's
//!    stream is open-loop, so arrivals keep coming regardless of backlog,
//!    and the bounded queue sheds what does not fit;
//! 2. **dispatches** queued tasks through the configured
//!    [`QosScheduler`] via the backend's non-blocking
//!    [`Backend::submit`], while [`Backend::capacity`] has room and the
//!    queue is not empty;
//! 3. **retires** the tasks whose completion became host-visible since
//!    the last round: [`Backend::drain_completed`] hands over exactly
//!    those keys (a backend that does not override it is polled over
//!    the in-flight keys instead — same keys, same result), and they
//!    retire in dispatch order, so a round costs what changed, not what
//!    is in flight;
//! 4. **advances time** — to the next arrival when idle, or through a
//!    [`Backend::sync`] refresh plus timeout slice when blocked on
//!    capacity (the serving-side mirror of the runtime's own §4.2.2 lazy
//!    aggregate copy-back loop).
//!
//! Everything is a pure function of the [`ServeConfig`] (including its
//! seed) and the backend's configuration: two runs produce
//! byte-identical metric records.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use desim::Dur;
use pagoda_core::{Backend, Capacity, PagodaConfig, PagodaRuntime, SubmitError, TaskDesc};
use pagoda_obs::{Counter, MarkKind, Obs};
use pagoda_prof::{SloSpec, SloTracker};
use workloads::{Bench, GenOpts};

use crate::admission::Admission;
use crate::arrival::{ArrivalGen, ArrivalSpec};
use crate::error::ServeError;
use crate::metrics::{tenant_report, Outcome, ServeReport, TaskRecord};
use crate::qos::{Edf, Fifo, QosAudit, QosScheduler, QueuedTask, WeightedFair};

/// One tenant of the serving experiment.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name.
    pub name: String,
    /// Weighted-fair share (ignored by FIFO/EDF).
    pub weight: u32,
    /// Queue budget for admission control; `usize::MAX` disables
    /// shedding (the divergence baseline).
    pub queue_cap: usize,
    /// Relative completion deadline per task, if any (EDF priority and
    /// miss accounting).
    pub deadline: Option<Dur>,
    /// The tenant's arrival process.
    pub arrival: ArrivalSpec,
    /// Which benchmark's tasks the tenant submits.
    pub bench: Bench,
    /// Workload generator knobs.
    pub gen: GenOpts,
    /// Arrivals this tenant generates; `None` uses the experiment-wide
    /// [`ServeConfig::tasks_per_tenant`]. Setting counts proportional to
    /// each tenant's arrival rate makes all streams span the same wall
    /// clock window, which keeps the aggregate offered rate constant for
    /// the whole run instead of decaying as fast tenants finish early.
    pub tasks: Option<usize>,
    /// Latency objective for this tenant, if declared. Completed tasks'
    /// sojourns are accounted against it and the outcome surfaces as a
    /// [`pagoda_prof::SloReport`] in [`crate::metrics::ServeReport::slo`].
    pub slo: Option<SloSpec>,
}

impl TenantSpec {
    /// A tenant with sensible defaults: weight 1, 64-deep queue, no
    /// deadline, Poisson arrivals at `rate_per_s`.
    pub fn new(name: &str, bench: Bench, rate_per_s: f64) -> Self {
        TenantSpec {
            name: name.to_string(),
            weight: 1,
            queue_cap: 64,
            deadline: None,
            arrival: ArrivalSpec::Poisson { rate_per_s },
            bench,
            gen: GenOpts::default(),
            tasks: None,
            slo: None,
        }
    }
}

/// Which QoS discipline orders the admitted queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Global arrival order.
    Fifo,
    /// Weighted round-robin over per-tenant queues.
    WeightedFair,
    /// Earliest absolute deadline first.
    Edf,
}

impl Policy {
    /// Display name, as emitted in reports.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::WeightedFair => "wfq",
            Policy::Edf => "edf",
        }
    }

    /// Instantiates the scheduler for a tenant set.
    pub fn scheduler(self, weights: &[u32]) -> Box<dyn QosScheduler> {
        match self {
            Policy::Fifo => Box::new(Fifo::new()),
            Policy::WeightedFair => Box::new(WeightedFair::new(weights)),
            Policy::Edf => Box::new(Edf::new()),
        }
    }
}

/// A complete serving experiment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
    /// Queue discipline.
    pub policy: Policy,
    /// Cancel tasks whose deadline already passed when they reach the
    /// head of the queue (counted as `expired`, never spawned).
    pub cancel_late: bool,
    /// Open-loop arrivals generated per tenant.
    pub tasks_per_tenant: usize,
    /// Master seed; all arrival streams and workloads derive from it.
    pub seed: u64,
    /// Label for the tenant mix, carried into the report.
    pub mix: String,
    /// Offered-load label relative to calibrated capacity (reporting
    /// only; the actual rates live in each tenant's [`ArrivalSpec`]).
    pub offered_load: f64,
    /// Runtime/device configuration.
    pub runtime: PagodaConfig,
    /// Observability sink, forwarded to the runtime (and through it to
    /// the device and bus). The serving loop adds admission counters and
    /// tags every spawned task with its tenant so exporters can draw one
    /// track per tenant. Defaults to [`Obs::off`].
    pub obs: Obs,
    /// Passive scheduler-traffic observer ([`QosAudit`]); invariant
    /// checkers hang here. `None` (the default) costs nothing.
    pub qos_audit: Option<Rc<dyn QosAudit>>,
}

impl ServeConfig {
    /// An experiment with default runtime, seed 42, 256 tasks/tenant.
    pub fn new(tenants: Vec<TenantSpec>, policy: Policy) -> Self {
        ServeConfig {
            tenants,
            policy,
            cancel_late: false,
            tasks_per_tenant: 256,
            seed: 42,
            mix: String::new(),
            offered_load: 0.0,
            runtime: PagodaConfig::default(),
            obs: Obs::off(),
            qos_audit: None,
        }
    }

    /// Checks what [`serve_on`] needs of the experiment itself (the
    /// runtime is [`serve`]'s to check): at least one tenant, a weight of
    /// at least 1 for every tenant under [`Policy::WeightedFair`],
    /// arrival processes whose rates and dwell times a timeline can be
    /// drawn at ([`ArrivalSpec::problem`]), and generator knobs tasks can
    /// be built from ([`GenOpts::problem`]: at least one thread, a work
    /// scale above 0 and at most [`GenOpts::MAX_WORK_SCALE`]). A zero
    /// queue budget or task count is fine: every arrival is shed, or
    /// there are none.
    ///
    /// # Errors
    /// [`ServeError::NoTenants`] or [`ServeError::BadTenant`].
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.tenants.is_empty() {
            return Err(ServeError::NoTenants);
        }
        for (tenant, t) in self.tenants.iter().enumerate() {
            let reason = if self.policy == Policy::WeightedFair && t.weight == 0 {
                Some("weighted-fair tenants need a weight of at least 1")
            } else {
                t.arrival.problem().or_else(|| t.gen.problem())
            };
            if let Some(reason) = reason {
                return Err(ServeError::BadTenant { tenant, reason });
            }
        }
        Ok(())
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Aggregated metrics.
    pub report: ServeReport,
    /// One record per offered arrival, in arrival order.
    pub records: Vec<TaskRecord>,
}

struct Arrival {
    at: desim::SimTime,
    tenant: usize,
    desc: TaskDesc,
}

struct InFlight {
    key: u64,
    /// Position in dispatch order, which is the order completions that
    /// surface in the same round retire in.
    order: u64,
    seq: usize,
    tenant: usize,
    arrival: desim::SimTime,
    deadline: Option<desim::SimTime>,
}

/// Hashes a backend key with one odd multiply. Keys are distinct integers
/// (dense and ascending on both in-tree backends, where this spreads any
/// window of them without a collision), and `std`'s default SipHash would
/// seed every map from the OS: the one thing in a serving run that would
/// differ from process to process, for a flooding defence a map of the
/// server's own keys does not need.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The dispatched tasks whose completion the host has not seen: a dense
/// list (what a polling backend walks) whose entries are also found by
/// backend key (what a backend that hands completions over names), so
/// retiring a task costs O(1) however many are in flight. Removal
/// swaps the last entry into the hole; `InFlight::order` restores
/// dispatch order where it matters.
#[derive(Default)]
struct InFlightSet {
    tasks: Vec<InFlight>,
    slot_of: HashMap<u64, usize, BuildHasherDefault<KeyHasher>>,
}

impl InFlightSet {
    fn insert(&mut self, f: InFlight) {
        self.slot_of.insert(f.key, self.tasks.len());
        self.tasks.push(f);
    }

    /// `None` for a key that is not in flight here.
    fn remove(&mut self, key: u64) -> Option<InFlight> {
        let slot = self.slot_of.remove(&key)?;
        let f = self.tasks.swap_remove(slot);
        if let Some(moved) = self.tasks.get(slot) {
            self.slot_of.insert(moved.key, slot);
        }
        Some(f)
    }

    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.tasks.iter().map(|f| f.key)
    }

    fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// Runs one serving experiment to completion (all arrivals resolved:
/// completed, shed, or expired) and aggregates its metrics.
///
/// # Errors
/// [`ServeError::InvalidRuntime`] if the embedded [`PagodaConfig`] fails
/// validation, then those of [`serve_on`].
pub fn serve(cfg: &ServeConfig) -> Result<ServeOutcome, ServeError> {
    cfg.runtime.validate()?;
    let mut rt = PagodaRuntime::new(cfg.runtime.clone());
    serve_on(cfg, &mut rt)
}

/// [`serve`] over any [`Backend`] — the same admission/QoS/dispatch
/// loop, executing on `rt` instead of a freshly built single runtime.
/// `cfg.runtime` is ignored (the backend brings its own devices);
/// `cfg.obs` is attached to the backend so runtime-level events land in
/// the same recorder as the serving counters.
///
/// # Errors
/// Those of [`ServeConfig::validate`], checked before `rt` is touched,
/// and [`ServeError::UnspawnableTask`] if a workload produces an invalid
/// [`TaskDesc`].
pub fn serve_on<B: Backend + ?Sized>(
    cfg: &ServeConfig,
    rt: &mut B,
) -> Result<ServeOutcome, ServeError> {
    cfg.validate()?;
    rt.attach_obs(cfg.obs.clone());
    let nt = cfg.tenants.len();
    let obs = cfg.obs.clone();
    let wait_timeout = rt.wait_timeout();

    // ---- client side: pre-generate every tenant's timeline -----------
    let mut all: Vec<Arrival> = Vec::with_capacity(nt * cfg.tasks_per_tenant);
    for (ti, t) in cfg.tenants.iter().enumerate() {
        let mut gen = t.gen.clone();
        gen.seed ^= splitmix(cfg.seed ^ splitmix(ti as u64));
        let descs = t.bench.tasks(t.tasks.unwrap_or(cfg.tasks_per_tenant), &gen);
        let mut ag = ArrivalGen::new(t.arrival, splitmix(cfg.seed).wrapping_add(ti as u64));
        for desc in descs {
            all.push(Arrival {
                at: ag.next_arrival(),
                tenant: ti,
                desc,
            });
        }
    }
    // Stable merge: time, then tenant index (each tenant's own stream is
    // strictly increasing, so this is a total order).
    all.sort_by_key(|a| (a.at, a.tenant));

    // ---- server state ------------------------------------------------
    let weights: Vec<u32> = cfg.tenants.iter().map(|t| t.weight).collect();
    let caps: Vec<usize> = cfg.tenants.iter().map(|t| t.queue_cap).collect();
    let mut sched = cfg.policy.scheduler(&weights);
    let mut admission = Admission::new(&caps);
    let mut slo_trackers: Vec<Option<SloTracker>> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(ti, t)| t.slo.map(|s| SloTracker::new(ti as u32, s)))
        .collect();
    let mut in_flight = InFlightSet::default();
    let mut dispatched = 0u64;
    let mut done_keys: Vec<u64> = Vec::new();
    let mut retiring: Vec<InFlight> = Vec::new();
    let mut records: Vec<TaskRecord> = Vec::with_capacity(all.len());
    let mut expired = vec![0u64; nt];
    let mut missed = vec![0u64; nt];
    let mut sojourns: Vec<Vec<f64>> = vec![Vec::new(); nt];
    let mut occ_sum = 0.0;
    let mut occ_rounds = 0u64;
    let mut next_arr = 0usize;

    // A backend that logs completions starts logging at the first call:
    // make it before anything is submitted.
    rt.drain_completed(&mut std::iter::empty(), &mut done_keys);

    loop {
        // 1. Admit (or shed) every arrival that is due.
        while next_arr < all.len() && all[next_arr].at <= rt.now() {
            let a = &all[next_arr];
            let admitted = admission.offer(a.tenant);
            obs.count(
                if admitted {
                    Counter::AdmissionAdmitted
                } else {
                    Counter::AdmissionShed
                },
                1,
            );
            records.push(TaskRecord {
                tenant: a.tenant as u32,
                seq: next_arr as u64,
                arrival_us: a.at.as_us_f64(),
                outcome: if admitted {
                    Outcome::Done
                } else {
                    Outcome::Shed
                },
                spawn_us: None,
                done_us: None,
                sojourn_us: None,
                deadline_missed: false,
            });
            if admitted {
                let qt = QueuedTask {
                    tenant: a.tenant,
                    seq: next_arr as u64,
                    arrival: a.at,
                    admitted: rt.now(),
                    deadline: cfg.tenants[a.tenant].deadline.map(|d| a.at + d),
                    desc: a.desc.clone(),
                };
                if let Some(audit) = &cfg.qos_audit {
                    audit.on_push(&qt);
                }
                sched.push(qt);
            }
            next_arr += 1;
        }

        // 2. Dispatch into the TaskTable while it has room — or while the
        // backend has no table at all, a fleet with every device dead,
        // whose submit resolves each task lost at once.
        while takes_submits(rt.capacity()) {
            let Some(qt) = sched.pop() else { break };
            if let Some(audit) = &cfg.qos_audit {
                audit.on_pop(&qt);
            }
            let QueuedTask {
                tenant,
                seq,
                arrival,
                admitted,
                deadline,
                desc,
            } = qt;
            admission.on_dequeue(tenant);
            if cfg.cancel_late && deadline.is_some_and(|d| d < rt.now()) {
                expired[tenant] += 1;
                let r = &mut records[seq as usize];
                r.outcome = Outcome::Expired;
                r.deadline_missed = true;
                continue;
            }
            match rt.submit(tenant as u32, desc) {
                Ok(key) => {
                    records[seq as usize].spawn_us = Some(rt.now().as_us_f64());
                    obs.tenant(key, tenant as u32);
                    // The runtime key exists only now, so the serving-side
                    // timeline marks are emitted retroactively: their
                    // `at_ps` carry the true arrival/admission instants
                    // even though they enter the stream at spawn time.
                    obs.mark(arrival.as_ps(), key, MarkKind::Arrived);
                    obs.mark(admitted.as_ps(), key, MarkKind::Admitted);
                    in_flight.insert(InFlight {
                        key,
                        order: dispatched,
                        seq: seq as usize,
                        tenant,
                        arrival,
                        deadline,
                    });
                    dispatched += 1;
                }
                Err(SubmitError::Full(desc)) => {
                    // Defensive: capacity raced away. Put the task back.
                    admission.requeue(tenant);
                    let qt = QueuedTask {
                        tenant,
                        seq,
                        arrival,
                        admitted,
                        deadline,
                        desc,
                    };
                    if let Some(audit) = &cfg.qos_audit {
                        audit.on_requeue(&qt);
                    }
                    sched.push(qt);
                    break;
                }
                Err(SubmitError::Invalid(source)) => {
                    return Err(ServeError::UnspawnableTask { tenant, source });
                }
            }
        }
        let cap = rt.capacity();
        occ_sum += 1.0 - f64::from(cap.known_free) / f64::from(cap.total.max(1));
        occ_rounds += 1;

        // 3. Retire the completions the copy-backs since the last round
        // made visible. The backend hands over exactly those keys (or,
        // by default, polls the ones in flight), so a round costs what
        // changed; dispatch order makes the result independent of the
        // order they are handed over in. Keys that are not ours — tasks
        // someone else put on the backend — are skipped.
        rt.drain_completed(&mut in_flight.keys(), &mut done_keys);
        retiring.extend(done_keys.drain(..).filter_map(|key| in_flight.remove(key)));
        retiring.sort_unstable_by_key(|f| f.order);
        for f in retiring.drain(..) {
            let done = rt
                .completion_time(f.key)
                .expect("invariant: observed-done task has an output time");
            obs.mark(done.as_ps(), f.key, MarkKind::Observed);
            if let Some(tr) = &mut slo_trackers[f.tenant] {
                tr.observe(f.key, done.as_ps().saturating_sub(f.arrival.as_ps()));
            }
            let sojourn = (done - f.arrival).as_us_f64();
            let r = &mut records[f.seq];
            r.outcome = Outcome::Done;
            r.done_us = Some(done.as_us_f64());
            r.sojourn_us = Some(sojourn);
            if f.deadline.is_some_and(|d| done > d) {
                r.deadline_missed = true;
                missed[f.tenant] += 1;
            }
            sojourns[f.tenant].push(sojourn);
        }

        // 4. Advance the clock, or finish.
        let arrivals_left = next_arr < all.len();
        if !arrivals_left && sched.is_empty() && in_flight.is_empty() {
            break;
        }
        if !sched.is_empty() || (!arrivals_left && !in_flight.is_empty()) {
            // Blocked on table capacity, or draining the tail: refresh
            // the CPU's view (costs the aggregate copy-back's bus time)
            // and, if still stuck, idle one timeout slice — the same
            // pacing the runtime's own blocking spawn uses.
            rt.sync();
            let stuck_full = !rt.capacity().has_room() && !sched.is_empty();
            let draining = sched.is_empty() && !arrivals_left && !in_flight.is_empty();
            if stuck_full || draining {
                let t = rt.now() + wait_timeout;
                rt.advance_to(t);
            }
        } else if arrivals_left {
            // Idle: sleep until the next client submits.
            rt.advance_to(all[next_arr].at);
        }
    }

    debug_assert!(records.iter().all(|r| match r.outcome {
        Outcome::Done => r.sojourn_us.is_some(),
        Outcome::Shed | Outcome::Expired => r.sojourn_us.is_none(),
    }));

    // ---- aggregate ---------------------------------------------------
    let makespan = rt.now();
    let completed: u64 = sojourns.iter().map(|s| s.len() as u64).sum();
    let tenants = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            tenant_report(
                t.name.clone(),
                t.weight,
                admission.offered(ti),
                admission.admitted(ti),
                admission.shed(ti),
                expired[ti],
                missed[ti],
                admission.max_depth(ti) as u64,
                &sojourns[ti],
            )
        })
        .collect();
    let report = ServeReport {
        policy: cfg.policy.name().to_string(),
        mix: cfg.mix.clone(),
        seed: cfg.seed,
        offered_load: cfg.offered_load,
        makespan_us: makespan.as_us_f64(),
        throughput_per_s: completed as f64 / makespan.as_secs_f64().max(1e-12),
        avg_slot_occupancy: occ_sum / occ_rounds.max(1) as f64,
        avg_warp_occupancy: rt.warp_occupancy(),
        tenants,
        slo: slo_trackers
            .iter()
            .flatten()
            .map(SloTracker::report)
            .collect(),
    };
    Ok(ServeOutcome { report, records })
}

/// Whether the dispatch loop may submit: the table has a known-free
/// entry, or the backend has no entries left to wait for.
fn takes_submits(cap: Capacity) -> bool {
    cap.has_room() || cap.total == 0
}

/// SplitMix64 — decorrelates the per-tenant seeds derived from the
/// master seed.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A MIG-style slice of the Titan X: identical per-SMM resources, clocks
/// and TaskTable protocol, but only `num_sms` SMMs — so `2 * num_sms`
/// MTB columns and a proportionally smaller table. Multi-tenant serving
/// typically runs on such a partition, and the smaller table is what
/// makes admission control bind at realistic experiment sizes (the full
/// 48×32 table absorbs ~1.5 K tasks of backlog before any queue forms).
pub fn serving_slice(num_sms: u32) -> Result<PagodaConfig, ServeError> {
    if num_sms == 0 {
        return Err(ServeError::EmptySlice);
    }
    let mut cfg = PagodaConfig::default();
    cfg.device.spec.num_sms = num_sms;
    Ok(cfg)
}

/// Measures a runtime's saturated service capacity for `bench` tasks
/// (tasks/second) — the natural normalizer when sweeping offered load.
///
/// Uses the serving loop itself rather than the runtime's blocking spawn
/// path: every probe arrival lands at ≈ t = 0 in an unbounded queue, so
/// the dispatcher keeps the TaskTable as full as the loop ever can and
/// the measured throughput is the rate the serving system genuinely
/// sustains (the blocking spawn path idles in whole `wait_timeout`
/// slices and would understate it). Deterministic.
///
/// # Errors
/// Propagates [`serve`]'s validation errors.
pub fn calibrate_capacity(
    runtime: &PagodaConfig,
    bench: Bench,
    gen: &GenOpts,
    probe_tasks: usize,
) -> Result<f64, ServeError> {
    let mut probe = TenantSpec::new("probe", bench, 1.0e12);
    probe.queue_cap = usize::MAX;
    probe.gen = gen.clone();
    let mut cfg = ServeConfig::new(vec![probe], Policy::Fifo);
    cfg.tasks_per_tenant = probe_tasks;
    cfg.runtime = runtime.clone();
    cfg.mix = "calibration".into();
    Ok(serve(&cfg)?.report.throughput_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(policy: Policy) -> ServeConfig {
        let mut a = TenantSpec::new("a", Bench::Des3, 2.0e6);
        a.queue_cap = 16;
        let mut b = TenantSpec::new("b", Bench::Mb, 1.0e6);
        b.queue_cap = 16;
        b.weight = 2;
        b.deadline = Some(Dur::from_us(400));
        let mut cfg = ServeConfig::new(vec![a, b], policy);
        cfg.tasks_per_tenant = 48;
        cfg.mix = "test".into();
        cfg
    }

    #[test]
    fn in_flight_set_finds_by_key_and_spreads_dense_keys() {
        // The claim in `KeyHasher`'s doc: the low bits hashbrown indexes
        // buckets with are distinct over any window of consecutive keys.
        for start in [0u64, 1, 6143, 1 << 40, u64::MAX - 127] {
            let mut low: Vec<u64> = (0..128)
                .map(|i| {
                    let mut h = KeyHasher::default();
                    h.write_u64(start.wrapping_add(i));
                    h.finish() & 127
                })
                .collect();
            low.sort_unstable();
            low.dedup();
            assert_eq!(low.len(), 128, "window at {start}");
        }
        let mut set = InFlightSet::default();
        for key in [7u64, 3, 900, 4] {
            set.insert(InFlight {
                key,
                order: key,
                seq: 0,
                tenant: 0,
                arrival: desim::SimTime::ZERO,
                deadline: None,
            });
        }
        assert!(set.remove(5).is_none(), "a stranger's key");
        assert_eq!(set.remove(3).map(|f| f.key), Some(3));
        assert!(set.remove(3).is_none(), "each key retires once");
        // The swap that filled 3's slot left every other key findable.
        let mut left: Vec<u64> = set.keys().collect();
        left.sort_unstable();
        assert_eq!(left, [4, 7, 900]);
        for key in left {
            assert_eq!(set.remove(key).map(|f| f.key), Some(key));
        }
        assert!(set.is_empty());
    }

    #[test]
    fn serve_conserves_tasks_across_policies() {
        for policy in [Policy::Fifo, Policy::WeightedFair, Policy::Edf] {
            let out = serve(&tiny_cfg(policy)).unwrap();
            for tr in &out.report.tenants {
                assert_eq!(tr.offered, tr.admitted + tr.shed, "{policy:?}");
                assert_eq!(tr.admitted, tr.completed + tr.expired, "{policy:?}");
            }
            let offered: u64 = out.report.tenants.iter().map(|t| t.offered).sum();
            assert_eq!(offered as usize, out.records.len());
        }
    }

    #[test]
    fn serve_is_deterministic() {
        let cfg = tiny_cfg(Policy::WeightedFair);
        let a = serve(&cfg).unwrap();
        let b = serve(&cfg).unwrap();
        let ja = serde_json::to_string(&a.records).unwrap();
        let jb = serde_json::to_string(&b.records).unwrap();
        assert_eq!(ja, jb);
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
    }

    #[test]
    fn overload_sheds_under_bounded_queues() {
        let mut cfg = tiny_cfg(Policy::Fifo);
        // Crank tenant a far past service capacity.
        cfg.tenants[0].arrival = ArrivalSpec::Poisson { rate_per_s: 5.0e7 };
        cfg.tenants[0].queue_cap = 8;
        let out = serve(&cfg).unwrap();
        assert!(
            out.report.tenants[0].shed > 0,
            "overloaded bounded tenant must shed: {:?}",
            out.report.tenants[0]
        );
        // Bounded queue ⇒ bounded backlog ahead of any admitted task.
        assert!(out.report.tenants[0].max_queue_depth <= 8);
    }

    #[test]
    fn cancel_late_expires_stale_work() {
        let mut cfg = tiny_cfg(Policy::Edf);
        cfg.cancel_late = true;
        cfg.tenants[1].deadline = Some(Dur::from_us(1)); // hopeless deadline
        cfg.tenants[1].arrival = ArrivalSpec::Poisson { rate_per_s: 3.0e7 };
        let out = serve(&cfg).unwrap();
        let t1 = &out.report.tenants[1];
        assert!(t1.expired > 0, "stale tasks must be cancelled: {t1:?}");
        assert_eq!(t1.admitted, t1.completed + t1.expired);
    }
}
