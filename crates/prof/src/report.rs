//! Aggregated profiles: per-group phase histograms and their
//! serializable summary form.
//!
//! Groups are `total`, then `tenant/<k>` ascending, then `device/<k>`
//! ascending — a fixed order so every export derived from a report is
//! byte-deterministic. A task contributes to `total` always, to its
//! tenant group if a [`TenantTag`](pagoda_obs::TenantTag) attributed it,
//! and to its device group if a [`TaskRoute`](pagoda_obs::TaskRoute)
//! placed it (last route wins: a resubmitted task is charged to the
//! device that actually ran it).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use pagoda_obs::ObsBuffer;

use crate::hist::{HistSummary, LogHist};
use crate::phase::{decompose, Cuts, Decomposition, Phase};

/// One task's profiling inputs: its cut timeline plus grouping keys.
/// 80 B: [`ProfReport::from_buffer`] holds one per task key.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskProf {
    /// Cut timestamps accumulated from the event stream.
    pub cuts: Cuts,
    /// Tenant attribution, if the serving layer tagged one.
    pub tenant: Option<u32>,
    /// Fleet device placement, if the cluster layer routed it. Last
    /// route wins.
    pub device: Option<u32>,
}

const _: () = assert!(std::mem::size_of::<TaskProf>() <= 80);

/// Phase histograms for one group of tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupProf {
    /// Group label: `total`, `tenant/<k>`, or `device/<k>`.
    pub label: String,
    /// Completed tasks aggregated.
    pub tasks: u64,
    /// Sojourn (arrival→observed) distribution.
    pub sojourn: LogHist,
    /// Per-phase duration distributions, [`Phase::ALL`] order.
    pub phases: Vec<LogHist>,
}

impl GroupProf {
    fn new(label: String) -> GroupProf {
        GroupProf {
            label,
            tasks: 0,
            sojourn: LogHist::new(),
            phases: (0..Phase::ALL.len()).map(|_| LogHist::new()).collect(),
        }
    }

    fn add(&mut self, d: &Decomposition) {
        self.tasks += 1;
        self.sojourn.record(d.sojourn_ps);
        for (h, &p) in self.phases.iter_mut().zip(&d.phases) {
            h.record(p);
        }
    }

    /// Total simulated time spent in `phase` across the group.
    pub fn phase_total_ps(&self, phase: Phase) -> u64 {
        self.phases[phase as usize].sum()
    }
}

/// A full critical-path profile: one [`GroupProf`] per group, fixed
/// order (`total`, tenants ascending, devices ascending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfReport {
    /// The aggregated groups.
    pub groups: Vec<GroupProf>,
}

impl ProfReport {
    /// Aggregates per-task profiles (any iteration order — grouping and
    /// output order are imposed here).
    pub fn aggregate<'a>(tasks: impl IntoIterator<Item = &'a TaskProf>) -> ProfReport {
        let mut total = GroupProf::new("total".into());
        let mut tenants: BTreeMap<u32, GroupProf> = BTreeMap::new();
        let mut devices: BTreeMap<u32, GroupProf> = BTreeMap::new();
        for t in tasks {
            let Some(d) = decompose(&t.cuts) else {
                continue;
            };
            total.add(&d);
            if let Some(k) = t.tenant {
                tenants
                    .entry(k)
                    .or_insert_with(|| GroupProf::new(format!("tenant/{k}")))
                    .add(&d);
            }
            if let Some(k) = t.device {
                devices
                    .entry(k)
                    .or_insert_with(|| GroupProf::new(format!("device/{k}")))
                    .add(&d);
            }
        }
        let mut groups = vec![total];
        groups.extend(tenants.into_values());
        groups.extend(devices.into_values());
        ProfReport { groups }
    }

    /// Rebuilds per-task cuts from a buffered event stream and
    /// aggregates — the post-hoc path benches use to attribute a run
    /// they already recorded, with no tee attached.
    pub fn from_buffer(buf: &ObsBuffer) -> ProfReport {
        let mut tasks = TaskTable::sized_for(buf);
        for ev in &buf.tasks {
            tasks.entry(ev.task).cuts.note_state(ev.state, ev.at_ps);
        }
        for m in &buf.marks {
            tasks.entry(m.task).cuts.note_mark(m.kind, m.at_ps);
        }
        for t in &buf.tenants {
            if let Some(p) = tasks.get_mut(t.task) {
                p.tenant.get_or_insert(t.tenant);
            }
        }
        for r in &buf.routes {
            if let Some(p) = tasks.get_mut(r.task) {
                p.device = Some(r.device);
            }
        }
        ProfReport::aggregate(tasks.dense.iter().chain(tasks.sparse.values()))
    }

    /// The `total` group (present even when no task completed).
    pub fn total(&self) -> &GroupProf {
        &self.groups[0]
    }

    /// Serializable headline summary for JSON reports.
    pub fn summary(&self) -> ProfSummary {
        ProfSummary {
            groups: self
                .groups
                .iter()
                .map(|g| GroupSummary {
                    label: g.label.clone(),
                    tasks: g.tasks,
                    sojourn: HistSummary::of(&g.sojourn),
                    phases: Phase::ALL
                        .iter()
                        .map(|&p| PhaseSummary {
                            phase: p.name(),
                            total_ps: g.phase_total_ps(p),
                            mean_ps: g.phases[p as usize].mean(),
                            p99_ps: g.phases[p as usize].quantile_ppm(990_000),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Per-task profiles keyed by task id, for [`ProfReport::from_buffer`].
///
/// Both in-tree backends number tasks consecutively, so a profile lives
/// at index `key` of `dense` and the per-event lookup is an index, not a
/// tree descent. `dense` is capped at one slot per event that can create
/// a profile, so a buffer with sparse or huge keys (they are the
/// caller's to choose) pays the map for those keys instead of an
/// allocation sized by the largest one.
///
/// A dense row is live iff some cut is set; a row no task or mark event
/// reached stays all-unseen, so `aggregate` skips it as incomplete like
/// any other task that never reached `freed`, whatever tags it holds.
struct TaskTable {
    dense: Vec<TaskProf>,
    /// Keys `≥ dense.len()`.
    sparse: BTreeMap<u64, TaskProf>,
}

impl TaskTable {
    fn sized_for(buf: &ObsBuffer) -> TaskTable {
        let keys = buf.tasks.iter().map(|e| e.task);
        let top = keys.chain(buf.marks.iter().map(|m| m.task)).max();
        let cap = (buf.tasks.len() + buf.marks.len()) as u64;
        let len = top.map_or(0, |k| k.saturating_add(1).min(cap));
        TaskTable {
            dense: vec![TaskProf::default(); len as usize],
            sparse: BTreeMap::new(),
        }
    }

    fn entry(&mut self, key: u64) -> &mut TaskProf {
        if key < self.dense.len() as u64 {
            &mut self.dense[key as usize]
        } else {
            self.sparse.entry(key).or_default()
        }
    }

    /// The row of `key` if a task or mark event may have reached it: any
    /// dense row, a sparse one only if it exists.
    fn get_mut(&mut self, key: u64) -> Option<&mut TaskProf> {
        if key < self.dense.len() as u64 {
            Some(&mut self.dense[key as usize])
        } else {
            self.sparse.get_mut(&key)
        }
    }
}

/// JSON-friendly view of a [`ProfReport`] (headline stats only; the
/// full bucket vectors stay in memory).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfSummary {
    /// Per-group summaries, report order.
    pub groups: Vec<GroupSummary>,
}

/// Headline stats for one group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupSummary {
    /// Group label (`total`, `tenant/<k>`, `device/<k>`).
    pub label: String,
    /// Completed tasks aggregated.
    pub tasks: u64,
    /// Sojourn distribution summary.
    pub sojourn: HistSummary,
    /// Per-phase totals and headline stats, [`Phase::ALL`] order.
    pub phases: Vec<PhaseSummary>,
}

/// Headline stats for one phase of one group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Phase name ([`Phase::name`]).
    pub phase: &'static str,
    /// Total simulated time in this phase across the group, ps.
    pub total_ps: u64,
    /// Mean per-task duration, ps.
    pub mean_ps: u64,
    /// p99 per-task duration (bucket lower bound), ps.
    pub p99_ps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagoda_obs::{MarkKind, Obs, TaskState};

    fn sample_tasks() -> Vec<TaskProf> {
        (0..10u64)
            .map(|i| {
                let mut t = TaskProf::default();
                let t0 = i * 1_000;
                t.cuts.note_mark(MarkKind::Arrived, t0);
                t.cuts.note_mark(MarkKind::Admitted, t0 + 20);
                t.cuts.note_state(TaskState::Spawned, t0 + 50);
                t.cuts.note_state(TaskState::Enqueued, t0 + 150);
                t.cuts.note_state(TaskState::Placed, t0 + 200);
                t.cuts.note_state(TaskState::Running, t0 + 250);
                t.cuts.note_state(TaskState::Freed, t0 + 650);
                t.cuts.note_mark(MarkKind::Observed, t0 + 700);
                t.tenant = Some((i % 2) as u32);
                t.device = Some((i % 3) as u32);
                t
            })
            .collect()
    }

    #[test]
    fn groups_are_total_then_tenants_then_devices() {
        let r = ProfReport::aggregate(&sample_tasks());
        let labels: Vec<&str> = r.groups.iter().map(|g| g.label.as_str()).collect();
        assert_eq!(
            labels,
            ["total", "tenant/0", "tenant/1", "device/0", "device/1", "device/2"]
        );
        assert_eq!(r.total().tasks, 10);
        assert_eq!(r.groups[1].tasks, 5);
    }

    #[test]
    fn phase_totals_partition_sojourn_total() {
        let r = ProfReport::aggregate(&sample_tasks());
        for g in &r.groups {
            let phase_sum: u64 = Phase::ALL.iter().map(|&p| g.phase_total_ps(p)).sum();
            assert_eq!(phase_sum, g.sojourn.sum(), "group {}", g.label);
        }
        assert_eq!(r.total().sojourn.sum(), 10 * 700);
    }

    #[test]
    fn from_buffer_matches_online_aggregation() {
        let (obs, rec) = Obs::recording();
        for i in 0..6u64 {
            let t0 = i * 500;
            obs.mark(t0, i, MarkKind::Arrived);
            obs.task(t0 + 10, i, TaskState::Spawned);
            obs.task(t0 + 60, i, TaskState::Enqueued);
            obs.task(t0 + 90, i, TaskState::Placed);
            obs.task(t0 + 100, i, TaskState::Running);
            obs.task(t0 + 400, i, TaskState::Freed);
            obs.mark(t0 + 450, i, MarkKind::Observed);
            obs.tenant(i, (i % 2) as u32);
            obs.route(i, 0);
            obs.route(i, 1); // resubmitted: charged to device 1
        }
        let r = ProfReport::from_buffer(&rec.snapshot());
        assert_eq!(r.total().tasks, 6);
        let dev: Vec<&str> = r
            .groups
            .iter()
            .map(|g| g.label.as_str())
            .filter(|l| l.starts_with("device/"))
            .collect();
        assert_eq!(dev, ["device/1"]);
    }

    #[test]
    fn trace_and_profile_agree_on_a_task_tagged_twice() {
        // The first tag wins in both read-outs, as a duplicate state's
        // first instant does.
        let (obs, rec) = Obs::recording();
        obs.tenant(0, 3);
        obs.task(10, 0, TaskState::Spawned);
        obs.task(100, 0, TaskState::Running);
        obs.task(400, 0, TaskState::Freed);
        obs.tenant(0, 5);
        let buf = rec.snapshot();
        let mut trace = Vec::new();
        pagoda_obs::write_chrome_trace(&buf, &mut trace).unwrap();
        let trace = String::from_utf8(trace).unwrap();
        let tids: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains(r#""ph":"X""#))
            .filter_map(|l| l.split(r#""tid":"#).nth(1)?.split(',').next())
            .collect();
        assert_eq!(tids, ["3", "3"]);
        let report = ProfReport::from_buffer(&buf);
        let labels: Vec<&str> = report.groups.iter().map(|g| g.label.as_str()).collect();
        assert_eq!(labels, ["total", "tenant/3"]);
    }

    #[test]
    fn sparse_and_huge_keys_aggregate_like_dense_ones() {
        // Same six timelines under consecutive keys and under keys far
        // past the event count (one of them u64::MAX): same report, and
        // no allocation sized by the key.
        let report = |key: &dyn Fn(u64) -> u64| {
            let (obs, rec) = Obs::recording();
            for i in 0..6u64 {
                let (k, t0) = (key(i), i * 500);
                obs.mark(t0, k, MarkKind::Arrived);
                obs.task(t0 + 10, k, TaskState::Spawned);
                obs.task(t0 + 100, k, TaskState::Running);
                obs.task(t0 + 400 + i, k, TaskState::Freed);
                obs.mark(t0 + 450, k, MarkKind::Observed);
                obs.tenant(k, (i % 2) as u32);
                obs.route(k, (i % 3) as u32);
            }
            obs.tenant(1 << 40, 9); // tag for a task that never appeared
            ProfReport::from_buffer(&rec.snapshot())
        };
        let dense = report(&|i| i);
        assert_eq!(dense.total().tasks, 6);
        assert_eq!(dense.groups.len(), 1 + 2 + 3);
        assert_eq!(report(&|i| u64::MAX - i * (1 << 50)), dense);
        assert_eq!(report(&|i| if i < 3 { i } else { 1_000 * i }), dense);
    }

    #[test]
    fn incomplete_tasks_are_skipped() {
        let mut t = TaskProf::default();
        t.cuts.note_state(TaskState::Spawned, 0);
        let r = ProfReport::aggregate(&[t]);
        assert_eq!(r.total().tasks, 0);
        assert_eq!(r.groups.len(), 1);
    }

    #[test]
    fn summary_serializes() {
        let r = ProfReport::aggregate(&sample_tasks());
        let json = serde_json::to_string(&r.summary()).unwrap();
        assert!(json.contains("\"label\":\"tenant/1\""));
        assert!(json.contains("\"phase\":\"execution\""));
    }
}
