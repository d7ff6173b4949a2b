//! Pluggable QoS schedulers over the admitted-task queue.
//!
//! The server keeps every admitted-but-not-yet-spawned task in one of
//! these structures; whenever the runtime's TaskTable has capacity, it
//! pops the next task to spawn. Three policies, all deterministic:
//!
//! * [`Fifo`] — global arrival order, tenant-blind;
//! * [`WeightedFair`] — weighted round-robin across per-tenant queues
//!   with credit refill: a backlogged tenant with weight `w` receives
//!   exactly `w` of every full credit cycle (never starves);
//! * [`Edf`] — earliest absolute deadline first; deadline-free tasks
//!   sort last, ties break on arrival sequence.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use desim::SimTime;
use pagoda_core::TaskDesc;

/// An admitted task waiting to be spawned into the runtime.
#[derive(Debug, Clone)]
pub struct QueuedTask {
    /// Index into the experiment's tenant list.
    pub tenant: usize,
    /// Global arrival sequence number (total order over all tenants).
    pub seq: u64,
    /// Arrival instant (sojourn time is measured from here).
    pub arrival: SimTime,
    /// Instant admission control accepted the task (the `admission`
    /// phase of the prof decomposition ends here).
    pub admitted: SimTime,
    /// Absolute completion deadline, if the tenant declared one.
    pub deadline: Option<SimTime>,
    /// The work itself.
    pub desc: TaskDesc,
}

/// A passive observer of scheduler traffic, for invariant checkers.
///
/// The serving loop calls these hooks around every [`QosScheduler`]
/// interaction; an auditor mirrors the queue discipline and validates
/// its ordering contract (FIFO arrival order, EDF deadline order)
/// without touching the scheduler itself. Hooks take `&self` — the
/// caller keeps its own `Rc` to read the verdict afterwards, so the
/// auditor brings its own interior mutability. All methods default to
/// no-ops.
pub trait QosAudit: std::fmt::Debug {
    /// A task was admitted and is entering the queue.
    fn on_push(&self, _t: &QueuedTask) {}
    /// The scheduler chose this task to spawn next.
    fn on_pop(&self, _t: &QueuedTask) {}
    /// A popped task is going *back* into the queue (dispatch raced
    /// capacity away); for order-based disciplines it re-enters as if
    /// newly arrived, so auditors must not flag its later re-pop.
    fn on_requeue(&self, _t: &QueuedTask) {}
}

/// A queue discipline deciding which admitted task spawns next.
pub trait QosScheduler {
    /// Display name of the policy.
    fn name(&self) -> &'static str;
    /// Accepts an admitted task.
    fn push(&mut self, t: QueuedTask);
    /// Removes and returns the next task to spawn.
    fn pop(&mut self) -> Option<QueuedTask>;
    /// Tasks currently queued.
    fn len(&self) -> usize;
    /// Whether no tasks are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Global first-in-first-out, ignoring tenants and deadlines.
#[derive(Debug, Default)]
pub struct Fifo {
    q: VecDeque<QueuedTask>,
}

impl Fifo {
    /// An empty FIFO queue.
    pub fn new() -> Self {
        Fifo::default()
    }
}

impl QosScheduler for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn push(&mut self, t: QueuedTask) {
        self.q.push_back(t);
    }
    fn pop(&mut self) -> Option<QueuedTask> {
        self.q.pop_front()
    }
    fn len(&self) -> usize {
        self.q.len()
    }
}

/// Weighted round-robin with credit refill (unit-cost deficit round
/// robin): per-tenant FIFO queues; each credit cycle grants tenant `i`
/// up to `weights[i]` pops; credits refill when no backlogged tenant has
/// any left. A continuously backlogged tenant therefore receives exactly
/// its weight share of every cycle — starvation-free by construction.
#[derive(Debug)]
pub struct WeightedFair {
    queues: Vec<VecDeque<QueuedTask>>,
    weights: Vec<u32>,
    credits: Vec<u32>,
    cursor: usize,
    len: usize,
}

impl WeightedFair {
    /// A scheduler for `weights.len()` tenants; every weight must be ≥ 1.
    ///
    /// # Panics
    /// Panics on an empty weight list or a zero weight.
    pub fn new(weights: &[u32]) -> Self {
        assert!(
            !weights.is_empty(),
            "WeightedFair needs at least one tenant"
        );
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        WeightedFair {
            queues: weights.iter().map(|_| VecDeque::new()).collect(),
            credits: weights.to_vec(),
            weights: weights.to_vec(),
            cursor: 0,
            len: 0,
        }
    }
}

impl QosScheduler for WeightedFair {
    fn name(&self) -> &'static str {
        "wfq"
    }

    fn push(&mut self, t: QueuedTask) {
        self.len += 1;
        self.queues[t.tenant].push_back(t);
    }

    fn pop(&mut self) -> Option<QueuedTask> {
        if self.len == 0 {
            return None;
        }
        let n = self.queues.len();
        loop {
            for k in 0..n {
                let i = (self.cursor + k) % n;
                if self.credits[i] > 0 && !self.queues[i].is_empty() {
                    self.credits[i] -= 1;
                    // Serve the tenant's whole quantum back-to-back, then
                    // move on (DRR batching).
                    self.cursor = if self.credits[i] == 0 { (i + 1) % n } else { i };
                    self.len -= 1;
                    return self.queues[i].pop_front();
                }
            }
            // Every backlogged tenant exhausted its credits: new cycle.
            self.credits.copy_from_slice(&self.weights);
            self.cursor = 0;
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Heap entry ordered by (deadline, seq); `None` deadlines sort last.
#[derive(Debug)]
struct EdfItem {
    key_ps: u64,
    seq: u64,
    task: QueuedTask,
}

impl PartialEq for EdfItem {
    fn eq(&self, other: &Self) -> bool {
        self.key_ps == other.key_ps && self.seq == other.seq
    }
}
impl Eq for EdfItem {}
impl PartialOrd for EdfItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EdfItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min deadline.
        (other.key_ps, other.seq).cmp(&(self.key_ps, self.seq))
    }
}

/// Earliest-deadline-first across all tenants.
#[derive(Debug, Default)]
pub struct Edf {
    heap: BinaryHeap<EdfItem>,
}

impl Edf {
    /// An empty EDF queue.
    pub fn new() -> Self {
        Edf::default()
    }
}

impl QosScheduler for Edf {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn push(&mut self, t: QueuedTask) {
        self.heap.push(EdfItem {
            key_ps: t.deadline.map_or(u64::MAX, SimTime::as_ps),
            seq: t.seq,
            task: t,
        });
    }

    fn pop(&mut self) -> Option<QueuedTask> {
        self.heap.pop().map(|i| i.task)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;

    fn qt(tenant: usize, seq: u64, deadline_us: Option<u64>) -> QueuedTask {
        QueuedTask {
            tenant,
            seq,
            arrival: SimTime::from_us(seq),
            admitted: SimTime::from_us(seq),
            deadline: deadline_us.map(SimTime::from_us),
            desc: TaskDesc::uniform(32, WarpWork::compute(100, 1.0)),
        }
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut f = Fifo::new();
        for s in 0..10 {
            f.push(qt(s as usize % 2, s, None));
        }
        let order: Vec<u64> = std::iter::from_fn(|| f.pop()).map(|t| t.seq).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn wfq_shares_one_cycle_by_weight() {
        let mut w = WeightedFair::new(&[3, 1]);
        for s in 0..16 {
            w.push(qt((s % 2) as usize, s, None));
        }
        // One full credit cycle = 4 pops: 3 of tenant 0, 1 of tenant 1.
        let cycle: Vec<usize> = (0..4).map(|_| w.pop().unwrap().tenant).collect();
        assert_eq!(cycle.iter().filter(|&&t| t == 0).count(), 3);
        assert_eq!(cycle.iter().filter(|&&t| t == 1).count(), 1);
    }

    #[test]
    fn wfq_skips_idle_tenants_without_stalling() {
        let mut w = WeightedFair::new(&[2, 5]);
        for s in 0..4 {
            w.push(qt(0, s, None));
        }
        // Tenant 1 has nothing queued; tenant 0 must drain immediately.
        let got: Vec<u64> = std::iter::from_fn(|| w.pop()).map(|t| t.seq).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edf_orders_by_deadline_then_seq() {
        let mut e = Edf::new();
        e.push(qt(0, 0, Some(300)));
        e.push(qt(1, 1, Some(100)));
        e.push(qt(0, 2, None));
        e.push(qt(1, 3, Some(100)));
        let order: Vec<u64> = std::iter::from_fn(|| e.pop()).map(|t| t.seq).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }
}
