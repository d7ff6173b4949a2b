//! Ordering-contract auditors for the serve-layer QoS schedulers.
//!
//! [`QosCheck`] implements [`pagoda_serve::QosAudit`] by mirroring the
//! queue discipline with an independent model and comparing every pop
//! against what the contract demands:
//!
//! * **fifo** — pops must follow global arrival order (a requeued task
//!   re-enters at the back, exactly like the real queue);
//! * **edf** — every pop must carry the minimum `(deadline, seq)` key
//!   currently queued, with missing deadlines sorting last;
//! * **wfq** — weighted sharing leaves the global order policy-defined,
//!   but *within* a tenant the queue is FIFO: each pop must be the
//!   oldest queued task of its tenant.
//!
//! The mirror never touches the scheduler under test; it only listens
//! to the [`QosAudit`] hooks the serving loop already emits.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};

use pagoda_serve::{QosAudit, QueuedTask};

use crate::invariants::{Violation, MAX_VIOLATIONS};

/// Independent model of one queue discipline.
#[derive(Debug)]
enum Model {
    /// Global arrival order: queued seqs, oldest first.
    Fifo(VecDeque<u64>),
    /// Ordered `(deadline_ps-or-MAX, seq)` keys.
    Edf(BTreeSet<(u64, u64)>),
    /// Per-tenant arrival order: tenant → queued seqs, oldest first.
    Wfq(HashMap<usize, VecDeque<u64>>),
}

#[derive(Debug)]
struct QosState {
    model: Model,
    violations: Vec<Violation>,
    dropped: u64,
}

/// A [`QosAudit`] that validates scheduler pops against a mirror model.
#[derive(Debug)]
pub struct QosCheck {
    policy: &'static str,
    state: RefCell<QosState>,
}

impl QosCheck {
    fn new(policy: &'static str, model: Model) -> Self {
        QosCheck {
            policy,
            state: RefCell::new(QosState {
                model,
                violations: Vec::new(),
                dropped: 0,
            }),
        }
    }

    /// Auditor for [`pagoda_serve::Fifo`].
    pub fn fifo() -> Self {
        QosCheck::new("fifo", Model::Fifo(VecDeque::new()))
    }

    /// Auditor for [`pagoda_serve::Edf`].
    pub fn edf() -> Self {
        QosCheck::new("edf", Model::Edf(BTreeSet::new()))
    }

    /// Auditor for [`pagoda_serve::WeightedFair`] (per-tenant FIFO
    /// contract; the cross-tenant interleaving is policy-defined).
    pub fn weighted_fair() -> Self {
        QosCheck::new("wfq", Model::Wfq(HashMap::new()))
    }

    /// Ordering violations observed so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.state.borrow().violations.clone()
    }

    /// Whether every pop so far honoured the contract.
    pub fn is_clean(&self) -> bool {
        let s = self.state.borrow();
        s.violations.is_empty() && s.dropped == 0
    }

    fn admit(&self, t: &QueuedTask) {
        let mut s = self.state.borrow_mut();
        match &mut s.model {
            Model::Fifo(q) => q.push_back(t.seq),
            Model::Edf(set) => {
                set.insert((edf_key(t), t.seq));
            }
            Model::Wfq(map) => map.entry(t.tenant).or_default().push_back(t.seq),
        }
    }
}

fn edf_key(t: &QueuedTask) -> u64 {
    t.deadline.map_or(u64::MAX, desim::SimTime::as_ps)
}

impl QosAudit for QosCheck {
    fn on_push(&self, t: &QueuedTask) {
        self.admit(t);
    }

    /// A requeued task re-enters the discipline as if newly arrived
    /// (the real queues treat it exactly that way).
    fn on_requeue(&self, t: &QueuedTask) {
        self.admit(t);
    }

    fn on_pop(&self, t: &QueuedTask) {
        let mut s = self.state.borrow_mut();
        let expected = match &mut s.model {
            Model::Fifo(q) => {
                let expected = q.front().copied();
                // Remove the popped seq wherever it sits so one bad pop
                // yields one violation, not a cascade.
                if let Some(pos) = q.iter().position(|&seq| seq == t.seq) {
                    q.remove(pos);
                }
                expected
            }
            Model::Edf(set) => {
                let expected = set.iter().next().map(|&(_, seq)| seq);
                set.remove(&(edf_key(t), t.seq));
                expected
            }
            Model::Wfq(map) => {
                let q = map.entry(t.tenant).or_default();
                let expected = q.front().copied();
                if let Some(pos) = q.iter().position(|&seq| seq == t.seq) {
                    q.remove(pos);
                }
                expected
            }
        };
        // A pop the mirror never saw pushed (expected = None) is also a
        // contract breach; report it against the popped seq itself.
        let expected = expected.unwrap_or(t.seq.wrapping_add(1));
        if expected != t.seq {
            if s.violations.len() < MAX_VIOLATIONS {
                let policy = self.policy;
                s.violations.push(Violation::QosOrder {
                    policy,
                    expected,
                    got: t.seq,
                });
            } else {
                s.dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use gpu_sim::WarpWork;
    use pagoda_core::TaskDesc;
    use pagoda_serve::{Edf, Fifo, QosScheduler, WeightedFair};

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

    /// Drive a real scheduler through the audit hooks, as the serving
    /// loop would.
    fn drive<S: QosScheduler>(sched: &mut S, audit: &QosCheck, tasks: Vec<QueuedTask>) {
        for t in tasks {
            audit.on_push(&t);
            sched.push(t);
        }
        while let Some(t) = sched.pop() {
            audit.on_pop(&t);
        }
    }

    #[test]
    fn real_fifo_is_clean() {
        let audit = QosCheck::fifo();
        drive(
            &mut Fifo::new(),
            &audit,
            (0..16).map(|s| qt(s as usize % 3, s, None)).collect(),
        );
        assert!(audit.is_clean(), "{:?}", audit.violations());
    }

    #[test]
    fn real_edf_is_clean() {
        let audit = QosCheck::edf();
        let tasks = vec![
            qt(0, 0, Some(300)),
            qt(1, 1, Some(100)),
            qt(0, 2, None),
            qt(1, 3, Some(100)),
        ];
        drive(&mut Edf::new(), &audit, tasks);
        assert!(audit.is_clean(), "{:?}", audit.violations());
    }

    #[test]
    fn real_wfq_is_clean() {
        let audit = QosCheck::weighted_fair();
        drive(
            &mut WeightedFair::new(&[3, 1]),
            &audit,
            (0..16).map(|s| qt((s % 2) as usize, s, None)).collect(),
        );
        assert!(audit.is_clean(), "{:?}", audit.violations());
    }

    #[test]
    fn lifo_pops_break_the_fifo_contract() {
        let audit = QosCheck::fifo();
        let a = qt(0, 0, None);
        let b = qt(0, 1, None);
        audit.on_push(&a);
        audit.on_push(&b);
        audit.on_pop(&b); // newest first: wrong
        audit.on_pop(&a); // mirror already removed b, so this is "clean"
        let v = audit.violations();
        assert_eq!(v.len(), 1);
        match v[0] {
            Violation::QosOrder { expected, got, .. } => {
                assert_eq!((expected, got), (0, 1));
            }
            ref other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn edf_flags_a_deadline_inversion() {
        let audit = QosCheck::edf();
        let urgent = qt(0, 0, Some(100));
        let lax = qt(0, 1, Some(900));
        audit.on_push(&urgent);
        audit.on_push(&lax);
        audit.on_pop(&lax);
        assert!(!audit.is_clean());
    }

    #[test]
    fn wfq_interleaving_is_free_but_tenant_order_is_not() {
        let audit = QosCheck::weighted_fair();
        let t0a = qt(0, 0, None);
        let t1a = qt(1, 1, None);
        let t0b = qt(0, 2, None);
        for t in [&t0a, &t1a, &t0b] {
            audit.on_push(t);
        }
        // Cross-tenant order is the policy's business...
        audit.on_pop(&t1a);
        // ...but within tenant 0, seq 2 before seq 0 is a breach.
        audit.on_pop(&t0b);
        assert_eq!(audit.violations().len(), 1);
    }

    #[test]
    fn requeue_reenters_as_newly_arrived() {
        let audit = QosCheck::fifo();
        let a = qt(0, 0, None);
        let b = qt(0, 1, None);
        audit.on_push(&a);
        audit.on_push(&b);
        audit.on_pop(&a);
        audit.on_requeue(&a); // dispatch raced capacity away
        audit.on_pop(&b); // b is now ahead of the requeued a
        audit.on_pop(&a);
        assert!(audit.is_clean(), "{:?}", audit.violations());
    }
}
