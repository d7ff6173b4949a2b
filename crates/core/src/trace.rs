//! Per-task timeline traces: where each task spent its life.
//!
//! The runtime records the instants every task crosses the pipeline's
//! stage boundaries (the stages of paper §4.3's overlapped processing):
//!
//! ```text
//! spawned ──► entry_visible ──► schedulable ──► first_exec ──► gpu_done ──► output_done
//!   host        H2D copy          chain/flush      pSched         last        D2H copy
//!   call        lands             marks (1,1)      dispatch       warp        lands
//! ```
//!
//! [`TaskTrace::phases`] turns a trace into named spans. For a timeline
//! file — task spans, per-SMM resource tracks, counters — attach a
//! recorder via [`crate::PagodaRuntime::attach_obs`] and use
//! `pagoda_obs::write_chrome_trace` on its buffer.

use desim::SimTime;

use crate::table::TaskId;

/// The recorded stage-crossing instants of one task. `None` means the
/// task had not reached that stage when the trace was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTrace {
    /// The task.
    pub task: TaskId,
    /// TaskTable column (= MTB) it ran on.
    pub column: u32,
    /// Host `taskSpawn` call.
    pub spawned: SimTime,
    /// Entry's H2D copy visible in device memory.
    pub entry_visible: Option<SimTime>,
    /// Marked `(Scheduling, sched)` by the ready chain or the flush.
    pub schedulable: Option<SimTime>,
    /// First executor warp dispatched.
    pub first_exec: Option<SimTime>,
    /// Last executor warp finished.
    pub gpu_done: Option<SimTime>,
    /// Output copy landed in host memory.
    pub output_done: Option<SimTime>,
}

impl TaskTrace {
    /// The trace as named, consecutive phases with durations (only the
    /// phases the task completed).
    pub fn phases(&self) -> Vec<(&'static str, SimTime, SimTime)> {
        let mut out = Vec::new();
        let mut prev = self.spawned;
        for (name, t) in [
            ("spawn→visible", self.entry_visible),
            ("visible→schedulable", self.schedulable),
            ("schedulable→exec", self.first_exec),
            ("exec→done", self.gpu_done),
            ("done→output", self.output_done),
        ] {
            if let Some(t) = t {
                out.push((name, prev, t.max(prev)));
                prev = t.max(prev);
            } else {
                break;
            }
        }
        out
    }

    /// End-to-end latency if the task completed on the GPU.
    pub fn latency(&self) -> Option<desim::Dur> {
        self.gpu_done.map(|d| d - self.spawned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TaskTrace {
        TaskTrace {
            task: TaskId(2),
            column: 3,
            spawned: SimTime::from_us(1),
            entry_visible: Some(SimTime::from_us(3)),
            schedulable: Some(SimTime::from_us(4)),
            first_exec: Some(SimTime::from_us(5)),
            gpu_done: Some(SimTime::from_us(9)),
            output_done: Some(SimTime::from_us(11)),
        }
    }

    #[test]
    fn phases_are_consecutive_and_named() {
        let p = sample().phases();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0].0, "spawn→visible");
        for w in p.windows(2) {
            assert_eq!(w[0].2, w[1].1, "phases must chain");
        }
        assert_eq!(p[4].2, SimTime::from_us(11));
    }

    #[test]
    fn incomplete_trace_truncates() {
        let mut t = sample();
        t.first_exec = None;
        t.gpu_done = None;
        t.output_done = None;
        assert_eq!(t.phases().len(), 2);
        assert!(t.latency().is_none());
    }
}
