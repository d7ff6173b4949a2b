//! Typed errors for the public runtime API.
//!
//! The hierarchy is hand-rolled in the `thiserror` idiom (the workspace
//! builds offline, so no derive crate): every leaf error implements
//! `Display` + `Error`, and [`PagodaError`] is the umbrella callers can
//! hold when they drive the whole API. Panics remain only for *internal
//! invariant* violations, and their messages name the invariant.

use crate::config::ConfigError;
use crate::table::TaskId;
use crate::task::{TaskDesc, TaskError};

/// Why [`submit`](crate::Backend::submit) declined to spawn.
#[derive(Debug)]
pub enum SubmitError {
    /// Every TaskTable entry is occupied in the CPU's current view. The
    /// description is handed back so the caller can requeue it without a
    /// clone; a [`sync`](crate::Backend::sync) may
    /// reveal freed entries.
    Full(TaskDesc),
    /// The description can never spawn (shape/resource validation).
    Invalid(TaskError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(_) => write!(f, "task table full in the CPU view"),
            SubmitError::Invalid(e) => write!(f, "invalid task: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Full(_) => None,
            SubmitError::Invalid(e) => Some(e),
        }
    }
}

impl From<TaskError> for SubmitError {
    fn from(e: TaskError) -> Self {
        SubmitError::Invalid(e)
    }
}

/// CPU-side view of TaskTable headroom, returned by
/// [`capacity`](crate::Backend::capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capacity {
    /// Entries free in the CPU's current view — this many consecutive
    /// [`submit`](crate::Backend::submit) calls are guaranteed to
    /// succeed before the next table refresh. The GPU may have freed more
    /// (the CPU only learns via copy-backs; §4.2.2's lazy updates).
    pub known_free: u32,
    /// Total TaskTable entries (columns × rows).
    pub total: u32,
}

impl Capacity {
    /// Whether at least one submit is guaranteed to succeed.
    pub fn has_room(&self) -> bool {
        self.known_free > 0
    }
}

/// Umbrella error for the runtime's fallible public API.
#[derive(Debug)]
pub enum PagodaError {
    /// A [`TaskId`] that this runtime never issued.
    UnknownTask {
        /// The offending id.
        task: TaskId,
        /// How many tasks this runtime has spawned (valid ids cover them).
        spawned: u64,
    },
    /// A spawn was declined.
    Submit(SubmitError),
    /// A configuration failed validation.
    Config(ConfigError),
    /// The task's device died and the retry policy gave up (cluster
    /// layer: `RetryPolicy::Fail`, or `Resubmit` past `max_attempts`).
    TaskLost {
        /// The lost task's id.
        task: TaskId,
        /// Spawn attempts made before giving up (≥ 1).
        attempts: u32,
    },
}

impl std::fmt::Display for PagodaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagodaError::UnknownTask { task, spawned } => write!(
                f,
                "unknown task id {task:?}: this runtime has spawned {spawned} task(s)"
            ),
            PagodaError::Submit(e) => write!(f, "submit failed: {e}"),
            PagodaError::Config(e) => write!(f, "invalid configuration: {e}"),
            PagodaError::TaskLost { task, attempts } => write!(
                f,
                "task {task:?} lost to a device failure after {attempts} attempt(s)"
            ),
        }
    }
}

impl std::error::Error for PagodaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PagodaError::UnknownTask { .. } => None,
            PagodaError::Submit(e) => Some(e),
            PagodaError::Config(e) => Some(e),
            PagodaError::TaskLost { .. } => None,
        }
    }
}

impl From<SubmitError> for PagodaError {
    fn from(e: SubmitError) -> Self {
        PagodaError::Submit(e)
    }
}

impl From<ConfigError> for PagodaError {
    fn from(e: ConfigError) -> Self {
        PagodaError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpWork;
    use std::error::Error as _;

    #[test]
    fn submit_error_full_returns_the_desc() {
        let desc = TaskDesc::uniform(64, WarpWork::compute(1_000, 1.0));
        let e = SubmitError::Full(desc);
        assert!(e.to_string().contains("full"));
        assert!(e.source().is_none());
        match e {
            SubmitError::Full(d) => assert_eq!(d.threads_per_tb, 64),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn submit_error_invalid_chains_source() {
        let e = SubmitError::from(TaskError::EmptyTask);
        assert!(e.to_string().contains("invalid task"));
        assert!(e.source().is_some());
    }

    #[test]
    fn pagoda_error_display_and_sources() {
        let u = PagodaError::UnknownTask {
            task: TaskId::FIRST,
            spawned: 3,
        };
        assert!(u.to_string().contains("unknown task"));
        assert!(u.source().is_none());

        let s = PagodaError::from(SubmitError::Invalid(TaskError::EmptyTask));
        assert!(s.to_string().contains("submit failed"));
        assert!(s.source().is_some());
    }

    #[test]
    fn capacity_has_room() {
        assert!(Capacity {
            known_free: 1,
            total: 1536
        }
        .has_room());
        assert!(!Capacity {
            known_free: 0,
            total: 1536
        }
        .has_room());
    }
}
