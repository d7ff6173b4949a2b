//! Typed errors for the serving layer's public entry points.

use pagoda_core::{ConfigError, TaskError};

/// Why a serving entry point refused to run.
#[derive(Debug)]
pub enum ServeError {
    /// The experiment has no tenants.
    NoTenants,
    /// A tenant's spec cannot be served (see [`crate::ServeConfig::validate`]).
    BadTenant {
        /// Index of the offending tenant.
        tenant: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// `serving_slice` was asked for a zero-SMM partition.
    EmptySlice,
    /// The embedded runtime configuration failed validation.
    InvalidRuntime(ConfigError),
    /// A tenant's workload generator produced a task description the
    /// runtime can never spawn.
    UnspawnableTask {
        /// Index of the offending tenant.
        tenant: usize,
        /// The runtime's validation error.
        source: TaskError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoTenants => write!(f, "serve needs at least one tenant"),
            ServeError::BadTenant { tenant, reason } => {
                write!(f, "tenant {tenant} invalid: {reason}")
            }
            ServeError::EmptySlice => write!(f, "a serving slice needs at least one SMM"),
            ServeError::InvalidRuntime(e) => write!(f, "invalid runtime configuration: {e}"),
            ServeError::UnspawnableTask { tenant, source } => {
                write!(f, "tenant {tenant} produced an unspawnable task: {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::NoTenants | ServeError::BadTenant { .. } | ServeError::EmptySlice => None,
            ServeError::InvalidRuntime(e) => Some(e),
            ServeError::UnspawnableTask { source, .. } => Some(source),
        }
    }
}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::InvalidRuntime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_and_sources() {
        assert!(ServeError::NoTenants.to_string().contains("tenant"));
        assert!(ServeError::NoTenants.source().is_none());
        assert!(ServeError::EmptySlice.to_string().contains("SMM"));
        let bad = ServeError::BadTenant {
            tenant: 5,
            reason: "why",
        };
        assert!(bad.to_string().contains("tenant 5"));
        assert!(bad.source().is_none());

        let e = ServeError::from(ConfigError::ZeroRows);
        assert!(e.to_string().contains("invalid runtime"));
        assert!(e.source().is_some());

        let u = ServeError::UnspawnableTask {
            tenant: 3,
            source: TaskError::EmptyTask,
        };
        assert!(u.to_string().contains("tenant 3"));
        assert!(u.source().is_some());
    }
}
