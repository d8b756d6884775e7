//! Typed configuration-validation errors.
//!
//! Every way an [`ElectionConfig`](crate::ElectionConfig) can be
//! nonsensical is caught when parameters are derived — at
//! [`Election`](crate::Election) builder time or in
//! [`Params::try_derive`](crate::Params::try_derive) — and reported as a
//! [`ConfigError`] instead of a panic or garbage parameters.

use std::error::Error;
use std::fmt;

/// A validation failure in an election configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// One of the tuning constants (`c1`, `c2`, `c_t`) is NaN, infinite,
    /// or not strictly positive. Tail-event injection (a contender
    /// probability of effectively zero) uses a tiny positive `c1`, not
    /// `c1 = 0`.
    BadConstant {
        /// The field name (`"c1"`, `"c2"`, or `"c_t"`).
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `max_walk_len == Some(0)`: a zero-step walk can never leave its
    /// origin, so the guess-and-double search would give up immediately
    /// while looking like a real run.
    ZeroWalkCap,
    /// `fixed_walk_len == Some(0)`: the Kutten et al. baseline needs at
    /// least a 1-step walk.
    ZeroFixedWalk,
    /// The network has fewer than two nodes; an election needs company.
    TooFewNodes {
        /// The offending network size.
        n: usize,
    },
    /// [`Exec::Threaded`](crate::Exec::Threaded) was given zero worker
    /// threads.
    ZeroThreads,
    /// [`Campaign::trial_threads`](crate::Campaign::trial_threads) was
    /// given zero trial worker threads.
    ZeroTrialThreads,
    /// A [`Campaign`](crate::Campaign) was asked to run with no seeds.
    NoSeeds,
    /// A [`FaultPlan`](crate::FaultPlan) does not fit the graph it was
    /// attached to (bad probabilities, crash targets out of range, cuts
    /// naming missing edges).
    Fault(welle_congest::FaultError),
    /// An [`Exec::Async`](crate::Exec::Async) latency model has
    /// nonsensical parameters (negative or non-finite latency, an
    /// inverted uniform range, a service rate outside `(0, 1]`).
    Latency(welle_congest::LatencyError),
    /// A campaign's streaming results sink
    /// ([`Campaign::stream_csv`](crate::Campaign::stream_csv)) could not
    /// be created, written, or flushed.
    SinkIo {
        /// The sink path.
        path: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// A resume manifest ([`Campaign::resume`](crate::Campaign::resume))
    /// does not belong to the campaign being resumed: the header or a
    /// completed row disagrees with the expected (scenario, seed) order.
    ResumeMismatch {
        /// The manifest path.
        path: String,
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadConstant { name, value } => write!(
                f,
                "election constant {name} must be finite and positive, got {value}"
            ),
            ConfigError::ZeroWalkCap => {
                write!(f, "max_walk_len = Some(0): walks need at least one step")
            }
            ConfigError::ZeroFixedWalk => {
                write!(f, "fixed_walk_len = Some(0): walks need at least one step")
            }
            ConfigError::TooFewNodes { n } => {
                write!(f, "election needs at least two nodes, got n = {n}")
            }
            ConfigError::ZeroThreads => {
                write!(f, "Exec::Threaded needs at least one worker thread")
            }
            ConfigError::ZeroTrialThreads => {
                write!(
                    f,
                    "Campaign::trial_threads needs at least one trial worker thread"
                )
            }
            ConfigError::NoSeeds => write!(f, "campaign has no seeds to run"),
            ConfigError::Fault(e) => write!(f, "fault plan rejected: {e}"),
            ConfigError::Latency(e) => write!(f, "latency model rejected: {e}"),
            ConfigError::SinkIo { path, detail } => {
                write!(f, "campaign sink {path}: {detail}")
            }
            ConfigError::ResumeMismatch { path, detail } => {
                write!(
                    f,
                    "resume manifest {path} does not match this campaign: {detail}"
                )
            }
        }
    }
}

impl From<welle_congest::FaultError> for ConfigError {
    fn from(e: welle_congest::FaultError) -> Self {
        ConfigError::Fault(e)
    }
}

impl From<welle_congest::LatencyError> for ConfigError {
    fn from(e: welle_congest::LatencyError) -> Self {
        ConfigError::Latency(e)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = ConfigError::BadConstant {
            name: "c2",
            value: f64::NAN,
        };
        assert!(e.to_string().contains("c2"));
        assert!(ConfigError::TooFewNodes { n: 1 }
            .to_string()
            .contains("at least two nodes"));
    }
}
