//! The shared error type for the workspace's fallible library paths.
//!
//! Before the fault-injection work, internal invariant violations in
//! the memory hierarchy and workload generators were `panic!`s. A
//! simulator whose job includes *injecting* corruption cannot treat
//! every broken invariant as fatal, so those paths now surface
//! [`HardError`] values and the machines degrade conservatively
//! instead of unwinding.

use crate::ids::{Addr, CoreId, LockId, ThreadId};
use std::fmt;

/// Unified error for the HARD simulator crates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HardError {
    /// A structural configuration parameter is invalid (zero cores,
    /// incompatible line sizes, non-power-of-two geometry, ...).
    InvalidConfig {
        /// Human-readable description of the offending parameter.
        what: String,
    },
    /// A coherence invariant did not hold (e.g. a broadcast sourced
    /// from a core without a copy, or an owner without the line).
    CoherenceViolation {
        /// The core the violation was observed on.
        core: CoreId,
        /// The line-aligned address involved.
        line: Addr,
        /// What went wrong.
        what: &'static str,
    },
    /// A thread released a lock it does not hold.
    UnlockOfUnheld {
        /// The releasing thread.
        thread: ThreadId,
        /// The lock being released.
        lock: LockId,
    },
    /// A thread program ended while still holding locks.
    UnbalancedLocks {
        /// The offending thread.
        thread: ThreadId,
        /// How many acquisitions were never released.
        depth: usize,
    },
    /// A race-injection request found no critical section that could
    /// manifest as a detectable race under the requested scheduling.
    NoEligibleInjection {
        /// Why nothing was eligible.
        what: &'static str,
    },
}

impl fmt::Display for HardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            HardError::CoherenceViolation { core, line, what } => {
                write!(f, "coherence violation on {core} at {line}: {what}")
            }
            HardError::UnlockOfUnheld { thread, lock } => {
                write!(f, "{thread} released {lock} without holding it")
            }
            HardError::UnbalancedLocks { thread, depth } => {
                write!(
                    f,
                    "{thread} ended its program still holding {depth} lock(s)"
                )
            }
            HardError::NoEligibleInjection { what } => {
                write!(f, "no eligible injection target: {what}")
            }
        }
    }
}

impl std::error::Error for HardError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = HardError::CoherenceViolation {
            core: CoreId(1),
            line: Addr(0x40),
            what: "an invalid line was stored in an L1",
        };
        assert!(format!("{e}").contains("0x40"), "{e}");
        let e = HardError::UnlockOfUnheld {
            thread: ThreadId(2),
            lock: LockId(0x100),
        };
        assert!(format!("{e}").contains("without holding"), "{e}");
    }

    #[test]
    fn is_a_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&HardError::InvalidConfig {
            what: "zero cores".into(),
        });
    }
}
