//! Common vocabulary types for the HARD reproduction.
//!
//! Every crate in this workspace speaks in terms of the newtypes defined
//! here: byte [`Addr`]esses, [`LockId`]s (lock *addresses* in the paper's
//! model), simulated [`ThreadId`]s pinned to [`CoreId`]s, static source
//! [`SiteId`]s used for false-alarm deduplication, and simulated
//! [`Cycles`].
//!
//! The crate also provides [`rng::Xoshiro256`], a small deterministic
//! PRNG. The simulator is a reproducible discrete-event model: a given
//! `(workload, seed)` pair must produce bit-identical traces across
//! builds and dependency upgrades, so we own the generator instead of
//! depending on `rand`'s version-to-version stream stability.
//!
//! # Examples
//!
//! ```
//! use hard_types::{Addr, Granularity};
//!
//! let g = Granularity::new(32);
//! assert_eq!(g.granule_of(Addr(0x1234)), Addr(0x1220));
//! assert_eq!(g.offset_of(Addr(0x1234)), 0x14);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod hashers;
pub mod ids;
pub mod rng;

pub use error::HardError;
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use hashers::{
    reserve_early, FastHashMap, FastHashSet, FastHasher, PlacementHashMap, PlacementHasher,
};
pub use ids::{AccessKind, Addr, BarrierId, CoreId, Cycles, Granularity, LockId, SiteId, ThreadId};
pub use rng::Xoshiro256;
