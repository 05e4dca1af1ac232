//! Simulated CMP memory hierarchy with metadata piggybacking.
//!
//! This crate is the substrate the HARD machine runs on: per-core L1
//! caches and a shared, inclusive L2 connected by a snoopy MESI bus,
//! modelled after the SESC configuration of Table 1. Each cache line
//! carries a caller-defined metadata value (HARD's BFVector + LState,
//! or happens-before timestamps) that
//!
//! * is initialized by a [`policy::MetaFactory`] when a line is fetched
//!   from memory,
//! * travels with the line on every coherence transfer,
//! * can be broadcast to all sharers and the L2 when it changes on a
//!   shared line (paper §3.4, [`hierarchy::Hierarchy::broadcast_meta`]),
//! * is written back to the L2 on L1 eviction, and
//! * is **lost** when the line is displaced from the L2
//!   (paper §3.6 "Cache Displacement") — the source of HARD's missed
//!   races in the default configuration.
//!
//! [`stats::MemStats`] counts hits, misses, evictions and bus
//! transactions; [`timing::BusTimeline`] and the per-access cost model
//! turn those into the cycle counts behind the Figure 8 overhead
//! experiment.

pub mod cache;
pub mod cstate;
pub mod directory;
pub mod geometry;
pub mod hierarchy;
mod lost;
pub mod policy;
pub mod stats;
pub mod timing;

pub use cache::{Line, SetAssocCache};
pub use cstate::CState;
pub use directory::MetaDirectory;
pub use geometry::CacheGeometry;
pub use hierarchy::{EnsureResult, Hierarchy, HierarchyConfig, L2Sectors, ServedBy};
pub use policy::MetaFactory;
pub use stats::MemStats;
pub use timing::{BusTimeline, LatencyModel};
