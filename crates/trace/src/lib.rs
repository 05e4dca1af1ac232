//! Multithreaded program model and deterministic interleaving.
//!
//! The HARD evaluation is *execution driven*: detectors observe the
//! stream of memory accesses and synchronization operations a
//! multithreaded program performs. This crate provides:
//!
//! * [`op::Op`] / [`program::Program`] — the per-thread operation lists
//!   produced by the workload generators (every operation carries a
//!   static [`hard_types::SiteId`] so alarms can be mapped back to
//!   "source code" as the paper does);
//! * [`sched::Scheduler`] — a seeded scheduler that interleaves the
//!   threads into one global, totally ordered [`event::TraceEvent`]
//!   stream while honouring lock blocking and barrier semantics. A given
//!   `(program, seed)` pair always produces the same trace, so HARD,
//!   happens-before and the ideal detectors can be compared on
//!   *identical executions* (paper §5.1);
//! * [`packed_event`] — the fixed-width records traces are stored,
//!   streamed and uploaded as, and [`event::Validator`], the one
//!   well-formedness check every stream from outside passes through;
//! * [`codec`] — the FNV-1a checksum those streams carry;
//! * [`stats::TraceStats`] — summary statistics used by tests and the
//!   harness;
//! * [`wire`] — the length-prefixed frame protocol spoken by the
//!   `hard-serve` network service and its clients.
//!
//! # Examples
//!
//! ```
//! use hard_trace::program::ProgramBuilder;
//! use hard_trace::sched::{SchedConfig, Scheduler};
//! use hard_types::{Addr, LockId, SiteId};
//!
//! let mut b = ProgramBuilder::new(2);
//! b.thread(0).lock(LockId(0x40), SiteId(1))
//!     .write(Addr(0x1000), 4, SiteId(2))
//!     .unlock(LockId(0x40), SiteId(3));
//! b.thread(1).lock(LockId(0x40), SiteId(4))
//!     .read(Addr(0x1000), 4, SiteId(5))
//!     .unlock(LockId(0x40), SiteId(6));
//! let program = b.build();
//! let trace = Scheduler::new(SchedConfig::default()).run(&program);
//! assert_eq!(trace.events.len(), 6);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod detect;
pub mod event;
pub mod op;
pub mod packed_event;
pub mod program;
pub mod sched;
pub mod stats;
pub mod wire;

pub use detect::{
    observe_window, run_detector, run_detector_batched, run_detector_observed, Detector, RaceReport,
};
pub use event::{Trace, TraceEvent, Validator};
pub use op::Op;
pub use packed_event::{Chunk, ChunkedReader, PackError, PackedEvent, PackedTrace, BATCH_EVENTS};
pub use program::{Program, ProgramBuilder, ThreadProgram};
pub use sched::{SchedConfig, Scheduler};
pub use stats::TraceStats;
