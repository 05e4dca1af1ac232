//! HARD: Hardware-Assisted Lockset-based Race Detection (HPCA 2007).
//!
//! This crate assembles the paper's system out of the workspace
//! substrates:
//!
//! * [`config::HardConfig`] — the simulated machine of Table 1 plus
//!   HARD's design knobs (bloom vector size, metadata granularity,
//!   barrier pruning);
//! * [`machine::HardMachine`] — a 4-core CMP whose cache lines carry a
//!   bloom-filter candidate set and a 2-bit LState, whose cores carry
//!   Lock/Counter Registers, and whose coherence protocol piggybacks
//!   and broadcasts that metadata (paper §3). It is simultaneously a
//!   race [`hard_trace::Detector`] and a cycle-level timing model;
//! * [`hb_machine::HbMachine`] — the hardware happens-before baseline
//!   (line-granularity timestamps, in-cache only) the paper compares
//!   against;
//! * [`baseline::BaselineMachine`] — the same CMP with detection
//!   disabled, the reference for the Figure 8 overhead measurements;
//! * [`directory_machine::DirectoryHardMachine`] — the §3.4 alternative
//!   with directory-resident metadata;
//! * [`hybrid::HybridMachine`] — the §7 lockset + happens-before
//!   combination;
//! * [`software::estimate_software_lockset`] — the Eraser-style
//!   software cost model behind the paper's 10–30× motivation.
//!
//! # Examples
//!
//! ```
//! use hard::{HardConfig, HardMachine};
//! use hard_trace::{run_detector, ProgramBuilder, SchedConfig, Scheduler};
//! use hard_types::{Addr, SiteId};
//!
//! let mut b = ProgramBuilder::new(2);
//! b.thread(0).write(Addr(0x1000), 4, SiteId(1));
//! b.thread(1).write(Addr(0x1000), 4, SiteId(2));
//! let trace = Scheduler::new(SchedConfig::default()).run(&b.build());
//!
//! let mut hard = HardMachine::new(HardConfig::default());
//! let reports = run_detector(&mut hard, &trace);
//! assert!(!reports.is_empty(), "unprotected sharing is flagged");
//! ```

pub mod baseline;
mod cmp;
pub mod config;
pub mod directory_machine;
pub mod hb_machine;
pub mod hybrid;
pub mod machine;
pub mod metadata;
pub mod software;

pub use baseline::BaselineMachine;
pub use config::HardConfig;
pub use directory_machine::DirectoryHardMachine;
pub use hb_machine::{HbMachine, HbMachineConfig};
pub use hybrid::HybridMachine;
pub use machine::HardMachine;
pub use software::{estimate_software_lockset, SoftwareEstimate, SoftwareLocksetCost};
