//! Experiment campaigns regenerating every table and figure of the
//! paper's evaluation (§5).
//!
//! Each experiment module produces a structured result plus a rendered
//! ASCII table whose rows match the paper's:
//!
//! | Paper artifact | Module | CLI |
//! |---|---|---|
//! | Table 1 (machine parameters) | [`experiments::table1`] | `hard-exp table1` |
//! | Table 2 (overall effectiveness) | [`experiments::table2`] | `hard-exp table2` |
//! | Table 3 (granularity sweep) | [`experiments::table3`] | `hard-exp table3` |
//! | Tables 4+5 (L2 size sweep) | [`experiments::table45`] | `hard-exp table4` / `table5` |
//! | Table 6 (bloom vector sweep) | [`experiments::table6`] | `hard-exp table6` |
//! | Figure 8 (execution overhead) | [`experiments::fig8`] | `hard-exp fig8` |
//! | §3.2 collision analysis | [`experiments::bloom_analysis`] | `hard-exp bloom` |
//!
//! The shared machinery lives in [`campaign`]: deterministic trace
//! construction, the detector registry ([`detectors::DetectorKind`]),
//! bug-outcome scoring with miss-reason classification, and
//! source-level false-alarm counting.

#![warn(missing_docs)]

pub mod bench;
pub mod campaign;
pub mod chaos;
pub mod checkpoint;
pub mod corpus;
pub mod detectors;
pub mod experiments;
pub mod kernel;
pub mod parallel;
pub mod report;
pub mod runner;
pub mod service;
pub mod table;

pub use bench::BenchRecord;
pub use campaign::{
    alarm_sites, injected_cell, injected_trace, per_app, probes, race_free_cell, race_free_trace,
    score, BugOutcome, CampaignConfig, CellTrace, InjectMode,
};
pub use chaos::{ChaosProxy, ChaosSnapshot, ChaosStats, FaultyStream, NetFaultPlan};
pub use checkpoint::Checkpoint;
pub use corpus::{CorpusCache, CorpusEntry, CorpusStats};
pub use detectors::{execute, DetectorKind, DetectorRun};
pub use kernel::KernelMode;
pub use parallel::map_cells;
pub use report::{OutputFormat, Reporter};
pub use runner::{
    execute_hardened_cell, execute_hardened_cell_observed, execute_streamed, RunLimits, RunMetrics,
    RunOutcome, StreamFeeder,
};
pub use service::{Fixture, HealthSnapshot, ReportBody, RetryPolicy, RetryStats, Submission};
pub use table::TextTable;
