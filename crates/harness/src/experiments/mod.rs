//! One module per paper artifact. Each exposes a `run(...)` returning
//! a structured result with `Display` (aligned text) and
//! `to_markdown()` renderings.

pub mod ablation;
pub mod bloom_analysis;
pub mod chaos;
pub mod claims;
pub mod cord;
pub mod faults;
pub mod fig8;
pub mod fleet;
pub mod load;
pub mod obs;
pub mod obs_serve;
pub mod robustness;
pub mod server;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table45;
pub mod table6;
pub mod window;
pub mod workload_stats;
