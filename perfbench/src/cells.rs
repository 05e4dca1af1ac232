//! The seeded cell traces every workload is built from.
//!
//! A cell is one Table 2 campaign trace: an application's race-free run
//! or one of its injected runs. Seed 0 reproduces the campaign's own
//! scheduler and injection seeds exactly (`hard_harness::campaign`), so
//! the seed-0 sweep is the pinned `table2 --scale 0.3 --runs 10`. Any
//! other seed moves the scheduler and injection seeds into a disjoint
//! range: the same programs and sizes, different interleavings and
//! injected races.

use crate::layers::Layers;
use hard_harness::campaign::CampaignConfig;
use hard_trace::{PackedTrace, SchedConfig, Scheduler, Trace};
use hard_workloads::{inject_race, App, Injection};

/// The Table 2 scale the `table2` and `tracegen` workloads run at.
pub const SCALE: f64 = 0.3;

/// Injected runs per application, as in the paper.
pub const RUNS: usize = 10;

/// One campaign trace, identified by its seeds.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub app: App,
    /// `None` for the race-free run, `Some(i)` for injected run `i`.
    pub run: Option<usize>,
    pub scale: f64,
    pub seed: u64,
}

impl Cell {
    /// The 66 cells of one Table 2 sweep in campaign order: per
    /// application, the race-free run and then the injected runs.
    pub fn sweep(seed: u64) -> Vec<Cell> {
        App::all()
            .into_iter()
            .flat_map(|app| {
                std::iter::once(None)
                    .chain((0..RUNS).map(Some))
                    .map(move |run| Cell {
                        app,
                        run,
                        scale: SCALE,
                        seed,
                    })
            })
            .collect()
    }

    fn campaign(self) -> CampaignConfig {
        CampaignConfig::reduced(self.scale, RUNS)
    }

    /// Offset added to every campaign seed; 0 at seed 0.
    fn salt(self) -> u64 {
        self.seed.wrapping_mul(1 << 32)
    }

    fn sched_seed(self) -> u64 {
        let app = self.app as u64;
        let base = match self.run {
            None => 0x5EED_0000 + app,
            Some(i) => 0x1000_0000 + app * 1000 + i as u64,
        };
        base.wrapping_add(self.salt())
    }

    fn inject_seed(self, run: usize) -> u64 {
        (0xBEEF + run as u64).wrapping_add(self.salt())
    }

    /// The corpus key: every input that determines the trace.
    pub fn key(self) -> String {
        format!(
            "perfbench gen={} app={} scale={:016x} quantum={} sched={:#x} inj={}",
            hard_workloads::GENERATOR_VERSION,
            self.app.name(),
            self.scale.to_bits(),
            self.campaign().max_quantum,
            self.sched_seed(),
            self.run
                .map_or("none".into(), |i| format!("{:#x}", self.inject_seed(i))),
        )
    }

    /// Generates the cell's trace the way the campaign does: program
    /// generation, race injection, then scheduling.
    pub fn build(self, layers: &mut Layers) -> (Trace, Option<Injection>) {
        let cfg = self.campaign();
        let program = layers.time("workloads.generate_s", || {
            self.app.generate(&cfg.workload(self.app))
        });
        let (program, injection) = match self.run {
            None => (program, None),
            Some(i) => {
                let (p, inj) = layers
                    .time("workloads.inject_s", || {
                        inject_race(&program, self.inject_seed(i))
                    })
                    .expect("every campaign workload has eligible critical sections");
                (p, Some(inj))
            }
        };
        let sched = Scheduler::new(SchedConfig {
            seed: self.sched_seed(),
            max_quantum: cfg.max_quantum,
        });
        let trace = layers.time("trace.schedule_s", || sched.run(&program));
        (trace, injection)
    }

    /// [`Cell::build`], packed and serialized as a `HARDCRP1` corpus
    /// stream.
    pub fn encode(self, layers: &mut Layers) -> (Vec<u8>, usize) {
        let (trace, injection) = self.build(layers);
        let packed = layers
            .time("trace.pack_s", || PackedTrace::from_trace(&trace))
            .expect("campaign traces fit the packed encoding");
        let bytes = layers.time("corpus.encode_s", || {
            hard_harness::corpus::encode_bytes(&packed, injection.as_ref())
        });
        (bytes, packed.len())
    }
}

/// Regroups per-cell values of a sweep, in [`Cell::sweep`] order, into
/// its columns: column `j` holds run `j` of every application, the
/// race-free runs first. A column is the op of the batch workloads.
///
/// A cell is a poor op: each application's cells cost the same, so any
/// percentile over cells is one application's cost. The host slows some
/// applications more than others (fmm trace building by 35 % while the
/// whole sweep slowed by 15 %), and such a percentile spread 0.32 over
/// ten runs. A column holds every application once, like the sweep.
pub fn columns<T: Clone>(per_cell: &[Vec<T>]) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new(); RUNS + 1];
    for (i, v) in per_cell.iter().enumerate() {
        out[i % (RUNS + 1)].extend_from_slice(v);
    }
    out
}

/// Sums per-cell values of a sweep by column (see [`columns`]).
pub fn column_sums(per_cell: &[f64]) -> Vec<f64> {
    let cells: Vec<Vec<f64>> = per_cell.iter().map(|&v| vec![v]).collect();
    columns(&cells).iter().map(|c| c.iter().sum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_harness::campaign::{injected_trace, race_free_trace};

    #[test]
    fn seed_zero_reproduces_the_campaign_traces() {
        let cfg = CampaignConfig::reduced(0.05, RUNS);
        let cell = |run| Cell {
            app: App::Barnes,
            run,
            scale: 0.05,
            seed: 0,
        };
        let (t, inj) = cell(None).build(&mut Layers::off());
        assert_eq!(t, race_free_trace(App::Barnes, &cfg));
        assert!(inj.is_none());
        let (t, inj) = cell(Some(3)).build(&mut Layers::off());
        assert_eq!(
            (t, inj.expect("injected")),
            injected_trace(App::Barnes, &cfg, 3)
        );
    }

    #[test]
    fn other_seeds_change_the_interleaving_but_not_the_program() {
        let cell = |seed| Cell {
            app: App::WaterNsquared,
            run: Some(0),
            scale: 0.05,
            seed,
        };
        let (a, _) = cell(0).build(&mut Layers::off());
        let (b, _) = cell(1).build(&mut Layers::off());
        assert_ne!(a, b);
        assert_eq!(a.num_threads, b.num_threads);
        assert_ne!(cell(0).key(), cell(1).key());
    }

    #[test]
    fn a_sweep_has_the_campaign_shape() {
        let cells = Cell::sweep(0);
        assert_eq!(cells.len(), 6 * (RUNS + 1));
        assert!(cells[0].run.is_none());
        assert_eq!(cells[1].run, Some(0));
    }

    #[test]
    fn a_column_holds_one_run_of_every_application() {
        let cells = Cell::sweep(0);
        let per_cell: Vec<Vec<usize>> = (0..cells.len()).map(|i| vec![i]).collect();
        let cols = columns(&per_cell);
        assert_eq!(cols.len(), RUNS + 1);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), 6);
            let apps: Vec<App> = col.iter().map(|&i| cells[i].app).collect();
            assert_eq!(apps, App::all());
            let want = if j == 0 { None } else { Some(j - 1) };
            assert!(col.iter().all(|&i| cells[i].run == want));
        }
        let sums = column_sums(&vec![1.0; cells.len()]);
        assert_eq!(sums, vec![6.0; RUNS + 1]);
    }
}
