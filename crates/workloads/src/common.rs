//! Shared building blocks for the application generators.
//!
//! Every SPLASH-2-like generator composes the same ingredients; this
//! module provides them as emitters over an [`AppBuilder`]. Sites are
//! allocated once per *static* program point and shared across threads
//! (SPLASH-2 workers run the same code), so the harness's source-level
//! alarm counting matches the paper's methodology.

use crate::layout::Layout;
use hard_trace::{Program, ProgramBuilder};
use hard_types::{Addr, BarrierId, LockId, SiteId, ThreadId, Xoshiro256};

/// Workload size multiplier.
///
/// `Full` reproduces paper-scale runs; `Reduced` shrinks iteration and
/// streaming volumes for fast tests and benches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scale {
    /// Paper-scale (the harness default).
    Full,
    /// Multiply volumes by the factor (clamped to at least one
    /// iteration everywhere).
    Reduced(f64),
}

impl Scale {
    /// The multiplication factor.
    #[must_use]
    pub fn factor(self) -> f64 {
        match self {
            Scale::Full => 1.0,
            Scale::Reduced(f) => f,
        }
    }

    /// Scales a count, keeping at least 1.
    #[must_use]
    pub fn apply(self, n: usize) -> usize {
        ((n as f64 * self.factor()).round() as usize).max(1)
    }
}

/// Configuration common to all workload generators.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Number of worker threads (the paper runs 4, one per core).
    pub num_threads: usize,
    /// Structure seed: shapes the random choices inside generation
    /// (access orders, cluster placement). Distinct from the
    /// scheduler's interleaving seed.
    pub seed: u64,
    /// Size multiplier.
    pub scale: Scale,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_threads: 4,
            seed: 0,
            scale: Scale::Full,
        }
    }
}

impl WorkloadConfig {
    /// A reduced-scale copy for tests.
    #[must_use]
    pub fn reduced(factor: f64) -> WorkloadConfig {
        WorkloadConfig {
            scale: Scale::Reduced(factor),
            ..WorkloadConfig::default()
        }
    }
}

/// A lock-protected shared variable: the injectable unit.
#[derive(Clone, Copy, Debug)]
pub struct LockedVar {
    /// The variable's address (4-byte word).
    pub addr: Addr,
    /// Its protecting lock.
    pub lock: LockId,
    site_lock: SiteId,
    site_read: SiteId,
    site_write: SiteId,
    site_unlock: SiteId,
}

impl LockedVar {
    /// The variable's static sites as
    /// `(lock, read, write, unlock)` — for generators that need custom
    /// access shapes (e.g. the server's 8-byte session records) while
    /// keeping the SPMD site discipline.
    #[must_use]
    pub fn sites(&self) -> (SiteId, SiteId, SiteId, SiteId) {
        (
            self.site_lock,
            self.site_read,
            self.site_write,
            self.site_unlock,
        )
    }
}

/// A variable whose protecting lock changes between program phases —
/// correct under happens-before (every thread participates in both
/// eras) but a guaranteed lockset false alarm.
#[derive(Clone, Copy, Debug)]
pub struct RotationVar {
    /// The variable.
    pub addr: Addr,
    /// Lock used in early phases.
    pub lock_a: LockId,
    /// Lock used in late phases.
    pub lock_b: LockId,
    site_lock: SiteId,
    site_write: SiteId,
    site_unlock: SiteId,
}

/// A flag hand-off pair: data published through an unsynchronized flag.
/// Invisible to both detectors' sync tracking — a residual false-alarm
/// source for both (paper §5.1 "hand-crafted synchronizations").
#[derive(Clone, Copy, Debug)]
pub struct FlagPair {
    /// The published datum.
    pub data: Addr,
    /// The flag word.
    pub flag: Addr,
    site_wd: SiteId,
    site_wf: SiteId,
    site_rf: SiteId,
    site_rd: SiteId,
}

/// A false-sharing cluster: per-thread variables packed into one cache
/// line at a fixed spacing. Each variable is touched by exactly one
/// thread, so the cluster is silent at granularities below the spacing
/// and alarms at coarser ones (Table 3's mechanism).
#[derive(Clone, Debug)]
pub struct FsCluster {
    /// Base line address.
    pub line: Addr,
    /// Byte spacing between neighbouring variables.
    pub spacing: u64,
    /// `(variable, owning thread)` assignments.
    pub vars: Vec<(Addr, ThreadId)>,
    site_write: SiteId,
    site_read: SiteId,
}

/// A reusable per-thread private streaming region; see
/// [`AppBuilder::stream_region`].
#[derive(Clone, Copy, Debug)]
pub struct StreamRegion {
    /// Base address.
    pub base: Addr,
    /// Region length in bytes (multiple of the 32-byte line).
    pub len: u64,
    site_read: SiteId,
    site_write: SiteId,
}

/// A barrier point with a stable site.
#[derive(Clone, Copy, Debug)]
pub struct BarrierPoint {
    /// The barrier object.
    pub id: BarrierId,
    site: SiteId,
}

/// Builder state threaded through a generator.
#[derive(Debug)]
pub struct AppBuilder {
    /// The program being built.
    pub pb: ProgramBuilder,
    /// Address/site allocation.
    pub layout: Layout,
    /// Structure randomness.
    pub rng: Xoshiro256,
    /// Thread count.
    pub threads: usize,
    /// Size multiplier.
    pub scale: Scale,
    next_barrier: u32,
    stream_sites: Vec<(SiteId, SiteId)>,
}

impl AppBuilder {
    /// A fresh builder for `cfg`.
    #[must_use]
    pub fn new(cfg: &WorkloadConfig) -> AppBuilder {
        AppBuilder {
            pb: ProgramBuilder::new(cfg.num_threads),
            layout: Layout::new(cfg.num_threads),
            rng: Xoshiro256::seed_from_u64(cfg.seed),
            threads: cfg.num_threads,
            scale: cfg.scale,
            next_barrier: 0,
            stream_sites: Vec::new(),
        }
    }

    /// Scales a count by the configured factor.
    #[must_use]
    pub fn scaled(&self, n: usize) -> usize {
        self.scale.apply(n)
    }

    /// Allocates a new lock-protected variable on its own line.
    pub fn locked_var(&mut self) -> LockedVar {
        LockedVar {
            addr: self.layout.isolated_word(),
            lock: self.layout.lock(),
            site_lock: self.layout.site(),
            site_read: self.layout.site(),
            site_write: self.layout.site(),
            site_unlock: self.layout.site(),
        }
    }

    /// Emits `lock; read; write; unlock` on `var` by thread `t` — one
    /// dynamic critical section, the injector's unit.
    pub fn update(&mut self, t: u32, var: &LockedVar) {
        self.pb
            .thread(t)
            .lock(var.lock, var.site_lock)
            .read(var.addr, 4, var.site_read)
            .write(var.addr, 4, var.site_write)
            .unlock(var.lock, var.site_unlock);
    }

    /// Emits a read-only locked access to `var` by `t`.
    pub fn read_locked(&mut self, t: u32, var: &LockedVar) {
        self.pb
            .thread(t)
            .lock(var.lock, var.site_lock)
            .read(var.addr, 4, var.site_read)
            .unlock(var.lock, var.site_unlock);
    }

    /// Allocates a rotation variable.
    pub fn rotation_var(&mut self) -> RotationVar {
        RotationVar {
            addr: self.layout.isolated_word(),
            lock_a: self.layout.lock(),
            lock_b: self.layout.lock(),
            site_lock: self.layout.site(),
            site_write: self.layout.site(),
            site_unlock: self.layout.site(),
        }
    }

    /// Emits an update of a rotation variable by `t`, using the era's
    /// lock.
    pub fn rotation_update(&mut self, t: u32, var: &RotationVar, late_era: bool) {
        let lock = if late_era { var.lock_b } else { var.lock_a };
        self.pb
            .thread(t)
            .lock(lock, var.site_lock)
            .write(var.addr, 4, var.site_write)
            .unlock(lock, var.site_unlock);
    }

    /// Allocates a flag hand-off pair.
    pub fn flag_pair(&mut self) -> FlagPair {
        FlagPair {
            data: self.layout.isolated_word(),
            flag: self.layout.isolated_word(),
            site_wd: self.layout.site(),
            site_wf: self.layout.site(),
            site_rf: self.layout.site(),
            site_rd: self.layout.site(),
        }
    }

    /// Emits the producer half of a flag hand-off.
    pub fn flag_produce(&mut self, t: u32, pair: &FlagPair) {
        self.pb
            .thread(t)
            .write(pair.data, 4, pair.site_wd)
            .write(pair.flag, 4, pair.site_wf);
    }

    /// Emits the consumer half of a flag hand-off.
    pub fn flag_consume(&mut self, t: u32, pair: &FlagPair) {
        self.pb
            .thread(t)
            .read(pair.flag, 4, pair.site_rf)
            .read(pair.data, 4, pair.site_rd);
    }

    /// Allocates a false-sharing cluster with variables every `spacing`
    /// bytes, round-robin across threads.
    ///
    /// # Panics
    ///
    /// Panics unless `spacing` is a power of two in `[4, 16]`.
    pub fn fs_cluster(&mut self, spacing: u64) -> FsCluster {
        assert!(
            spacing.is_power_of_two() && (4..=16).contains(&spacing),
            "spacing must be 4, 8 or 16 bytes"
        );
        let line = self.layout.shared_line();
        let vars = (0..(32 / spacing))
            .map(|i| {
                (
                    Addr(line.0 + i * spacing),
                    ThreadId((i % self.threads as u64) as u32),
                )
            })
            .collect();
        FsCluster {
            line,
            spacing,
            vars,
            site_write: self.layout.site(),
            site_read: self.layout.site(),
        }
    }

    /// Allocates a batch of clusters: `spec` lists `(spacing, count)`
    /// pairs.
    pub fn fs_clusters(&mut self, spec: &[(u64, usize)]) -> Vec<FsCluster> {
        let mut out = Vec::new();
        for &(spacing, count) in spec {
            for _ in 0..count {
                out.push(self.fs_cluster(spacing));
            }
        }
        out
    }

    /// Emits thread `t` touching (write+read) its own variables of
    /// `cluster` once. Used by generators that spread the per-thread
    /// counter updates through the phase, so that the false-sharing
    /// evidence must survive in the cache between distant touches.
    pub fn fs_touch_one(&mut self, cluster: &FsCluster, t: u32) {
        for &(addr, owner) in &cluster.vars {
            if owner.0 == t {
                self.pb.thread(t).write(addr, 4, cluster.site_write).read(
                    addr,
                    4,
                    cluster.site_read,
                );
            }
        }
    }

    /// Builds a per-thread touch schedule for the false-sharing
    /// clusters of one phase: cluster `c` is active only in phase
    /// `c % phases`, and thread `t` touches it at a sweep position
    /// staggered by a quarter sweep per thread. The distance between
    /// two threads' touches of the same line is then a sizable fraction
    /// of the phase's cache traffic, which is what makes the alarm
    /// counts sensitive to the L2 size (Table 5): a small L2 displaces
    /// the granule's metadata before the second owner arrives.
    ///
    /// Returns, for each sweep step, the indices of clusters thread `t`
    /// must touch there.
    #[must_use]
    pub fn fs_schedule(
        &self,
        clusters: &[FsCluster],
        phase: usize,
        phases: usize,
        sweep_len: usize,
        t: u32,
    ) -> Vec<Vec<usize>> {
        let mut per_step: Vec<Vec<usize>> = vec![Vec::new(); sweep_len.max(1)];
        let subset: Vec<usize> = (0..clusters.len())
            .filter(|c| c % phases == phase % phases)
            .collect();
        if subset.is_empty() || sweep_len == 0 {
            return per_step;
        }
        let spread = (sweep_len / subset.len()).max(1);
        let stagger = sweep_len / self.threads.max(1);
        for (j, &c) in subset.iter().enumerate() {
            let pos = (j * spread + t as usize * stagger) % sweep_len;
            per_step[pos].push(c);
        }
        per_step
    }

    /// Emits each owning thread touching (write+read) its own cluster
    /// variable once.
    pub fn fs_touch(&mut self, cluster: &FsCluster) {
        for &(addr, owner) in &cluster.vars {
            self.pb
                .thread(owner.0)
                .write(addr, 4, cluster.site_write)
                .read(addr, 4, cluster.site_read);
        }
    }

    /// Emits an idempotent unprotected write by every thread — a benign
    /// race (all writers store the same value), still reported by both
    /// detectors when unordered.
    pub fn benign_race(&mut self) -> (Addr, SiteId) {
        let addr = self.layout.isolated_word();
        let site = self.layout.site();
        (addr, site)
    }

    /// Emits one benign write by `t`.
    pub fn benign_write(&mut self, t: u32, var: (Addr, SiteId)) {
        self.pb.thread(t).write(var.0, 4, var.1);
    }

    /// Allocates a barrier point.
    pub fn barrier_point(&mut self) -> BarrierPoint {
        let id = BarrierId(self.next_barrier);
        self.next_barrier += 1;
        BarrierPoint {
            id,
            site: self.layout.site(),
        }
    }

    /// Emits a barrier arrival for every thread.
    pub fn arrive_all(&mut self, bp: &BarrierPoint) {
        for t in 0..self.threads as u32 {
            self.pb.thread(t).barrier(bp.id, bp.site);
        }
    }

    /// Allocates a reusable per-thread private array for
    /// [`AppBuilder::stream_over`]. Applications with small working
    /// sets (water, barnes, raytrace) sweep the same region every
    /// phase, so it becomes cache-resident; large-footprint
    /// applications use [`AppBuilder::stream_private`] instead, which
    /// touches fresh memory every time.
    pub fn stream_region(&mut self, t: u32, bytes: u64) -> StreamRegion {
        while self.stream_sites.len() <= t as usize {
            let r = self.layout.site();
            let w = self.layout.site();
            self.stream_sites.push((r, w));
        }
        let (site_read, site_write) = self.stream_sites[t as usize];
        StreamRegion {
            base: self.layout.private(t as usize, bytes.max(32)),
            len: bytes.max(32) / 32 * 32,
            site_read,
            site_write,
        }
    }

    /// Emits a sweep of `bytes` over `region` starting at byte offset
    /// `start` (wrapping), by thread `t`.
    pub fn stream_over(&mut self, t: u32, region: &StreamRegion, start: u64, bytes: u64) {
        let lines_total = region.len / 32;
        let tp = self.pb.thread(t);
        let first = (start / 32) % lines_total;
        for i in 0..(bytes / 32).max(1) {
            let a = Addr(region.base.0 + ((first + i) % lines_total) * 32);
            tp.read(a, 4, region.site_read);
            if i % 4 == 0 {
                tp.write(a, 4, region.site_write);
            }
        }
    }

    /// Emits `bytes` of private streaming (read + occasional write) by
    /// thread `t` at 32-byte stride — cache pressure that displaces
    /// metadata from the L2.
    pub fn stream_private(&mut self, t: u32, bytes: u64) {
        while self.stream_sites.len() <= t as usize {
            let r = self.layout.site();
            let w = self.layout.site();
            self.stream_sites.push((r, w));
        }
        let (site_r, site_w) = self.stream_sites[t as usize];
        let base = self.layout.private(t as usize, bytes.max(32));
        let tp = self.pb.thread(t);
        let lines = (bytes / 32).max(1);
        for i in 0..lines {
            let a = Addr(base.0 + i * 32);
            tp.read(a, 4, site_r);
            if i % 4 == 0 {
                tp.write(a, 4, site_w);
            }
        }
    }

    /// Emits `cycles` of private computation by `t`.
    pub fn compute(&mut self, t: u32, cycles: u32) {
        self.pb.thread(t).compute(cycles);
    }

    /// Finishes the build, checking well-formedness.
    ///
    /// # Panics
    ///
    /// Panics if the generated program fails validation — a generator
    /// bug.
    #[must_use]
    pub fn finish(self) -> Program {
        let p = self.pb.build();
        if let Err(e) = p.validate() {
            panic!("generated program is malformed: {e}");
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_trace::{SchedConfig, Scheduler, TraceStats};

    #[test]
    fn scale_math() {
        assert_eq!(Scale::Full.apply(10), 10);
        assert_eq!(Scale::Reduced(0.1).apply(10), 1);
        assert_eq!(Scale::Reduced(0.01).apply(10), 1, "clamped to 1");
        assert_eq!(Scale::Reduced(2.0).apply(10), 20);
    }

    #[test]
    fn update_emits_balanced_sections() {
        let cfg = WorkloadConfig::default();
        let mut b = AppBuilder::new(&cfg);
        let v = b.locked_var();
        for t in 0..4 {
            b.update(t, &v);
        }
        let p = b.finish();
        assert_eq!(p.total_ops(), 16);
        assert_eq!(p.locks_used().len(), 1);
    }

    #[test]
    fn fs_cluster_partitions_a_line() {
        let cfg = WorkloadConfig::default();
        let mut b = AppBuilder::new(&cfg);
        let c = b.fs_cluster(8);
        assert_eq!(c.vars.len(), 4);
        for (i, &(a, _)) in c.vars.iter().enumerate() {
            assert_eq!(a.0, c.line.0 + i as u64 * 8);
        }
        b.fs_touch(&c);
        let p = b.finish();
        assert_eq!(p.total_ops(), 8);
    }

    #[test]
    #[should_panic(expected = "spacing")]
    fn fs_cluster_rejects_bad_spacing() {
        let cfg = WorkloadConfig::default();
        let mut b = AppBuilder::new(&cfg);
        let _ = b.fs_cluster(32);
    }

    #[test]
    fn stream_reuses_static_sites() {
        let cfg = WorkloadConfig::default();
        let mut b = AppBuilder::new(&cfg);
        b.stream_private(0, 1024);
        b.stream_private(0, 1024);
        let p = b.finish();
        let trace = Scheduler::new(SchedConfig::default()).run(&p);
        let stats = TraceStats::from_trace(&trace);
        assert_eq!(stats.reads, 64);
        assert_eq!(stats.writes, 16);
        // Two static sites regardless of volume.
        let sites: std::collections::BTreeSet<_> =
            trace.ops().filter_map(|(_, op)| op.site()).collect();
        assert_eq!(sites.len(), 2);
    }

    #[test]
    fn barrier_arrivals_are_balanced() {
        let cfg = WorkloadConfig::default();
        let mut b = AppBuilder::new(&cfg);
        let bp = b.barrier_point();
        b.arrive_all(&bp);
        let p = b.finish();
        assert_eq!(p.validate(), Ok(()));
    }
}
