//! The cycle-cost model behind the Figure 8 overhead experiment.
//!
//! The simulator executes one global event order; timing is layered on
//! top: each core owns a cycle clock that advances by per-operation
//! costs, and all bus transactions serialize on a single shared-bus
//! timeline (snoopy bus). HARD's overhead emerges from (1) metadata
//! broadcasts occupying the bus, (2) candidate-set checks on shared
//! accesses, and (3) lock-register updates on lock/unlock — the paper's
//! three overhead sources, with (1) dominant.

use crate::hierarchy::{EnsureResult, ServedBy};
use hard_types::Cycles;

/// Per-operation cycle costs (Table 1 defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// L1 hit latency.
    pub l1_hit: u64,
    /// L2 hit latency (includes the bus round trip).
    pub l2_hit: u64,
    /// Cache-to-cache transfer latency.
    pub c2c: u64,
    /// Memory latency.
    pub memory: u64,
    /// Bus occupancy of a data transaction (line transfer).
    pub bus_data_occupancy: u64,
    /// Bus occupancy of a control transaction (upgrade/invalidate).
    pub bus_control_occupancy: u64,
    /// Bus occupancy of an 18-bit metadata broadcast (§3.4): small,
    /// control-sized.
    pub meta_broadcast_occupancy: u64,
    /// Extra bus occupancy per data transaction for the 18 metadata
    /// bits piggybacked on every coherence transfer (§3.4) — the
    /// paper's dominant overhead source, scaling with the miss rate.
    pub meta_piggyback_occupancy: u64,
    /// Cycles to update the Lock/Counter Registers on lock or unlock
    /// (HARD only).
    pub lock_register_update: u64,
    /// Cycles to AND the candidate set with the Lock Register and test
    /// emptiness on a shared access (HARD only; overlaps the cache
    /// access in real hardware, so it is charged only on non-L1-hit
    /// paths where the metadata arrives late).
    pub candidate_check: u64,
    /// Cycles charged for a lock or unlock operation itself (the
    /// synchronization library work, identical with and without HARD).
    pub sync_op: u64,
    /// Cycles charged when a core switches to a different thread
    /// (threads may outnumber cores; the OS saves/restores the Lock
    /// and Counter Registers like any other per-thread register).
    pub context_switch: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            l1_hit: 3,
            l2_hit: 10,
            c2c: 12,
            memory: 200,
            bus_data_occupancy: 4,
            bus_control_occupancy: 1,
            meta_broadcast_occupancy: 1,
            meta_piggyback_occupancy: 1,
            lock_register_update: 1,
            candidate_check: 1,
            sync_op: 40,
            context_switch: 200,
        }
    }
}

impl LatencyModel {
    /// Service latency of an access, from where it was served.
    #[must_use]
    pub fn service_latency(&self, r: &EnsureResult) -> u64 {
        match r.served_by {
            ServedBy::L1 => self.l1_hit,
            ServedBy::L1Upgrade => self.l1_hit, // upgrade overlaps the write
            ServedBy::Peer => self.c2c,
            ServedBy::L2 => self.l2_hit,
            ServedBy::Memory => self.memory,
        }
    }

    /// Bus occupancy of an access's coherence transactions.
    #[must_use]
    pub fn bus_occupancy(&self, r: &EnsureResult) -> u64 {
        u64::from(r.bus_data) * self.bus_data_occupancy
            + u64::from(r.bus_control) * self.bus_control_occupancy
    }
}

/// The shared snoopy bus as a single-server timeline.
///
/// # Examples
///
/// ```
/// use hard_cache::BusTimeline;
///
/// let mut bus = BusTimeline::new();
/// // Core at cycle 100 takes the bus for 4 cycles.
/// assert_eq!(bus.acquire(100, 4), 100);
/// // A second core at cycle 101 waits until 104.
/// assert_eq!(bus.acquire(101, 4), 104);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusTimeline {
    free_at: u64,
    busy_cycles: u64,
    transactions: u64,
}

impl BusTimeline {
    /// An idle bus at cycle zero.
    #[must_use]
    pub fn new() -> BusTimeline {
        BusTimeline::default()
    }

    /// Requests the bus at local time `now` for `occupancy` cycles;
    /// returns the grant time (≥ `now`). Zero-occupancy requests are
    /// free and return `now`.
    pub fn acquire(&mut self, now: u64, occupancy: u64) -> u64 {
        if occupancy == 0 {
            return now;
        }
        let start = now.max(self.free_at);
        self.free_at = start + occupancy;
        self.busy_cycles += occupancy;
        self.transactions += 1;
        start
    }

    /// Total cycles the bus spent occupied.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of granted transactions.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Bus utilization relative to `horizon` cycles.
    #[must_use]
    pub fn utilization(&self, horizon: Cycles) -> f64 {
        if horizon.0 == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / horizon.0 as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let m = LatencyModel::default();
        assert_eq!(m.l1_hit, 3);
        assert_eq!(m.l2_hit, 10);
        assert_eq!(m.memory, 200);
    }

    #[test]
    fn service_latency_by_level() {
        let m = LatencyModel::default();
        let mk = |served_by| EnsureResult {
            served_by,
            bus_data: 0,
            bus_control: 0,
            refetch_after_loss: false,
            displaced: None,
        };
        assert_eq!(m.service_latency(&mk(ServedBy::L1)), 3);
        assert_eq!(m.service_latency(&mk(ServedBy::L2)), 10);
        assert_eq!(m.service_latency(&mk(ServedBy::Memory)), 200);
        assert_eq!(m.service_latency(&mk(ServedBy::Peer)), 12);
    }

    #[test]
    fn bus_contention_delays_later_requesters() {
        let mut bus = BusTimeline::new();
        assert_eq!(bus.acquire(0, 4), 0);
        assert_eq!(bus.acquire(0, 4), 4);
        assert_eq!(bus.acquire(100, 4), 100, "idle bus grants immediately");
        assert_eq!(bus.busy_cycles(), 12);
        assert_eq!(bus.transactions(), 3);
    }

    #[test]
    fn zero_occupancy_is_free() {
        let mut bus = BusTimeline::new();
        assert_eq!(bus.acquire(5, 0), 5);
        assert_eq!(bus.transactions(), 0);
    }

    #[test]
    fn utilization_math() {
        let mut bus = BusTimeline::new();
        bus.acquire(0, 50);
        assert!((bus.utilization(Cycles(100)) - 0.5).abs() < 1e-12);
        assert_eq!(bus.utilization(Cycles(0)), 0.0);
    }
}
