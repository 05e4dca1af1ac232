//! Deterministic hardware-fault model.
//!
//! HARD's metadata is explicitly lossy hardware state: bloom-filter
//! candidate vectors and 2-bit line states live in cache line
//! extensions, lock registers live next to each core, and candidate
//! updates ride on coherence broadcasts. A production deployment has
//! to tolerate that state being struck by real hardware faults — bit
//! flips, lost bus messages, spurious displacements — without the
//! detector diverging or crashing.
//!
//! [`FaultPlan`] describes *what* to inject as per-event probabilities
//! in parts-per-million; [`FaultInjector`] samples the plan through
//! the workspace's deterministic [`Xoshiro256`] stream so a `(plan,
//! trace)` pair reproduces the exact same fault sequence on every run.
//! [`FaultStats`] counts both the injected faults and the machine's
//! detection/degradation responses.
//!
//! Rates are integers (ppm) rather than floats so the plan can be
//! embedded in `Copy + Eq` machine configurations without rounding
//! hazards.

use crate::rng::Xoshiro256;

/// A seeded, per-event-probability description of hardware faults to
/// inject into a HARD machine.
///
/// All rates are parts-per-million per observed trace event. The
/// all-zero plan ([`FaultPlan::none`]) is guaranteed to draw nothing
/// from the RNG, so a zero-fault machine is bit-identical to one built
/// before the fault layer existed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Bit flips in resident line metadata (candidate vector or
    /// 2-bit line state), per event.
    pub meta_bit_flip_ppm: u32,
    /// Bit flips in a per-core Lock/Counter register, per event.
    pub register_flip_ppm: u32,
    /// Piggybacked metadata broadcasts silently lost, per broadcast.
    pub broadcast_drop_ppm: u32,
    /// Piggybacked metadata broadcasts deferred, per broadcast.
    pub broadcast_delay_ppm: u32,
    /// Events a delayed broadcast waits before delivery.
    pub broadcast_delay_events: u32,
    /// Spurious L2 line displacements (forced eviction of a random
    /// resident line), per event.
    pub displacement_ppm: u32,
}

impl FaultPlan {
    /// The fault-free plan: injects nothing, samples nothing.
    #[must_use]
    pub const fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            meta_bit_flip_ppm: 0,
            register_flip_ppm: 0,
            broadcast_drop_ppm: 0,
            broadcast_delay_ppm: 0,
            broadcast_delay_events: 0,
            displacement_ppm: 0,
        }
    }

    /// A plan applying `ppm` uniformly to every fault class.
    #[must_use]
    pub const fn uniform(seed: u64, ppm: u32) -> FaultPlan {
        FaultPlan {
            seed,
            meta_bit_flip_ppm: ppm,
            register_flip_ppm: ppm,
            broadcast_drop_ppm: ppm,
            broadcast_delay_ppm: ppm,
            broadcast_delay_events: 16,
            displacement_ppm: ppm,
        }
    }

    /// True if no fault class has a non-zero rate.
    #[must_use]
    pub const fn is_none(&self) -> bool {
        self.meta_bit_flip_ppm == 0
            && self.register_flip_ppm == 0
            && self.broadcast_drop_ppm == 0
            && self.broadcast_delay_ppm == 0
            && self.displacement_ppm == 0
    }
}

/// Counters for injected faults and the machine's responses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Metadata bits flipped (candidate vector or line state).
    pub meta_bits_flipped: u64,
    /// Lock/Counter register bits flipped.
    pub register_bits_flipped: u64,
    /// Metadata broadcasts dropped on the bus.
    pub broadcasts_dropped: u64,
    /// Metadata broadcasts delivered late.
    pub broadcasts_delayed: u64,
    /// Lines spuriously displaced from L2.
    pub spurious_displacements: u64,
    /// Corruptions caught by a parity check.
    pub parity_detections: u64,
    /// Granules reset to the all-ones safe state after a detection.
    pub conservative_resets: u64,
    /// Lock registers rebuilt from the software lock shadow.
    pub register_rebuilds: u64,
    /// Internal invariant errors absorbed instead of panicking.
    pub internal_errors: u64,
}

impl FaultStats {
    /// Field-wise sum, for campaign aggregation.
    #[must_use]
    pub fn merged(self, other: FaultStats) -> FaultStats {
        FaultStats {
            meta_bits_flipped: self.meta_bits_flipped + other.meta_bits_flipped,
            register_bits_flipped: self.register_bits_flipped + other.register_bits_flipped,
            broadcasts_dropped: self.broadcasts_dropped + other.broadcasts_dropped,
            broadcasts_delayed: self.broadcasts_delayed + other.broadcasts_delayed,
            spurious_displacements: self.spurious_displacements + other.spurious_displacements,
            parity_detections: self.parity_detections + other.parity_detections,
            conservative_resets: self.conservative_resets + other.conservative_resets,
            register_rebuilds: self.register_rebuilds + other.register_rebuilds,
            internal_errors: self.internal_errors + other.internal_errors,
        }
    }

    /// Total faults injected (not responses).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.meta_bits_flipped
            + self.register_bits_flipped
            + self.broadcasts_dropped
            + self.broadcasts_delayed
            + self.spurious_displacements
    }

    /// Every field as a `(metric name, value)` pair, in declaration
    /// order. The names follow the observability layer's Prometheus
    /// conventions so the harness can expose fault telemetry without
    /// hand-maintaining a parallel list.
    #[must_use]
    pub fn metric_pairs(&self) -> [(&'static str, u64); 9] {
        [
            (
                "hard_faults_meta_bits_flipped_total",
                self.meta_bits_flipped,
            ),
            (
                "hard_faults_register_bits_flipped_total",
                self.register_bits_flipped,
            ),
            (
                "hard_faults_broadcasts_dropped_total",
                self.broadcasts_dropped,
            ),
            (
                "hard_faults_broadcasts_delayed_total",
                self.broadcasts_delayed,
            ),
            (
                "hard_faults_spurious_displacements_total",
                self.spurious_displacements,
            ),
            (
                "hard_faults_parity_detections_total",
                self.parity_detections,
            ),
            (
                "hard_faults_conservative_resets_total",
                self.conservative_resets,
            ),
            (
                "hard_faults_register_rebuilds_total",
                self.register_rebuilds,
            ),
            ("hard_faults_internal_errors_total", self.internal_errors),
        ]
    }
}

/// Samples a [`FaultPlan`] through a private deterministic RNG.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Xoshiro256,
    /// Running fault/response counters for this machine.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            rng: Xoshiro256::seed_from_u64(plan.seed ^ 0xFA017FA017),
            stats: FaultStats::default(),
        }
    }

    /// The plan being sampled.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True if any fault class can fire. Callers gate all sampling on
    /// this so a [`FaultPlan::none`] machine never touches the RNG.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.plan.is_none()
    }

    /// One Bernoulli draw at `ppm` parts-per-million. Zero-rate draws
    /// return `false` without advancing the RNG.
    fn roll(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.rng.gen_range(1_000_000) < u64::from(ppm)
    }

    /// Should this event flip a metadata bit?
    pub fn roll_meta_flip(&mut self) -> bool {
        self.roll(self.plan.meta_bit_flip_ppm)
    }

    /// Should this event flip a register bit?
    pub fn roll_register_flip(&mut self) -> bool {
        self.roll(self.plan.register_flip_ppm)
    }

    /// Should this broadcast be dropped?
    pub fn roll_broadcast_drop(&mut self) -> bool {
        self.roll(self.plan.broadcast_drop_ppm)
    }

    /// Should this broadcast be delayed?
    pub fn roll_broadcast_delay(&mut self) -> bool {
        self.roll(self.plan.broadcast_delay_ppm)
    }

    /// Should this event spuriously displace a line?
    pub fn roll_displacement(&mut self) -> bool {
        self.roll(self.plan.displacement_ppm)
    }

    /// Uniform index in `[0, n)` for victim selection.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; callers check for empty victim pools first.
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_index(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert_and_rng_free() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert!(!inj.is_active());
        let before = inj.rng.clone();
        for _ in 0..100 {
            assert!(!inj.roll_meta_flip());
            assert!(!inj.roll_register_flip());
            assert!(!inj.roll_broadcast_drop());
            assert!(!inj.roll_broadcast_delay());
            assert!(!inj.roll_displacement());
        }
        assert_eq!(
            inj.rng, before,
            "zero-rate sampling must not advance the RNG"
        );
    }

    #[test]
    fn injector_is_deterministic() {
        let plan = FaultPlan::uniform(42, 100_000);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        let da: Vec<bool> = (0..1000).map(|_| a.roll_meta_flip()).collect();
        let db: Vec<bool> = (0..1000).map(|_| b.roll_meta_flip()).collect();
        assert_eq!(da, db);
        assert!(
            da.iter().any(|&x| x),
            "10% rate should fire within 1000 draws"
        );
    }

    #[test]
    fn rates_order_fault_frequency() {
        let mut lo = FaultInjector::new(FaultPlan::uniform(7, 1_000));
        let mut hi = FaultInjector::new(FaultPlan::uniform(7, 200_000));
        let fires = |inj: &mut FaultInjector| (0..10_000).filter(|_| inj.roll_meta_flip()).count();
        assert!(fires(&mut lo) < fires(&mut hi));
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = FaultStats {
            meta_bits_flipped: 2,
            conservative_resets: 1,
            ..Default::default()
        };
        let b = FaultStats {
            meta_bits_flipped: 3,
            internal_errors: 4,
            ..Default::default()
        };
        let m = a.merged(b);
        assert_eq!(m.meta_bits_flipped, 5);
        assert_eq!(m.conservative_resets, 1);
        assert_eq!(m.internal_errors, 4);
        assert_eq!(m.injected(), 5);
    }

    #[test]
    fn metric_pairs_cover_every_field() {
        let s = FaultStats {
            meta_bits_flipped: 1,
            register_bits_flipped: 2,
            broadcasts_dropped: 3,
            broadcasts_delayed: 4,
            spurious_displacements: 5,
            parity_detections: 6,
            conservative_resets: 7,
            register_rebuilds: 8,
            internal_errors: 9,
        };
        let pairs = s.metric_pairs();
        let total: u64 = pairs.iter().map(|&(_, v)| v).sum();
        assert_eq!(total, 45, "each field appears exactly once");
        let mut names: Vec<&str> = pairs.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(pairs
            .iter()
            .all(|&(n, _)| n.starts_with("hard_faults_") && n.ends_with("_total")));
    }

    #[test]
    fn uniform_plan_is_active() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::uniform(0, 1).is_none());
        assert!(FaultInjector::new(FaultPlan::uniform(0, 1)).is_active());
    }
}
