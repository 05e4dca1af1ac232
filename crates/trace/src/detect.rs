//! Detector-facing abstractions shared by every race detector in the
//! workspace (HARD, ideal lockset, hardware and ideal happens-before).

use crate::event::{Trace, TraceEvent};
use crate::op::Op;
use crate::packed_event::BATCH_EVENTS;
use hard_obs::{CounterId, ObsHandle};
use hard_types::{AccessKind, Addr, SiteId, ThreadId};
use std::fmt;

/// One reported (potential) data race.
///
/// The paper maps dynamic reports back to source code and counts
/// distinct static locations; [`RaceReport::site`] carries the static
/// site of the access that triggered the report so the harness can do
/// the same.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RaceReport {
    /// Address of the access that triggered the report.
    pub addr: Addr,
    /// Size of the triggering access in bytes.
    pub size: u8,
    /// Static site of the triggering access.
    pub site: SiteId,
    /// The accessing thread.
    pub thread: ThreadId,
    /// Whether the triggering access was a read or a write.
    pub kind: AccessKind,
    /// Index of the triggering event in the global trace.
    pub event_index: usize,
}

impl RaceReport {
    /// True if the triggering access overlaps the byte range
    /// `[lo, hi)` — used to match reports against an injected race's
    /// target data. An access running past the top of the address
    /// space ends there.
    #[must_use]
    pub fn overlaps(&self, lo: Addr, hi: Addr) -> bool {
        let a0 = self.addr.0;
        let a1 = a0.saturating_add(u64::from(self.size));
        a0 < hi.0 && lo.0 < a1
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "race: {} {} {}+{} at {} (event {})",
            self.thread, self.kind, self.addr, self.size, self.site, self.event_index
        )
    }
}

/// A dynamic race detector consuming a global event stream.
///
/// All detectors in the workspace observe the *same* trace; this trait
/// is the seam that lets the harness run HARD, happens-before and the
/// ideal variants over identical executions.
pub trait Detector {
    /// Short human-readable detector name for reports.
    fn name(&self) -> &str;

    /// Observes event number `index` of the trace.
    fn on_event(&mut self, index: usize, event: &TraceEvent);

    /// Observes a contiguous run of events whose first global index is
    /// `index`.
    ///
    /// The default forwards to [`Detector::on_event`] one event at a
    /// time; detectors with a vectorized batch kernel override it. An
    /// override must be observably bit-identical to the default loop —
    /// same reports, same statistics, same metadata — batching is a
    /// throughput lever, never a semantic one.
    fn on_batch(&mut self, index: usize, events: &[TraceEvent]) {
        for (i, e) in events.iter().enumerate() {
            self.on_event(index + i, e);
        }
    }

    /// The reports accumulated so far.
    fn reports(&self) -> &[RaceReport];
}

/// Drives `detector` over every event of `trace`, returning the final
/// report list.
///
/// # Examples
///
/// ```
/// use hard_trace::{run_detector, Detector, RaceReport, Trace, TraceEvent};
///
/// /// A detector that counts events and reports nothing.
/// struct Null(usize);
/// impl Detector for Null {
///     fn name(&self) -> &str { "null" }
///     fn on_event(&mut self, _i: usize, _e: &TraceEvent) { self.0 += 1 }
///     fn reports(&self) -> &[RaceReport] { &[] }
/// }
///
/// let trace = Trace { events: vec![], num_threads: 1 };
/// let mut d = Null(0);
/// assert!(run_detector(&mut d, &trace).is_empty());
/// ```
pub fn run_detector<D: Detector + ?Sized>(detector: &mut D, trace: &Trace) -> Vec<RaceReport> {
    for (i, e) in trace.events.iter().enumerate() {
        detector.on_event(i, e);
    }
    detector.reports().to_vec()
}

/// [`run_detector`] through the batch kernel: events are handed to
/// [`Detector::on_batch`] in [`BATCH_EVENTS`]-sized runs. Produces the
/// same reports as `run_detector` for any conforming detector.
pub fn run_detector_batched<D: Detector + ?Sized>(
    detector: &mut D,
    trace: &Trace,
) -> Vec<RaceReport> {
    let mut index = 0;
    for chunk in trace.events.chunks(BATCH_EVENTS) {
        detector.on_batch(index, chunk);
        index += chunk.len();
    }
    detector.reports().to_vec()
}

/// Folds one window of trace events into the observability layer's
/// per-op-class counters: one counter update per class per window,
/// not per event. Does nothing on an off handle.
pub fn observe_window(obs: &ObsHandle, events: &[TraceEvent]) {
    if !obs.is_on() {
        return;
    }
    let mut by_class = [0u64; 4];
    for event in events {
        let class = match event {
            TraceEvent::Op { op, .. } => match op {
                Op::Read { .. } => 0,
                Op::Write { .. } => 1,
                Op::Compute { .. } => 2,
                Op::Lock { .. }
                | Op::Unlock { .. }
                | Op::Fork { .. }
                | Op::Join { .. }
                | Op::Barrier { .. } => 3,
            },
            TraceEvent::BarrierComplete { .. } => 3,
        };
        by_class[class] += 1;
    }
    obs.counter(CounterId::TraceEvents, events.len() as u64);
    let ids = [
        CounterId::OpsRead,
        CounterId::OpsWrite,
        CounterId::OpsCompute,
        CounterId::OpsSync,
    ];
    for (id, n) in ids.into_iter().zip(by_class) {
        obs.counter(id, n);
    }
}

/// [`run_detector`] with trace-level observability: each
/// [`BATCH_EVENTS`]-sized window is classified into `obs`
/// ([`observe_window`]) before its events are dispatched one at a
/// time. With an off handle this is exactly `run_detector`.
pub fn run_detector_observed<D: Detector + ?Sized>(
    detector: &mut D,
    trace: &Trace,
    obs: &ObsHandle,
) -> Vec<RaceReport> {
    if !obs.is_on() {
        return run_detector(detector, trace);
    }
    for (w, window) in trace.events.chunks(BATCH_EVENTS).enumerate() {
        observe_window(obs, window);
        for (i, e) in window.iter().enumerate() {
            detector.on_event(w * BATCH_EVENTS + i, e);
        }
    }
    detector.reports().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed_event::PackedTrace;
    use crate::program::ProgramBuilder;
    use crate::sched::{SchedConfig, Scheduler};

    #[test]
    fn reports_at_the_top_of_the_address_space_overlap_without_wrapping() {
        let r = RaceReport {
            addr: Addr(u64::MAX - 1),
            size: 4,
            site: SiteId(1),
            thread: ThreadId(0),
            kind: AccessKind::Write,
            event_index: 0,
        };
        assert!(r.overlaps(Addr(u64::MAX - 1), Addr(u64::MAX)));
        assert!(
            !r.overlaps(Addr(0), Addr(16)),
            "the access does not wrap to 0"
        );
    }

    /// Records every (index, event) pair it sees.
    #[derive(Default)]
    struct Recorder(Vec<(usize, TraceEvent)>);

    impl Detector for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn on_event(&mut self, index: usize, event: &TraceEvent) {
            self.0.push((index, *event));
        }
        fn reports(&self) -> &[RaceReport] {
            &[]
        }
    }

    fn sample_trace(events: usize) -> Trace {
        let mut b = ProgramBuilder::new(2);
        for i in 0..events {
            let site = SiteId(i as u32);
            b.thread(i as u32 % 2)
                .write(Addr(0x1000 + (i as u64 % 8) * 4), 4, site);
        }
        Scheduler::new(SchedConfig::default()).run(&b.build())
    }

    #[test]
    fn batched_runs_see_the_same_indexed_events() {
        // Cross the batch boundary: > BATCH_EVENTS events.
        let trace = sample_trace(BATCH_EVENTS + 37);
        let mut scalar = Recorder::default();
        run_detector(&mut scalar, &trace);
        let mut batched = Recorder::default();
        run_detector_batched(&mut batched, &trace);
        assert_eq!(scalar.0, batched.0);
    }

    #[test]
    fn decode_batch_windows_tile_iter() {
        let trace = sample_trace(2 * BATCH_EVENTS + 5);
        let packed = PackedTrace::from_trace(&trace).unwrap();
        let all: Vec<TraceEvent> = packed.iter().collect();
        let mut buf = Vec::new();
        let mut start = 0;
        while packed.decode_batch(start, &mut buf) > 0 {
            assert!(buf.len() <= BATCH_EVENTS);
            assert_eq!(buf[..], all[start..start + buf.len()]);
            start += buf.len();
        }
        assert_eq!(start, all.len(), "windows must tile the whole trace");
        assert_eq!(packed.decode_batch(all.len() + 3, &mut buf), 0);
    }

    #[test]
    fn overlap_logic() {
        let r = RaceReport {
            addr: Addr(100),
            size: 4,
            site: SiteId(1),
            thread: ThreadId(0),
            kind: AccessKind::Write,
            event_index: 7,
        };
        assert!(r.overlaps(Addr(100), Addr(104)));
        assert!(r.overlaps(Addr(103), Addr(200)));
        assert!(r.overlaps(Addr(0), Addr(101)));
        assert!(!r.overlaps(Addr(104), Addr(200)));
        assert!(!r.overlaps(Addr(0), Addr(100)));
    }

    #[test]
    fn display_mentions_site_and_event() {
        let r = RaceReport {
            addr: Addr(0x20),
            size: 4,
            site: SiteId(9),
            thread: ThreadId(1),
            kind: AccessKind::Read,
            event_index: 3,
        };
        let s = format!("{r}");
        assert!(s.contains("site9") && s.contains("event 3"), "{s}");
    }
}
