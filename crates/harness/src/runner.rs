//! Hardened campaign execution.
//!
//! The plain [`execute`](crate::detectors::execute) path is the right
//! tool for the paper's fault-free tables: any panic there is a
//! simulator bug and should abort loudly. Fault-injection campaigns
//! invert that contract — the whole point is to drive the machine into
//! states that *would* crash an unhardened implementation — so every
//! run is isolated behind [`std::panic::catch_unwind`] and bounded by a
//! simulated-cycle deadline, and the campaign reports a structured
//! [`RunOutcome`] instead of tearing down the sweep.

use crate::campaign::CellTrace;
use crate::detectors::{AnyDetector, DetectorKind, DetectorRun};
use hard_obs::ObsHandle;
use hard_trace::codec;
use hard_trace::packed_event::{ChunkedReader, PackedEvent, RECORD_BYTES};
use hard_trace::{observe_window, Detector, TraceEvent, Validator, BATCH_EVENTS};
use hard_types::{Addr, FaultStats};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Resource bounds for one hardened run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunLimits {
    /// Simulated-cycle deadline. Checked on the HARD machine, the only
    /// detector with a full timing model; the others ignore it and are
    /// bounded by `max_events` instead.
    pub max_cycles: Option<u64>,
    /// Trace-event deadline, applied to every detector.
    pub max_events: Option<u64>,
}

impl RunLimits {
    /// No bounds: run to completion.
    #[must_use]
    pub const fn unlimited() -> RunLimits {
        RunLimits {
            max_cycles: None,
            max_events: None,
        }
    }
}

/// Resource accounting for one completed run: fault statistics plus
/// the cycle/traffic attribution the observability spans carry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Fault-injection statistics (all-zero for detectors without a
    /// fault layer).
    pub faults: FaultStats,
    /// Simulated cycles consumed (0 for untimed detectors).
    pub cycles: u64,
    /// Trace events dispatched.
    pub events: u64,
    /// §3.4 metadata broadcasts issued (hardware detectors only).
    pub meta_broadcasts: u64,
    /// L2 evictions, each losing a line's metadata (hardware detectors
    /// only).
    pub l2_evictions: u64,
}

impl std::ops::AddAssign for RunMetrics {
    fn add_assign(&mut self, other: RunMetrics) {
        self.faults = self.faults.merged(other.faults);
        self.cycles += other.cycles;
        self.events += other.events;
        self.meta_broadcasts += other.meta_broadcasts;
        self.l2_evictions += other.l2_evictions;
    }
}

/// The structured result of one hardened run.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The run finished, with its resource metrics.
    Ok(DetectorRun, RunMetrics),
    /// The detector panicked; the run is charged as a crash, not
    /// silently dropped.
    Faulted {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A deadline expired before the trace was consumed.
    TimedOut {
        /// Events consumed before the deadline.
        events_done: u64,
        /// Simulated cycles at expiry (0 for untimed detectors).
        cycles: u64,
    },
}

/// How often the deadline is checked, in events: once per window, so
/// any overshoot is bounded by the window size.
const DEADLINE_STRIDE: u64 = BATCH_EVENTS as u64;

/// The one detection engine every trace source feeds.
///
/// Sources hand it windows of up to [`BATCH_EVENTS`] events: a
/// materialized trace as slices of its event vector, a packed trace
/// decoded into the engine's reused window, and a byte stream
/// ([`StreamFeeder`]) one validated record at a time through
/// [`Engine::push`]. Per window the engine folds the per-op-class
/// observability counters, dispatches the window through
/// [`Detector::on_batch`], and probes the [`RunLimits`] deadlines.
/// Observation never changes the dispatch call; the per-event
/// [`execute`](crate::detectors::execute) is the oracle it must match.
struct Engine {
    d: AnyDetector,
    obs: ObsHandle,
    limits: RunLimits,
    /// Events dispatched; also the global index of the next window.
    events: u64,
    /// Set once a deadline probe finds a limit reached.
    expired: bool,
    /// The window that decoding sources fill.
    window: Vec<TraceEvent>,
}

impl Engine {
    fn new(kind: &DetectorKind, num_threads: usize, limits: RunLimits, obs: &ObsHandle) -> Engine {
        Engine {
            d: AnyDetector::build(kind, num_threads, obs),
            obs: obs.clone(),
            limits,
            events: 0,
            expired: false,
            window: Vec::with_capacity(BATCH_EVENTS),
        }
    }

    /// Dispatches one window of at most [`BATCH_EVENTS`] events.
    /// Returns false once a deadline has expired.
    fn dispatch(&mut self, window: &[TraceEvent]) -> bool {
        observe_window(&self.obs, window);
        self.d.on_batch(self.events as usize, window);
        self.events += window.len() as u64;
        if self.events.is_multiple_of(DEADLINE_STRIDE) {
            let RunLimits {
                max_events,
                max_cycles,
            } = self.limits;
            self.expired = max_events.is_some_and(|max| self.events >= max)
                || max_cycles.is_some_and(|max| self.d.cycles() >= max);
        }
        !self.expired
    }

    /// Runs a whole in-memory trace, stopping at an expired deadline.
    fn run(&mut self, trace: &CellTrace) {
        match trace {
            CellTrace::Materialized(t) => {
                for window in t.events.chunks(BATCH_EVENTS) {
                    if !self.dispatch(window) {
                        break;
                    }
                }
            }
            CellTrace::Packed(p) => {
                let mut window = std::mem::take(&mut self.window);
                while p.decode_batch(self.events as usize, &mut window) > 0
                    && self.dispatch(&window)
                {}
                window.clear();
                self.window = window;
            }
        }
    }

    /// Buffers one decoded event, dispatching the window once full.
    fn push(&mut self, e: TraceEvent) {
        self.window.push(e);
        if self.window.len() == BATCH_EVENTS {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.window.is_empty() {
            let window = std::mem::take(&mut self.window);
            self.dispatch(&window);
            self.window = window;
            self.window.clear();
        }
    }

    /// Events taken in so far, dispatched or still in the window.
    fn taken(&self) -> u64 {
        self.events + self.window.len() as u64
    }

    /// Dispatches the partial window and wraps up the run.
    fn finish(mut self, probes: &[Addr]) -> RunOutcome {
        self.flush();
        if self.expired {
            return RunOutcome::TimedOut {
                events_done: self.events,
                cycles: self.d.cycles(),
            };
        }
        let (meta_broadcasts, l2_evictions) = self.d.traffic();
        let metrics = RunMetrics {
            faults: self.d.fault_stats(),
            cycles: self.d.cycles(),
            events: self.events,
            meta_broadcasts,
            l2_evictions,
        };
        RunOutcome::Ok(self.d.finish(probes), metrics)
    }
}

/// Runs `kind` over whichever representation the campaign produced
/// ([`CellTrace`]) with panic isolation and deadlines, using the
/// process-global observability handle ([`hard_obs::installed`]).
///
/// Unlimited, with a detector that completes, this produces exactly
/// the reports of [`execute`](crate::detectors::execute) on the same
/// inputs — the hardened path adds containment, not behaviour.
#[must_use]
pub fn execute_hardened_cell(
    kind: &DetectorKind,
    trace: &CellTrace,
    probes: &[Addr],
    limits: RunLimits,
) -> RunOutcome {
    execute_hardened_cell_observed(kind, trace, probes, limits, &hard_obs::installed())
}

/// [`execute_hardened_cell`] with an explicit observability handle:
/// the whole run is wrapped in a `run:<detector>` span carrying
/// cycle/event attribution, trace events are classified into
/// per-op-class counters, and the hardware machines emit their
/// detection-pipeline metrics.
#[must_use]
pub fn execute_hardened_cell_observed(
    kind: &DetectorKind,
    trace: &CellTrace,
    probes: &[Addr],
    limits: RunLimits,
    obs: &ObsHandle,
) -> RunOutcome {
    let timer = obs.span(|| format!("run:{}", kind.label()));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut engine = Engine::new(kind, trace.num_threads(), limits, obs);
        engine.run(trace);
        engine.finish(probes)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        RunOutcome::Faulted { message }
    });
    let (cycles, events) = match &outcome {
        RunOutcome::Ok(_, m) => (m.cycles, m.events),
        RunOutcome::TimedOut {
            events_done,
            cycles,
        } => (*cycles, *events_done),
        RunOutcome::Faulted { .. } => (0, 0),
    };
    obs.span_end(timer, cycles, events);
    crate::bench::account(events, cycles);
    outcome
}

/// Replays a file-backed packed record stream through `kind` without
/// ever holding the payload in memory: the double-buffered
/// [`ChunkedReader`] overlaps disk reads with detection, and each
/// chunk goes to a [`StreamFeeder`].
///
/// Returns the completed run, the number of events dispatched and the
/// payload FNV-1a hash, for the caller to compare against the file
/// header.
///
/// # Errors
///
/// Returns a description of any I/O error or record the
/// [`StreamFeeder`] rejects. The stream has no ground-truth probes, so
/// `meta_lost` is empty.
pub fn execute_streamed(
    kind: &DetectorKind,
    num_threads: usize,
    reader: &mut ChunkedReader,
) -> Result<(DetectorRun, u64, u64), String> {
    let mut feeder = StreamFeeder::new(kind, num_threads);
    while let Some(chunk) = reader.next_chunk() {
        feeder.feed(&chunk.map_err(|e| format!("stream read failed: {e}"))?)?;
    }
    feeder.finish()
}

/// The push-style front end of the engine, for byte streams: the
/// caller hands over packed-record bytes as they arrive — off the
/// wire, or chunk by chunk from a file — with any chunking,
/// record-aligned or not, and the detector consumes them
/// incrementally, so a session's memory footprint is one chunk plus
/// detector state, never the whole trace.
///
/// The result is chunking-invariant: for the same byte sequence,
/// [`StreamFeeder::finish`] returns the same reports, event count,
/// payload FNV and error string at the same record index however the
/// bytes were split across [`StreamFeeder::feed`] calls, because
/// partial records are carried here and the engine cuts its windows
/// by event count alone.
pub struct StreamFeeder {
    engine: Engine,
    validator: Validator,
    /// Partial record carried across a feed boundary.
    carry: [u8; RECORD_BYTES],
    carry_len: usize,
    fnv: u64,
}

impl StreamFeeder {
    /// Builds the detector for `kind` and an empty feed state. The
    /// process-global observability handle is latched here.
    #[must_use]
    pub fn new(kind: &DetectorKind, num_threads: usize) -> StreamFeeder {
        StreamFeeder::observed(kind, num_threads, &hard_obs::installed())
    }

    fn observed(kind: &DetectorKind, num_threads: usize, obs: &ObsHandle) -> StreamFeeder {
        StreamFeeder {
            engine: Engine::new(kind, num_threads, RunLimits::unlimited(), obs),
            validator: Validator::new(num_threads),
            carry: [0u8; RECORD_BYTES],
            carry_len: 0,
            fnv: codec::FNV1A_INIT,
        }
    }

    /// Events decoded so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.engine.taken()
    }

    /// Decodes one record and checks it with the stream's
    /// [`Validator`], then hands it to the engine. The detectors index
    /// per-thread state by thread id and assume lock mutual exclusion,
    /// so nothing the validator rejects reaches them.
    fn push(&mut self, rec: &[u8; RECORD_BYTES]) -> Result<(), String> {
        let index = self.engine.taken();
        let e = PackedEvent::from_bytes(rec)
            .unpack()
            .map_err(|e| e.to_string())
            .and_then(|e| self.validator.check(&e).map(|()| e))
            .map_err(|cause| format!("record {index}: {cause}"))?;
        self.engine.push(e);
        Ok(())
    }

    /// Consumes the next chunk of packed-record bytes.
    ///
    /// # Errors
    ///
    /// Returns `record {index}: {cause}` for an undecodable record or
    /// one the [`Validator`] rejects. After an error the feeder state
    /// is spent; callers drop it.
    pub fn feed(&mut self, mut bytes: &[u8]) -> Result<(), String> {
        self.fnv = codec::fnv1a_update(self.fnv, bytes);
        if self.carry_len > 0 {
            let take = (RECORD_BYTES - self.carry_len).min(bytes.len());
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&bytes[..take]);
            self.carry_len += take;
            bytes = &bytes[take..];
            if self.carry_len < RECORD_BYTES {
                return Ok(());
            }
            self.carry_len = 0;
            let rec = self.carry;
            self.push(&rec)?;
        }
        let mut records = bytes.chunks_exact(RECORD_BYTES);
        for rec in records.by_ref() {
            self.push(rec.try_into().expect("16-byte record"))?;
        }
        let tail = records.remainder();
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carry_len = tail.len();
        Ok(())
    }

    /// Completes the stream: dispatches the partial window, accounts
    /// the run, and returns `(run, events, payload_fnv)`.
    ///
    /// # Errors
    ///
    /// `stream ends mid-record (N bytes over)` when the byte total is
    /// not a whole number of records.
    pub fn finish(self) -> Result<(DetectorRun, u64, u64), String> {
        let fnv = self.fnv;
        let (run, m) = self.finish_run()?;
        Ok((run, m.events, fnv))
    }

    /// [`StreamFeeder::finish`] with the run's full metrics.
    fn finish_run(self) -> Result<(DetectorRun, RunMetrics), String> {
        if self.carry_len != 0 {
            return Err(format!(
                "stream ends mid-record ({} bytes over)",
                self.carry_len
            ));
        }
        let RunOutcome::Ok(run, m) = self.engine.finish(&[]) else {
            unreachable!("an unlimited engine cannot time out");
        };
        crate::bench::account(m.events, m.cycles);
        Ok((run, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::execute;
    use hard::HardConfig;
    use hard_trace::{Op, PackedTrace, ProgramBuilder, SchedConfig, Scheduler, Trace, TraceStats};
    use hard_types::{BarrierId, FaultPlan, LockId, SiteId, ThreadId};
    use std::sync::Arc;

    /// Two threads racing on four lines, with a locked read and a
    /// barrier mixed in so every op class shows up.
    fn racy_trace() -> Trace {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            let tp = b.thread(t);
            for i in 0..400u64 {
                let site = SiteId(t * 1000 + i as u32);
                tp.write(Addr(0x1000 + (i % 4) * 32), 4, site).compute(50);
                if i % 8 == 0 {
                    tp.lock(LockId(0x9000), site)
                        .read(Addr(0x3000), 4, site)
                        .unlock(LockId(0x9000), site);
                }
            }
            tp.barrier(BarrierId(0), SiteId(9999));
        }
        Scheduler::new(SchedConfig::default()).run(&b.build())
    }

    /// [`execute_hardened_cell`] over a materialized copy of `trace`.
    fn hardened(
        kind: &DetectorKind,
        trace: &Trace,
        probes: &[Addr],
        limits: RunLimits,
    ) -> RunOutcome {
        execute_hardened_cell(
            kind,
            &CellTrace::Materialized(trace.clone()),
            probes,
            limits,
        )
    }

    fn all_kinds() -> [DetectorKind; 5] {
        [
            DetectorKind::hard_default(),
            DetectorKind::lockset_ideal(),
            DetectorKind::hb_default(),
            DetectorKind::hb_ideal(),
            DetectorKind::BloomUnbounded(Default::default()),
        ]
    }

    /// Every configuration the campaign sweeps send through the engine
    /// beyond [`all_kinds`]: Table 3's granularities, Tables 4+5's L2
    /// sizes, Table 6's 32-bit vector, the ablation's Figure 3 L2 and
    /// the server campaign's 8-thread happens-before machine.
    fn swept_kinds() -> Vec<DetectorKind> {
        let (hard, hb) = (HardConfig::default(), hard::HbMachineConfig::default());
        let granularities = [4, 8, 16].map(|g| (hard.with_granularity(g), hb.with_granularity(g)));
        let l2_sizes = crate::experiments::table45::L2_SIZES
            .map(|size| (hard.with_l2_size(size), hb.with_l2_size(size)));
        let mut kinds: Vec<DetectorKind> = granularities
            .into_iter()
            .chain(l2_sizes)
            .flat_map(|(h, b)| [DetectorKind::Hard(h), DetectorKind::HbHw(b)])
            .collect();
        kinds.extend([
            DetectorKind::Hard(hard.with_bloom(hard_bloom::BloomShape::B32)),
            DetectorKind::Hard(hard.with_figure3_l2()),
            DetectorKind::HbHw(hb.with_num_threads(8)),
        ]);
        kinds
    }

    #[test]
    fn unlimited_hardened_run_matches_plain_execute() {
        let (campaign_trace, injection) = crate::campaign::injected_trace(
            hard_workloads::App::Barnes,
            &crate::campaign::CampaignConfig::reduced(0.05, 1),
            0,
        );
        let campaign_probes = crate::campaign::probes(&injection);
        let cases = all_kinds()
            .into_iter()
            .map(|k| (k, racy_trace(), vec![Addr(0x1000)]))
            .chain(
                all_kinds()
                    .into_iter()
                    .chain(swept_kinds())
                    .map(|k| (k, campaign_trace.clone(), campaign_probes.clone())),
            );
        for (kind, trace, probes) in cases {
            let plain = execute(&kind, &trace, &probes);
            let hardened = hardened(&kind, &trace, &probes, RunLimits::unlimited());
            let RunOutcome::Ok(run, _) = hardened else {
                panic!("{kind}: hardened run must complete");
            };
            assert_eq!(run.reports, plain.reports, "{kind:?}");
            assert_eq!(run.meta_lost, plain.meta_lost, "{kind:?}");
        }
    }

    #[test]
    fn cycle_deadline_times_out_long_runs() {
        let trace = racy_trace();
        let limits = RunLimits {
            max_cycles: Some(100),
            max_events: None,
        };
        let out = hardened(&DetectorKind::hard_default(), &trace, &[], limits);
        let RunOutcome::TimedOut {
            events_done,
            cycles,
        } = out
        else {
            panic!("a 100-cycle budget cannot cover 80 timed accesses");
        };
        assert!(events_done < trace.len() as u64);
        assert!(cycles >= 100);
    }

    #[test]
    fn event_deadline_applies_to_untimed_detectors() {
        let trace = racy_trace();
        let limits = RunLimits {
            max_cycles: None,
            max_events: Some(DEADLINE_STRIDE),
        };
        let out = hardened(&DetectorKind::lockset_ideal(), &trace, &[], limits);
        assert!(matches!(out, RunOutcome::TimedOut { .. }), "got {out:?}");
    }

    #[test]
    fn faulted_machines_still_return_structured_outcomes() {
        // A heavy fault plan exercises the degradation paths; the
        // hardened runner must come back with Ok + populated stats,
        // never a propagated panic.
        let trace = racy_trace();
        let cfg = HardConfig::default().with_faults(FaultPlan::uniform(1, 300_000));
        let out = hardened(
            &DetectorKind::Hard(cfg),
            &trace,
            &[Addr(0x1000)],
            RunLimits::unlimited(),
        );
        let RunOutcome::Ok(_, m) = out else {
            panic!("degradation must absorb faults: {out:?}");
        };
        assert!(m.faults.injected() > 0);
    }

    #[test]
    fn completed_runs_carry_resource_metrics() {
        let trace = racy_trace();
        let out = hardened(
            &DetectorKind::hard_default(),
            &trace,
            &[],
            RunLimits::unlimited(),
        );
        let RunOutcome::Ok(_, m) = out else {
            panic!("must complete: {out:?}");
        };
        assert_eq!(m.events, trace.len() as u64);
        assert!(m.cycles > 0, "HARD is the timed detector");
        assert_eq!(m.faults, hard_types::FaultStats::default());
        // The untimed ideal detector reports zero cycles and traffic.
        let out = hardened(
            &DetectorKind::lockset_ideal(),
            &trace,
            &[],
            RunLimits::unlimited(),
        );
        let RunOutcome::Ok(_, m) = out else {
            panic!("must complete")
        };
        assert_eq!((m.cycles, m.meta_broadcasts, m.l2_evictions), (0, 0, 0));
        assert_eq!(m.events, trace.len() as u64);
    }

    #[test]
    fn observed_run_matches_and_records_a_span() {
        use hard_obs::{CounterId, MemoryRecorder, ObsHandle};
        let trace = racy_trace();
        let stats = TraceStats::from_trace(&trace);
        let sync = trace.len() - stats.reads - stats.writes - stats.computes;
        let want = [trace.len(), stats.reads, stats.writes, stats.computes, sync].map(|n| n as u64);
        let counted = |rec: &MemoryRecorder| {
            let snap = rec.snapshot();
            let ids = [
                CounterId::TraceEvents,
                CounterId::OpsRead,
                CounterId::OpsWrite,
                CounterId::OpsCompute,
                CounterId::OpsSync,
            ];
            (ids.map(|id| snap.counter(id)), snap)
        };
        let packed = PackedTrace::from_trace(&trace).unwrap();
        let cells = [
            CellTrace::Materialized(trace.clone()),
            CellTrace::Packed(Arc::new(packed.clone())),
        ];
        let probes = [Addr(0x1000)];
        // Observation must perturb no front end of the engine, and the
        // per-window counter folding must account for every event
        // exactly once.
        for kind in all_kinds() {
            let cell_run = |cell: &CellTrace, obs: &ObsHandle| {
                let out = execute_hardened_cell_observed(
                    &kind,
                    cell,
                    &probes,
                    RunLimits::unlimited(),
                    obs,
                );
                let RunOutcome::Ok(run, m) = out else {
                    panic!("{kind}: must complete");
                };
                ((run.reports, run.meta_lost), m)
            };
            let fed_run = |obs: &ObsHandle| {
                let mut feeder = StreamFeeder::observed(&kind, trace.num_threads, obs);
                for piece in packed.bytes().chunks(97) {
                    feeder.feed(piece).unwrap();
                }
                let (run, m) = feeder.finish_run().unwrap();
                ((run.reports, run.meta_lost), m)
            };
            for (front, cell) in ["materialized", "packed", "fed"].into_iter().zip([
                Some(&cells[0]),
                Some(&cells[1]),
                None,
            ]) {
                let run = |obs: &ObsHandle| match cell {
                    Some(cell) => cell_run(cell, obs),
                    None => fed_run(obs),
                };
                let rec = Arc::new(MemoryRecorder::new());
                let observed = run(&ObsHandle::new(rec.clone()));
                let m = observed.1;
                assert_eq!(run(&ObsHandle::off()), observed, "{kind}/{front}");
                assert_eq!(m.events, trace.len() as u64);
                let (got, snap) = counted(&rec);
                assert_eq!(got, want, "{kind}/{front}: op-class counters");
                if matches!(kind, DetectorKind::Hard(_) | DetectorKind::HbHw(_)) {
                    assert_eq!(snap.counter(CounterId::BroadcastsSent), m.meta_broadcasts);
                }
                if cell.is_some() {
                    assert_eq!(snap.spans.len(), 1);
                    assert_eq!(snap.spans[0].name, format!("run:{}", kind.label()));
                    assert_eq!(
                        (snap.spans[0].cycles, snap.spans[0].events),
                        (m.cycles, m.events)
                    );
                }
            }
        }
    }

    #[test]
    fn materialized_and_packed_fronts_match_the_per_event_oracle() {
        let trace = racy_trace();
        let packed = CellTrace::Packed(Arc::new(PackedTrace::from_trace(&trace).unwrap()));
        let materialized = CellTrace::Materialized(trace.clone());
        let probes = [Addr(0x1000)];
        for kind in all_kinds() {
            let oracle = execute(&kind, &trace, &probes);
            let [RunOutcome::Ok(mr, mm), RunOutcome::Ok(pr, pm)] = [&materialized, &packed]
                .map(|t| execute_hardened_cell(&kind, t, &probes, RunLimits::unlimited()))
            else {
                panic!("{kind}: both fronts must complete");
            };
            for (front, run) in [("materialized", &mr), ("packed", &pr)] {
                assert_eq!(run.reports, oracle.reports, "{kind}/{front}");
                assert_eq!(run.meta_lost, oracle.meta_lost, "{kind}/{front}");
            }
            assert_eq!(mm, pm, "{kind}: metrics must match");
            assert_eq!(mm.events, trace.len() as u64, "{kind}");
        }
    }

    #[test]
    fn deadlines_expire_at_the_same_point_from_every_front() {
        let trace = racy_trace();
        let packed = CellTrace::Packed(Arc::new(PackedTrace::from_trace(&trace).unwrap()));
        let materialized = CellTrace::Materialized(trace);
        let kind = DetectorKind::hard_default();
        for limits in [
            RunLimits {
                max_cycles: None,
                max_events: Some(300),
            },
            RunLimits {
                max_cycles: Some(5_000),
                max_events: None,
            },
        ] {
            let outs =
                [&materialized, &packed].map(|t| execute_hardened_cell(&kind, t, &[], limits));
            let [RunOutcome::TimedOut {
                events_done: me,
                cycles: mc,
            }, RunOutcome::TimedOut {
                events_done: pe,
                cycles: pc,
            }] = outs
            else {
                panic!("both fronts must time out: {outs:?}");
            };
            assert_eq!(
                (me, mc),
                (pe, pc),
                "{limits:?}: identical overshoot required"
            );
            assert_eq!(
                me % DEADLINE_STRIDE,
                0,
                "{limits:?}: deadlines fire at window ends"
            );
        }
    }

    #[test]
    fn streamed_replay_matches_the_per_event_oracle() {
        let trace = racy_trace();
        let packed = PackedTrace::from_trace(&trace).unwrap();
        for kind in all_kinds() {
            // Odd chunk size: batch boundaries and chunk boundaries
            // must not need to line up.
            let mut reader =
                ChunkedReader::spawn(std::io::Cursor::new(packed.bytes().to_vec()), 97);
            let (run, events, fnv) =
                execute_streamed(&kind, trace.num_threads, &mut reader).unwrap();
            assert_eq!(run.reports, execute(&kind, &trace, &[]).reports, "{kind}");
            assert_eq!(events, trace.len() as u64, "{kind}");
            assert_eq!(fnv, codec::fnv1a_update(codec::FNV1A_INIT, packed.bytes()));
        }
    }

    #[test]
    fn stream_feeder_matches_execute_streamed_for_any_chunking() {
        let trace = racy_trace();
        let packed = PackedTrace::from_trace(&trace).unwrap();
        for kind in [DetectorKind::hard_default(), DetectorKind::lockset_ideal()] {
            let mut reader =
                ChunkedReader::spawn(std::io::Cursor::new(packed.bytes().to_vec()), 97);
            let expected = execute_streamed(&kind, trace.num_threads, &mut reader).unwrap();
            // Chunk sizes that split records mid-way (7, 13), align
            // (16), and straddle batch windows (4095) must all be
            // invisible to the result.
            for chunk in [7usize, 13, 16, 4095] {
                let mut feeder = StreamFeeder::new(&kind, trace.num_threads);
                for piece in packed.bytes().chunks(chunk) {
                    feeder.feed(piece).unwrap();
                }
                let got = feeder.finish().unwrap();
                assert_eq!(got.0.reports, expected.0.reports, "{kind} chunk={chunk}");
                assert_eq!(
                    (got.1, got.2),
                    (expected.1, expected.2),
                    "{kind} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn stream_feeder_reports_truncation_like_the_pull_path() {
        let trace = racy_trace();
        let packed = PackedTrace::from_trace(&trace).unwrap();
        let kind = DetectorKind::lockset_ideal();
        let truncated = &packed.bytes()[..packed.bytes().len() - 5];
        let mut feeder = StreamFeeder::new(&kind, trace.num_threads);
        feeder.feed(truncated).unwrap();
        let err = feeder.finish().expect_err("mid-record stream must fail");
        let mut reader = ChunkedReader::spawn(std::io::Cursor::new(truncated.to_vec()), 1 << 14);
        let pull_err = execute_streamed(&kind, trace.num_threads, &mut reader)
            .expect_err("mid-record stream must fail");
        assert_eq!(err, pull_err);
        assert!(err.contains("mid-record"), "{err}");
    }

    #[test]
    fn stream_feeder_rejects_threads_outside_the_stream() {
        // Thread 1 of a two-thread trace, replayed as a one-thread
        // stream: an error naming the record, never a detector panic.
        let trace = racy_trace();
        let packed = PackedTrace::from_trace(&trace).unwrap();
        let first = trace
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::Op { thread, .. } if thread.0 == 1))
            .unwrap();
        for kind in all_kinds() {
            let mut feeder = StreamFeeder::new(&kind, 1);
            let err = feeder.feed(packed.bytes()).expect_err("thread 1 of 1");
            assert_eq!(
                err,
                format!("record {first}: t1 out of range for 1 threads")
            );
        }
    }

    /// Feeds 300 well-formed writes by t0 and then `tail` as one
    /// two-thread stream, split at several chunk sizes, under every
    /// detector; returns the error, which must not depend on either.
    fn malformed_stream_error(tail: &[(u32, Op)]) -> String {
        let write = Op::Write {
            addr: Addr(0x1000),
            size: 4,
            site: SiteId(0),
        };
        let events = std::iter::repeat_n((0, write), 300)
            .chain(tail.iter().copied())
            .map(|(t, op)| TraceEvent::Op {
                thread: ThreadId(t),
                op,
            })
            .collect();
        let packed = PackedTrace::from_trace(&Trace {
            events,
            num_threads: 2,
        })
        .unwrap();
        let mut errors = Vec::new();
        for kind in all_kinds() {
            for chunk in [1usize, 7, 16, 4095] {
                let mut feeder = StreamFeeder::new(&kind, 2);
                let fed = packed
                    .bytes()
                    .chunks(chunk)
                    .try_for_each(|p| feeder.feed(p));
                errors.push(fed.expect_err("a malformed stream must be rejected"));
            }
        }
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
        errors.swap_remove(0)
    }

    const LOCK: LockId = LockId(0x40);

    #[test]
    fn stream_feeder_rejects_unheld_releases() {
        let release = Op::Unlock {
            lock: LOCK,
            site: SiteId(1),
        };
        assert_eq!(
            malformed_stream_error(&[(1, release)]),
            "record 300: t1 releases unheld lock@0x40"
        );
    }

    #[test]
    fn stream_feeder_rejects_double_acquires() {
        let acquire = Op::Lock {
            lock: LOCK,
            site: SiteId(1),
        };
        assert_eq!(
            malformed_stream_error(&[(0, acquire), (1, acquire)]),
            "record 301: t1 acquires lock@0x40 held by t0"
        );
    }

    #[test]
    fn stream_feeder_rejects_acting_before_the_fork() {
        let fork = Op::Fork {
            child: ThreadId(1),
            site: SiteId(1),
        };
        assert_eq!(
            malformed_stream_error(&[(1, Op::Compute { cycles: 1 }), (0, fork)]),
            "record 301: t1 acts before its fork"
        );
    }

    #[test]
    fn stream_feeder_rejects_accesses_past_the_top_of_the_address_space() {
        let write = Op::Write {
            addr: Addr(u64::MAX - 1),
            size: 4,
            site: SiteId(1),
        };
        assert_eq!(
            malformed_stream_error(&[(1, write)]),
            "record 300: t1 access of 4 bytes at 0xfffffffffffffffe runs past the top of the address space"
        );
    }

    /// The highest four bytes an access may cover (its end, one past
    /// the last byte, must still fit in a `u64`), written by two
    /// threads holding no lock: every detector streams the trace
    /// without overflowing and reports the race.
    #[test]
    fn races_at_the_top_of_the_address_space_are_reported() {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            b.thread(t).write(Addr(u64::MAX - 4), 4, SiteId(t));
        }
        let packed =
            PackedTrace::from_trace(&Scheduler::new(SchedConfig::default()).run(&b.build()))
                .unwrap();
        for kind in all_kinds() {
            let mut reader = ChunkedReader::spawn(std::io::Cursor::new(packed.bytes().to_vec()), 1);
            let (run, events, _) = execute_streamed(&kind, 2, &mut reader).unwrap();
            assert_eq!(events, 2);
            assert!(!run.reports.is_empty(), "{kind:?} missed the race");
        }
    }

    /// A materialized trace skips the stream validator, so an access
    /// running past the top of the address space reaches the
    /// detectors: they clip it there instead of overflowing, and still
    /// report the race on the bytes below the top.
    #[test]
    fn unvalidated_accesses_past_the_top_are_clipped() {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            b.thread(t).write(Addr(u64::MAX - 1), 4, SiteId(t));
        }
        let trace = Scheduler::new(SchedConfig::default()).run(&b.build());
        for kind in all_kinds() {
            match hardened(&kind, &trace, &[], RunLimits::unlimited()) {
                RunOutcome::Ok(run, _) => {
                    assert!(!run.reports.is_empty(), "{kind:?} missed the race");
                }
                other => panic!("{kind:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn panics_are_contained_and_reported() {
        let caught = catch_unwind(|| panic!("boom")).is_err();
        assert!(caught);
        // Simulate a faulting detector through the public surface: the
        // closure-level containment is what execute_hardened_cell wraps.
        let out: RunOutcome = match catch_unwind(AssertUnwindSafe(|| -> RunOutcome {
            panic!("injected crash")
        })) {
            Ok(o) => o,
            Err(p) => RunOutcome::Faulted {
                message: p
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .unwrap_or_default(),
            },
        };
        assert!(matches!(out, RunOutcome::Faulted { .. }));
    }
}
