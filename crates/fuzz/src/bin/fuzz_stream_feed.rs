//! Differential fuzzing of the push-style record stream
//! ([`hard_harness::StreamFeeder`]), the parser every `hard-serve`
//! upload goes through.
//!
//! Input layout: byte 0 picks the detector and the split schedule;
//! the rest is the packed-record payload. Invariants: feeding the
//! payload at arbitrary split points gives exactly what one `feed` of
//! the whole buffer gives — reports, event count, payload FNV, or the
//! same error string naming the same record index — and so does
//! [`hard_harness::execute_streamed`] over a
//! [`hard_trace::ChunkedReader`] cutting the same bytes into chunks.
//! And whenever [`PackedTrace::from_bytes`] accepts the payload, the
//! feeder rejects it exactly when [`hard_trace::Trace::validate`] does,
//! at the same event index and for the same cause.

use hard_harness::{execute_streamed, DetectorKind, StreamFeeder};
use hard_trace::packed_event::RECORD_BYTES;
use hard_trace::{ChunkedReader, Op, PackedTrace, RaceReport, Trace, TraceEvent};
use hard_types::{LockId, SiteId, ThreadId, Xoshiro256};
use std::process::ExitCode;

/// Threads the stream claims; mutated records may name others.
const THREADS: usize = 4;

type Outcome = Result<(Vec<RaceReport>, u64, u64), String>;

fn kinds() -> [DetectorKind; 5] {
    [
        DetectorKind::lockset_ideal(),
        DetectorKind::hb_ideal(),
        DetectorKind::BloomUnbounded(Default::default()),
        DetectorKind::hard_default(),
        DetectorKind::hb_default(),
    ]
}

/// Feeds `pieces` in order, stopping at the first error as the serve
/// tier does.
fn feed<'a>(kind: &DetectorKind, pieces: impl IntoIterator<Item = &'a [u8]>) -> Outcome {
    let mut feeder = StreamFeeder::new(kind, THREADS);
    for piece in pieces {
        feeder.feed(piece)?;
    }
    feeder
        .finish()
        .map(|(run, events, fnv)| (run.reports, events, fnv))
}

fn target(data: &[u8]) {
    let Some((&ctl, payload)) = data.split_first() else {
        return;
    };
    let kind = kinds()[usize::from(ctl) % 5];
    let whole = feed(&kind, [payload]);

    // Arbitrary split points, drawn from a schedule the input seeds.
    let mut rng = Xoshiro256::seed_from_u64(u64::from(ctl) ^ payload.len() as u64);
    let mut pieces = Vec::new();
    let mut rest = payload;
    while !rest.is_empty() {
        let n = 1 + rng.gen_index(rest.len().min(3 * RECORD_BYTES));
        let (piece, tail) = rest.split_at(n);
        pieces.push(piece);
        rest = tail;
    }
    assert_eq!(feed(&kind, pieces), whole, "split feed diverged");

    let chunk_records = 1 + usize::from(ctl >> 3) % 4;
    let mut reader = ChunkedReader::spawn(std::io::Cursor::new(payload.to_vec()), chunk_records);
    let pulled = execute_streamed(&kind, THREADS, &mut reader)
        .map(|(run, events, fnv)| (run.reports, events, fnv));
    assert_eq!(pulled, whole, "execute_streamed diverged from the feeder");

    if let Ok(packed) = PackedTrace::from_bytes(THREADS as u32, payload.to_vec()) {
        // Whole valid records: only the validator can refuse them.
        let fed = whole.as_ref().err().map(|e| {
            e.strip_prefix("record ")
                .unwrap_or_else(|| panic!("feeder error without a record index: {e}"))
                .to_string()
        });
        let validated = packed.to_trace().validate().err().map(|e| {
            e.strip_prefix("event ")
                .unwrap_or_else(|| panic!("validate error without an event index: {e}"))
                .to_string()
        });
        assert_eq!(fed, validated, "feeder and Trace::validate disagree");
    }
}

/// Real packed records from a tiny generated trace, one seed per
/// detector, so mutations start from every tag the encoder emits.
fn seeds() -> Vec<Vec<u8>> {
    let cfg = hard_harness::CampaignConfig::reduced(0.02, 1);
    let (trace, _) = hard_harness::campaign::injected_trace(hard_workloads::App::Ocean, &cfg, 0);
    let packed = PackedTrace::from_trace(&trace).expect("workload trace packs");
    assert!(packed.num_threads() <= THREADS, "seed trace fits THREADS");
    let bytes = packed.bytes();
    let head = &bytes[..bytes.len().min(600 * RECORD_BYTES)];
    (0..5u8)
        .map(|k| [&[k][..], head].concat())
        .chain([vec![0u8; 1 + 2 * RECORD_BYTES + 5], lock_violation()])
        .collect()
}

/// t1 releases an unheld lock, then acquires it while t0 holds it:
/// the mutator starts one seed inside the validator's rejections.
fn lock_violation() -> Vec<u8> {
    let (lock, site) = (LockId(0x40), SiteId(0));
    let ops = [
        (0, Op::Compute { cycles: 1 }),
        (1, Op::Unlock { lock, site }),
        (0, Op::Lock { lock, site }),
        (1, Op::Lock { lock, site }),
        (0, Op::Unlock { lock, site }),
    ];
    let trace = Trace {
        events: ops
            .into_iter()
            .map(|(t, op)| TraceEvent::Op {
                thread: ThreadId(t),
                op,
            })
            .collect(),
        num_threads: THREADS,
    };
    let packed = PackedTrace::from_trace(&trace).expect("hand-built trace packs");
    [&[1u8][..], packed.bytes()].concat()
}

fn main() -> ExitCode {
    // Room for several 256-event detection windows per input.
    let defaults = hard_fuzz::FuzzConfig {
        max_len: 1 + 1024 * RECORD_BYTES,
        ..hard_fuzz::FuzzConfig::default()
    };
    hard_fuzz::fuzz_main_over("fuzz_stream_feed", defaults, seeds(), target)
}
