//! Fuzzes the `HARDCRP1` corpus-header parser
//! ([`hard_harness::corpus::parse_header`]).
//!
//! This is the first code that touches bytes a client uploads to
//! `hard-serve`, so it is the natural place for a length-field
//! overflow or a truncation panic to hide. Invariants: arbitrary bytes
//! produce `Err`, never a panic, an accepted header's payload offset
//! stays inside the input, and its thread count is within
//! [`CORPUS_MAX_THREADS`].

use hard_harness::corpus::{encode_bytes, parse_header, CORPUS_MAX_THREADS};
use hard_trace::PackedTrace;
use std::process::ExitCode;

fn target(data: &[u8]) {
    if let Ok((header, payload_at)) = parse_header(data) {
        assert!(
            payload_at <= data.len(),
            "accepted header points past the input"
        );
        assert!(
            header.num_threads <= CORPUS_MAX_THREADS,
            "accepted a header over the thread limit"
        );
        // Field reads must have been bounds-checked, not wrapped.
        let _ = header.events;
    }
}

/// A real corpus (header + payload), exactly what the integration
/// tests upload — the mutator corrupts it from a valid starting point.
fn seeds() -> Vec<Vec<u8>> {
    let cfg = hard_harness::CampaignConfig::reduced(0.02, 1);
    let (trace, injection) =
        hard_harness::campaign::injected_trace(hard_workloads::App::Ocean, &cfg, 0);
    let packed = PackedTrace::from_trace(&trace).expect("workload trace packs");
    let with_injection = encode_bytes(&packed, Some(&injection));
    let without = encode_bytes(&packed, None);
    vec![with_injection, without]
}

fn main() -> ExitCode {
    hard_fuzz::fuzz_main("fuzz_corpus_header", seeds(), target)
}
