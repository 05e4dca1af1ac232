//! Fuzzes the archival trace codec ([`hard_trace::codec::decode`] and
//! [`hard_trace::codec::decode_lossy`]), the import path `hard-exp
//! replay` takes for `HARDTRC1`/`HARDTRC2` files.
//!
//! Invariants:
//! * arbitrary bytes never panic either decoder;
//! * when `decode` accepts the input, `decode_lossy` returns the same
//!   trace and calls it complete;
//! * the prefix `decode_lossy` recovers is a trace of its own: it
//!   re-encodes and decodes to itself.

use hard_trace::codec::{self, MAGIC_V1};
use std::process::ExitCode;

fn target(data: &[u8]) {
    let strict = codec::decode(data);
    let Ok(lossy) = codec::decode_lossy(data) else {
        assert!(
            strict.is_err(),
            "decode accepted a header decode_lossy rejected"
        );
        return;
    };
    if let Ok(trace) = strict {
        assert!(
            lossy.complete,
            "a clean stream decoded lossily as incomplete"
        );
        assert_eq!(lossy.events_lost, 0, "a clean stream lost events");
        assert_eq!(lossy.trace, trace, "decode and decode_lossy disagree");
    }
    let mut bytes = Vec::new();
    codec::encode(&lossy.trace, &mut bytes).expect("encoding into a vector cannot fail");
    let again = codec::decode(bytes.as_slice()).expect("a re-encoded prefix decodes");
    assert_eq!(
        again, lossy.trace,
        "the recovered prefix does not round-trip"
    );
}

/// The first 700 events of a real workload trace (two v2 frames), the
/// same events in the unframed v1 layout, and a v2 stream cut inside
/// its second frame — so mutations start from both formats and from
/// the lossy path.
fn seeds() -> Vec<Vec<u8>> {
    let cfg = hard_harness::CampaignConfig::reduced(0.02, 1);
    let (mut trace, _) =
        hard_harness::campaign::injected_trace(hard_workloads::App::Ocean, &cfg, 0);
    trace.events.truncate(700);
    let mut v2 = Vec::new();
    codec::encode(&trace, &mut v2).expect("encoding into a vector cannot fail");
    // v1 is the v2 header under the old magic, followed by the frame
    // payloads without their (length, count, checksum) headers.
    let mut v1 = [&MAGIC_V1[..], &v2[8..20]].concat();
    let mut rest = &v2[20..];
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        v1.extend_from_slice(&rest[16..16 + len]);
        rest = &rest[16 + len..];
    }
    let cut = v2[..v2.len() - 100].to_vec();
    let decoded = |bytes: &[u8]| codec::decode_lossy(bytes).expect("seed header decodes");
    assert!(
        decoded(&v1).complete && decoded(&v1).trace == trace,
        "v1 seed"
    );
    assert!(!decoded(&cut).complete, "cut seed takes the lossy path");
    vec![v2, v1, cut]
}

fn main() -> ExitCode {
    // Room for the two-frame seeds and their growth.
    let defaults = hard_fuzz::FuzzConfig {
        max_len: 16 * 1024,
        ..hard_fuzz::FuzzConfig::default()
    };
    hard_fuzz::fuzz_main_over("fuzz_codec", defaults, seeds(), target)
}
