//! End-to-end contract of `hard-serve`: concurrent sessions produce
//! reports byte-identical to offline replay, hostile clients get
//! client-visible errors instead of taking the server down, and a
//! `Shutdown` frame drains cleanly.
//!
//! Everything lives in ONE `#[test]`: the test installs the
//! process-global observability recorder (first install wins), so a
//! single test must own the whole scenario.

use hard_harness::corpus::{encode_bytes, CORPUS_MAX_THREADS};
use hard_harness::service::{request_shutdown, submit_bytes};
use hard_harness::{CampaignConfig, Fixture, Submission};
use hard_obs::{CounterId, GaugeId, HistId, MemoryRecorder, ObsHandle};
use hard_serve::{ServeConfig, Server};
use hard_trace::codec::fnv1a;
use hard_trace::wire::{
    read_frame, read_handshake, write_frame, write_handshake, FrameKind, MAX_FRAME_BYTES,
};
use hard_trace::{Op, PackedTrace, Trace, TraceEvent};
use hard_types::{LockId, SiteId, ThreadId};
use hard_workloads::App;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A raw protocol client for the hostile cases.
fn raw_client(addr: &str) -> (std::io::BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let w = stream.try_clone().expect("clone");
    (std::io::BufReader::new(stream), w)
}

#[test]
fn serve_end_to_end() {
    let recorder = Arc::new(MemoryRecorder::new());
    assert!(
        hard_obs::install(ObsHandle::new(recorder.clone())),
        "this test must own the global recorder"
    );

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        // Capacity (workers + queue) comfortably above the 8
        // concurrent clients: this test pins the happy path with zero
        // sheds; overload shedding is chaos_integration's job.
        queue_depth: 8,
        max_sessions: 32,
        idle_timeout: Duration::from_millis(600),
        max_session_events: 1 << 26,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("addr").to_string();
    let server_thread = std::thread::spawn(move || server.run());

    // Two traces, two detectors; the expected notes are exactly what
    // `hard-exp replay` prints for each corpus.
    let cfg = CampaignConfig::reduced(0.05, 2);
    let a = Fixture::build(App::WaterNsquared, &cfg, 0, "hard").expect("fixture a");
    let b = Fixture::build(App::Barnes, &cfg, 1, "lockset-ideal").expect("fixture b");
    let (bytes_a, notes_a) = (a.corpus, a.expected.notes());
    let (bytes_b, notes_b) = (b.corpus, b.expected.notes());

    // --- 8 concurrent well-behaved sessions (two traces, two
    // detectors), interleaved with the hostile clients below.
    let good: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            let (bytes, notes, det) = if i % 2 == 0 {
                (bytes_a.clone(), notes_a.clone(), "hard")
            } else {
                (bytes_b.clone(), notes_b.clone(), "lockset-ideal")
            };
            // Even clients pick their own trace ID (and expect the
            // echo); odd clients leave it to the server.
            let client_trace = (i % 2 == 0).then_some(0xc11e_0000_0000_0000 | i as u64);
            std::thread::spawn(move || {
                // Small chunks exercise Data-frame reassembly.
                let outcome =
                    submit_bytes(&addr, &bytes, det, 1 << 10, client_trace).expect("submit");
                match client_trace {
                    Some(t) => assert_eq!(outcome.trace(), Some(t), "client {i} echo"),
                    None => assert!(
                        outcome.trace().is_some(),
                        "client {i} expected a server-assigned trace"
                    ),
                }
                match outcome {
                    Submission::Report { body, .. } => {
                        assert_eq!(body.notes(), notes, "client {i}");
                    }
                    other => panic!("client {i} got non-report answer: {other:?}"),
                }
            })
        })
        .collect();

    // --- Hostile client 1: an unknown frame kind after a valid
    // handshake. Expect a protocol-error frame, not a hang.
    let malformed = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let (mut r, mut w) = raw_client(&addr);
            write_handshake(&mut w).unwrap();
            read_handshake(&mut r).unwrap();
            w.write_all(&[0x7F, 4, 0, 0, 0]).unwrap(); // bogus kind
            w.write_all(b"oops").unwrap();
            let f = read_frame(&mut r, MAX_FRAME_BYTES).expect("error frame");
            assert_eq!(f.kind, FrameKind::Error);
            assert!(f.text().contains("unknown frame kind"), "{}", f.text());
        })
    };

    // --- Hostile client 2: disconnects mid-stream (a Data frame's
    // length prefix promises more bytes than are ever sent).
    let truncated = {
        let addr = addr.clone();
        let bytes = bytes_a.clone();
        std::thread::spawn(move || {
            let (mut r, mut w) = raw_client(&addr);
            write_handshake(&mut w).unwrap();
            read_handshake(&mut r).unwrap();
            write_frame(&mut w, FrameKind::Begin, b"hard").unwrap();
            w.write_all(&[FrameKind::Data as u8]).unwrap();
            w.write_all(&(u32::try_from(bytes.len()).unwrap()).to_le_bytes())
                .unwrap();
            w.write_all(&bytes[..bytes.len() / 2]).unwrap();
            w.flush().unwrap();
            // Drop both halves: mid-stream disconnect.
        })
    };

    // --- Hostile client 3: wrong handshake magic.
    let bad_magic = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let (mut r, mut w) = raw_client(&addr);
            w.write_all(b"HARDSRV9").unwrap();
            w.flush().unwrap();
            read_handshake(&mut r).expect("server still echoes its magic");
            let f = read_frame(&mut r, MAX_FRAME_BYTES).expect("error frame");
            assert_eq!(f.kind, FrameKind::Error);
            assert!(f.text().contains("handshake rejected"), "{}", f.text());
        })
    };

    // --- Hostile client 4: valid framing, corrupt payload (one bit
    // flipped past the header). The checksum verify must catch it.
    let corrupt = {
        let addr = addr.clone();
        let mut bytes = bytes_a.clone();
        std::thread::spawn(move || {
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            match submit_bytes(&addr, &bytes, "hard", 64 << 10, None).expect("submit") {
                Submission::ServerError { message: e, trace } => {
                    assert!(e.contains("checksum") || e.contains("mid-record"), "{e}");
                    // Session errors carry the session's trace too.
                    assert!(trace.is_some(), "error should echo the session trace");
                }
                other => panic!("corrupt payload produced {other:?}"),
            }
        })
    };

    // --- Hostile client 5: goes silent after Begin; the idle timeout
    // must cut it off with a client-visible error.
    let idle = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let (mut r, mut w) = raw_client(&addr);
            write_handshake(&mut w).unwrap();
            read_handshake(&mut r).unwrap();
            write_frame(&mut w, FrameKind::Begin, b"hard").unwrap();
            let f = read_frame(&mut r, MAX_FRAME_BYTES).expect("timeout error frame");
            assert_eq!(f.kind, FrameKind::Error);
            assert!(f.text().contains("idle timeout"), "{}", f.text());
        })
    };

    // --- Hostile client 6: a well-sealed header claiming one thread
    // over the format's limit. Rejected before any detector sizes its
    // per-thread state from it.
    let oversized = {
        let addr = addr.clone();
        let mut bytes = bytes_a.clone();
        std::thread::spawn(move || {
            bytes[8..12].copy_from_slice(&(CORPUS_MAX_THREADS + 1).to_le_bytes());
            let at = 32 + u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
            let fnv = fnv1a(&bytes[..at]).to_le_bytes();
            bytes[at..at + 8].copy_from_slice(&fnv);
            match submit_bytes(&addr, &bytes, "hb-ideal", 64 << 10, None).expect("submit") {
                Submission::ServerError { message, .. } => {
                    assert!(message.contains("thread limit"), "{message}");
                }
                other => panic!("oversized header produced {other:?}"),
            }
        })
    };

    // --- Hostile client 7: an intact stream that is no execution (t1
    // releases an unheld lock, then takes it while t0 holds it). The
    // error names the record exactly as `hard-exp replay` does.
    let lock_violation = {
        let addr = addr.clone();
        std::thread::spawn(move || {
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
                num_threads: 2,
            };
            let packed = PackedTrace::from_trace(&trace).expect("packs");
            let bytes = encode_bytes(&packed, None);
            match submit_bytes(&addr, &bytes, "hb-ideal", 64 << 10, None).expect("submit") {
                Submission::ServerError { message, .. } => {
                    assert!(
                        message.contains("record 1: t1 releases unheld lock@0x40"),
                        "{message}"
                    );
                }
                other => panic!("lock-violating stream produced {other:?}"),
            }
        })
    };

    for h in good {
        h.join().expect("good client");
    }
    for (name, h) in [
        ("malformed", malformed),
        ("truncated", truncated),
        ("bad_magic", bad_magic),
        ("corrupt", corrupt),
        ("idle", idle),
        ("oversized", oversized),
        ("lock_violation", lock_violation),
    ] {
        h.join()
            .unwrap_or_else(|_| panic!("{name} client panicked"));
    }

    // --- After all the abuse the server still serves, and a repeated
    // upload is answered from the report cache with identical bytes.
    let first = submit_bytes(&addr, &bytes_a, "hard", 64 << 10, None).expect("post-abuse submit");
    let second = submit_bytes(&addr, &bytes_a, "hard", 64 << 10, None).expect("cache submit");
    match (&first, &second) {
        (Submission::Report { body: a, trace: ta }, Submission::Report { body: b, trace: tb }) => {
            assert_eq!(a, b, "cache hit must be byte-identical");
            assert_eq!(a.notes(), notes_a);
            // Distinct sessions get distinct server-assigned traces,
            // even when the second is answered from the report cache.
            assert!(ta.is_some() && tb.is_some());
            assert_ne!(ta, tb, "each session owns its trace ID");
        }
        other => panic!("post-abuse submissions failed: {other:?}"),
    }

    // --- Graceful shutdown drains and the accept loop exits cleanly.
    request_shutdown(&addr).expect("shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("run() returns Ok after drain");

    // --- Session accounting: every connection was counted, completed
    // sessions match the successful submissions, every hostile client
    // surfaced as an error, and the repeat upload hit the cache.
    let snap = recorder.snapshot();
    let conns = snap.counter(CounterId::ServeConnections);
    // 8 good + 7 hostile + 2 post-abuse + 1 shutdown.
    assert_eq!(conns, 18, "accepted connections");
    assert_eq!(
        snap.counter(CounterId::ServeSessions),
        10,
        "8 concurrent + 2 post-abuse sessions completed"
    );
    assert!(
        snap.counter(CounterId::ServeErrors) >= 7,
        "each hostile client is counted"
    );
    // The 8 concurrent clients upload two distinct (detector, bytes)
    // pairs four times each, so some of them may also be answered from
    // cache depending on arrival order; the deterministic repeat
    // upload guarantees at least one hit.
    assert!(snap.counter(CounterId::ServeCacheHits) >= 1);
    assert_eq!(snap.counter(CounterId::ServeRejected), 0);
    assert_eq!(
        snap.counter(CounterId::ServeShed),
        0,
        "nothing sheds below capacity"
    );
    assert!(snap.counter(CounterId::ServeBytesIn) >= (bytes_a.len() as u64) * 2);

    // --- Telemetry: after the drain every in-flight gauge is back to
    // zero, each completed session timed its stages, and its spans
    // carry the session trace ID.
    for id in GaugeId::ALL {
        assert_eq!(snap.gauge(id), 0, "{} drains to zero", id.name());
    }
    let sessions = snap.counter(CounterId::ServeSessions);
    for id in [
        HistId::ServeStageUploadUs,
        HistId::ServeStageQueueWaitUs,
        HistId::ServeStageDetectUs,
        HistId::ServeStageRenderUs,
        HistId::ServeStageFlushUs,
    ] {
        let h = snap
            .histogram(id)
            .unwrap_or_else(|| panic!("{}", id.name()));
        // Every stage ran at least once; error sessions (the corrupt
        // upload reaches End too) may add observations beyond the
        // completed-session count, and cache hits subtract from the
        // detect-side stages, so exact equalities do not hold here.
        assert!(h.count >= 1, "{} observed", id.name());
    }
    // Flush happens exactly once per successfully answered session.
    let flush = snap.histogram(HistId::ServeStageFlushUs).expect("flush");
    assert_eq!(flush.count, sessions, "one flush per completed session");
    // Handshake timing is per-connection, not per-session.
    let hs = snap.histogram(HistId::ServeStageHandshakeUs).expect("hs");
    assert!(hs.count >= 10, "every well-formed connection handshakes");
    // The even-numbered concurrent clients chose their own trace IDs;
    // their detect spans must carry them.
    let traced: Vec<_> = snap.spans.iter().filter_map(|s| s.trace).collect();
    for i in [0u64, 2, 4, 6] {
        let t = 0xc11e_0000_0000_0000 | i;
        assert!(traced.contains(&t), "client trace {t:#x} reaches a span");
    }
    // Every traced span family appears for at least one session.
    for stage in [
        "serve:accept",
        "serve:handshake",
        "serve:upload",
        "serve:flush",
    ] {
        assert!(
            snap.spans
                .iter()
                .any(|s| s.name == stage && s.trace.is_some()),
            "{stage} span recorded with a trace"
        );
    }
}
