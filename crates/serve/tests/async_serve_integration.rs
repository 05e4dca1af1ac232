//! The async rewrite's headline behaviors, proven end to end:
//!
//! 1. **No head-of-line blocking** — with a *single* detection permit,
//!    a slow-loris uploader dribbling bytes must not delay concurrent
//!    fast sessions. Under the old thread-per-session pool this exact
//!    setup serialized everything behind the loris; incrementally fed
//!    sessions only hold a permit while a chunk is actually being
//!    detected, never while waiting for the network.
//! 2. **Mid-`Data` disconnect frees budgets** — a client that uploads
//!    real chunks and vanishes must release its session slot and its
//!    in-flight byte charge, observed through [`Server::stats`].
//! 3. **Shutdown-during-upload is explicit** — a `Shutdown` frame
//!    arriving while another session is mid-upload must hand that
//!    session a shutdown `Error` frame (never a silent close), then
//!    drain cleanly.
//! 4. **Serve-vs-oracle byte-identity** — the served report, computed
//!    through windowed dispatch, matches the per-event
//!    [`hard_harness::execute`] oracle over the same trace, byte for
//!    byte.

use hard_harness::service::{probe_health, request_shutdown, submit_bytes};
use hard_harness::{
    execute, injected_trace, CampaignConfig, DetectorKind, Fixture, ReportBody, Submission,
};
use hard_serve::{ServeConfig, Server};
use hard_trace::wire::{
    read_frame, read_handshake, write_frame, write_handshake, FrameKind, MAX_FRAME_BYTES,
};
use hard_workloads::App;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A corpus plus the encoded offline-replay report every served
/// report must match byte for byte.
fn fixture(app: App, run_idx: usize) -> (Vec<u8>, String) {
    let cfg = CampaignConfig::reduced(0.05, 2);
    let f = Fixture::build(app, &cfg, run_idx, "hard").expect("fixture");
    (f.corpus, f.expected.encode())
}

fn raw_client(addr: &str) -> (std::io::BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let w = stream.try_clone().expect("clone");
    (std::io::BufReader::new(stream), w)
}

/// Spins until `cond` holds or the deadline trips.
fn await_cond(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let started = Instant::now();
    while !cond() {
        assert!(
            started.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn async_serve_behaviors() {
    let (bytes, expected) = fixture(App::WaterNsquared, 0);

    // --- 1. Slow-loris concurrent with fast sessions, ONE detection
    // permit. The loris dribbles a promised Data payload one byte at a
    // time; four fast clients submit complete corpora meanwhile. An
    // architecture that parks a worker per connection deadlocks-by-
    // -queueing here; the incremental design must finish every fast
    // session while the loris is still dribbling.
    {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 4,
            idle_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let stats = server.stats();
        let thread = std::thread::spawn(move || server.run());

        // The loris: handshake, Begin, then one byte of a 1 KiB Data
        // payload every 50 ms. Every byte resets the idle clock, so
        // the server must keep the session open without dedicating
        // any detection capacity to it.
        let loris_addr = addr.clone();
        let loris_started = Instant::now();
        let loris = std::thread::spawn(move || {
            let (_r, mut w) = raw_client(&loris_addr);
            write_handshake(&mut w).unwrap();
            write_frame(&mut w, FrameKind::Begin, b"hard").unwrap();
            w.write_all(&[FrameKind::Data as u8]).unwrap();
            w.write_all(&1024u32.to_le_bytes()).unwrap();
            for _ in 0..60 {
                if w.write_all(&[0x41]).and_then(|()| w.flush()).is_err() {
                    break; // server cut us off; the point is made
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            loris_started.elapsed()
        });
        // Let the loris establish its session before racing it.
        await_cond("loris session to open", Duration::from_secs(5), || {
            stats.active_sessions() >= 1
        });

        let fast: Vec<_> = (0..4)
            .map(|i| {
                let addr = addr.clone();
                let bytes = bytes.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let started = Instant::now();
                    match submit_bytes(&addr, &bytes, "hard", 32 << 10, None).expect("fast submit")
                    {
                        Submission::Report { body, .. } => {
                            assert_eq!(body.encode(), expected, "fast client {i} diverged");
                        }
                        other => panic!("fast client {i} got {other:?}"),
                    }
                    started.elapsed()
                })
            })
            .collect();
        let slowest = fast
            .into_iter()
            .map(|h| h.join().expect("fast client"))
            .max()
            .expect("four clients");
        let loris_lived = loris.join().expect("loris");
        assert!(
            slowest < Duration::from_secs(2),
            "a fast session took {slowest:?} — it queued behind the loris"
        );
        assert!(
            loris_lived > slowest,
            "loris ended ({loris_lived:?}) before the slowest fast session \
             ({slowest:?}); the head-of-line claim was not exercised"
        );
        await_cond("sessions to drain", Duration::from_secs(10), || {
            stats.active_sessions() == 0 && stats.inflight_bytes() == 0
        });
        request_shutdown(&addr).expect("shutdown");
        thread.join().expect("join").expect("clean drain");
    }

    // --- 2. Mid-Data disconnect: upload real chunks, confirm the
    // byte budget is charged, vanish. Slot and budget must both free.
    {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let stats = server.stats();
        let thread = std::thread::spawn(move || server.run());
        {
            let (mut r, mut w) = raw_client(&addr);
            write_handshake(&mut w).unwrap();
            read_handshake(&mut r).unwrap();
            write_frame(&mut w, FrameKind::Begin, b"hard").unwrap();
            for chunk in bytes.chunks(8 << 10).take(3) {
                write_frame(&mut w, FrameKind::Data, chunk).unwrap();
            }
            w.flush().unwrap();
            await_cond("byte budget to charge", Duration::from_secs(5), || {
                stats.inflight_bytes() > 0
            });
        } // both halves drop: TCP FIN mid-session
        await_cond(
            "slot and budget to free after disconnect",
            Duration::from_secs(10),
            || stats.active_sessions() == 0 && stats.inflight_bytes() == 0,
        );
        let health = probe_health(&addr, Duration::from_secs(5)).expect("health");
        assert!(health.ready, "drained server must be ready again");
        request_shutdown(&addr).expect("shutdown");
        thread.join().expect("join").expect("clean drain");
    }

    // --- 3. Shutdown during an open upload: the mid-upload session
    // gets an explicit shutdown Error frame, never a silent close.
    {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let stats = server.stats();
        let thread = std::thread::spawn(move || server.run());

        let (mut r, mut w) = raw_client(&addr);
        write_handshake(&mut w).unwrap();
        read_handshake(&mut r).unwrap();
        write_frame(&mut w, FrameKind::Begin, b"hard").unwrap();
        write_frame(&mut w, FrameKind::Data, &bytes[..8 << 10]).unwrap();
        w.flush().unwrap();
        await_cond("upload session to open", Duration::from_secs(5), || {
            stats.active_sessions() >= 1 && stats.inflight_bytes() > 0
        });

        request_shutdown(&addr).expect("shutdown accepted");
        let f = read_frame(&mut r, MAX_FRAME_BYTES).expect("explicit shutdown verdict");
        assert_eq!(f.kind, FrameKind::Error, "got {:?}", f.kind);
        assert!(
            f.text().contains("shutting down"),
            "shutdown verdict must say so: {}",
            f.text()
        );
        thread
            .join()
            .expect("join")
            .expect("drain with open upload");
    }

    // --- 4. Byte-identity with the per-event oracle: `execute` over
    // the fixture's own trace, against the windowed served session.
    {
        let (bytes, replayed) = fixture(App::WaterNsquared, 1);
        let kind = DetectorKind::parse("hard").expect("kind");
        let (trace, _) = injected_trace(App::WaterNsquared, &CampaignConfig::reduced(0.05, 2), 1);
        let oracle = ReportBody {
            label: kind.label().to_string(),
            events: trace.len() as u64,
            reports: execute(&kind, &trace, &[]).reports,
        }
        .encode();
        assert_eq!(
            replayed, oracle,
            "streamed replay diverged from the per-event oracle"
        );
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let thread = std::thread::spawn(move || server.run());
        match submit_bytes(&addr, &bytes, "hard", 16 << 10, None).expect("submit") {
            Submission::Report { body, .. } => assert_eq!(
                body.encode(),
                oracle,
                "served report diverged from the per-event oracle"
            ),
            other => panic!("submit got {other:?}"),
        }
        request_shutdown(&addr).expect("shutdown");
        thread.join().expect("join").expect("clean drain");
    }
}
