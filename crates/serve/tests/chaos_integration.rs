//! The serve tier under abuse: the flush regression, slow and
//! vanishing clients, overload shedding, and a seeded chaos sweep.
//!
//! Everything lives in ONE `#[test]` (the process-global observability
//! recorder allows a single owner), structured as sequential scenarios
//! against purpose-configured servers:
//!
//! 1. **Flush regression** — a submission against a server with a long
//!    idle timeout must complete promptly. Before the fix, the
//!    client's `End` frame sat in its `BufWriter` while the client
//!    waited for a report the server could never send.
//! 2. **Hostile clients** — a slow-loris that dribbles bytes then goes
//!    silent, and a client that vanishes mid-`Data`, must both free
//!    their session slot and in-flight byte budget.
//! 3. **Overload shedding** — with one session slot, a second client
//!    is answered `Busy` (with a retry-after hint) instead of
//!    blocking, and a retrying client eventually lands once the slot
//!    frees.
//! 4. **Chaos sweep** — a fleet of retrying clients submits through a
//!    seeded [`ChaosProxy`]; every session ends in a report
//!    byte-identical to offline replay, and the server drains to zero
//!    sessions and zero in-flight bytes.

use hard_harness::chaos::{ChaosProxy, NetFaultPlan};
use hard_harness::service::{
    probe_health, request_shutdown, submit_bytes, submit_bytes_retrying, RetryPolicy,
};
use hard_harness::{CampaignConfig, Fixture, Submission};
use hard_obs::{CounterId, MemoryRecorder, ObsHandle};
use hard_serve::{ServeConfig, Server};
use hard_trace::wire::{
    read_frame, read_handshake, write_frame, write_handshake, FrameKind, MAX_FRAME_BYTES,
};
use hard_workloads::App;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
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
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn chaos_hardening() {
    let recorder = Arc::new(MemoryRecorder::new());
    assert!(
        hard_obs::install(ObsHandle::new(recorder.clone())),
        "this test must own the global recorder"
    );
    let (bytes, expected) = fixture(App::WaterNsquared, 0);

    // --- 1. Flush regression: long idle timeout, tiny chunks. If the
    // client fails to flush its End frame, both sides block until the
    // idle timeout — far beyond this bound.
    {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            idle_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let thread = std::thread::spawn(move || server.run());
        let started = Instant::now();
        match submit_bytes(&addr, &bytes, "hard", 1 << 10, None).expect("submit") {
            Submission::Report { body, .. } => assert_eq!(body.encode(), expected),
            other => panic!("flush-regression submit got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "submission took {:?} — an unflushed frame is stalling the session",
            started.elapsed()
        );
        let health = probe_health(&addr, Duration::from_secs(5)).expect("health");
        assert!(health.ready, "idle server must be ready");
        assert_eq!(health.active_sessions, 0, "probe excludes itself");
        request_shutdown(&addr).expect("shutdown");
        thread.join().expect("join").expect("clean drain");
    }

    // --- 2. Hostile clients against a short-idle server: both must
    // free their session slot and in-flight byte budget.
    {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            idle_timeout: Duration::from_millis(400),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let stats = server.stats();
        let thread = std::thread::spawn(move || server.run());
        let errors_before = recorder.snapshot().counter(CounterId::ServeErrors);

        // Slow loris: dribble one byte of a promised Data payload at a
        // time — each byte resets the idle clock — then go silent.
        {
            let (mut r, mut w) = raw_client(&addr);
            write_handshake(&mut w).unwrap();
            read_handshake(&mut r).unwrap();
            write_frame(&mut w, FrameKind::Begin, b"hard").unwrap();
            w.write_all(&[FrameKind::Data as u8]).unwrap();
            w.write_all(&1024u32.to_le_bytes()).unwrap();
            for _ in 0..6 {
                w.write_all(&[0x41]).unwrap();
                w.flush().unwrap();
                std::thread::sleep(Duration::from_millis(60));
            }
            // Now stall past the idle timeout; the server must cut us
            // off rather than hold the slot for a client that neither
            // finishes nor disconnects.
            let f = read_frame(&mut r, MAX_FRAME_BYTES).expect("idle-timeout error frame");
            assert_eq!(f.kind, FrameKind::Error);
            assert!(f.text().contains("idle timeout"), "{}", f.text());
        }

        // Mid-Data disconnect: upload real Data frames, confirm the
        // byte budget is charged, vanish without an End.
        {
            let (mut r, mut w) = raw_client(&addr);
            write_handshake(&mut w).unwrap();
            read_handshake(&mut r).unwrap();
            write_frame(&mut w, FrameKind::Begin, b"hard").unwrap();
            for chunk in bytes.chunks(8 << 10).take(3) {
                write_frame(&mut w, FrameKind::Data, chunk).unwrap();
            }
            w.flush().unwrap();
            await_cond("upload bytes to be charged", Duration::from_secs(5), || {
                stats.inflight_bytes() > 0
            });
            drop((r, w));
        }

        await_cond(
            "hostile sessions to free slot and bytes",
            Duration::from_secs(10),
            || stats.active_sessions() == 0 && stats.inflight_bytes() == 0,
        );
        assert!(
            recorder.snapshot().counter(CounterId::ServeErrors) > errors_before,
            "the cut-off client surfaces as a serve error"
        );
        request_shutdown(&addr).expect("shutdown");
        thread.join().expect("join").expect("clean drain");
    }

    // --- 3. Overload shedding: one session slot, held open; the next
    // client gets Busy + retry-after instead of blocking, and a
    // retrying client wins the slot once it frees.
    {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 1,
            idle_timeout: Duration::from_secs(5),
            busy_retry_after: Duration::from_millis(40),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let stats = server.stats();
        let thread = std::thread::spawn(move || server.run());
        let shed_before = recorder.snapshot().counter(CounterId::ServeShed);

        // Hold the only slot open mid-session.
        let (mut holder_r, mut holder_w) = raw_client(&addr);
        write_handshake(&mut holder_w).unwrap();
        read_handshake(&mut holder_r).unwrap();
        write_frame(&mut holder_w, FrameKind::Begin, b"hard").unwrap();
        holder_w.flush().unwrap();
        await_cond("holder to take the slot", Duration::from_secs(5), || {
            stats.active_sessions() == 1
        });

        match submit_bytes(&addr, &bytes, "hard", 64 << 10, None).expect("submit while full") {
            Submission::Busy {
                retry_after,
                message,
                ..
            } => {
                assert_eq!(
                    retry_after,
                    Some(Duration::from_millis(40)),
                    "Busy carries the configured hint"
                );
                assert!(message.contains("session"), "{message}");
            }
            other => panic!("a full server must shed, got {other:?}"),
        }
        assert!(
            recorder.snapshot().counter(CounterId::ServeShed) > shed_before,
            "sheds are counted"
        );

        // A retrying client parks on backoff while a second thread
        // releases the holder; the retry must then land.
        let releaser = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                drop((holder_r, holder_w));
                // The slot frees when the server notices the EOF.
                let _ = addr;
            })
        };
        let policy = RetryPolicy {
            max_attempts: 20,
            base_delay: Duration::from_millis(40),
            max_delay: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let (outcome, retry_stats) =
            submit_bytes_retrying(&addr, &bytes, "hard", 64 << 10, &policy, None);
        match outcome.expect("eventual success") {
            Submission::Report { body, .. } => assert_eq!(body.encode(), expected),
            other => panic!("retrying client got {other:?}"),
        }
        assert!(
            retry_stats.busy >= 1,
            "the retrying client was shed at least once: {retry_stats:?}"
        );
        releaser.join().expect("releaser");
        request_shutdown(&addr).expect("shutdown");
        thread.join().expect("join").expect("clean drain");
    }

    // --- 4. Chaos sweep: retrying clients through a seeded fault
    // proxy. Reports must be byte-identical to offline replay and the
    // server must drain to zero.
    {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 8,
            idle_timeout: Duration::from_millis(1500),
            ..ServeConfig::default()
        })
        .expect("bind");
        let server_addr = server.local_addr().expect("addr").to_string();
        let thread = std::thread::spawn(move || server.run());
        let proxy = ChaosProxy::spawn(
            "127.0.0.1:0",
            &server_addr,
            NetFaultPlan::uniform(0xC4A0_5157, 4_000),
        )
        .expect("proxy");
        let proxy_addr = proxy.local_addr().to_string();

        std::thread::scope(|scope| {
            for client in 0..4u64 {
                let proxy_addr = &proxy_addr;
                let bytes = &bytes;
                let expected = &expected;
                scope.spawn(move || {
                    let policy = RetryPolicy {
                        max_attempts: 12,
                        base_delay: Duration::from_millis(20),
                        max_delay: Duration::from_millis(300),
                        jitter_seed: client,
                        connect_timeout: Duration::from_secs(5),
                        io_timeout: Duration::from_secs(20),
                    };
                    for _ in 0..2 {
                        let (outcome, _) = submit_bytes_retrying(
                            proxy_addr,
                            bytes,
                            "hard",
                            1 << 10,
                            &policy,
                            None,
                        );
                        match outcome.expect("eventual success under chaos") {
                            Submission::Report { body, .. } => assert_eq!(
                                body.encode(),
                                *expected,
                                "no-wrong-report invariant (client {client})"
                            ),
                            other => panic!("client {client} got {other:?}"),
                        }
                    }
                });
            }
        });

        // Leak check bypasses the proxy: the server itself must be
        // back to zero sessions and zero in-flight bytes.
        await_cond(
            "server to drain after chaos",
            Duration::from_secs(10),
            || {
                probe_health(&server_addr, Duration::from_secs(5))
                    .map(|h| h.active_sessions == 0 && h.inflight_bytes == 0)
                    .unwrap_or(false)
            },
        );
        let chaos = proxy.stats();
        proxy.shutdown();
        request_shutdown(&server_addr).expect("shutdown");
        thread.join().expect("join").expect("clean drain");
        // 8 sessions x hundreds of 1 KiB frames at 4000 ppm: the odds
        // of a fault-free sweep are negligible, and the schedule is
        // seeded — if this fires, the injector is broken, not unlucky.
        let injected = chaos.resets + chaos.flips + chaos.stalls + chaos.shorts;
        assert!(
            injected > 0,
            "the proxy injected nothing at 4000 ppm: {chaos:?}"
        );
    }
}
