//! `serve`: an in-process `hard_serve::Server` on loopback, report cache
//! off, driven by two closed-loop clients. Each client submits a seeded
//! cycle of the 12 fixtures with the `hard` detector (the six apps'
//! injected traces at scales 0.05 and 0.3, 48 KB to 1.8 MB uploads; see
//! [`cycle`] for the weights) and waits for each report before sending
//! the next. Every report is
//! compared byte for byte with offline [`execute_streamed`] replay of
//! the same bytes.
//!
//! This is the only workload that goes through `hard_trace::wire`,
//! `hard_aio` and admission control, and its many short sessions expose
//! per-session costs that `table2` amortizes. The client speaks the
//! protocol the way `hard-exp submit` does (buffered writer, 64 KiB Data
//! frames, default socket options) so that it measures what that client
//! sees.

use crate::cells::Cell;
use crate::layers::Layers;
use crate::{cpu_since, cpu_times, median, peak_rss_mib, percentile, repeat_setup, reset_peak_rss};
use crate::{Args, Outcome};
use hard_harness::corpus::parse_header;
use hard_harness::{execute_streamed, DetectorKind, ReportBody};
use hard_serve::{ServeConfig, ServeStats, Server};
use hard_trace::packed_event::{ChunkedReader, DEFAULT_CHUNK_RECORDS};
use hard_trace::wire::{
    encode_begin, read_frame, read_handshake, split_traced, write_frame, write_handshake,
    FrameKind, MAX_FRAME_BYTES,
};
use hard_types::Xoshiro256;
use hard_workloads::App;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Fixture scales: small uploads that stall on the socket, and large
/// ones that run at detection speed.
const SCALES: [f64; 2] = [0.05, 0.3];
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// The detector every session asks for.
const DETECTOR: &str = "hard";
/// Data frame size, as `hard-exp submit` sends.
const CHUNK: usize = 64 << 10;
/// Uploads below this size form the small-upload latency mode.
const SMALL_UPLOAD: usize = 100 << 10;
/// The unmeasured warm-up before the measured phase.
const WARM_UP: Duration = Duration::from_secs(1);

/// One upload and the report offline replay gives for it.
struct Fixture {
    bytes: Vec<u8>,
    expected: String,
    events: u64,
}

/// Set-up: builds the 12 fixtures and replays each offline.
fn fixtures(seed: u64) -> Result<Vec<Fixture>, String> {
    let kind = DetectorKind::parse(DETECTOR)?;
    let mut out = Vec::new();
    for app in App::all() {
        for scale in SCALES {
            let cell = Cell {
                app,
                run: Some(0),
                scale,
                seed,
            };
            let (bytes, _) = cell.encode(&mut Layers::off());
            let (header, at) = parse_header(&bytes)?;
            let mut reader = ChunkedReader::spawn(
                std::io::Cursor::new(bytes[at..].to_vec()),
                DEFAULT_CHUNK_RECORDS,
            );
            let (run, events, fnv) =
                execute_streamed(&kind, header.num_threads as usize, &mut reader)?;
            if (events, fnv) != (header.events, header.payload_fnv) {
                return Err(format!(
                    "offline replay of {app} at {scale} disagrees with its header"
                ));
            }
            let expected = ReportBody {
                label: kind.label().to_string(),
                events,
                reports: run.reports,
            }
            .encode();
            out.push(Fixture {
                bytes,
                expected,
                events,
            });
        }
    }
    Ok(out)
}

/// One session as the client saw it.
#[derive(Clone, Debug, Default)]
struct Session {
    fixture: usize,
    trace: u64,
    connect_s: f64,
    upload_s: f64,
    wait_s: f64,
    ok: bool,
    busy: bool,
}

impl Session {
    /// From writing `Begin` to holding the verified report.
    fn latency_s(&self) -> f64 {
        self.upload_s + self.wait_s
    }
}

/// Submits one fixture and verifies the answer.
fn session(addr: &str, fixture: usize, f: &Fixture, trace: u64) -> Session {
    let mut s = Session {
        fixture,
        trace,
        ..Session::default()
    };
    let t0 = Instant::now();
    let answer = (|| -> Result<_, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut w = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut r = BufReader::new(stream);
        write_handshake(&mut w).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        read_handshake(&mut r).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        s.connect_s = (t1 - t0).as_secs_f64();
        write_frame(
            &mut w,
            FrameKind::Begin,
            &encode_begin(DETECTOR, Some(trace)),
        )
        .map_err(|e| e.to_string())?;
        for piece in f.bytes.chunks(CHUNK) {
            write_frame(&mut w, FrameKind::Data, piece).map_err(|e| e.to_string())?;
        }
        write_frame(&mut w, FrameKind::End, &[]).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        s.upload_s = (t2 - t1).as_secs_f64();
        let frame = read_frame(&mut r, MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
        Ok((frame, t2))
    })();
    if let Ok((frame, t2)) = answer {
        let (_, body) = split_traced(&frame.payload);
        s.ok = frame.kind == FrameKind::Report && body == f.expected.as_bytes();
        s.busy = frame.kind == FrameKind::Busy;
        s.wait_s = t2.elapsed().as_secs_f64();
    }
    s
}

/// One client's cycle: every fixture in a seeded order, with each small
/// upload sent twice and the largest upload four times (18 sessions).
///
/// Latency is bimodal by upload size (small uploads stall on the
/// socket), and with every fixture once the 12 split 6 fast / 6 slow, so
/// the median sat exactly on the boundary between the modes. The weights
/// put p50 in the middle of the small-upload mode (ranks 33–67 %) and
/// p90 in the middle of the largest upload's (78–100 %).
fn cycle(seed: u64, client: usize, fx: &[Fixture]) -> Vec<usize> {
    let largest = fx.iter().map(|f| f.bytes.len()).max().unwrap_or(0);
    let mut v: Vec<usize> = (0..fx.len())
        .flat_map(|i| {
            let len = fx[i].bytes.len();
            let times = if len == largest {
                4
            } else if len < SMALL_UPLOAD {
                2
            } else {
                1
            };
            std::iter::repeat_n(i, times)
        })
        .collect();
    let mut rng = Xoshiro256::seed_from_u64(seed ^ (0x5E55_1000 + client as u64));
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
    v
}

/// Sessions of one measured phase, its wall time, every completed
/// client cycle as `(wall seconds, events served)`, and (when `poll` is
/// given) the server's own wall time per session trace ID.
struct Phase {
    sessions: Vec<Session>,
    wall_s: f64,
    cycles: Vec<(f64, u64)>,
    server_us: HashMap<u64, u64>,
}

fn collect(stats: &ServeStats, into: &mut HashMap<u64, u64>) {
    for s in stats.recent_sessions() {
        if s.verdict == "report" {
            into.insert(s.trace, s.wall_us);
        }
    }
}

/// Runs the clients until `budget` has passed; each finishes the
/// session it is in.
fn phase(
    addr: &str,
    fx: &[Fixture],
    seed: u64,
    tag: u64,
    budget: Duration,
    poll: Option<&ServeStats>,
) -> Phase {
    let start = Instant::now();
    let deadline = start + budget;
    let mut server_us = HashMap::new();
    let (sessions, cycles) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let seq = cycle(seed, c, fx);
                    let (mut out, mut cycles) = (Vec::new(), Vec::new());
                    let (mut began, mut events) = (Instant::now(), 0u64);
                    while out.is_empty() || Instant::now() < deadline {
                        let k = out.len() as u64;
                        let trace = (tag << 48) | ((c as u64) << 32) | k;
                        let i = seq[out.len() % seq.len()];
                        let s = session(addr, i, &fx[i], trace);
                        events += if s.ok { fx[i].events } else { 0 };
                        out.push(s);
                        if out.len() % seq.len() == 0 {
                            cycles.push((began.elapsed().as_secs_f64(), events));
                            (began, events) = (Instant::now(), 0);
                        }
                    }
                    (out, cycles)
                })
            })
            .collect();
        if let Some(stats) = poll {
            while !clients.iter().all(|h| h.is_finished()) {
                collect(stats, &mut server_us);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        let (mut sessions, mut cycles) = (Vec::new(), Vec::new());
        for h in clients {
            let (s, c) = h.join().expect("client thread panicked");
            sessions.extend(s);
            cycles.extend(c);
        }
        (sessions, cycles)
    });
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(stats) = poll {
        // A session's summary lands just after its report is written.
        let settle = Instant::now();
        loop {
            collect(stats, &mut server_us);
            let done = sessions
                .iter()
                .all(|s| !s.ok || server_us.contains_key(&s.trace));
            if done || settle.elapsed() > Duration::from_secs(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Phase {
        sessions,
        wall_s,
        cycles,
        server_us,
    }
}

/// Percentile `p` of session times in seconds, in milliseconds.
fn ms(v: Vec<f64>, p: f64) -> f64 {
    let mut w: Vec<(f64, f64)> = v.into_iter().map(|x| (x, 1.0)).collect();
    percentile(&mut w, p) * 1e3
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut built = Vec::new();
    let (setup_s, fx) = repeat_setup(|| {
        let f = fixtures(args.seed);
        if let Ok(f) = &f {
            built.push(f.iter().map(|x| x.expected.clone()).collect::<Vec<_>>());
        }
        f
    });
    let fx = fx?;
    let mut out = Outcome::default();
    out.check(built.windows(2).all(|w| w[0] == w[1]), || {
        "set-up passes replayed different reports".into()
    });

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        report_cache: false,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let stats = server.stats();
    let handle = std::thread::spawn(move || server.run());

    // One unmeasured second first, so that the server's threads and
    // allocator arenas reach their steady state before the peak-RSS mark
    // is reset; without it the peak varied by 25 % with how the first
    // large sessions happened to overlap.
    let warm = phase(&addr, &fx, args.seed, 0, WARM_UP, None);
    reset_peak_rss();
    let cpu0 = cpu_times();
    let budget = args.budget();
    let (plain, traced) = if args.trace {
        let half = budget / 2;
        let a = phase(&addr, &fx, args.seed, 1, half, None);
        let b = phase(&addr, &fx, args.seed, 2, half, Some(&stats));
        (a, Some(b))
    } else {
        (phase(&addr, &fx, args.seed, 1, budget, None), None)
    };
    let peak = peak_rss_mib();
    let cpu = cpu_since(cpu0);

    let stopped = hard_harness::service::request_shutdown(&addr);
    let served = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    out.check(stopped.is_ok() && served.is_ok(), || {
        format!("server shutdown: {stopped:?} / {served:?}")
    });
    out.check(
        stats.active_sessions() == 0 && stats.inflight_bytes() == 0,
        || "the server leaked session slots or in-flight bytes".into(),
    );

    let all: Vec<&Session> = plain
        .sessions
        .iter()
        .chain(traced.iter().flat_map(|t| &t.sessions))
        .collect();
    out.attempted = (all.len() + warm.sessions.len()) as u64;
    out.failed = all
        .iter()
        .copied()
        .chain(&warm.sessions)
        .filter(|s| !s.ok)
        .count() as u64;
    if let Some(b) = &traced {
        let lat = |p: &Phase| {
            p.sessions
                .iter()
                .map(Session::latency_s)
                .collect::<Vec<_>>()
        };
        let col = |f: fn(&Session) -> f64| b.sessions.iter().map(f).collect::<Vec<_>>();
        let m = &mut out.metrics;
        m.insert("serve.connect_ms", ms(col(|s| s.connect_s), 0.5));
        m.insert("serve.upload_ms", ms(col(|s| s.upload_s), 0.5));
        m.insert("serve.wait_ms", ms(col(|s| s.wait_s), 0.5));
        let server_s: Vec<(f64, f64)> = b
            .sessions
            .iter()
            .filter_map(|s| Some((s.latency_s(), *b.server_us.get(&s.trace)? as f64 / 1e6)))
            .collect();
        let missing = b.sessions.len() - server_s.len();
        m.insert(
            "serve.server_ms",
            ms(server_s.iter().map(|x| x.1).collect(), 0.5),
        );
        m.insert(
            "serve.stall_ms",
            ms(server_s.iter().map(|x| x.0 - x.1).collect(), 0.5),
        );
        let by_size = |small: bool| {
            b.sessions
                .iter()
                .filter(|s| (fx[s.fixture].bytes.len() < SMALL_UPLOAD) == small)
                .map(Session::latency_s)
                .collect::<Vec<_>>()
        };
        m.insert("serve.small_latency_ms", ms(by_size(true), 0.5));
        m.insert("serve.large_latency_ms", ms(by_size(false), 0.5));
        m.insert("serve.busy", all.iter().filter(|s| s.busy).count() as f64);
        m.insert(
            "serve.errors",
            all.iter().filter(|s| !s.ok && !s.busy).count() as f64,
        );
        m.insert("proc.user_s", cpu.0);
        m.insert("proc.sys_s", cpu.1);
        let busy_s: f64 = b.sessions.iter().map(|s| s.connect_s + s.latency_s()).sum();
        let unattributed = 1.0 - busy_s / (CLIENTS as f64 * b.wall_s);
        m.insert(
            "traced.wall_s",
            median(&mut col(|s| s.connect_s + s.latency_s())),
        );
        m.insert("traced.unattributed_frac", unattributed);
        m.insert(
            "traced.overhead_frac",
            median(&mut lat(b)) / median(&mut lat(&plain)) - 1.0,
        );
        out.check(missing == 0, || {
            format!("{missing} sessions missing from the server's ring")
        });
        out.check(unattributed <= crate::MAX_UNATTRIBUTED, || {
            format!(
                "clients idle for {:.1} % of the traced phase",
                unattributed * 100.0
            )
        });
    } else {
        // Rates are medians over completed client cycles (each the same
        // mix of sessions), scaled by the client count; a phase too short
        // to complete a cycle falls back to its overall rate.
        let per_cycle = cycle(args.seed, 0, &fx).len() as f64;
        let (mut ops, mut rates): (Vec<f64>, Vec<f64>) = plain
            .cycles
            .iter()
            .map(|&(wall, events)| (per_cycle / wall, events as f64 / wall))
            .unzip();
        if ops.is_empty() {
            let ok: Vec<&Session> = plain.sessions.iter().filter(|s| s.ok).collect();
            ops.push(ok.len() as f64 / plain.wall_s / CLIENTS as f64);
            let events: u64 = ok.iter().map(|s| fx[s.fixture].events).sum();
            rates.push(events as f64 / plain.wall_s / CLIENTS as f64);
        }
        let lat: Vec<f64> = plain.sessions.iter().map(Session::latency_s).collect();
        let m = &mut out.metrics;
        m.insert("setup_s", setup_s);
        m.insert("events_per_s", median(&mut rates) * CLIENTS as f64);
        m.insert("peak_rss_mib", peak);
        m.insert("op_p50_ms", ms(lat.clone(), 0.5));
        m.insert("op_p90_ms", ms(lat, 0.9));
        m.insert("ops_per_s", median(&mut ops) * CLIENTS as f64);
    }
    for (i, f) in fx.iter().enumerate() {
        let lat: Vec<f64> = all
            .iter()
            .filter(|s| s.fixture == i)
            .map(|s| s.latency_s())
            .collect();
        eprintln!(
            "perfbench: serve fixture {i:2}: {:8} bytes, {:3} sessions, median {:7.2} ms",
            f.bytes.len(),
            lat.len(),
            ms(lat, 0.5)
        );
    }
    Ok(out)
}
