//! `hard-aio`: a minimal epoll-backed async runtime.
//!
//! The ROADMAP's async serve tier calls for tokio, but this build
//! environment has no registry access — so, like the vendored
//! `proptest` and `criterion` stand-ins, the slice of a runtime the
//! serve tier actually needs lives in-tree:
//!
//! * a process-wide **reactor** thread multiplexing socket readiness
//!   and timers through one epoll instance (`reactor` is internal;
//!   futures talk to it by parking wakers);
//! * a fixed-size **executor** ([`Runtime`] / [`Handle`]) polling
//!   spawned `Future<Output = ()>` tasks from a shared queue;
//! * **net** wrappers ([`TcpListener`], [`TcpStream`]) whose read and
//!   write futures carry optional deadlines (the idle-timeout
//!   primitive), and whose reads re-arm TCP quick-ACK so a Nagle-on
//!   peer never waits out the delayed-ACK timer;
//! * **sync** primitives: a sticky broadcast [`Event`] (shutdown
//!   signal) and a two-way [`race`] combinator (read-or-shutdown).
//!
//! Design rule: spurious wakes are always legal. Futures re-arm
//! themselves on every poll, so the reactor can forget a waker the
//! moment it fires and never tracks edge state. That trades a few
//! `epoll_ctl` calls per parked await for a state machine simple
//! enough to audit line by line — the right trade for a detection
//! service whose unit of work (a session chunk) costs milliseconds.
//!
//! # Example
//!
//! ```no_run
//! let rt = hard_aio::Runtime::new(2);
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
//! let listener = hard_aio::TcpListener::from_std(listener).expect("nonblocking");
//! rt.spawn(async move {
//!     while let Ok((stream, _peer)) = listener.accept().await {
//!         let mut buf = [0u8; 1024];
//!         if let Ok(n) = stream.read(&mut buf, None).await {
//!             let _ = stream.write_all(&buf[..n], None).await;
//!         }
//!     }
//! });
//! ```

#![warn(missing_docs)]

mod exec;
mod net;
mod reactor;
mod sync;
mod sys;
mod time;

pub use exec::{Handle, Runtime};
pub use net::{Accept, ReadFut, TcpListener, TcpStream, WriteFut};
pub use sync::{race, Acquire, Either, Event, EventWait, Race, Semaphore};
pub use time::{sleep, sleep_until, Sleep};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn sleep_fires_after_the_deadline() {
        let rt = Runtime::new(1);
        let (tx, rx) = channel();
        let start = Instant::now();
        rt.spawn(async move {
            sleep(Duration::from_millis(30)).await;
            tx.send(start.elapsed()).expect("receiver alive");
        });
        let waited = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("sleep completed");
        assert!(waited >= Duration::from_millis(30), "{waited:?}");
    }

    #[test]
    fn echo_round_trip_over_async_tcp() {
        let rt = Runtime::new(2);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let listener = TcpListener::from_std(listener).expect("nonblocking");
        rt.spawn(async move {
            let (stream, _) = listener.accept().await.expect("accept");
            let mut buf = [0u8; 64];
            loop {
                let n = stream.read(&mut buf, None).await.expect("read");
                if n == 0 {
                    break;
                }
                stream.write_all(&buf[..n], None).await.expect("write");
            }
        });
        let mut c = std::net::TcpStream::connect(addr).expect("connect");
        use std::io::{Read, Write};
        for msg in [&b"hello"[..], &b"hard-aio round trip"[..]] {
            c.write_all(msg).expect("send");
            let mut back = vec![0u8; msg.len()];
            c.read_exact(&mut back).expect("echo");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn read_deadline_times_out_an_idle_peer() {
        let rt = Runtime::new(1);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let listener = TcpListener::from_std(listener).expect("nonblocking");
        let (tx, rx) = channel();
        rt.spawn(async move {
            let (stream, _) = listener.accept().await.expect("accept");
            let mut buf = [0u8; 8];
            let deadline = Instant::now() + Duration::from_millis(40);
            let out = stream.read(&mut buf, Some(deadline)).await;
            tx.send(out.map_err(|e| e.kind())).expect("receiver alive");
        });
        // Connect but never send: the server read must time out.
        let _c = std::net::TcpStream::connect(addr).expect("connect");
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("read resolved");
        assert_eq!(got, Err(std::io::ErrorKind::TimedOut));
    }

    #[test]
    fn event_wakes_all_waiters_and_stays_set() {
        let rt = Runtime::new(2);
        let ev = Arc::new(Event::new());
        let done = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..8 {
            let ev = Arc::clone(&ev);
            let done = Arc::clone(&done);
            let tx = tx.clone();
            rt.spawn(async move {
                ev.wait().await;
                done.fetch_add(1, Ordering::Relaxed);
                tx.send(()).expect("receiver alive");
            });
        }
        assert_eq!(done.load(Ordering::Relaxed), 0);
        ev.set();
        for _ in 0..8 {
            rx.recv_timeout(Duration::from_secs(5))
                .expect("waiter woke");
        }
        assert!(ev.is_set());
        // A late waiter resolves immediately.
        let ev2 = Arc::clone(&ev);
        let (tx2, rx2) = channel();
        rt.spawn(async move {
            ev2.wait().await;
            tx2.send(()).expect("receiver alive");
        });
        rx2.recv_timeout(Duration::from_secs(5))
            .expect("late waiter resolved");
    }

    #[test]
    fn race_resolves_with_the_first_finisher() {
        let rt = Runtime::new(1);
        let ev = Arc::new(Event::new());
        let ev2 = Arc::clone(&ev);
        let (tx, rx) = channel();
        rt.spawn(async move {
            match race(sleep(Duration::from_secs(30)), ev2.wait()).await {
                Either::Left(()) => tx.send("sleep").expect("receiver alive"),
                Either::Right(()) => tx.send("event").expect("receiver alive"),
            }
        });
        ev.set();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).expect("race done"),
            "event"
        );
    }

    #[test]
    fn semaphore_bounds_concurrency_and_grants_fifo() {
        let rt = Runtime::new(4);
        let sem = Arc::new(Semaphore::new(2));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..16 {
            let sem = Arc::clone(&sem);
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            let tx = tx.clone();
            rt.spawn(async move {
                sem.acquire().await;
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                sleep(Duration::from_millis(5)).await;
                running.fetch_sub(1, Ordering::SeqCst);
                sem.release();
                tx.send(()).expect("receiver alive");
            });
        }
        for _ in 0..16 {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("holder done");
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "permit bound violated");
        assert_eq!(sem.waiters(), 0);
        // Both permits are free again.
        let sem2 = Arc::clone(&sem);
        let (tx2, rx2) = channel();
        rt.spawn(async move {
            sem2.acquire().await;
            sem2.acquire().await;
            sem2.release();
            sem2.release();
            tx2.send(()).expect("receiver alive");
        });
        rx2.recv_timeout(Duration::from_secs(5))
            .expect("permits recovered");
    }

    #[test]
    fn dropping_a_parked_acquire_does_not_lose_the_permit() {
        let rt = Runtime::new(2);
        let sem = Arc::new(Semaphore::new(1));
        let gate = Arc::new(Event::new());
        let (tx, rx) = channel();
        // Task A holds the only permit until `gate` fires.
        {
            let sem = Arc::clone(&sem);
            let gate = Arc::clone(&gate);
            let tx = tx.clone();
            rt.spawn(async move {
                sem.acquire().await;
                tx.send("a-holds").expect("receiver alive");
                gate.wait().await;
                sem.release();
            });
        }
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "a-holds");
        // Task B parks on the semaphore but abandons the wait when the
        // race resolves against it; its queued (or transferred) claim
        // must not strand the permit.
        let stop = Arc::new(Event::new());
        {
            let sem = Arc::clone(&sem);
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            rt.spawn(async move {
                match race(sem.acquire(), stop.wait()).await {
                    Either::Left(()) => {
                        sem.release();
                        tx.send("b-acquired").expect("receiver alive");
                    }
                    Either::Right(()) => tx.send("b-abandoned").expect("receiver alive"),
                }
            });
        }
        stop.set();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "b-abandoned"
        );
        gate.set(); // A releases; the permit must be claimable by C
        let (tx3, rx3) = channel();
        rt.spawn(async move {
            sem.acquire().await;
            sem.release();
            tx3.send(()).expect("receiver alive");
        });
        rx3.recv_timeout(Duration::from_secs(5))
            .expect("permit survived the abandoned waiter");
    }

    /// Reads exactly `buf.len()` bytes, or fails on EOF.
    async fn read_exact(stream: &TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
        let mut at = 0;
        while at < buf.len() {
            match stream.read(&mut buf[at..], None).await? {
                0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                n => at += n,
            }
        }
        Ok(())
    }

    #[test]
    fn small_uploads_do_not_wait_out_the_delayed_ack_timer() {
        // The serve tier's exchange shape: an echoed 8-byte handshake,
        // then an upload whose tail is a short frame, then a reply. A
        // peer writing with Nagle on holds that tail until the server
        // ACKs, and a delayed ACK would cost every round ~40 ms.
        const UPLOAD: usize = 8 + 48 * 1024 + 8;
        const ROUNDS: usize = 7;
        let rt = Runtime::new(2);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let listener = TcpListener::from_std(listener).expect("nonblocking");
        rt.spawn(async move {
            let mut upload = vec![0u8; UPLOAD];
            for _ in 0..ROUNDS {
                let (stream, _) = listener.accept().await.expect("accept");
                let mut hello = [0u8; 8];
                read_exact(&stream, &mut hello).await.expect("handshake");
                stream.write_all(&hello, None).await.expect("echo");
                read_exact(&stream, &mut upload).await.expect("upload");
                stream.write_all(&[1], None).await.expect("reply");
            }
        });
        use std::io::{BufWriter, Read, Write};
        let mut rounds: Vec<Duration> = (0..ROUNDS)
            .map(|_| {
                let start = Instant::now();
                let c = std::net::TcpStream::connect(addr).expect("connect");
                let mut r = c.try_clone().expect("clone");
                let mut w = BufWriter::new(c);
                w.write_all(b"HARD-aio").expect("handshake");
                w.flush().expect("flush");
                let mut echo = [0u8; 8];
                r.read_exact(&mut echo).expect("echo");
                w.write_all(&[2; 8]).expect("head");
                w.write_all(&vec![3; 48 * 1024]).expect("body");
                w.write_all(&[4; 8]).expect("tail");
                w.flush().expect("flush");
                let mut reply = [0u8; 1];
                r.read_exact(&mut reply).expect("reply");
                start.elapsed()
            })
            .collect();
        rounds.sort();
        let median = rounds[ROUNDS / 2];
        assert!(
            median < Duration::from_millis(20),
            "median round {median:?} (all: {rounds:?})"
        );
    }

    #[test]
    fn many_concurrent_connections_multiplex_on_few_threads() {
        // 64 concurrent echo sessions over a 2-thread runtime: the
        // multiplexing claim in one test.
        let rt = Runtime::new(2);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let listener = TcpListener::from_std(listener).expect("nonblocking");
        let handle = rt.handle();
        rt.spawn(async move {
            while let Ok((stream, _)) = listener.accept().await {
                handle.spawn(async move {
                    let mut buf = [0u8; 16];
                    while let Ok(n) = stream.read(&mut buf, None).await {
                        if n == 0 || stream.write_all(&buf[..n], None).await.is_err() {
                            break;
                        }
                    }
                });
            }
        });
        use std::io::{Read, Write};
        let conns: Vec<std::net::TcpStream> = (0..64)
            .map(|_| std::net::TcpStream::connect(addr).expect("connect"))
            .collect();
        for (i, mut c) in conns.into_iter().enumerate() {
            let msg = format!("sess-{i:03}");
            c.write_all(msg.as_bytes()).expect("send");
            let mut back = vec![0u8; msg.len()];
            c.read_exact(&mut back).expect("echo");
            assert_eq!(back, msg.as_bytes());
        }
    }
}
