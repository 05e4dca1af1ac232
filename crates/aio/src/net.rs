//! Nonblocking TCP wrapped in deadline-aware futures.

use crate::reactor::{reactor, Dir};
use crate::sys;
use std::future::Future;
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

/// An async TCP listener over a nonblocking [`std::net::TcpListener`].
pub struct TcpListener {
    inner: std::net::TcpListener,
}

impl TcpListener {
    /// Wraps a bound std listener, switching it nonblocking.
    ///
    /// # Errors
    ///
    /// Propagates the `set_nonblocking` error.
    pub fn from_std(inner: std::net::TcpListener) -> std::io::Result<TcpListener> {
        inner.set_nonblocking(true)?;
        Ok(TcpListener { inner })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection error.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.inner.local_addr()
    }

    /// Waits for and accepts one connection.
    pub fn accept(&self) -> Accept<'_> {
        Accept { listener: self }
    }
}

impl Drop for TcpListener {
    fn drop(&mut self) {
        reactor().deregister(self.inner.as_raw_fd());
    }
}

/// Future returned by [`TcpListener::accept`].
pub struct Accept<'a> {
    listener: &'a TcpListener,
}

impl Future for Accept<'_> {
    type Output = std::io::Result<(TcpStream, std::net::SocketAddr)>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match self.listener.inner.accept() {
            Ok((stream, peer)) => Poll::Ready(TcpStream::from_std(stream).map(|s| (s, peer))),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                reactor().register(self.listener.inner.as_raw_fd(), Dir::Read, cx.waker());
                Poll::Pending
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
            Err(e) => Poll::Ready(Err(e)),
        }
    }
}

/// An async TCP stream over a nonblocking [`std::net::TcpStream`].
pub struct TcpStream {
    inner: std::net::TcpStream,
}

impl TcpStream {
    /// Wraps a connected std stream, switching it nonblocking.
    ///
    /// # Errors
    ///
    /// Propagates the `set_nonblocking` error.
    pub fn from_std(inner: std::net::TcpStream) -> std::io::Result<TcpStream> {
        inner.set_nonblocking(true)?;
        Ok(TcpStream { inner })
    }

    /// Reads into `buf`, resolving when any bytes (or EOF) arrive. A
    /// `deadline` in the past or unreached by then resolves to an
    /// [`std::io::ErrorKind::TimedOut`] error — the idle-session
    /// signal.
    pub fn read<'a>(&'a self, buf: &'a mut [u8], deadline: Option<Instant>) -> ReadFut<'a> {
        ReadFut {
            stream: self,
            buf,
            deadline,
        }
    }

    /// Writes some of `buf`, resolving when the kernel accepts bytes.
    pub fn write<'a>(&'a self, buf: &'a [u8], deadline: Option<Instant>) -> WriteFut<'a> {
        WriteFut {
            stream: self,
            buf,
            deadline,
        }
    }

    /// Writes all of `buf`, bounded by `deadline`.
    ///
    /// # Errors
    ///
    /// Propagates write errors; a deadline expiry surfaces as
    /// [`std::io::ErrorKind::TimedOut`].
    pub async fn write_all(
        &self,
        mut buf: &[u8],
        deadline: Option<Instant>,
    ) -> std::io::Result<()> {
        while !buf.is_empty() {
            let n = self.write(buf, deadline).await?;
            if n == 0 {
                return Err(std::io::ErrorKind::WriteZero.into());
            }
            buf = &buf[n..];
        }
        Ok(())
    }
}

impl Drop for TcpStream {
    fn drop(&mut self) {
        reactor().deregister(self.inner.as_raw_fd());
    }
}

fn timed_out() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::TimedOut, "deadline elapsed")
}

/// Future returned by [`TcpStream::read`].
pub struct ReadFut<'a> {
    stream: &'a TcpStream,
    buf: &'a mut [u8],
    deadline: Option<Instant>,
}

impl Future for ReadFut<'_> {
    type Output = std::io::Result<usize>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = self.get_mut();
        match (&me.stream.inner).read(me.buf) {
            Ok(n) => {
                if n > 0 {
                    // A Nagle-on peer holds its last partial segment
                    // until this side ACKs, and Linux delays that ACK by
                    // up to 40 ms once the connection looks interactive.
                    // The kernel drops quick-ACK mode after each ACK, so
                    // every read re-arms it; the mode is advisory, so a
                    // refusal changes nothing.
                    let _ = sys::quickack(me.stream.inner.as_raw_fd());
                }
                Poll::Ready(Ok(n))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if let Some(d) = me.deadline {
                    if Instant::now() >= d {
                        return Poll::Ready(Err(timed_out()));
                    }
                    reactor().register_timer(d, cx.waker());
                }
                reactor().register(me.stream.inner.as_raw_fd(), Dir::Read, cx.waker());
                Poll::Pending
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
            Err(e) => Poll::Ready(Err(e)),
        }
    }
}

/// Future returned by [`TcpStream::write`].
pub struct WriteFut<'a> {
    stream: &'a TcpStream,
    buf: &'a [u8],
    deadline: Option<Instant>,
}

impl Future for WriteFut<'_> {
    type Output = std::io::Result<usize>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = self.get_mut();
        match (&me.stream.inner).write(me.buf) {
            Ok(n) => Poll::Ready(Ok(n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if let Some(d) = me.deadline {
                    if Instant::now() >= d {
                        return Poll::Ready(Err(timed_out()));
                    }
                    reactor().register_timer(d, cx.waker());
                }
                reactor().register(me.stream.inner.as_raw_fd(), Dir::Write, cx.waker());
                Poll::Pending
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
            Err(e) => Poll::Ready(Err(e)),
        }
    }
}
