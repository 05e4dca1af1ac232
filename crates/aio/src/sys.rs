//! Raw Linux syscall surface for the reactor.
//!
//! The build environment has no registry access, so there is no
//! `libc` crate to lean on. The std runtime already links the system
//! C library, which makes these symbols (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, `setsockopt`) resolvable through a plain
//! `extern "C"` block — the same trick the vendored `proptest` and
//! `criterion` stand-ins use for their host needs. Everything here is
//! Linux-specific by design: the serve tier deploys on Linux, and the
//! rest of the workspace already assumes `/proc` for RSS probes.

use std::os::raw::{c_int, c_uint, c_void};

/// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel
/// ABI packs it to byte alignment; other 64-bit targets use natural
/// alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN` / `EPOLLOUT` / ...).
    pub events: u32,
    /// Caller-chosen cookie — this reactor stores the fd.
    pub data: u64,
}

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const EPOLL_CLOEXEC: c_int = 0o2000000;
pub const EFD_CLOEXEC: c_int = 0o2000000;
pub const EFD_NONBLOCK: c_int = 0o4000;

const IPPROTO_TCP: c_int = 6;
const TCP_QUICKACK: c_int = 12;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: c_uint)
        -> c_int;
}

/// Drains the eventfd counter (nonblocking; a would-block is "already
/// drained").
pub fn drain_eventfd(fd: c_int) {
    let mut buf = [0u8; 8];
    unsafe {
        let _ = read(fd, buf.as_mut_ptr(), buf.len());
    }
}

/// Bumps the eventfd counter, interrupting a reactor blocked in
/// `epoll_wait`.
pub fn signal_eventfd(fd: c_int) {
    let one = 1u64.to_ne_bytes();
    unsafe {
        let _ = write(fd, one.as_ptr(), one.len());
    }
}

/// Puts TCP socket `fd` into quick-ACK mode, so the kernel ACKs the
/// next segments at once instead of delaying the ACK up to 40 ms.
/// The kernel leaves the mode again on its own, so a caller that wants
/// it throughout a stream re-arms it after every read.
pub fn quickack(fd: c_int) -> std::io::Result<()> {
    let one: c_int = 1;
    // SAFETY: `value` points at a live `c_int` and `len` is its size;
    // the kernel only reads it, and answers a bad or non-TCP `fd`
    // with an error.
    let rc = unsafe {
        setsockopt(
            fd,
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&one as *const c_int).cast(),
            std::mem::size_of::<c_int>() as c_uint,
        )
    };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Creates a close-on-exec epoll instance.
pub fn create_epoll() -> std::io::Result<c_int> {
    let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(fd)
}

/// Creates the nonblocking eventfd the reactor uses to interrupt its
/// own `epoll_wait` when a timer moves the next deadline earlier.
pub fn create_eventfd() -> std::io::Result<c_int> {
    let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(fd)
}

/// `epoll_ctl` wrapper; `events == 0` with `EPOLL_CTL_DEL` ignores a
/// missing registration (the fd may already be closed).
pub fn ctl(epfd: c_int, op: c_int, fd: c_int, events: u32) -> std::io::Result<()> {
    let mut ev = EpollEvent {
        events,
        data: fd as u64,
    };
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if op == EPOLL_CTL_DEL {
            return Ok(()); // racing a close is fine
        }
        return Err(err);
    }
    Ok(())
}

/// Blocks for events; `timeout_ms < 0` waits indefinitely.
pub fn wait(epfd: c_int, events: &mut [EpollEvent], timeout_ms: c_int) -> std::io::Result<usize> {
    let rc = unsafe {
        epoll_wait(
            epfd,
            events.as_mut_ptr(),
            c_int::try_from(events.len()).unwrap_or(c_int::MAX),
            timeout_ms,
        )
    };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

    #[test]
    fn quickack_reaches_the_kernel_on_tcp_sockets_only() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        quickack(client.as_raw_fd()).expect("client socket takes TCP_QUICKACK");
        quickack(server.as_raw_fd()).expect("accepted socket takes TCP_QUICKACK");
        // UDP knows no IPPROTO_TCP level (ENOPROTOOPT), which a wrong
        // level constant such as SOL_IP or SOL_SOCKET would not show.
        let udp = std::net::UdpSocket::bind("127.0.0.1:0").expect("udp bind");
        let err = quickack(udp.as_raw_fd()).expect_err("UDP has no TCP options");
        assert_eq!(err.raw_os_error(), Some(92), "ENOPROTOOPT, got {err}");
        // The reactor's wake eventfd is no socket: the kernel, not this
        // wrapper, must be the one to refuse it.
        // SAFETY: `create_eventfd` returned a fresh descriptor that
        // nothing else owns, so `OwnedFd` may close it.
        let wake = unsafe { OwnedFd::from_raw_fd(create_eventfd().expect("eventfd")) };
        let err = quickack(wake.as_raw_fd()).expect_err("an eventfd is not a socket");
        assert_eq!(err.raw_os_error(), Some(88), "ENOTSOCK, got {err}");
    }
}
