//! A thin, std-only readiness layer: `poll(2)` plus a self-pipe waker.
//!
//! The server's event loop (`crate::event`) needs two
//! primitives the standard library does not expose: waiting for readiness
//! on many sockets at once, and waking that wait from another thread.
//! Both are decades-old POSIX idioms, small enough to vendor here rather
//! than pull in a runtime:
//!
//! * [`poll`] wraps the libc `poll(2)` syscall through a one-function
//!   `extern "C"` declaration (no libc crate — the symbol is in every
//!   Unix C runtime the toolchain links anyway), retrying on `EINTR`;
//! * [`WakePipe`]/[`Waker`] implement the classic self-pipe trick over a
//!   `UnixStream` pair: the event loop polls the read end alongside its
//!   sockets, and any thread holding the cloneable [`Waker`] makes the
//!   loop return immediately by writing one byte, so shutdown and solve
//!   completions *wake* the loop instead of waiting out a timeout.
//!
//! Everything here is Unix-only in practice (the crate already is: the
//! serve loop relies on Unix socket semantics in its tests), but only the
//! `poll` symbol itself is platform-specific.

use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

/// `POLLIN`: readable (or a peer close, together with [`POLLHUP`]).
pub const POLLIN: i16 = 0x001;
/// `POLLOUT`: writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// `POLLERR`: error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// `POLLHUP`: peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// `POLLNVAL`: the fd was not open (revents only; a loop bug if seen).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` set — layout-compatible with the C
/// `struct pollfd` on every Unix ABI the toolchain targets.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: i32,
    /// Requested readiness ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Readiness reported by the kernel (output field).
    pub revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the kernel reported any of `mask` (or an error/hang-up
    /// condition, which `poll` may deliver regardless of `events`).
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & (mask | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

mod sys {
    /// The C `nfds_t`: `unsigned long` on Linux/glibc/musl, but `u32`
    /// on macOS and the BSDs — an ABI detail the libc crate would hide.
    #[cfg(target_os = "linux")]
    pub type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = u32;

    extern "C" {
        pub fn poll(
            fds: *mut super::PollFd,
            nfds: NfdsT,
            timeout: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }
}

/// Blocks until at least one entry of `fds` is ready, `timeout_ms`
/// elapses (`-1` = forever), or a wake arrives; returns the number of
/// ready entries. `EINTR` is retried internally — callers never see it.
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice for the whole
        // call, so the pointer is valid and unaliased; `PollFd` is
        // `#[repr(C)]` with the exact `pollfd` layout (fd: c_int, events/
        // revents: c_short), so the kernel writes `revents` in bounds; the
        // length is passed as the platform `nfds_t`, never exceeding the
        // slice; poll(2) has no other preconditions (it tolerates closed
        // and invalid fds by reporting POLLNVAL rather than faulting).
        let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NfdsT, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The read end of the self-pipe: lives in the event loop and is polled
/// for [`POLLIN`] alongside the listener and connection sockets.
#[derive(Debug)]
pub struct WakePipe {
    rx: UnixStream,
}

/// The write end of the self-pipe: cheap to clone, held by worker
/// threads and [`crate::server::Server::shutdown`]; one byte written
/// makes the event loop's [`poll`] return immediately.
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

/// Builds a connected wake pair; both ends are nonblocking, so a wake
/// can never stall its sender and draining can never stall the loop.
pub fn wake_pair() -> std::io::Result<(WakePipe, Waker)> {
    let (rx, tx) = UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((WakePipe { rx }, Waker { tx: Arc::new(tx) }))
}

impl WakePipe {
    /// The fd to include in the poll set (watch for [`POLLIN`]).
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes every pending wake byte. Many wakes coalesce into one
    /// drain; the loop re-checks all wake sources after each call.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => return, // sender closed; nothing more to drain
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }
}

impl Waker {
    /// Makes the event loop's current (or next) [`poll`] return. Best
    /// effort by design: `WouldBlock` means the pipe already holds an
    /// undrained wake byte, and any other failure means the loop is gone
    /// — in both cases there is nothing useful left to do.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_with_zero_timeout_reports_nothing_on_an_idle_pipe() {
        let (pipe, _waker) = wake_pair().unwrap();
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        let n = poll(&mut fds, 0).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].ready(POLLIN));
    }

    #[test]
    fn wake_makes_the_pipe_readable_and_drain_clears_it() {
        let (pipe, waker) = wake_pair().unwrap();
        waker.wake();
        waker.wake(); // coalesces; must not block or fail
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        // A generous timeout, but the wake is already pending so this
        // returns immediately.
        let n = poll(&mut fds, 5_000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN));
        pipe.drain();
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, 0).unwrap(), 0, "drain left bytes behind");
    }

    #[test]
    fn wake_from_another_thread_interrupts_a_blocking_poll() {
        let (pipe, waker) = wake_pair().unwrap();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            waker.wake();
        });
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        // Without the wake this would sleep 30 s; the test finishing fast
        // is the assertion.
        let n = poll(&mut fds, 30_000).unwrap();
        assert_eq!(n, 1);
        t.join().unwrap();
    }

    #[test]
    fn waker_survives_after_the_pipe_is_dropped() {
        let (pipe, waker) = wake_pair().unwrap();
        drop(pipe);
        waker.wake(); // best-effort: must not panic
    }
}
