//! Readiness polling for the event-driven service layer: a small,
//! offline, API-compatible subset of the [`mio`](https://docs.rs/mio) /
//! [`polling`](https://docs.rs/polling) idea — register file
//! descriptors with a token and an interest set, then [`Poller::wait`]
//! for readiness events — implemented directly over the kernel's
//! readiness syscalls with no external crates.
//!
//! Two backends:
//!
//! * **epoll** (Linux, the default): `epoll_create1` / `epoll_ctl` /
//!   `epoll_wait` through thin FFI declarations. O(ready) per wait —
//!   the kernel hands back only the descriptors that changed state, so
//!   a loop holding 10k idle connections pays nothing for them.
//! * **poll** (portable fallback): `poll(2)` over the registered set,
//!   rebuilt per wait. O(registered) per call, but works on every
//!   POSIX system and exercises the exact same [`Event`] semantics —
//!   this crate's own tests run every readiness case under both
//!   backends.
//!
//! Selection: [`Poller::new`] uses epoll on Linux and poll(2)
//! elsewhere; [`Poller::with_backend`] picks explicitly.
//!
//! Both backends are **level-triggered**: a readable socket keeps
//! reporting readable until drained, so a consumer that processes only
//! part of a buffer is re-notified on the next wait — the forgiving
//! semantics an HTTP state machine wants (no lost-wakeup edge cases).
//!
//! This crate is the workspace's single home for `unsafe`: the FFI
//! declarations and call sites live here (plus the tiny async-signal
//! helper in [`signals`]), and every crate above it keeps the
//! workspace-wide `unsafe_code = "deny"`.

use std::collections::HashMap;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

mod sys;

pub mod signals;

/// What to watch a descriptor for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or a peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event: the registered token plus what fired.
///
/// `error`/`hangup` conditions are reported with `readable = true` as
/// well (a read on the descriptor returns the error or EOF), matching
/// how level-triggered consumers actually handle them: read, observe
/// the result, close.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: usize,
    /// Readable (includes peer hang-up and error conditions).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// Which syscall family backs a [`Poller`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll` — O(ready) waits.
    Epoll,
    /// Portable `poll(2)` — O(registered) waits.
    Poll,
}

enum Inner {
    Epoll {
        epfd: RawFd,
    },
    Poll {
        registered: HashMap<RawFd, (usize, Interest)>,
    },
}

/// A readiness poller over raw file descriptors.
///
/// Register descriptors with [`register`](Poller::register) under a
/// caller-chosen token, then loop on [`wait`](Poller::wait). The poller
/// never owns the descriptors; callers close them (and should
/// [`deregister`](Poller::deregister) first — mandatory on the poll
/// backend, which has no kernel-side auto-cleanup).
pub struct Poller {
    inner: Inner,
}

impl Poller {
    /// A poller on the platform default backend: epoll on Linux,
    /// poll(2) elsewhere.
    pub fn new() -> io::Result<Self> {
        if cfg!(target_os = "linux") {
            Self::with_backend(Backend::Epoll)
        } else {
            Self::with_backend(Backend::Poll)
        }
    }

    /// A poller on an explicit backend. `Backend::Epoll` fails off
    /// Linux.
    pub fn with_backend(backend: Backend) -> io::Result<Self> {
        let inner = match backend {
            Backend::Epoll => Inner::Epoll {
                epfd: sys::epoll_create()?,
            },
            Backend::Poll => Inner::Poll {
                registered: HashMap::new(),
            },
        };
        Ok(Self { inner })
    }

    /// Which backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match self.inner {
            Inner::Epoll { .. } => Backend::Epoll,
            Inner::Poll { .. } => Backend::Poll,
        }
    }

    /// Starts watching `fd` under `token`. One registration per
    /// descriptor; re-registering an fd is an error on epoll (use
    /// [`modify`](Poller::modify)).
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.inner {
            Inner::Epoll { epfd } => sys::epoll_add(*epfd, fd, token as u64, interest),
            Inner::Poll { registered } => {
                registered.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    /// Changes the token and/or interest of a registered descriptor.
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.inner {
            Inner::Epoll { epfd } => sys::epoll_mod(*epfd, fd, token as u64, interest),
            Inner::Poll { registered } => {
                registered.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    /// Stops watching a registered descriptor. Call before closing the
    /// fd: epoll would clean up on close anyway, the poll backend would
    /// not (a closed fd in its set reports POLLNVAL forever).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.inner {
            Inner::Epoll { epfd } => sys::epoll_del(*epfd, fd),
            Inner::Poll { registered } => {
                registered.remove(&fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses (`None` = wait forever), appending the ready
    /// events to `events` (which is cleared first). Returns the number
    /// of events delivered; `0` means the timeout fired. `EINTR` is
    /// retried internally with the remaining timeout approximated by
    /// the full timeout (good enough for a loop that re-checks timers
    /// every wake).
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 0 < t < 1ms timeout does not busy-spin.
            Some(t) => t
                .as_millis()
                .min(i32::MAX as u128)
                .max(u128::from(!t.is_zero())) as i32,
        };
        match &mut self.inner {
            Inner::Epoll { epfd } => sys::epoll_wait(*epfd, events, timeout_ms),
            Inner::Poll { registered } => sys::poll_wait(registered, events, timeout_ms),
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        if let Inner::Epoll { epfd } = self.inner {
            sys::close_fd(epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn backends() -> Vec<Backend> {
        if cfg!(target_os = "linux") {
            vec![Backend::Epoll, Backend::Poll]
        } else {
            vec![Backend::Poll]
        }
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            poller
                .register(listener.as_raw_fd(), 7, Interest::READABLE)
                .unwrap();

            let mut events = Vec::new();
            // Nothing pending: a short wait times out with no events.
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}: idle listener reported ready");

            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{backend:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);
            poller.deregister(listener.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn stream_reports_writable_then_readable_and_hangup() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            client.set_nonblocking(true).unwrap();
            poller
                .register(client.as_raw_fd(), 1, Interest::BOTH)
                .unwrap();

            // A fresh connected socket is writable but not readable.
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.writable));
            assert!(!events.iter().any(|e| e.readable), "{backend:?}");

            // Peer data flips it readable (level-triggered: it stays
            // readable across waits until drained).
            (&server_side).write_all(b"ping").unwrap();
            for _ in 0..2 {
                poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .unwrap();
                assert!(events.iter().any(|e| e.token == 1 && e.readable));
            }
            let mut buf = [0u8; 16];
            assert_eq!((&client).read(&mut buf).unwrap(), 4);

            // Peer hang-up surfaces as readable (read returns 0).
            drop(server_side);
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.readable));
            assert_eq!((&client).read(&mut buf).unwrap(), 0, "{backend:?}");
            poller.deregister(client.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn modify_switches_interest() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            client.set_nonblocking(true).unwrap();
            poller
                .register(client.as_raw_fd(), 3, Interest::WRITABLE)
                .unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 3 && e.writable));

            // Writable-only socket with nothing to read: after dropping
            // write interest, a wait times out.
            poller
                .modify(client.as_raw_fd(), 4, Interest::READABLE)
                .unwrap();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}: read interest fired without data");
            poller.deregister(client.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn unix_pair_works_as_a_waker() {
        // The service wakes its loop by writing one byte to a
        // socketpair half from worker threads; prove the pattern here.
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (wake_rx, wake_tx) = std::os::unix::net::UnixStream::pair().unwrap();
            wake_rx.set_nonblocking(true).unwrap();
            poller
                .register(wake_rx.as_raw_fd(), 9, Interest::READABLE)
                .unwrap();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                (&wake_tx).write_all(b"w").unwrap();
                wake_tx
            });
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{backend:?}");
            assert_eq!(events[0].token, 9);
            let mut drain = [0u8; 8];
            assert_eq!((&wake_rx).read(&mut drain).unwrap(), 1);
            drop(handle.join().unwrap());
            poller.deregister(wake_rx.as_raw_fd()).unwrap();
        }
    }
}
