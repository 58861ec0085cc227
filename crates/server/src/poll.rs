//! The readiness primitive the server's threads sleep in: one epoll
//! instance per thread plus an eventfd other threads write to wake it.
//!
//! A minimal `extern "C"` binding to the four calls the server needs;
//! libc is already linked by std, so this adds no dependency.

use std::ffi::{c_int, c_long, c_uint, c_void};
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

/// `struct epoll_event`, which the kernel packs on x86-64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec` on the 64-bit Linux targets (`time_t` is a `long`).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// Wraps a freshly returned descriptor, or the `errno` of a failed call.
fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned by a successful creating call and no
    // other owner of it exists.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// One epoll instance and the buffer its waits fill.
pub(crate) struct Poller {
    epoll: OwnedFd,
    events: Vec<EpollEvent>,
}

impl Poller {
    /// Creates the instance and probes `epoll_pwait2` once, so a kernel
    /// without it (before Linux 5.11) fails the server's start, not a
    /// worker thread later.
    fn new() -> io::Result<Self> {
        // SAFETY: plain syscall wrapper; takes no pointers.
        let epoll = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        let mut poller = Self {
            epoll,
            events: vec![EpollEvent { events: 0, data: 0 }; 64],
        };
        poller.wait_raw(Some(Duration::ZERO), &mut Vec::new())?;
        Ok(poller)
    }

    /// A new poller with a new [`Waker`] registered under `token`.
    pub(crate) fn with_waker(token: u64) -> io::Result<(Self, Arc<Waker>)> {
        let poller = Self::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.add(waker.fd.as_raw_fd(), token, false)?;
        Ok((poller, waker))
    }

    /// Registers `fd` for readability and peer hang-up under `token`.
    /// `edge` selects edge-triggered delivery, for sockets: the owner must
    /// then read until `WouldBlock` before it can expect the next event; it
    /// also hears when a send buffer drains after a write hit `WouldBlock`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, edge: bool) -> io::Result<()> {
        let mut event = EpollEvent {
            events: EPOLLIN | EPOLLRDHUP | if edge { EPOLLOUT | EPOLLET } else { 0 },
            data: token,
        };
        // SAFETY: `event` is a live, correctly laid-out `epoll_event` for
        // the duration of the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epoll.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until a registered descriptor is ready or `timeout` elapses
    /// (`None` waits indefinitely), replacing `ready` with the tokens of the
    /// ready descriptors. A signal interruption returns with none ready.
    pub(crate) fn wait(&mut self, timeout: Option<Duration>, ready: &mut Vec<u64>) {
        self.wait_raw(timeout, ready)
            .expect("epoll_pwait2 on an owned epoll descriptor and buffer");
    }

    fn wait_raw(&mut self, timeout: Option<Duration>, ready: &mut Vec<u64>) -> io::Result<()> {
        ready.clear();
        let spec = timeout.map(|t| Timespec {
            tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let spec_ptr = spec
            .as_ref()
            .map_or(std::ptr::null(), |s| s as *const Timespec);
        // SAFETY: `events` holds `len` initialised entries the kernel may
        // overwrite; `spec_ptr` is null or points at a live timespec; a null
        // sigmask leaves the signal mask alone.
        let n = unsafe {
            epoll_pwait2(
                self.epoll.as_raw_fd(),
                self.events.as_mut_ptr(),
                self.events.len() as c_int,
                spec_ptr,
                std::ptr::null(),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            return match err.kind() {
                io::ErrorKind::Interrupted => Ok(()),
                _ => Err(err),
            };
        }
        ready.extend(self.events[..n as usize].iter().map(|e| e.data));
        Ok(())
    }
}

/// An eventfd that wakes one [`Poller`] from any thread.
///
/// Wakes coalesce: between two [`Waker::reset`]s only the first
/// [`Waker::wake`] writes to the descriptor, so an executor finishing a
/// burst of transactions costs the sleeping thread one event, not one per
/// transaction.
pub(crate) struct Waker {
    fd: File,
    /// Set by the first wake after a reset; a wake that finds it set skips
    /// the write. The swap in `wake` (release) pairs with the swap in
    /// `reset` (acquire), so whatever a skipped waker published before
    /// waking is visible to the thread after its reset.
    pending: AtomicBool,
}

impl Waker {
    fn new() -> io::Result<Self> {
        // SAFETY: plain syscall wrapper; takes no pointers.
        let fd = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Self {
            fd: File::from(fd),
            pending: AtomicBool::new(false),
        })
    }

    /// Makes the poller's current or next wait return.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            // The only possible failure is a counter at u64::MAX - 1, which
            // a coalesced wake never approaches.
            let _ = (&self.fd).write(&1u64.to_ne_bytes());
        }
    }

    /// Consumes pending wakes. Call after the wait reported the eventfd
    /// and before looking for the work the wakes announced.
    pub(crate) fn reset(&self) {
        let mut count = [0u8; 8];
        let _ = (&self.fd).read(&mut count);
        self.pending.swap(false, Ordering::AcqRel);
    }
}
