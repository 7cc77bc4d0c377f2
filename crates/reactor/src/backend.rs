//! The pluggable I/O backend abstraction: **readiness** vs **completion**
//! semantics behind one trait, so one event-loop body can drive either.
//!
//! * A *readiness* backend ([`ReadinessBackend`] over epoll/poll) reports
//!   `Ready` events and the caller performs its own non-blocking I/O —
//!   preserving the zero-copy vectored write path.
//! * A *completion* backend (the deterministic mock, or io_uring) owns the
//!   I/O: the caller *submits* reads and writes, the backend reads into
//!   backend-owned buffers and writes straight from the caller's iovecs,
//!   and `wait` reaps `ReadDone` / `WriteDone` completions. Submission
//!   queues are bounded: `submit_*` can refuse with [`SubmitError::SqFull`]
//!   and the caller retries after the next reap — backpressure, never a
//!   dropped op.
//!
//! The contract both models share (DESIGN.md §16):
//!
//! * **Spurious events.** Readiness backends are level-triggered and may
//!   re-report a condition any number of times. Completion backends may
//!   deliver an `EAGAIN`-flavoured completion (`err == EAGAIN`) that made
//!   no progress; the caller resubmits. Neither model ever *loses* an event.
//! * **Buffer lifetime.** `ReadDone` buffers are backend-owned; the caller
//!   hands every one back via [`Backend::recycle`]. Writes copy nothing:
//!   `submit_write` takes the caller's iovecs and the backend holds only the
//!   iovec array, so the caller keeps the bytes alive and in place until the
//!   op's `WriteDone` is reaped or `deregister` returns (the `# Safety`
//!   clause of [`Backend::submit_write`]).
//! * **Ordering.** Completions for different tokens may arrive in any
//!   order; completions for one token's same-direction ops arrive in
//!   submission order (there is at most one read and one write in flight
//!   per token in this codebase, which makes that trivial).
//! * **Half-close / errors.** Readiness backends surface peer half-close as
//!   an `error`-flagged event (`EPOLLRDHUP`, riding only with read
//!   interest). Completion backends surface it as `ReadDone { n: 0 }` —
//!   a clean EOF — and a reset as `err == ECONNRESET` on whichever op was
//!   in flight. There is no false-dead half-close state in the completion
//!   model: a pending write simply completes when the peer drains.
//! * **Teardown.** [`Backend::deregister`] is synchronous on every backend:
//!   when it returns, the fd's queued and in-flight ops are submitted,
//!   cancelled and reaped, their read buffers recycled, and no completion
//!   for the fd ever surfaces afterwards — so the fd may be closed and its
//!   number reused at once. It returns the bytes an in-flight write moved
//!   before the cancel took hold. Dropping a completion backend does the
//!   same for every registration.

use crate::selector::{Event, Interest, Selector, Token};
use crate::sys::Iovec;
use std::io::{self, IoSlice};
use std::os::fd::RawFd;
use std::time::Duration;

/// Environment variable naming the backend (the CI matrix axis, mirroring
/// `REPRO_ACCEPT_MODE`): `epoll` | `poll` | `mock-completion` | `io_uring`.
pub const BACKEND_ENV: &str = "REPRO_BACKEND";

/// Which I/O backend an event loop runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Readiness via `epoll(7)`: O(ready) — a modern JVM/kernel.
    Epoll,
    /// Readiness via `poll(2)`: O(registered) — the 2004 testbed.
    Poll,
    /// Deterministic completion model over real sockets: seeded completion
    /// ordering, bounded SQ/CQ, short-read/short-write/EAGAIN injection.
    /// The tier-1 stand-in for io_uring semantics.
    MockCompletion,
    /// Real `io_uring` batched submit/reap. Runtime-probed: when the kernel
    /// refuses (ENOSYS, sysctl-disabled, missing features), [`create`]
    /// falls back to epoll readiness.
    IoUring,
}

impl BackendKind {
    /// Read the backend from `REPRO_BACKEND` (case-insensitive). Unset or
    /// unrecognised values fall back to `Epoll`, the paper-faithful default.
    pub fn from_env() -> BackendKind {
        match std::env::var(BACKEND_ENV) {
            Ok(v) => BackendKind::parse(&v).unwrap_or(BackendKind::Epoll),
            Err(_) => BackendKind::Epoll,
        }
    }

    pub fn parse(s: &str) -> Option<BackendKind> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("epoll") {
            Some(BackendKind::Epoll)
        } else if s.eq_ignore_ascii_case("poll") {
            Some(BackendKind::Poll)
        } else if s.eq_ignore_ascii_case("mock-completion") || s.eq_ignore_ascii_case("mock") {
            Some(BackendKind::MockCompletion)
        } else if s.eq_ignore_ascii_case("io_uring")
            || s.eq_ignore_ascii_case("io-uring")
            || s.eq_ignore_ascii_case("uring")
        {
            Some(BackendKind::IoUring)
        } else {
            None
        }
    }

    /// Stable display name (JSON rows, CI logs, `--backend` flags).
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Epoll => "epoll",
            BackendKind::Poll => "poll",
            BackendKind::MockCompletion => "mock-completion",
            BackendKind::IoUring => "io_uring",
        }
    }

    /// Completion-model semantics (submit/reap, backend-owned buffers)?
    pub fn is_completion(&self) -> bool {
        matches!(self, BackendKind::MockCompletion | BackendKind::IoUring)
    }
}

/// What one reaped entry says happened.
#[derive(Debug)]
pub enum CqeKind {
    /// A readiness notification: every event from a readiness backend, and
    /// poll-registered fds (listeners, wakers) on completion backends.
    /// The caller performs the I/O itself.
    Ready {
        readable: bool,
        writable: bool,
        error: bool,
    },
    /// A submitted read finished: `buf[..n]` holds the bytes (`n == 0` is a
    /// clean EOF), unless `err` carries an errno. `buf` is backend-owned —
    /// hand it back via [`Backend::recycle`].
    ReadDone {
        buf: Vec<u8>,
        n: usize,
        err: Option<i32>,
    },
    /// A submitted write finished: the first `n` bytes of the submitted
    /// iovecs reached the socket (possibly short — resubmit the rest),
    /// unless `err`.
    WriteDone { n: usize, err: Option<i32> },
}

/// One reaped completion-queue entry.
#[derive(Debug)]
pub struct Cqe {
    pub token: Token,
    pub kind: CqeKind,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is full. Nothing was queued; retry the
    /// identical submission after the next [`Backend::wait`] drains it.
    SqFull,
}

/// `EAGAIN` — a completion that made no progress; resubmit.
pub const EAGAIN: i32 = 11;

/// Iovecs one completion write op carries. A longer list is written short:
/// the caller consumes the completed count and resubmits the rest, as after
/// a short `writev`.
pub const MAX_WRITE_IOVECS: usize = 16;

/// A write op's iovecs in the kernel's `struct iovec` layout, copied out of
/// the caller's `IoSlice`s at submit time. The bytes they point at stay the
/// caller's (see [`Backend::submit_write`]).
#[derive(Clone, Copy)]
pub(crate) struct WriteIovs {
    iov: [Iovec; MAX_WRITE_IOVECS],
    len: usize,
}

impl WriteIovs {
    pub(crate) fn new(src: &[IoSlice<'_>]) -> WriteIovs {
        let mut iov = [Iovec { base: std::ptr::null(), len: 0 }; MAX_WRITE_IOVECS];
        let len = src.len().min(MAX_WRITE_IOVECS);
        for (dst, s) in iov.iter_mut().zip(src) {
            *dst = Iovec { base: s.as_ptr(), len: s.len() };
        }
        WriteIovs { iov, len }
    }

    pub(crate) fn as_slice(&self) -> &[Iovec] {
        &self.iov[..self.len]
    }

    /// Shorten to the first `limit` bytes.
    pub(crate) fn truncate(&mut self, mut limit: usize) {
        for (i, v) in self.iov[..self.len].iter_mut().enumerate() {
            if v.len >= limit {
                v.len = limit;
                self.len = i + 1;
                return;
            }
            limit -= v.len;
        }
    }
}

/// A pluggable I/O backend: readiness or completion semantics behind one
/// vocabulary. See the module docs for the cross-model contract.
pub trait Backend: Send {
    /// What actually runs (`create(IoUring)` may fall back to epoll). On a
    /// completion kind the caller drives connection I/O through
    /// `submit_read`/`submit_write`, otherwise through its own non-blocking
    /// syscalls on `Ready` events.
    fn kind(&self) -> BackendKind;

    /// Register a connection fd. Readiness backends arm the level-triggered
    /// interest set; completion backends only record the fd (interest is
    /// implied by submitted ops).
    fn register_conn(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()>;

    /// Register a readiness-only fd (listener, waker). Every backend
    /// delivers `Ready` events for these; completion backends keep the poll
    /// persistently armed across deliveries, so the caller must fully drain
    /// the condition each time (both call sites do).
    fn register_poll(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()>;

    /// Change readiness interest. No-op on completion backends for
    /// connection fds.
    fn set_interest(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()>;

    /// Remove an fd synchronously: its queued ops are submitted, its
    /// in-flight ops cancelled and reaped and their read buffers recycled,
    /// so no completion for `fd` surfaces after this returns. Returns the
    /// bytes an in-flight write moved before the cancel took hold (always 0
    /// on readiness backends); the caller consumes them as if a `WriteDone`
    /// had reported them.
    fn deregister(&mut self, fd: RawFd) -> io::Result<usize>;

    /// Queue a read on a registered connection fd. At most one read in
    /// flight per token.
    fn submit_read(&mut self, fd: RawFd, token: Token) -> Result<(), SubmitError>;

    /// Queue one vectored write of `iov` (at most [`MAX_WRITE_IOVECS`] of
    /// them; the rest are left for the resubmission) on a registered
    /// connection fd. At most one write in flight per token. Nothing is
    /// copied: the backend keeps only the iovec array.
    ///
    /// # Safety
    /// Every byte `iov` points at must stay allocated and unmoved until
    /// this op's `WriteDone` is reaped or `deregister(fd)` returns `Ok`,
    /// even though the `IoSlice` borrows end when this call does.
    unsafe fn submit_write(
        &mut self,
        fd: RawFd,
        token: Token,
        iov: &[IoSlice<'_>],
    ) -> Result<(), SubmitError>;

    /// Return a `ReadDone` buffer to the backend's pool.
    fn recycle(&mut self, buf: Vec<u8>);

    /// Submit everything queued and reap completions into `out` (appended).
    /// `None` blocks; completion backends bound the reap by their CQ size —
    /// leftover completions surface on the next call.
    fn wait(&mut self, out: &mut Vec<Cqe>, timeout: Option<Duration>) -> io::Result<usize>;

    /// Registered fds (diagnostics).
    fn registered(&self) -> usize;
}

/// Adapter: any [`Selector`] (epoll, poll) as a readiness-model [`Backend`].
pub struct ReadinessBackend {
    kind: BackendKind,
    selector: Box<dyn Selector>,
    events: Vec<Event>,
}

impl ReadinessBackend {
    pub fn new(kind: BackendKind, selector: Box<dyn Selector>) -> ReadinessBackend {
        ReadinessBackend {
            kind,
            selector,
            events: Vec::new(),
        }
    }
}

impl Backend for ReadinessBackend {
    fn kind(&self) -> BackendKind {
        self.kind
    }

    fn register_conn(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.selector.register(fd, token, interest)
    }

    fn register_poll(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.selector.register(fd, token, interest)
    }

    fn set_interest(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.selector.reregister(fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<usize> {
        self.selector.deregister(fd).map(|()| 0)
    }

    fn submit_read(&mut self, _fd: RawFd, _token: Token) -> Result<(), SubmitError> {
        unreachable!("readiness backend has no submission queue")
    }

    unsafe fn submit_write(
        &mut self,
        _fd: RawFd,
        _token: Token,
        _iov: &[IoSlice<'_>],
    ) -> Result<(), SubmitError> {
        unreachable!("readiness backend has no submission queue")
    }

    fn recycle(&mut self, _buf: Vec<u8>) {}

    fn wait(&mut self, out: &mut Vec<Cqe>, timeout: Option<Duration>) -> io::Result<usize> {
        self.events.clear();
        let n = self.selector.select(&mut self.events, timeout)?;
        for ev in &self.events {
            out.push(Cqe {
                token: ev.token,
                kind: CqeKind::Ready {
                    readable: ev.readable,
                    writable: ev.writable,
                    error: ev.error,
                },
            });
        }
        Ok(n)
    }

    fn registered(&self) -> usize {
        self.selector.registered()
    }
}

/// Build a backend of `kind`. `IoUring` is runtime-probed and falls back to
/// epoll readiness when the kernel refuses — call [`Backend::kind`] on the
/// result to learn what actually runs.
pub fn create(kind: BackendKind) -> Box<dyn Backend> {
    match kind {
        BackendKind::Epoll => Box::new(ReadinessBackend::new(
            BackendKind::Epoll,
            Box::new(crate::EpollSelector::new().expect("epoll")),
        )),
        BackendKind::Poll => Box::new(ReadinessBackend::new(
            BackendKind::Poll,
            Box::new(crate::PollSelector::new()),
        )),
        BackendKind::MockCompletion => Box::new(crate::MockCompletionBackend::default_seeded()),
        BackendKind::IoUring => match crate::UringBackend::probe() {
            Some(b) => Box::new(b),
            None => Box::new(ReadinessBackend::new(
                BackendKind::Epoll,
                Box::new(crate::EpollSelector::new().expect("epoll")),
            )),
        },
    }
}

/// Does this kernel grant a working io_uring? (One probe ring is set up and
/// torn down.) Used by suites that skip-not-fail on refusing kernels.
pub fn io_uring_available() -> bool {
    crate::UringBackend::probe().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for kind in [
            BackendKind::Epoll,
            BackendKind::Poll,
            BackendKind::MockCompletion,
            BackendKind::IoUring,
        ] {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(BackendKind::parse("Mock"), Some(BackendKind::MockCompletion));
        assert_eq!(BackendKind::parse("URING"), Some(BackendKind::IoUring));
        assert_eq!(BackendKind::parse("kqueue"), None);
    }

    #[test]
    fn completion_split() {
        assert!(!BackendKind::Epoll.is_completion());
        assert!(!BackendKind::Poll.is_completion());
        assert!(BackendKind::MockCompletion.is_completion());
        assert!(BackendKind::IoUring.is_completion());
    }

    #[test]
    fn create_falls_back_or_probes() {
        // Whatever the kernel says, `create(IoUring)` must hand back a
        // working backend: the real ring, or epoll readiness.
        let b = create(BackendKind::IoUring);
        assert!(matches!(b.kind(), BackendKind::IoUring | BackendKind::Epoll));
        assert_eq!(b.kind() == BackendKind::IoUring, io_uring_available());
    }
}
