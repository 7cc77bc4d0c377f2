//! The deterministic mock-completion backend: io_uring *semantics* over
//! ordinary sockets, with every source of scheduling freedom scripted by a
//! seed so tier-1 tests can exercise the completion contract (DESIGN.md
//! §16) without a cooperating kernel.
//!
//! What the seed scripts, per [`MockConfig`]:
//!
//! * **Completion order.** All ops executable in one `wait` pass are
//!   shuffled by the seeded RNG before execution, so completions for
//!   different tokens interleave in seed-chosen permutations (the order
//!   contract only pins same-token, same-direction ops).
//! * **Short reads / short writes.** Each executed op moves a seed-chosen
//!   number of bytes, 1..=the configured chunk cap, so a reply crosses the
//!   socket in arbitrary fragments and the caller's partial-write cursor
//!   and re-feed paths run constantly.
//! * **EAGAIN injection.** With configured odds an executable op completes
//!   with `err == EAGAIN` and zero progress instead of doing I/O — the
//!   spurious-completion clause of the contract; the caller must resubmit.
//!
//! Bounded queues: `submit_*` refuses with [`SubmitError::SqFull`] once
//! `sq_capacity` ops are queued ahead of a `wait`, and each `wait` delivers
//! at most `cq_capacity` completions — ops left unexecuted simply stay
//! pending (readiness is level-triggered underneath, so nothing is lost).
//!
//! Writes run the caller's iovecs through one `sendmsg` capped at the
//! short-write limit — the same zero-copy vocabulary as io_uring's
//! `WRITEV`. Every op executes whole inside `wait`, so `deregister` only
//! has to forget the fd's queued and pending ops: none of them has moved a
//! byte or borrowed a read buffer, and none can complete afterwards.
//!
//! Underneath sits a private [`EpollSelector`]: an op only executes once
//! its fd reports the matching readiness, which is what makes the mock
//! honest — a read on a silent socket pends exactly like a real completion
//! backend, and a write into a full send buffer parks until the peer
//! drains, letting write-stall deadlines fire upstream.

use crate::backend::{Backend, BackendKind, Cqe, CqeKind, SubmitError, WriteIovs, EAGAIN};
use crate::selector::{EpollSelector, Event, Interest, Selector, Token};
use crate::sys;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice};
use std::os::fd::RawFd;
use std::time::Duration;

/// Knobs for the mock's scripted nondeterminism. Every field is
/// deterministic given the seed; two backends built from equal configs
/// execute identical op permutations against identical readiness.
#[derive(Debug, Clone, Copy)]
pub struct MockConfig {
    pub seed: u64,
    /// Ops that may queue between waits before `submit_*` says `SqFull`.
    pub sq_capacity: usize,
    /// Completions delivered per `wait`; surplus executable ops stay
    /// pending for the next pass.
    pub cq_capacity: usize,
    /// Capacity of backend-owned read buffers.
    pub read_buf: usize,
    /// Short-read cap: each executed read moves 1..=this many bytes.
    pub max_read_chunk: usize,
    /// Short-write cap: each executed write moves 1..=this many bytes.
    pub max_write_chunk: usize,
    /// EAGAIN-injection odds: `eagain_num` in `eagain_den` executable ops
    /// complete with no progress. Zero numerator disables injection.
    pub eagain_num: u64,
    pub eagain_den: u64,
}

impl Default for MockConfig {
    fn default() -> MockConfig {
        MockConfig {
            seed: 0x5EED_CAFE,
            sq_capacity: 64,
            cq_capacity: 64,
            read_buf: 64 * 1024,
            max_read_chunk: 64 * 1024,
            max_write_chunk: 32 * 1024,
            eagain_num: 1,
            eagain_den: 16,
        }
    }
}

/// xorshift64* — tiny, seedable, good enough to script permutations; keeps
/// the reactor crate dependency-free.
#[derive(Debug)]
struct ScriptRng(u64);

impl ScriptRng {
    fn new(seed: u64) -> ScriptRng {
        // A zero state would be a fixed point; fold in a constant.
        ScriptRng((seed ^ 0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Completion-registered connection fd: pending ops imply interest.
struct ConnEntry {
    token: Token,
    read_pending: bool,
    /// The submitted iovecs, held until their (single) completion.
    write_pending: Option<WriteIovs>,
    /// Interest currently armed with the inner selector; `None` when the
    /// fd is not registered there (no pending ops).
    armed: Option<Interest>,
}

/// See the module docs. Built via [`MockCompletionBackend::default_seeded`]
/// (the `create()` path) or [`MockCompletionBackend::new`] for tests that
/// pin tiny queues or hostile chunking.
pub struct MockCompletionBackend {
    cfg: MockConfig,
    rng: ScriptRng,
    /// Every fd is registered here under `Token(fd)`, so an event names
    /// its fd directly.
    inner: EpollSelector,
    conns: HashMap<RawFd, ConnEntry>,
    /// Readiness-registered fds (listeners, wakers): persistent
    /// passthrough under the caller's token.
    polls: HashMap<RawFd, Token>,
    /// Queued-but-not-yet-accepted submissions: a read (`None`) or a
    /// write carrying its iovecs inline, so submitting allocates nothing.
    sq: VecDeque<(RawFd, Option<WriteIovs>)>,
    pool: Vec<Vec<u8>>,
    events: Vec<Event>,
    /// Scratch for the per-wait executable-op permutation.
    exec: Vec<(RawFd, bool, bool)>,
}

impl MockCompletionBackend {
    pub fn new(cfg: MockConfig) -> MockCompletionBackend {
        assert!(cfg.sq_capacity > 0 && cfg.cq_capacity > 0);
        assert!(cfg.read_buf > 0 && cfg.max_read_chunk > 0 && cfg.max_write_chunk > 0);
        MockCompletionBackend {
            rng: ScriptRng::new(cfg.seed),
            cfg,
            inner: EpollSelector::new().expect("epoll for mock-completion backend"),
            conns: HashMap::new(),
            polls: HashMap::new(),
            sq: VecDeque::new(),
            pool: Vec::new(),
            events: Vec::new(),
            exec: Vec::new(),
        }
    }

    /// The `create()` constructor: fixed seed so every worker in a test
    /// process replays the same script.
    pub fn default_seeded() -> MockCompletionBackend {
        MockCompletionBackend::new(MockConfig::default())
    }

    fn take_buf(&mut self) -> Vec<u8> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(self.cfg.read_buf, 0);
        buf
    }

    /// Move queued submissions into per-connection pending slots. Every
    /// queued op's fd is registered: `deregister` purges the fd's ops.
    fn drain_sq(&mut self) {
        while let Some((fd, write)) = self.sq.pop_front() {
            let c = self.conns.get_mut(&fd).expect("queued op on a registered fd");
            match write {
                None => {
                    debug_assert!(!c.read_pending, "one read in flight per token");
                    c.read_pending = true;
                }
                Some(iov) => {
                    debug_assert!(c.write_pending.is_none(), "one write in flight per token");
                    c.write_pending = Some(iov);
                }
            }
        }
    }

    fn submit(&mut self, fd: RawFd, write: Option<WriteIovs>) -> Result<(), SubmitError> {
        if self.sq.len() >= self.cfg.sq_capacity {
            return Err(SubmitError::SqFull);
        }
        self.sq.push_back((fd, write));
        Ok(())
    }

    /// Re-arm the inner selector so each conn's interest mirrors its
    /// pending ops (and deregister idle conns — a level-triggered error
    /// condition on an op-less fd must not spin the wait loop).
    fn reconcile_interest(&mut self) -> io::Result<()> {
        for (&fd, c) in &mut self.conns {
            let want = Interest { readable: c.read_pending, writable: c.write_pending.is_some() };
            let idle = !want.readable && !want.writable;
            match (c.armed, idle) {
                (None, true) => {}
                (None, false) => {
                    self.inner.register(fd, Token(fd as usize), want)?;
                    c.armed = Some(want);
                }
                (Some(_), true) => {
                    self.inner.deregister(fd)?;
                    c.armed = None;
                }
                (Some(cur), false) if cur != want => {
                    self.inner.reregister(fd, Token(fd as usize), want)?;
                    c.armed = Some(want);
                }
                (Some(_), false) => {}
            }
        }
        Ok(())
    }

    /// One scripted op attempt: with the configured odds an injected
    /// no-progress `EAGAIN`, otherwise `io(limit)` for a seed-chosen
    /// `limit` in 1..=`cap`, retried on `EINTR`. Returns (bytes, errno).
    fn attempt(&mut self, cap: usize, mut io: impl FnMut(usize) -> isize) -> (usize, Option<i32>) {
        let inject = self.cfg.eagain_num > 0
            && self.rng.below(self.cfg.eagain_den) < self.cfg.eagain_num;
        if inject {
            return (0, Some(EAGAIN));
        }
        let limit = 1 + self.rng.below(cap as u64) as usize;
        loop {
            let n = io(limit);
            if n >= 0 {
                return (n as usize, None);
            }
            match io::Error::last_os_error().raw_os_error().unwrap_or(0) {
                EINTR => continue,
                // Readiness raced away (or only an error flag was up with
                // nothing buffered): a no-progress completion; resubmit.
                E_AGAIN => return (0, Some(EAGAIN)),
                e => return (0, Some(e)),
            }
        }
    }

    /// Execute one pending read. Exactly one CQE per call.
    fn run_read(&mut self, fd: RawFd, token: Token, out: &mut Vec<Cqe>) {
        let mut buf = self.take_buf();
        let cap = buf.len().min(self.cfg.max_read_chunk);
        let (n, err) = self.attempt(cap, |limit| {
            // SAFETY: `buf` is an owned, initialised buffer of at least
            // `limit` bytes (`limit <= cap <= buf.len()`).
            unsafe { sys::recv(fd, buf.as_mut_ptr().cast(), limit, 0) }
        });
        out.push(Cqe { token, kind: CqeKind::ReadDone { buf, n, err } });
    }

    /// Execute one pending write: one `sendmsg` of the submitted iovecs,
    /// capped at a seed-chosen byte count (on a short write the caller
    /// resubmits the remainder).
    fn run_write(&mut self, fd: RawFd, token: Token, mut iov: WriteIovs, out: &mut Vec<Cqe>) {
        let total: usize = iov.as_slice().iter().map(|v| v.len).sum();
        let cap = total.min(self.cfg.max_write_chunk);
        let (n, err) = self.attempt(cap, |limit| {
            iov.truncate(limit);
            let iov = iov.as_slice();
            let msg = sys::MsgHdr {
                name: std::ptr::null_mut(),
                namelen: 0,
                iov: iov.as_ptr(),
                iovlen: iov.len(),
                control: std::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            };
            // SAFETY: `msg` points at `iov`, whose spans the caller of
            // `submit_write` keeps alive until this op's completion, which
            // is the one this call produces.
            unsafe { sys::sendmsg(fd, &msg, sys::MSG_NOSIGNAL) }
        });
        out.push(Cqe { token, kind: CqeKind::WriteDone { n, err } });
    }
}

// SAFETY: the only non-`Send` state is the raw pointers inside pending
// `WriteIovs`. They point at bytes the `submit_write` caller keeps alive
// until completion or `deregister`, and the backend only dereferences them
// inside `wait`, on whichever single thread owns it.
unsafe impl Send for MockCompletionBackend {}

impl Backend for MockCompletionBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::MockCompletion
    }

    fn register_conn(&mut self, fd: RawFd, token: Token, _interest: Interest) -> io::Result<()> {
        // Interest is implied by submitted ops; only record the fd.
        self.conns.insert(
            fd,
            ConnEntry { token, read_pending: false, write_pending: None, armed: None },
        );
        Ok(())
    }

    fn register_poll(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, Token(fd as usize), interest)?;
        self.polls.insert(fd, token);
        Ok(())
    }

    fn set_interest(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        if let Some(p) = self.polls.get_mut(&fd) {
            *p = token;
            return self.inner.reregister(fd, Token(fd as usize), interest);
        }
        // Connection fds: interest is op-implied; nothing to do.
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<usize> {
        // Queued and pending ops never ran (ops execute whole inside
        // `wait`): dropping them is the cancel, and nothing moved.
        self.sq.retain(|&(queued, _)| queued != fd);
        let armed = match self.conns.remove(&fd) {
            Some(c) => c.armed.is_some(),
            None => self.polls.remove(&fd).is_some(),
        };
        if armed {
            self.inner.deregister(fd)?;
        }
        Ok(0)
    }

    fn submit_read(&mut self, fd: RawFd, _token: Token) -> Result<(), SubmitError> {
        self.submit(fd, None)
    }

    unsafe fn submit_write(
        &mut self,
        fd: RawFd,
        _token: Token,
        iov: &[IoSlice<'_>],
    ) -> Result<(), SubmitError> {
        self.submit(fd, Some(WriteIovs::new(iov)))
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    fn wait(&mut self, out: &mut Vec<Cqe>, timeout: Option<Duration>) -> io::Result<usize> {
        let before = out.len();
        self.drain_sq();
        self.reconcile_interest()?;
        let mut budget = self.cfg.cq_capacity;
        self.events.clear();
        self.inner.select(&mut self.events, timeout)?;

        // Passthrough fds deliver `Ready` directly (level-triggered — a
        // condition the caller leaves undrained simply re-reports, so the
        // CQ bound does not apply). Conn fds queue for scripted execution.
        self.exec.clear();
        for i in 0..self.events.len() {
            let ev = self.events[i];
            let fd = ev.token.0 as RawFd;
            if let Some(&token) = self.polls.get(&fd) {
                out.push(Cqe {
                    token,
                    kind: CqeKind::Ready {
                        readable: ev.readable,
                        writable: ev.writable,
                        error: ev.error,
                    },
                });
            } else if self.conns.contains_key(&fd) {
                // Error-flagged events unblock both directions: the op
                // runs and observes EOF/ECONNRESET/EPIPE itself.
                self.exec.push((fd, ev.readable || ev.error, ev.writable || ev.error));
            }
        }
        // Canonical order, then the seeded permutation: completion order
        // across tokens is scripted, not epoll's.
        self.exec.sort_unstable();
        let mut exec = std::mem::take(&mut self.exec);
        for i in (1..exec.len()).rev() {
            exec.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        for &(fd, r, w) in &exec {
            let Some(c) = self.conns.get_mut(&fd) else { continue };
            let token = c.token;
            let run_read = r && c.read_pending;
            let run_write = w && c.write_pending.is_some();
            if run_read && budget > 0 {
                c.read_pending = false;
                self.run_read(fd, token, out);
                budget -= 1;
            }
            if run_write && budget > 0 {
                // Re-borrow: run_read released the map borrow.
                if let Some(c) = self.conns.get_mut(&fd) {
                    if let Some(iov) = c.write_pending.take() {
                        self.run_write(fd, token, iov, out);
                        budget -= 1;
                    }
                }
            }
        }
        self.exec = exec;
        Ok(out.len() - before)
    }

    fn registered(&self) -> usize {
        self.conns.len() + self.polls.len()
    }
}

const EINTR: i32 = 4;
const E_AGAIN: i32 = 11;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    fn no_eagain() -> MockConfig {
        MockConfig { eagain_num: 0, ..MockConfig::default() }
    }

    /// Drive `wait` until `pred` says the collected completions suffice.
    fn wait_until(
        b: &mut MockCompletionBackend,
        got: &mut Vec<Cqe>,
        pred: impl Fn(&[Cqe]) -> bool,
    ) {
        for _ in 0..1000 {
            if pred(got) {
                return;
            }
            b.wait(got, Some(Duration::from_millis(50))).unwrap();
        }
        panic!("mock backend made no progress: {got:?}");
    }

    #[test]
    fn read_completes_with_submitted_bytes() {
        let (server_side, mut client) = pair();
        let mut b = MockCompletionBackend::new(no_eagain());
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(7), Interest::READABLE).unwrap();
        b.submit_read(fd, Token(7)).unwrap();
        client.write_all(b"hello").unwrap();
        let mut got = Vec::new();
        wait_until(&mut b, &mut got, |g| {
            g.iter().any(|c| matches!(c.kind, CqeKind::ReadDone { n, .. } if n > 0))
        });
        let mut data = Vec::new();
        for c in got {
            assert_eq!(c.token, Token(7));
            if let CqeKind::ReadDone { buf, n, err } = c.kind {
                assert_eq!(err, None);
                data.extend_from_slice(&buf[..n]);
                b.recycle(buf);
            }
        }
        assert_eq!(&data, b"hello");
    }

    #[test]
    fn eof_is_a_zero_byte_clean_completion() {
        let (server_side, client) = pair();
        let mut b = MockCompletionBackend::new(no_eagain());
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(1), Interest::READABLE).unwrap();
        b.submit_read(fd, Token(1)).unwrap();
        drop(client);
        let mut got = Vec::new();
        wait_until(&mut b, &mut got, |g| !g.is_empty());
        match &got[0].kind {
            CqeKind::ReadDone { n, err, .. } => {
                assert_eq!((*n, *err), (0, None), "FIN must be a clean EOF completion");
            }
            other => panic!("expected ReadDone, got {other:?}"),
        }
    }

    #[test]
    fn short_writes_deliver_every_byte_in_order() {
        let (server_side, mut client) = pair();
        client.set_nonblocking(false).unwrap();
        let mut b = MockCompletionBackend::new(MockConfig {
            max_write_chunk: 3,
            ..no_eagain()
        });
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(9), Interest::WRITABLE).unwrap();
        let payload = b"the quick brown fox jumps over the lazy dog";
        let mut sent = 0usize;
        let mut got = Vec::new();
        while sent < payload.len() {
            // SAFETY: `payload` is a static; the loop waits for this op's
            // completion before submitting the next.
            unsafe { b.submit_write(fd, Token(9), &[IoSlice::new(&payload[sent..])]) }.unwrap();
            let before = got.len();
            wait_until(&mut b, &mut got, |g| g.len() > before);
            for c in got.drain(..) {
                match c.kind {
                    CqeKind::WriteDone { n, err: None } => {
                        assert!(n <= 3, "short-write cap violated: {n}");
                        sent += n;
                    }
                    CqeKind::WriteDone { err: Some(e), .. } => panic!("write errno {e}"),
                    other => panic!("unexpected completion {other:?}"),
                }
            }
        }
        let mut echo = vec![0u8; payload.len()];
        std::io::Read::read_exact(&mut client, &mut echo).unwrap();
        assert_eq!(&echo, payload);
    }

    #[test]
    fn eagain_injection_makes_no_progress_and_resubmission_succeeds() {
        let (server_side, mut client) = pair();
        // Always inject: the first completion of every op is EAGAIN.
        let mut b = MockCompletionBackend::new(MockConfig {
            eagain_num: 1,
            eagain_den: 1,
            ..MockConfig::default()
        });
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(3), Interest::READABLE).unwrap();
        b.submit_read(fd, Token(3)).unwrap();
        client.write_all(b"x").unwrap();
        let mut got = Vec::new();
        wait_until(&mut b, &mut got, |g| !g.is_empty());
        match &got[0].kind {
            CqeKind::ReadDone { n, err, .. } => assert_eq!((*n, *err), (0, Some(EAGAIN))),
            other => panic!("expected ReadDone, got {other:?}"),
        }
        // The byte is still there for the resubmission once injection is
        // turned back off.
        b.cfg.eagain_num = 0;
        got.clear();
        b.submit_read(fd, Token(3)).unwrap();
        wait_until(&mut b, &mut got, |g| {
            g.iter().any(|c| matches!(c.kind, CqeKind::ReadDone { n, .. } if n == 1))
        });
    }

    #[test]
    fn sq_refuses_above_capacity_and_drains_on_wait() {
        let (server_side, _client) = pair();
        let mut b = MockCompletionBackend::new(MockConfig {
            sq_capacity: 2,
            ..no_eagain()
        });
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(1), Interest::BOTH).unwrap();
        // SAFETY: a static byte string outlives the backend.
        unsafe { b.submit_write(fd, Token(1), &[IoSlice::new(b"a")]) }.unwrap();
        b.submit_read(fd, Token(1)).unwrap();
        assert_eq!(b.submit_read(fd, Token(1)), Err(SubmitError::SqFull));
        let mut got = Vec::new();
        b.wait(&mut got, Some(Duration::from_millis(20))).unwrap();
        // Queue drained into pending slots: submissions are accepted again
        // (for a token with nothing in flight).
        let (other, _keep) = pair();
        b.register_conn(other.as_raw_fd(), Token(2), Interest::BOTH).unwrap();
        assert_eq!(b.submit_read(other.as_raw_fd(), Token(2)), Ok(()));
    }

    #[test]
    fn deregister_cancels_pending_ops() {
        // A read parked on a silent socket (already accepted into its
        // pending slot) is cancelled by deregister, synchronously: data
        // arriving afterwards produces no completion at all.
        let (server_side, mut client) = pair();
        let mut b = MockCompletionBackend::new(no_eagain());
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(5), Interest::READABLE).unwrap();
        b.submit_read(fd, Token(5)).unwrap();
        let mut got = Vec::new();
        b.wait(&mut got, Some(Duration::ZERO)).unwrap();
        assert!(got.is_empty(), "nothing to read yet: {got:?}");
        assert_eq!(b.deregister(fd).unwrap(), 0, "a pending op never moved a byte");
        assert_eq!(b.registered(), 0);
        client.write_all(b"late").unwrap();
        b.wait(&mut got, Some(Duration::from_millis(20))).unwrap();
        assert!(got.is_empty(), "completion after deregister: {got:?}");
    }

    #[test]
    fn deregister_cancels_ops_still_queued_in_the_sq() {
        // Ops that never left the submission queue die with the fd: they
        // neither complete later nor leak into a new registration that
        // reuses the fd number.
        let (server_side, mut client) = pair();
        let mut b = MockCompletionBackend::new(no_eagain());
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(6), Interest::BOTH).unwrap();
        b.submit_read(fd, Token(6)).unwrap();
        // SAFETY: a static byte string outlives the backend.
        unsafe { b.submit_write(fd, Token(6), &[IoSlice::new(b"bye")]) }.unwrap();
        assert_eq!(b.deregister(fd).unwrap(), 0);
        b.register_conn(fd, Token(7), Interest::READABLE).unwrap();
        b.submit_read(fd, Token(7)).unwrap();
        client.write_all(b"hi").unwrap();
        let mut got = Vec::new();
        wait_until(&mut b, &mut got, |g| !g.is_empty());
        assert!(got.iter().all(|c| c.token == Token(7)), "{got:?}");
        let mut echo = [0u8; 3];
        assert!(std::io::Read::read(&mut client, &mut echo).is_err(), "cancelled write ran");
    }

    #[test]
    fn poll_registrations_pass_readiness_through() {
        let (server_side, mut client) = pair();
        let mut b = MockCompletionBackend::new(no_eagain());
        let fd = server_side.as_raw_fd();
        b.register_poll(fd, Token(42), Interest::READABLE).unwrap();
        client.write_all(b"ping").unwrap();
        let mut got = Vec::new();
        wait_until(&mut b, &mut got, |g| !g.is_empty());
        assert_eq!(got[0].token, Token(42));
        assert!(matches!(got[0].kind, CqeKind::Ready { readable: true, .. }));
    }

    #[test]
    fn cq_bound_defers_surplus_completions() {
        // Four conns with readable data, CQ of one: each wait delivers
        // exactly one completion and the rest stay pending, never lost.
        let pairs: Vec<_> = (0..4).map(|_| pair()).collect();
        let mut b = MockCompletionBackend::new(MockConfig {
            cq_capacity: 1,
            ..no_eagain()
        });
        for (i, (server_side, _)) in pairs.iter().enumerate() {
            let fd = server_side.as_raw_fd();
            b.register_conn(fd, Token(i + 1), Interest::READABLE).unwrap();
            b.submit_read(fd, Token(i + 1)).unwrap();
        }
        for (_, client) in &pairs {
            let mut c = client;
            c.write_all(b"z").unwrap();
        }
        let mut seen = Vec::new();
        for _ in 0..4 {
            let mut got = Vec::new();
            wait_until(&mut b, &mut got, |g| !g.is_empty());
            assert_eq!(got.len(), 1, "CQ bound of one: {got:?}");
            seen.push(got[0].token);
        }
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 4, "every conn's read completed exactly once");
    }
}
