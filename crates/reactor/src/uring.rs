//! The real `io_uring(7)` completion backend — raw syscalls, no crates,
//! same shape as SNIPPETS.md snippet 2's owned-buffer completion loop.
//!
//! Scope is deliberately the subset the [`Backend`] contract needs:
//!
//! * `IORING_OP_READ` into a backend-owned buffer from a recycle pool, and
//!   `IORING_OP_WRITEV` straight from the caller's iovecs — the ring holds
//!   only the iovec array, in a pooled fixed-address slot, never a copy of
//!   the bytes. One op per direction per fd.
//! * Single-shot `IORING_OP_POLL_ADD` for readiness-only fds (listeners,
//!   wakers), re-armed on every delivery so the caller sees level-style
//!   `Ready` events.
//! * A synchronous `deregister`: it submits what is queued, issues
//!   `IORING_OP_ASYNC_CANCEL` for the fd's ops and reaps until each of
//!   them and each cancel has completed, stashing other fds' completions
//!   for the next `wait`. Nothing for the fd surfaces afterwards, so a
//!   reused fd number can never receive a dead registration's op. `Drop`
//!   does the same for every registration before it closes the ring.
//! * `io_uring_enter(EXT_ARG)` for bounded waits — no timeout sqe
//!   bookkeeping, one syscall per reap.
//!
//! Because no op outlives its registration, `user_data` is `fd << 8 | op
//! kind`: a CQE resolves through the one registration map, keyed by fd,
//! with no per-op ids.
//!
//! [`UringBackend::probe`] builds a ring and pushes a NOP through a
//! timed `enter` before declaring the backend usable — kernels (or seccomp
//! policies) that refuse `io_uring_setup`, or predate `EXT_ARG`
//! (< 5.11), fail the probe and [`crate::backend::create`] falls back to
//! epoll readiness. The suites treat that as skip, not failure.

use crate::backend::{Backend, BackendKind, Cqe, CqeKind, SubmitError, WriteIovs};
use crate::selector::{Interest, Token};
use std::collections::HashMap;
use std::io::{self, IoSlice};
use std::os::fd::RawFd;
use std::time::Duration;

const SYS_IO_URING_SETUP: i64 = 425;
const SYS_IO_URING_ENTER: i64 = 426;

const IORING_OFF_SQ_RING: i64 = 0;
const IORING_OFF_CQ_RING: i64 = 0x800_0000;
const IORING_OFF_SQES: i64 = 0x1000_0000;

const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;

const IORING_ENTER_GETEVENTS: u32 = 1 << 0;
const IORING_ENTER_EXT_ARG: u32 = 1 << 3;

const IORING_OP_NOP: u8 = 0;
const IORING_OP_WRITEV: u8 = 2;
const IORING_OP_POLL_ADD: u8 = 6;
const IORING_OP_ASYNC_CANCEL: u8 = 14;
const IORING_OP_READ: u8 = 22;

const POLLIN: u32 = 0x001;
const POLLOUT: u32 = 0x004;
const POLLERR: u32 = 0x008;
const POLLHUP: u32 = 0x010;
const POLLRDHUP: u32 = 0x2000;

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 0x01;
const MAP_POPULATE: i32 = 0x8000;

const EINTR: i32 = 4;
const ETIME: i32 = 62;
const READ_BUF: usize = 64 * 1024;
const RING_ENTRIES: u32 = 256;

#[repr(C)]
#[derive(Default)]
struct SqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    flags: u32,
    dropped: u32,
    array: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Default)]
struct CqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    overflow: u32,
    cqes: u32,
    flags: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Default)]
struct UringParams {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: SqringOffsets,
    cq_off: CqringOffsets,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Sqe {
    opcode: u8,
    flags: u8,
    ioprio: u16,
    fd: i32,
    off: u64,
    addr: u64,
    len: u32,
    op_flags: u32,
    user_data: u64,
    buf_index: u16,
    personality: u16,
    splice_fd_in: i32,
    pad2: [u64; 2],
}

#[repr(C)]
#[derive(Clone, Copy)]
struct RawCqe {
    user_data: u64,
    res: i32,
    flags: u32,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct GeteventsArg {
    sigmask: u64,
    sigmask_sz: u32,
    pad: u32,
    ts: u64,
}

extern "C" {
    fn syscall(num: i64, ...) -> i64;
    fn mmap(
        addr: *mut std::os::raw::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        off: i64,
    ) -> *mut std::os::raw::c_void;
    fn munmap(addr: *mut std::os::raw::c_void, len: usize) -> i32;
    fn close(fd: i32) -> i32;
}

fn cvt64(ret: i64) -> io::Result<i64> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One mmapped region (unmapped on drop).
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

impl Mapping {
    fn new(ring_fd: RawFd, len: usize, offset: i64) -> io::Result<Mapping> {
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE,
                ring_fd,
                offset,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping { ptr: ptr as *mut u8, len })
    }

    /// # Safety
    /// `off` must lie inside the mapping and point at a `T` the kernel
    /// placed there (ring offsets from `io_uring_setup`).
    unsafe fn at<T>(&self, off: u32) -> *mut T {
        self.ptr.add(off as usize) as *mut T
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        unsafe { munmap(self.ptr as *mut _, self.len) };
    }
}

/// `user_data` low byte: which op of the fd in the high bits a CQE is for.
const OP_NOP: u64 = 0;
const OP_READ: u64 = 1;
const OP_WRITE: u64 = 2;
const OP_POLL: u64 = 3;
const OP_CANCEL: u64 = 4;

fn user_data(fd: RawFd, op: u64) -> u64 {
    (fd as u64) << 8 | op
}

/// One registered fd: a connection (ops submitted by the caller) or a
/// readiness-only fd (a poll the backend keeps armed).
struct Reg {
    token: Token,
    /// `Some` for readiness-only fds: the interest re-armed after each
    /// delivery (taken by `deregister`, so a poll firing then stays down).
    poll: Option<Interest>,
    /// SQEs pushed for this fd (reads, writes, polls, cancels) whose CQE
    /// has not been reaped yet.
    inflight: u32,
    /// The in-flight read's buffer.
    read_buf: Option<Vec<u8>>,
    /// The in-flight write's iovec array, at a fixed heap address the
    /// kernel may read until the op completes.
    write_iov: Option<Box<WriteIovs>>,
}

/// See the module docs.
pub struct UringBackend {
    ring_fd: RawFd,
    // Mappings are held only so Drop unmaps them; all access goes through
    // the raw pointers below.
    #[allow(dead_code)]
    sq_ring: Mapping,
    /// `None` when `IORING_FEAT_SINGLE_MMAP` folded the CQ into `sq_ring`.
    #[allow(dead_code)]
    cq_ring: Option<Mapping>,
    sqes: Mapping,

    // SQ ring geometry (pointers into sq_ring).
    sq_khead: *const u32,
    sq_ktail: *mut u32,
    sq_mask: u32,
    sq_entries: u32,
    sq_array: *mut u32,
    /// Local shadow of the SQ tail.
    sq_tail: u32,

    // CQ ring geometry.
    cq_khead: *mut u32,
    cq_ktail: *const u32,
    cq_mask: u32,
    cqes: *const RawCqe,

    regs: HashMap<RawFd, Reg>,
    /// Completions `deregister` reaped while waiting for its fd's ops:
    /// the fd's own are absorbed there, the rest `wait` delivers first.
    stash: Vec<Cqe>,
    pool: Vec<Vec<u8>>,
    /// Boxed: each is a slot whose address the kernel holds until the
    /// write completes, while its `Reg` may move.
    #[allow(clippy::vec_box)]
    iov_pool: Vec<Box<WriteIovs>>,
}

// SAFETY: the ring is owned by one worker thread at a time. The raw
// pointers refer to this backend's own mappings, which move with it, and
// to caller bytes that `submit_write`'s contract keeps alive until the op
// is reaped on whichever thread then owns the backend.
unsafe impl Send for UringBackend {}

impl UringBackend {
    /// Build a ring and prove it works end to end (NOP through a timed
    /// `EXT_ARG` enter). `None` on any refusal — caller falls back.
    pub fn probe() -> Option<UringBackend> {
        let mut b = UringBackend::new(RING_ENTRIES).ok()?;
        let sqe = Sqe {
            opcode: IORING_OP_NOP,
            user_data: OP_NOP,
            ..Sqe::default()
        };
        b.push_sqe(sqe).ok()?;
        // A NOP completes immediately; one timed enter must reap it.
        b.enter(1, Some(Duration::from_millis(100))).ok()?;
        if b.cq_ready() == 0 {
            return None;
        }
        b.reap(&mut Vec::new()).ok()?;
        Some(b)
    }

    fn new(entries: u32) -> io::Result<UringBackend> {
        let mut params = UringParams::default();
        // SAFETY: `params` is a live, zeroed `io_uring_params` the kernel
        // fills in.
        let ring_fd = cvt64(unsafe {
            syscall(SYS_IO_URING_SETUP, entries, &mut params as *mut UringParams)
        })? as RawFd;
        // From here on, any failure must close the fd; wrap early.
        let build = (|| -> io::Result<UringBackend> {
            let sq_size = params.sq_off.array as usize
                + params.sq_entries as usize * std::mem::size_of::<u32>();
            let cq_size = params.cq_off.cqes as usize
                + params.cq_entries as usize * std::mem::size_of::<RawCqe>();
            let single = params.features & IORING_FEAT_SINGLE_MMAP != 0;
            let sq_ring = Mapping::new(
                ring_fd,
                if single { sq_size.max(cq_size) } else { sq_size },
                IORING_OFF_SQ_RING,
            )?;
            let cq_ring = if single {
                None
            } else {
                Some(Mapping::new(ring_fd, cq_size, IORING_OFF_CQ_RING)?)
            };
            let sqes = Mapping::new(
                ring_fd,
                params.sq_entries as usize * std::mem::size_of::<Sqe>(),
                IORING_OFF_SQES,
            )?;
            let cqm = cq_ring.as_ref().unwrap_or(&sq_ring);
            let backend = unsafe {
                UringBackend {
                    sq_khead: sq_ring.at(params.sq_off.head),
                    sq_ktail: sq_ring.at(params.sq_off.tail),
                    sq_mask: *sq_ring.at::<u32>(params.sq_off.ring_mask),
                    sq_entries: params.sq_entries,
                    sq_array: sq_ring.at(params.sq_off.array),
                    sq_tail: *sq_ring.at::<u32>(params.sq_off.tail),
                    cq_khead: cqm.at(params.cq_off.head),
                    cq_ktail: cqm.at(params.cq_off.tail),
                    cq_mask: *cqm.at::<u32>(params.cq_off.ring_mask),
                    cqes: cqm.at(params.cq_off.cqes),
                    ring_fd,
                    sq_ring,
                    cq_ring,
                    sqes,
                    regs: HashMap::new(),
                    stash: Vec::new(),
                    pool: Vec::new(),
                    iov_pool: Vec::new(),
                }
            };
            Ok(backend)
        })();
        if build.is_err() {
            unsafe { close(ring_fd) };
        }
        build
    }

    /// Write an SQE into the ring. `SqFull` when a full ring's worth is
    /// already pending unsubmitted-or-unreaped.
    fn push_sqe(&mut self, sqe: Sqe) -> Result<(), SubmitError> {
        let head = unsafe { atomic_load(self.sq_khead) };
        if self.sq_tail.wrapping_sub(head) >= self.sq_entries {
            return Err(SubmitError::SqFull);
        }
        let idx = self.sq_tail & self.sq_mask;
        unsafe {
            self.sqes.at::<Sqe>(0).add(idx as usize).write(sqe);
            self.sq_array.add(idx as usize).write(idx);
        }
        self.sq_tail = self.sq_tail.wrapping_add(1);
        unsafe { atomic_store(self.sq_ktail, self.sq_tail) };
        Ok(())
    }

    /// Push an op the backend issues itself (a cancel, a poll re-arm) for
    /// registered `fd`. A full SQ is submitted first, so these never wait
    /// on the caller's next `wait`.
    fn push_internal(&mut self, fd: RawFd, sqe: Sqe) -> io::Result<()> {
        if self.push_sqe(sqe).is_err() {
            self.enter(0, None)?;
            self.push_sqe(sqe).map_err(|_| io::Error::from(io::ErrorKind::WouldBlock))?;
        }
        if let Some(reg) = self.regs.get_mut(&fd) {
            reg.inflight += 1;
        }
        Ok(())
    }

    fn arm_poll(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        let mut mask = POLLERR | POLLHUP;
        if interest.readable {
            mask |= POLLIN | POLLRDHUP;
        }
        if interest.writable {
            mask |= POLLOUT;
        }
        let sqe = Sqe {
            opcode: IORING_OP_POLL_ADD,
            fd,
            op_flags: mask,
            user_data: user_data(fd, OP_POLL),
            ..Sqe::default()
        };
        self.push_internal(fd, sqe)
    }

    fn cq_ready(&self) -> u32 {
        let head = unsafe { atomic_load(self.cq_khead) };
        let tail = unsafe { atomic_load(self.cq_ktail) };
        tail.wrapping_sub(head)
    }

    /// Submit every pushed SQE the kernel has not consumed yet and, with
    /// `min_complete > 0`, wait for that many completions (bounded by
    /// `timeout` when given).
    fn enter(&mut self, min_complete: u32, timeout: Option<Duration>) -> io::Result<()> {
        // SAFETY: `sq_khead` points into this backend's live SQ mapping.
        let to_submit = self.sq_tail.wrapping_sub(unsafe { atomic_load(self.sq_khead) });
        if to_submit == 0 && min_complete == 0 {
            return Ok(());
        }
        let ts = timeout.map(|t| Timespec {
            tv_sec: t.as_secs() as i64,
            tv_nsec: t.subsec_nanos() as i64,
        });
        let arg = GeteventsArg {
            sigmask: 0,
            sigmask_sz: 0,
            pad: 0,
            ts: ts.as_ref().map_or(0, |ts| ts as *const Timespec as u64),
        };
        let mut flags = if min_complete > 0 { IORING_ENTER_GETEVENTS } else { 0 };
        let (argp, argsz) = match ts {
            Some(_) => {
                flags |= IORING_ENTER_EXT_ARG;
                (&arg as *const GeteventsArg, std::mem::size_of::<GeteventsArg>())
            }
            None => (std::ptr::null(), 0),
        };
        // SAFETY: `argp` is null or points at `arg`, which outlives the call
        // together with the `Timespec` it names; the kernel only reads them.
        let ret = unsafe {
            syscall(SYS_IO_URING_ENTER, self.ring_fd, to_submit, min_complete, flags, argp, argsz)
        };
        if ret < 0 {
            let err = io::Error::last_os_error();
            match err.raw_os_error() {
                // Timed out / interrupted: not failures, just no events.
                Some(e) if e == ETIME || e == EINTR => Ok(()),
                _ => Err(err),
            }
        } else {
            Ok(())
        }
    }

    /// Reap everything currently in the CQ into `out`.
    fn reap(&mut self, out: &mut Vec<Cqe>) -> io::Result<()> {
        loop {
            let head = unsafe { atomic_load(self.cq_khead) };
            let tail = unsafe { atomic_load(self.cq_ktail) };
            if head == tail {
                return Ok(());
            }
            let raw = unsafe { *self.cqes.add((head & self.cq_mask) as usize) };
            unsafe { atomic_store(self.cq_khead, head.wrapping_add(1)) };
            let fd = (raw.user_data >> 8) as RawFd;
            let op = raw.user_data & 0xff;
            // Only the probe's NOP resolves to no registration: every other
            // op is reaped before `deregister` forgets its fd.
            let Some(reg) = self.regs.get_mut(&fd).filter(|_| op != OP_NOP) else {
                continue;
            };
            reg.inflight -= 1;
            let token = reg.token;
            let err = (raw.res < 0).then_some(-raw.res);
            let n = raw.res.max(0) as usize;
            match op {
                OP_READ => {
                    let buf = reg.read_buf.take().expect("read in flight");
                    out.push(Cqe { token, kind: CqeKind::ReadDone { buf, n, err } });
                }
                OP_WRITE => {
                    self.iov_pool.push(reg.write_iov.take().expect("write in flight"));
                    out.push(Cqe { token, kind: CqeKind::WriteDone { n, err } });
                }
                OP_POLL => {
                    // Single-shot: deliver and re-arm while the fd stays
                    // registered. A failed poll (res < 0) stays down.
                    if let (Some(interest), None) = (reg.poll, err) {
                        let revents = raw.res as u32;
                        out.push(Cqe {
                            token,
                            kind: CqeKind::Ready {
                                readable: revents & POLLIN != 0,
                                writable: revents & POLLOUT != 0,
                                error: revents & (POLLERR | POLLHUP | POLLRDHUP) != 0,
                            },
                        });
                        self.arm_poll(fd, interest)?;
                    }
                }
                _ => {} // OP_CANCEL: only its `inflight` slot mattered.
            }
        }
    }

    fn register(&mut self, fd: RawFd, token: Token, poll: Option<Interest>) {
        // Replacing a live registration would free buffers its ops still
        // lend to the kernel.
        assert!(!self.regs.contains_key(&fd), "fd {fd} registered twice");
        let reg = Reg {
            token,
            poll,
            inflight: 0,
            read_buf: None,
            write_iov: None,
        };
        self.regs.insert(fd, reg);
    }

    fn take_buf(&mut self) -> Vec<u8> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(READ_BUF, 0);
        buf
    }
}

impl Drop for UringBackend {
    fn drop(&mut self) {
        // Cancel and reap every registration's ops before the ring closes,
        // so the kernel never writes into a freed read buffer or reads a
        // caller's bytes after this backend is gone. If the ring refuses,
        // leak what the kernel may still own rather than free it.
        let fds: Vec<RawFd> = self.regs.keys().copied().collect();
        for fd in fds {
            if self.deregister(fd).is_err() {
                std::mem::forget(std::mem::take(&mut self.regs));
                break;
            }
        }
        unsafe { close(self.ring_fd) };
        // Mappings unmap via their own Drop.
    }
}

impl Backend for UringBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::IoUring
    }

    fn register_conn(&mut self, fd: RawFd, token: Token, _interest: Interest) -> io::Result<()> {
        self.register(fd, token, None);
        Ok(())
    }

    fn register_poll(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.register(fd, token, Some(interest));
        self.arm_poll(fd, interest)
    }

    fn set_interest(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        // Readiness-only fds re-arm under the new mask; conn fds' interest
        // is op-implied.
        if self.regs.get(&fd).is_some_and(|r| r.poll.is_some()) {
            self.deregister(fd)?;
            self.register_poll(fd, token, interest)?;
        }
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<usize> {
        let Some(reg) = self.regs.get_mut(&fd) else {
            return Ok(0);
        };
        let live = [
            (OP_READ, reg.read_buf.is_some()),
            (OP_WRITE, reg.write_iov.is_some()),
            (OP_POLL, reg.poll.take().is_some()),
        ];
        for (op, in_flight) in live {
            if in_flight {
                // An op that already finished makes the cancel fail with
                // ENOENT; either way exactly one CQE per op follows.
                let sqe = Sqe {
                    opcode: IORING_OP_ASYNC_CANCEL,
                    fd: -1,
                    addr: user_data(fd, op),
                    user_data: user_data(fd, OP_CANCEL),
                    ..Sqe::default()
                };
                self.push_internal(fd, sqe)?;
            }
        }
        // One enter submits the fd's queued ops ahead of their cancels.
        let mut stash = std::mem::take(&mut self.stash);
        let mut reaped = Ok(());
        while reaped.is_ok() && self.regs[&fd].inflight > 0 {
            reaped = self.enter(1, None).and_then(|()| self.reap(&mut stash));
        }
        self.stash = stash;
        reaped?;
        let token = self.regs.remove(&fd).expect("registered above").token;
        // Absorb the fd's completions, including any an earlier deregister
        // stashed, so none surfaces after it is gone.
        let mut moved = 0;
        for cqe in self.stash.extract_if(.., |c| c.token == token) {
            match cqe.kind {
                CqeKind::ReadDone { buf, .. } => self.pool.push(buf),
                CqeKind::WriteDone { n, .. } => moved += n,
                CqeKind::Ready { .. } => {}
            }
        }
        Ok(moved)
    }

    fn submit_read(&mut self, fd: RawFd, _token: Token) -> Result<(), SubmitError> {
        // A second read would free the first one's buffer under the kernel.
        let reg = self.regs.get(&fd).expect("submit_read on a registered fd");
        assert!(reg.read_buf.is_none(), "one read in flight per fd");
        let mut buf = self.take_buf();
        let sqe = Sqe {
            opcode: IORING_OP_READ,
            fd,
            addr: buf.as_mut_ptr() as u64,
            len: buf.len() as u32,
            user_data: user_data(fd, OP_READ),
            ..Sqe::default()
        };
        if let Err(e) = self.push_sqe(sqe) {
            self.pool.push(buf);
            return Err(e);
        }
        let reg = self.regs.get_mut(&fd).expect("checked above");
        // Moving the Vec keeps its heap buffer where the SQE points.
        reg.read_buf = Some(buf);
        reg.inflight += 1;
        Ok(())
    }

    unsafe fn submit_write(
        &mut self,
        fd: RawFd,
        _token: Token,
        iov: &[IoSlice<'_>],
    ) -> Result<(), SubmitError> {
        // A second write would free the first one's iovecs under the kernel.
        let reg = self.regs.get(&fd).expect("submit_write on a registered fd");
        assert!(reg.write_iov.is_none(), "one write in flight per fd");
        let slot = match self.iov_pool.pop() {
            Some(mut slot) => {
                *slot = WriteIovs::new(iov);
                slot
            }
            None => Box::new(WriteIovs::new(iov)),
        };
        let sqe = Sqe {
            opcode: IORING_OP_WRITEV,
            fd,
            addr: slot.as_slice().as_ptr() as u64,
            len: slot.as_slice().len() as u32,
            user_data: user_data(fd, OP_WRITE),
            ..Sqe::default()
        };
        if let Err(e) = self.push_sqe(sqe) {
            self.iov_pool.push(slot);
            return Err(e);
        }
        let reg = self.regs.get_mut(&fd).expect("checked above");
        reg.write_iov = Some(slot);
        reg.inflight += 1;
        Ok(())
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    fn wait(&mut self, out: &mut Vec<Cqe>, timeout: Option<Duration>) -> io::Result<usize> {
        let before = out.len();
        out.append(&mut self.stash);
        // Don't block when completions are already waiting; still enter
        // once to submit anything queued.
        if out.len() > before || self.cq_ready() > 0 {
            self.enter(0, None)?;
        } else {
            self.enter(1, timeout)?;
        }
        self.reap(out)?;
        Ok(out.len() - before)
    }

    fn registered(&self) -> usize {
        self.regs.len()
    }
}

unsafe fn atomic_load(p: *const u32) -> u32 {
    (*(p as *const std::sync::atomic::AtomicU32)).load(std::sync::atomic::Ordering::Acquire)
}

unsafe fn atomic_store(p: *mut u32, v: u32) {
    (*(p as *const std::sync::atomic::AtomicU32)).store(v, std::sync::atomic::Ordering::Release)
}

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
        (a, b)
    }

    /// Wait until at least one completion arrives (5 s at most).
    fn wait_any(b: &mut UringBackend) -> Vec<Cqe> {
        let mut got = Vec::new();
        for _ in 0..100 {
            if !got.is_empty() {
                break;
            }
            b.wait(&mut got, Some(Duration::from_millis(50))).unwrap();
        }
        got
    }

    /// Every test is gated on the probe: refusing kernels skip, not fail.
    macro_rules! ring_or_skip {
        () => {
            match UringBackend::probe() {
                Some(b) => b,
                None => {
                    eprintln!("io_uring unavailable on this kernel: skipping");
                    return;
                }
            }
        };
    }

    #[test]
    fn probe_is_consistent() {
        // Two probes agree — availability is a property of the kernel,
        // not of probe-order luck.
        assert_eq!(UringBackend::probe().is_some(), UringBackend::probe().is_some());
    }

    #[test]
    fn read_write_round_trip() {
        let mut b = ring_or_skip!();
        let (server_side, mut client) = pair();
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(7), Interest::BOTH).unwrap();
        b.submit_read(fd, Token(7)).unwrap();
        client.write_all(b"ping").unwrap();
        let mut got = wait_any(&mut b);
        let Some(Cqe { token, kind: CqeKind::ReadDone { buf, n, err: None } }) = got.pop() else {
            panic!("expected a clean ReadDone: {got:?}");
        };
        assert_eq!(token, Token(7));
        assert_eq!(&buf[..n], b"ping");
        b.recycle(buf);

        // SAFETY: a static byte string outlives the backend.
        unsafe { b.submit_write(fd, Token(7), &[IoSlice::new(b"pong")]) }.unwrap();
        let mut got = wait_any(&mut b);
        assert!(
            matches!(got.pop(), Some(Cqe { kind: CqeKind::WriteDone { n: 4, err: None }, .. })),
            "expected WriteDone n=4"
        );
        let mut echo = [0u8; 4];
        std::io::Read::read_exact(&mut client, &mut echo).unwrap();
        assert_eq!(&echo, b"pong");
    }

    #[test]
    fn write_backpressure_completes_on_drain() {
        // A nonblocking socket with a jammed send buffer: the WRITE op must
        // eventually complete (possibly short, possibly after EAGAIN
        // completions the caller resubmits) once the peer drains — the
        // backend half of the write-stall "slides only on progress" story.
        let mut b = ring_or_skip!();
        let (server_side, mut client) = pair();
        server_side.set_nonblocking(true).unwrap();
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(3), Interest::BOTH).unwrap();

        const TOTAL: usize = 512 * 1024;
        let payload: Vec<u8> = (0..TOTAL).map(|i| (i % 251) as u8).collect();
        let mut submitted = 0usize; // cursor into payload
        let mut acked = 0usize; // bytes confirmed by WriteDone
        let mut eagains = 0usize;
        let mut inflight = false;

        // Reader thread: drain slowly so the send side jams repeatedly.
        let reader = std::thread::spawn(move || {
            use std::io::Read;
            let mut got = Vec::new();
            let mut chunk = [0u8; 8 * 1024];
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            while got.len() < TOTAL {
                match client.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        got.extend_from_slice(&chunk[..n]);
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => panic!("reader: {e}"),
                }
            }
            got
        });

        let t0 = std::time::Instant::now();
        let mut got = Vec::new();
        while acked < TOTAL {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "write stalled: acked {acked}/{TOTAL}, {eagains} EAGAINs"
            );
            if !inflight {
                let end = (submitted + 32 * 1024).min(TOTAL);
                let iov = [IoSlice::new(&payload[submitted..end])];
                // SAFETY: `payload` is neither mutated nor dropped while the
                // backend lives, and the loop reaps each op before the next.
                unsafe { b.submit_write(fd, Token(3), &iov) }.unwrap();
                inflight = true;
            }
            got.clear();
            b.wait(&mut got, Some(Duration::from_millis(100))).unwrap();
            for cqe in got.drain(..) {
                match cqe.kind {
                    CqeKind::WriteDone { err: Some(e), .. } if e == crate::backend::EAGAIN => {
                        eagains += 1;
                        inflight = false;
                    }
                    CqeKind::WriteDone { n, err: None } => {
                        submitted += n;
                        acked += n;
                        inflight = false;
                    }
                    CqeKind::WriteDone { err: Some(e), .. } => panic!("write errno {e}"),
                    other => panic!("unexpected completion {other:?}"),
                }
            }
        }
        let got = reader.join().unwrap();
        assert_eq!(got.len(), TOTAL);
        assert_eq!(got, payload, "byte stream corrupted under backpressure");
        eprintln!(
            "backpressure: {TOTAL} bytes in {:?}, {eagains} EAGAIN completions",
            t0.elapsed()
        );
    }

    #[test]
    fn poll_add_delivers_and_rearms() {
        let mut b = ring_or_skip!();
        let (server_side, mut client) = pair();
        let fd = server_side.as_raw_fd();
        b.register_poll(fd, Token(42), Interest::READABLE).unwrap();
        for round in 0..2 {
            client.write_all(b"x").unwrap();
            let got = wait_any(&mut b);
            assert!(
                matches!(
                    got.first(),
                    Some(Cqe { token: Token(42), kind: CqeKind::Ready { readable: true, .. } })
                ),
                "round {round}: {got:?}"
            );
            // Drain so the re-armed poll reports fresh data only.
            let mut sink = [0u8; 8];
            use std::io::Read;
            let _ = (&server_side).read(&mut sink).unwrap();
        }
    }

    #[test]
    fn wait_times_out_without_events() {
        let mut b = ring_or_skip!();
        let (server_side, _client) = pair();
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(1), Interest::READABLE).unwrap();
        b.submit_read(fd, Token(1)).unwrap();
        let mut got = Vec::new();
        let t0 = std::time::Instant::now();
        let n = b.wait(&mut got, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0, "silent socket: no completions, got {got:?}");
        assert!(t0.elapsed() >= Duration::from_millis(20), "enter returned too early");
    }

    #[test]
    fn deregister_cancels_and_reaps_in_flight_ops() {
        // A read in flight on a silent socket and a write still queued in
        // the SQ: deregister submits the write (it moves its bytes at
        // once), cancels the read, and reaps both before returning. No
        // completion for the fd surfaces afterwards, even when data then
        // arrives.
        let mut b = ring_or_skip!();
        let (server_side, mut client) = pair();
        let fd = server_side.as_raw_fd();
        b.register_conn(fd, Token(5), Interest::BOTH).unwrap();
        b.submit_read(fd, Token(5)).unwrap();
        let mut got = Vec::new();
        b.wait(&mut got, Some(Duration::ZERO)).unwrap();
        assert!(got.is_empty(), "nothing to read yet: {got:?}");
        // SAFETY: a static byte string outlives the backend.
        unsafe { b.submit_write(fd, Token(5), &[IoSlice::new(b"bye")]) }.unwrap();
        assert_eq!(b.deregister(fd).unwrap(), 3, "the queued write moved its bytes");
        assert_eq!(b.registered(), 0);
        client.write_all(b"late").unwrap();
        b.wait(&mut got, Some(Duration::from_millis(30))).unwrap();
        assert!(got.is_empty(), "completion after deregister: {got:?}");
        let mut echo = [0u8; 3];
        std::io::Read::read_exact(&mut client, &mut echo).unwrap();
        assert_eq!(&echo, b"bye");
    }
}
