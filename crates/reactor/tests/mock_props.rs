//! Property tests for the deterministic mock-completion backend — the
//! tier-1 stand-in for io_uring semantics. Each property drives the
//! backend the way `nioserver`'s pump does (at most one read and one
//! write in flight per connection, resubmit after a no-progress EAGAIN
//! completion, advance by exactly the completed byte count) and asserts
//! the backend contract of DESIGN.md §16 under seeded completion-order
//! permutations, short-chunk injection, and bounded queues:
//!
//! * buffer ownership round-trips — every data-carrying `ReadDone` hands
//!   back an owned buffer whose first `n` bytes are the payload, and
//!   recycling it for the next submission never corrupts delivery;
//! * completion-order permutations preserve per-connection reply order —
//!   whatever order the script executes ops across connections, each
//!   connection's byte stream arrives exactly as submitted;
//! * SQ-full backpressure never drops a submission — a refused submit
//!   leaves no residue, and every accepted op completes exactly once.

use proptest::prelude::*;
use reactor::{Backend, Cqe, CqeKind, Interest, MockCompletionBackend, MockConfig, Token};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (b, _) = listener.accept().unwrap();
    a.set_nonblocking(true).unwrap();
    (a, b)
}

/// Deterministic per-index payload, distinct across (conn, message, byte).
fn payload(conn: usize, msg: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (conn.wrapping_mul(31) ^ msg.wrapping_mul(7) ^ i) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reads round-trip through backend-owned buffers: the client writes a
    /// seeded byte stream; the server keeps one read in flight, recycles
    /// every returned buffer, resubmits after EAGAIN injections, and must
    /// reassemble the exact stream from `buf[..n]` slices.
    #[test]
    fn read_buffers_round_trip_exactly(
        seed in any::<u64>(),
        chunks in proptest::collection::vec(1usize..2000, 1..8),
    ) {
        let (server_side, mut client) = pair();
        let mut b = MockCompletionBackend::new(MockConfig {
            seed,
            // Hostile chunking: completions are forced short.
            max_read_chunk: 512,
            ..MockConfig::default()
        });
        let fd = server_side.as_raw_fd();
        let token = Token(3);
        b.register_conn(fd, token, Interest::READABLE).unwrap();

        let mut sent = Vec::new();
        for (i, len) in chunks.iter().enumerate() {
            sent.extend_from_slice(&payload(0, i, *len));
        }
        client.write_all(&sent).unwrap();
        drop(client); // EOF terminates the reassembly loop

        b.submit_read(fd, token).unwrap();
        let mut got = Vec::new();
        let mut inflight = true;
        let mut cqes: Vec<Cqe> = Vec::new();
        for _ in 0..10_000 {
            if !inflight {
                b.submit_read(fd, token).unwrap();
                inflight = true;
            }
            cqes.clear();
            b.wait(&mut cqes, Some(Duration::from_millis(100))).unwrap();
            let mut eof = false;
            for cqe in cqes.drain(..) {
                prop_assert_eq!(cqe.token, token);
                match cqe.kind {
                    CqeKind::ReadDone { buf, n, err } => {
                        inflight = false;
                        match err {
                            Some(e) => prop_assert_eq!(e, reactor::backend::EAGAIN),
                            None if n == 0 => eof = true,
                            None => got.extend_from_slice(&buf[..n]),
                        }
                        b.recycle(buf);
                    }
                    other => prop_assert!(false, "unexpected cqe {:?}", other),
                }
            }
            if eof {
                break;
            }
        }
        prop_assert_eq!(&got, &sent, "reassembled stream differs from submitted stream");
    }

    /// Per-connection write order survives any completion-order
    /// permutation: several connections each submit a message sequence
    /// (one write op in flight at a time, advancing by the completed byte
    /// count); the scripted shuffle interleaves executions across
    /// connections, yet each client must observe its own messages intact
    /// and in submission order.
    #[test]
    fn completion_permutations_preserve_reply_order(
        seed in any::<u64>(),
        plan in proptest::collection::vec(
            proptest::collection::vec(1usize..3000, 1..5),
            2..5,
        ),
    ) {
        let mut b = MockCompletionBackend::new(MockConfig {
            seed,
            max_write_chunk: 700, // force mid-message short completions
            ..MockConfig::default()
        });
        struct Side {
            server: TcpStream,
            client: TcpStream,
            queue: Vec<u8>,   // bytes owed to the peer, in order
            cursor: usize,    // how many of them the backend has confirmed
            inflight: bool,
            got: Vec<u8>,     // what the client has observed so far
        }
        let mut sides: Vec<Side> = Vec::new();
        for (ci, msgs) in plan.iter().enumerate() {
            let (server, client) = pair();
            client.set_nonblocking(true).unwrap();
            let mut queue = Vec::new();
            for (mi, len) in msgs.iter().enumerate() {
                queue.extend_from_slice(&payload(ci, mi, *len));
            }
            let fd = server.as_raw_fd();
            b.register_conn(fd, Token(ci), Interest::WRITABLE).unwrap();
            sides.push(Side {
                server,
                client,
                queue,
                cursor: 0,
                inflight: false,
                got: Vec::new(),
            });
        }

        let mut cqes: Vec<Cqe> = Vec::new();
        for _ in 0..20_000 {
            let mut all_done = true;
            for (ci, s) in sides.iter_mut().enumerate() {
                if s.cursor < s.queue.len() {
                    all_done = false;
                    if !s.inflight {
                        let end = (s.cursor + 700).min(s.queue.len());
                        let iov = [IoSlice::new(&s.queue[s.cursor..end])];
                        // SAFETY: `s.queue` is never mutated and outlives
                        // every `wait` on `b`, the only place the mock
                        // reads submitted bytes.
                        unsafe { b.submit_write(s.server.as_raw_fd(), Token(ci), &iov) }
                            .unwrap();
                        s.inflight = true;
                    }
                }
            }
            if all_done {
                break;
            }
            cqes.clear();
            b.wait(&mut cqes, Some(Duration::from_millis(100))).unwrap();
            for cqe in cqes.drain(..) {
                // The mock stamps each CQE with the token the conn
                // registered under, which is its index in `sides`.
                let s = &mut sides[cqe.token.0];
                match cqe.kind {
                    CqeKind::WriteDone { n, err } => {
                        s.inflight = false;
                        match err {
                            Some(e) => prop_assert_eq!(e, reactor::backend::EAGAIN),
                            None => s.cursor += n,
                        }
                    }
                    other => prop_assert!(false, "unexpected cqe {:?}", other),
                }
            }
            // Clients drain as the script progresses so kernel buffers
            // never wedge the writers.
            for s in sides.iter_mut() {
                let mut chunk = [0u8; 4096];
                while let Ok(n) = s.client.read(&mut chunk) {
                    if n == 0 {
                        break;
                    }
                    s.got.extend_from_slice(&chunk[..n]);
                }
            }
        }
        for s in &sides {
            prop_assert_eq!(s.cursor, s.queue.len(), "writer never finished");
        }
        // Pull the undrained tails still sitting in kernel buffers.
        for (ci, s) in sides.iter_mut().enumerate() {
            let mut chunk = [0u8; 4096];
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while s.got.len() < s.queue.len() {
                match s.client.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => s.got.extend_from_slice(&chunk[..n]),
                    Err(_) => {
                        prop_assert!(
                            std::time::Instant::now() < deadline,
                            "conn {} stalled at {}/{}", ci, s.got.len(), s.queue.len()
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            prop_assert_eq!(&s.got, &s.queue, "conn {} bytes out of order or corrupt", ci);
        }
    }

    /// A bounded SQ refuses loudly and loses nothing: with a tiny queue
    /// and more connections than slots, some submissions bounce with
    /// `SqFull`. Retrying after the next `wait` must eventually accept
    /// every one, and each accepted read completes exactly once with its
    /// connection's distinct payload.
    #[test]
    fn sq_full_backpressure_never_drops_a_submission(
        seed in any::<u64>(),
        sq_capacity in 1usize..4,
        extra in 1usize..5,
    ) {
        let n_conns = sq_capacity + extra;
        let mut b = MockCompletionBackend::new(MockConfig {
            seed,
            sq_capacity,
            ..MockConfig::default()
        });
        const MSG: usize = 64;
        let mut pairs = Vec::new();
        for i in 0..n_conns {
            let (server, mut client) = pair();
            b.register_conn(server.as_raw_fd(), Token(i), Interest::READABLE).unwrap();
            client.write_all(&payload(i, 0, MSG)).unwrap();
            pairs.push((server, client));
        }

        let mut pending: Vec<bool> = vec![false; n_conns]; // op in flight
        let mut got: Vec<Vec<u8>> = vec![Vec::new(); n_conns];
        let mut saw_sq_full = false;
        let mut cqes: Vec<Cqe> = Vec::new();
        for _ in 0..10_000 {
            for i in 0..n_conns {
                // Short-read injection means one message may take several
                // completions: keep an op in flight until all bytes land.
                if got[i].len() >= MSG || pending[i] {
                    continue;
                }
                match b.submit_read(pairs[i].0.as_raw_fd(), Token(i)) {
                    Ok(()) => pending[i] = true,
                    Err(reactor::SubmitError::SqFull) => saw_sq_full = true,
                }
            }
            if got.iter().all(|g| g.len() >= MSG) {
                break;
            }
            cqes.clear();
            b.wait(&mut cqes, Some(Duration::from_millis(100))).unwrap();
            for cqe in cqes.drain(..) {
                let i = cqe.token.0;
                match cqe.kind {
                    CqeKind::ReadDone { buf, n, err } => {
                        prop_assert!(pending[i], "completion for an op never accepted");
                        pending[i] = false;
                        match err {
                            Some(e) => prop_assert_eq!(e, reactor::backend::EAGAIN),
                            None => {
                                prop_assert!(n > 0, "unexpected EOF on conn {}", i);
                                got[i].extend_from_slice(&buf[..n]);
                            }
                        }
                        b.recycle(buf);
                    }
                    other => prop_assert!(false, "unexpected cqe {:?}", other),
                }
            }
        }
        // With more conns than SQ slots the first submission round must
        // have bounced at least once — otherwise the bound isn't real.
        prop_assert!(saw_sq_full, "SQ of {} never refused {} conns", sq_capacity, n_conns);
        for (i, g) in got.iter().enumerate() {
            prop_assert_eq!(g, &payload(i, 0, MSG), "conn {} payload lost or corrupt", i);
        }
    }
}
