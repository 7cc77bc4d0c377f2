//! The completion backends' teardown contract (DESIGN.md §16): `deregister`
//! is synchronous — once it returns, no op of the fd is left in the backend
//! or the kernel — and dropping a backend cancels and reaps every op before
//! it lets go of their memory. Each test runs on the mock-completion
//! backend always and on io_uring when the kernel grants it.

use reactor::backend::EAGAIN;
use reactor::{BackendKind, Cqe, CqeKind, Interest, Token};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, IntoRawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

extern "C" {
    fn dup2(oldfd: i32, newfd: i32) -> i32;
}

fn completion_backends() -> Vec<BackendKind> {
    let mut kinds = vec![BackendKind::MockCompletion];
    if reactor::io_uring_available() {
        kinds.push(BackendKind::IoUring);
    } else {
        eprintln!("io_uring unavailable on this kernel: mock-completion only");
    }
    kinds
}

/// A connected (server side, client side) pair; the server side is
/// nonblocking, as the live server's sockets are.
fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_nonblocking(true).unwrap();
    (server, client)
}

/// A read submitted before `deregister` must never run on whatever socket
/// takes the fd number next: B's bytes arrive under B's token only.
#[test]
fn reused_fd_number_never_reaches_the_dead_registration() {
    for kind in completion_backends() {
        let mut b = reactor::create(kind);
        assert_eq!(b.kind(), kind);
        let (a_server, _a_client) = pair();
        let fd = a_server.as_raw_fd();
        b.register_conn(fd, Token(1), Interest::READABLE).unwrap();
        b.submit_read(fd, Token(1)).unwrap();
        b.deregister(fd).unwrap();

        // Close A and hand its fd number to B in one atomic dup2, so no
        // other thread of the test process can take the number between.
        let (b_server, mut b_client) = pair();
        let fd = a_server.into_raw_fd();
        // SAFETY: both fds are open and `fd` is owned by nobody now; dup2
        // closes A's socket and makes `fd` a second descriptor for B's.
        assert_eq!(unsafe { dup2(b_server.as_raw_fd(), fd) }, fd);
        // SAFETY: `fd` is open and nothing else owns it.
        let b_stream = unsafe { TcpStream::from_raw_fd(fd) };
        drop(b_server);
        b_client.write_all(b"hello").unwrap();
        b.register_conn(fd, Token(2), Interest::READABLE).unwrap();
        b.submit_read(fd, Token(2)).unwrap();

        let mut got = Vec::new();
        let mut cqes: Vec<Cqe> = Vec::new();
        let t0 = Instant::now();
        while got.len() < 5 {
            assert!(t0.elapsed() < Duration::from_secs(5), "{kind:?}: B's read never completed");
            cqes.clear();
            b.wait(&mut cqes, Some(Duration::from_millis(50))).unwrap();
            for cqe in cqes.drain(..) {
                assert_eq!(cqe.token, Token(2), "{kind:?}: completion for the dead token");
                let CqeKind::ReadDone { buf, n, err } = cqe.kind else {
                    panic!("{kind:?}: unexpected completion {:?}", cqe.kind);
                };
                match err {
                    None => got.extend_from_slice(&buf[..n]),
                    Some(EAGAIN) => {}
                    Some(e) => panic!("{kind:?}: read errno {e}"),
                }
                b.recycle(buf);
                if got.len() < 5 {
                    b.submit_read(fd, Token(2)).unwrap();
                }
            }
        }
        assert_eq!(got, b"hello", "{kind:?}");
        b.deregister(fd).unwrap();
        drop(b_stream);
    }
}

/// Dropping a backend with a read and a write in flight, while the peer
/// keeps writing, must cancel and reap both before the memory goes: the
/// peer then sees a prefix of the payload and never the poison written
/// over it after the drop.
#[test]
fn drop_mid_read_and_mid_write_touches_no_freed_memory() {
    for kind in completion_backends() {
        let (server, mut client) = pair();
        let fd = server.as_raw_fd();
        // Larger than loopback's autotuned send plus receive buffers.
        let mut payload: Vec<u8> = (0..16 << 20).map(|i| (i % 251) as u8).collect();
        // Jam the send buffer so the write op parks in flight.
        let mut filled = 0;
        while let Ok(n) = (&server).write(&payload[filled..]) {
            filled += n;
            if filled == payload.len() {
                break;
            }
        }
        assert!(filled < payload.len(), "send buffer never filled");

        let mut b = reactor::create(kind);
        b.register_conn(fd, Token(9), Interest::BOTH).unwrap();
        b.submit_read(fd, Token(9)).unwrap();
        let iov = [IoSlice::new(&payload[filled..])];
        // SAFETY: `payload` is neither moved nor written until `b` has been
        // dropped, which reaps this op.
        unsafe { b.submit_write(fd, Token(9), &iov) }.unwrap();
        let mut cqes = Vec::new();
        b.wait(&mut cqes, Some(Duration::ZERO)).unwrap();
        for cqe in cqes {
            if let CqeKind::ReadDone { buf, .. } = cqe.kind {
                b.recycle(buf);
            }
        }

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stop = Arc::clone(&stop);
            let mut peer = client.try_clone().unwrap();
            peer.set_nonblocking(true).unwrap();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = peer.write(&[0x5a; 4096]);
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(b);
        payload.fill(0xee);
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();

        client.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let mut got = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        while let Ok(n) = client.read(&mut chunk) {
            if n == 0 {
                break;
            }
            got.extend_from_slice(&chunk[..n]);
        }
        assert!(got.len() >= filled, "{kind:?}: lost bytes the socket already held");
        let expect: Vec<u8> = (0..got.len()).map(|i| (i % 251) as u8).collect();
        assert!(got == expect, "{kind:?}: the peer received bytes written after the drop");
        drop(server);
    }
}
