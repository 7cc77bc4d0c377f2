//! A canned in-memory responder: the ceiling of the driver itself.
//!
//! It answers each request with the exact bytes a server would send for
//! that file, pre-rendered at start, from a blocking thread per connection
//! slot. Run against it, the driver measures its own headroom: if a server
//! result approaches the ceiling, the driver, not the server, is the limit.

use httpcore::{ContentStore, Status, Version};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub struct Canned {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Canned {
    /// Bind `127.0.0.1:0` and start `slots` responder threads.
    pub fn start(content: &ContentStore, slots: usize) -> io::Result<Canned> {
        let replies: Arc<Vec<Vec<u8>>> = Arc::new(
            (0..content.len() as u32)
                .map(|i| {
                    let id = workload::FileId(i);
                    let body = content.body(id);
                    let mut r = Vec::with_capacity(body.len() + 200);
                    httpcore::write_head_full(
                        &mut r,
                        Version::Http11,
                        Status::Ok,
                        body.len(),
                        true,
                        "Thu, 01 Jan 2004 00:00:00 GMT",
                        Some(content.last_modified(id)),
                    );
                    r.extend_from_slice(body);
                    r
                })
                .collect(),
        );
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        for i in 0..slots {
            let listener = listener.try_clone()?;
            let replies = Arc::clone(&replies);
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("canned-{i}"))
                    .spawn(move || {
                        while let Ok((conn, _)) = listener.accept() {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let _ = serve(conn, &replies);
                        }
                    })?,
            );
        }
        Ok(Canned {
            addr,
            stop,
            threads,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop and join every responder thread. Clients must have closed
    /// their connections first.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        for _ in &self.threads {
            // Each blocked accept takes one wake-up connection.
            if let Ok(s) = TcpStream::connect(self.addr) {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Answer every complete request on `conn` until the peer closes.
fn serve(mut conn: TcpStream, replies: &[Vec<u8>]) -> io::Result<()> {
    conn.set_nodelay(true)?;
    let mut buf = vec![0u8; 16 * 1024];
    let mut have = 0;
    loop {
        let n = conn.read(&mut buf[have..])?;
        if n == 0 {
            return Ok(());
        }
        have += n;
        let mut pos = 0;
        while let Some(end) = find_head_end(&buf[pos..have]) {
            let reply = target_file(&buf[pos..pos + end])
                .and_then(|i| replies.get(i))
                .map(Vec::as_slice)
                .unwrap_or(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
            conn.write_all(reply)?;
            pos += end;
        }
        buf.copy_within(pos..have, 0);
        have -= pos;
        if have == buf.len() {
            return Ok(()); // a head larger than the buffer: not our driver
        }
    }
}

/// Length of the first complete request head in `data`, if any.
fn find_head_end(data: &[u8]) -> Option<usize> {
    data.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

/// File index of `GET /f/<i> ...`.
fn target_file(head: &[u8]) -> Option<usize> {
    let rest = head.strip_prefix(b"GET /f/")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_driver_request_line() {
        let req = crate::workloads::request_bytes(42);
        let end = find_head_end(&req).unwrap();
        assert_eq!(end, req.len());
        assert_eq!(target_file(&req[..end]), Some(42));
        assert_eq!(target_file(b"POST /f/1 HTTP/1.1\r\n\r\n"), None);
    }
}
