//! The closed-loop client driver, the benchmark's stand-in for `loadgen`.
//!
//! Like an httperf session client, a driver opens one connection per
//! session, sends each burst pipelined, waits for every reply of the burst,
//! then sends the next; think time is zero. Unlike `loadgen`, it verifies
//! every reply: status 200 and a `Content-Length` equal to the file's size
//! always, the body bytes against `ContentStore::body` on every reply when
//! traced and on a seeded sample otherwise. A reply that fails a check, and
//! a request whose reply never arrives, is a failed operation.

use crate::procstat::{thread_usage, Usage};
use crate::trace::{ns, Span, NO_REQ};
use desim::Rng;
use httpcore::{parse_response_head, ContentStore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use workload::{FileId, FileSet, SessionConfig, SessionPlan};

/// Largest reply the driver can frame: above the 500 KB site cap.
const BUF_BYTES: usize = 1 << 20;
/// Compact the read buffer when less than this much room is left.
const MIN_READ: usize = 64 * 1024;
/// Share of replies whose body bytes are compared in untraced windows.
const BODY_SAMPLE: f64 = 1.0 / 16.0;
/// Most failure descriptions kept per driver.
const MAX_ERRORS: usize = 8;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Read-only inputs shared by every driver thread.
pub struct Site<'a> {
    pub files: &'a FileSet,
    pub content: &'a ContentStore,
    pub session: &'a SessionConfig,
    /// Pre-rendered request per file id.
    pub requests: Vec<Vec<u8>>,
}

impl<'a> Site<'a> {
    pub fn new(files: &'a FileSet, content: &'a ContentStore, session: &'a SessionConfig) -> Self {
        let requests = files
            .iter()
            .map(|(id, _)| crate::workloads::request_bytes(id.0))
            .collect();
        Site {
            files,
            content,
            session,
            requests,
        }
    }
}

/// When a driver stops: at a burst boundary after a deadline, or once it
/// has sent a number of requests (warm-up).
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Requests(u64),
}

/// One driver thread's job.
pub struct Job {
    pub id: u64,
    pub target: SocketAddr,
    pub stream: Rng,
    /// Picks the replies whose bodies are compared; `None` compares all.
    pub body_sample: Option<Rng>,
    pub until: Until,
    pub traced: bool,
    pub epoch: Instant,
}

/// What one driver saw.
#[derive(Debug, Default)]
pub struct DriverOut {
    /// Requests sent (operations attempted).
    pub sent: u64,
    /// Replies received and verified.
    pub ok: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub bodies_checked: u64,
    /// Burst send → reply complete, per reply.
    pub resp_ns: Vec<u64>,
    pub connect_ns: Vec<u64>,
    /// Traced only: burst send → first reply head visible, per burst.
    pub first_head_ns: Vec<u64>,
    /// Traced only: head visible → last body byte, per reply.
    pub body_ns: Vec<u64>,
    pub spans: Vec<Span>,
    /// The driver thread's own CPU and context switches.
    pub usage: Usage,
}

impl DriverOut {
    pub fn merge(&mut self, o: DriverOut) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
        for e in o.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
        self.bodies_checked += o.bodies_checked;
        self.resp_ns.extend(o.resp_ns);
        self.connect_ns.extend(o.connect_ns);
        self.first_head_ns.extend(o.first_head_ns);
        self.body_ns.extend(o.body_ns);
        self.spans.extend(o.spans);
        self.usage.add(&o.usage);
    }

    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(why);
        }
    }
}

struct Driver<'s, 'a> {
    site: &'s Site<'a>,
    job: Job,
    out: DriverOut,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    wire: Vec<u8>,
}

/// Run one driver thread's job to completion.
pub fn drive(site: &Site, job: Job) -> DriverOut {
    let usage0 = thread_usage();
    let mut d = Driver {
        site,
        job,
        out: DriverOut::default(),
        buf: vec![0; BUF_BYTES],
        start: 0,
        end: 0,
        wire: Vec::with_capacity(1024),
    };
    let mut session_seq = 0u64;
    while !d.done() {
        let plan = SessionPlan::generate(site.session, site.files, &mut d.job.stream);
        session_seq += 1;
        d.session((d.job.id << 40) | session_seq, &plan);
    }
    let mut out = d.out;
    out.usage = thread_usage().since(&usage0);
    out
}

impl Driver<'_, '_> {
    fn done(&self) -> bool {
        match self.job.until {
            Until::Deadline(t) => Instant::now() >= t,
            Until::Requests(n) => self.out.sent >= n,
        }
    }

    fn span(&mut self, trace: u64, req: u32, layer: &'static str, a: Instant, b: Instant) {
        if self.job.traced {
            let e = self.job.epoch;
            self.out.spans.push(Span {
                trace,
                req,
                layer,
                start_ns: ns(e, a),
                end_ns: ns(e, b),
            });
        }
    }

    fn session(&mut self, trace: u64, plan: &SessionPlan) {
        let s0 = Instant::now();
        let stream = TcpStream::connect_timeout(&self.job.target, IO_TIMEOUT);
        let c1 = Instant::now();
        let mut stream = match stream {
            Ok(s) => s,
            Err(e) => {
                // The first burst was due: count it as sent and failed.
                let n = plan.bursts[0].files.len() as u64;
                self.out.sent += n;
                self.out.fail(n, format!("connect: {e}"));
                return;
            }
        };
        self.out.connect_ns.push((c1 - s0).as_nanos() as u64);
        self.span(trace, NO_REQ, "connect", s0, c1);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        self.start = 0;
        self.end = 0;
        let mut req = 0u32;
        for burst in &plan.bursts {
            if self.done() {
                break;
            }
            let b0 = Instant::now();
            let res = self.burst(&mut stream, trace, req, &burst.files);
            self.span(trace, NO_REQ, "burst", b0, Instant::now());
            req += burst.files.len() as u32;
            if res.is_err() {
                break;
            }
        }
        drop(stream);
        self.span(trace, NO_REQ, "session", s0, Instant::now());
    }

    /// Send one pipelined burst and read, frame and verify all its replies.
    fn burst(
        &mut self,
        stream: &mut TcpStream,
        trace: u64,
        first_req: u32,
        files: &[FileId],
    ) -> Result<(), ()> {
        self.wire.clear();
        for f in files {
            self.wire
                .extend_from_slice(&self.site.requests[f.0 as usize]);
        }
        let n = files.len();
        let sent_at = Instant::now();
        self.out.sent += n as u64;
        if let Err(e) = stream.write_all(&self.wire) {
            self.out.fail(n as u64, format!("send: {e}"));
            return Err(());
        }
        let mut idx = 0;
        let mut now = sent_at;
        let mut prev_done = sent_at;
        let mut head_seen: Option<Instant> = None;
        loop {
            while idx < n {
                let avail = &self.buf[self.start..self.end];
                let head = match parse_response_head(avail) {
                    None => break,
                    Some(Ok(h)) => h,
                    Some(Err(e)) => {
                        self.out
                            .fail((n - idx) as u64, format!("bad reply head: {e}"));
                        return Err(());
                    }
                };
                let seen = *head_seen.get_or_insert(now);
                let total = head.head_len + head.content_length;
                if total > BUF_BYTES {
                    self.out
                        .fail((n - idx) as u64, format!("reply of {total} B too large"));
                    return Err(());
                }
                if avail.len() < total {
                    break;
                }
                let file = files[idx];
                let body = &self.buf[self.start + head.head_len..self.start + total];
                let verdict = verify(
                    self.site,
                    &mut self.job.body_sample,
                    &mut self.out.bodies_checked,
                    file,
                    head.status,
                    body,
                );
                match verdict {
                    Ok(()) => self.out.ok += 1,
                    Err(why) => self.out.fail(1, why),
                }
                self.out.resp_ns.push((now - sent_at).as_nanos() as u64);
                if self.job.traced {
                    let req = first_req + idx as u32;
                    if idx == 0 {
                        self.out
                            .first_head_ns
                            .push((seen - sent_at).as_nanos() as u64);
                    }
                    self.out.body_ns.push((now - seen).as_nanos() as u64);
                    self.span(trace, req, "head", prev_done, seen);
                    self.span(trace, req, "body", seen, now);
                }
                prev_done = now;
                head_seen = None;
                self.start += total;
                idx += 1;
            }
            if idx == n {
                return Ok(());
            }
            if self.start == self.end {
                self.start = 0;
                self.end = 0;
            } else if BUF_BYTES - self.end < MIN_READ {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            match stream.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    self.out
                        .fail((n - idx) as u64, "closed mid-burst".to_string());
                    return Err(());
                }
                Ok(k) => {
                    self.end += k;
                    now = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.out.fail((n - idx) as u64, format!("read: {e}"));
                    return Err(());
                }
            }
        }
    }
}

/// Check one reply against the site. `sample` picks the replies whose body
/// bytes are compared; `None` compares every body.
fn verify(
    site: &Site,
    sample: &mut Option<Rng>,
    bodies_checked: &mut u64,
    file: FileId,
    status: u16,
    body: &[u8],
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("/f/{}: status {status}", file.0));
    }
    let want = site.files.size_of(file);
    if body.len() as u64 != want {
        return Err(format!("/f/{}: {} B, want {want}", file.0, body.len()));
    }
    let check = match sample {
        None => true,
        Some(rng) => rng.chance(BODY_SAMPLE),
    };
    if check {
        *bodies_checked += 1;
        if body != site.content.body(file) {
            return Err(format!("/f/{}: body bytes differ", file.0));
        }
    }
    Ok(())
}

/// Run `jobs` on driver threads (named `drv-<i>`) and merge what they saw.
/// Returns the merged result and the wall time until the last one ended.
pub fn run_drivers(site: &Site, jobs: Vec<Job>) -> (DriverOut, Duration) {
    let t0 = Instant::now();
    let outs: Vec<DriverOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                std::thread::Builder::new()
                    .name(format!("drv-{}", job.id))
                    .spawn_scoped(scope, move || drive(site, job))
                    .expect("spawn driver thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut total = DriverOut::default();
    for o in outs {
        total.merge(o);
    }
    (total, wall)
}
