//! Steady-state allocation discipline: a keep-alive connection serving the
//! same file over and over must not allocate at all, in any thread.
//!
//! Everything on the per-request path is recycled — the parser's request
//! scratch through the worker's `RequestPool`, the response head through the
//! worker's `HeadPool`, the read buffer, the reply queue's segment ring, the
//! selector's event buffer, and on completion backends the backend's read
//! buffers and submission slots (a write op carries the reply queue's
//! iovecs, never a copy). This test pins that property with a counting
//! global allocator, on every backend: after a warmup that faults in every
//! buffer, a burst of identical pipeline-free requests must leave the
//! allocation counter untouched.
//!
//! The one deliberate allocation on the worker loop is the ~1 Hz HTTP-date
//! refresh (one `String` per second per worker). A measurement window is far
//! shorter than a second, but the refresh clock starts at worker spawn, so a
//! single window can straddle a tick; the test therefore takes several short
//! windows and requires that at least one is allocation-free, which the date
//! refresh cannot defeat (two ticks are a full second apart).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use desim::Rng;
use httpcore::ContentStore;
use nioserver::{BackendKind, NioConfig, NioServer};
use workload::{FileSet, SurgeConfig};

struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn content() -> Arc<ContentStore> {
    let mut rng = Rng::new(7);
    let fs = FileSet::build(
        &SurgeConfig {
            num_files: 4,
            tail_prob: 0.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    Arc::new(ContentStore::from_fileset(&fs))
}

/// Send `n` identical keep-alive requests serially and read each full
/// response, using only the preallocated buffers. Returns total bytes read.
fn run_burst(stream: &mut TcpStream, req: &[u8], resp_len: usize, buf: &mut [u8], n: usize) -> usize {
    let mut total = 0usize;
    for _ in 0..n {
        stream.write_all(req).expect("write request");
        let mut got = 0usize;
        while got < resp_len {
            let k = stream.read(&mut buf[got..resp_len]).expect("read response");
            assert!(k > 0, "server closed mid-response");
            got += k;
        }
        total += got;
    }
    total
}

/// Every backend: readiness (epoll), the mock completion model always,
/// and io_uring when the kernel grants it.
fn backends() -> Vec<BackendKind> {
    let mut kinds = vec![BackendKind::Epoll, BackendKind::MockCompletion];
    if nioserver::io_uring_available() {
        kinds.push(BackendKind::IoUring);
    } else {
        eprintln!("io_uring unavailable on this kernel: skipping its leg");
    }
    kinds
}

#[test]
fn steady_state_request_loop_allocates_nothing() {
    for backend in backends() {
        assert_steady_state_allocates_nothing(backend);
    }
}

fn assert_steady_state_allocates_nothing(backend: BackendKind) {
    let server = NioServer::start(NioConfig {
        workers: 1,
        backend,
        accept: faults::AcceptMode::Handoff,
        shed_watermark: None,
        lifecycle: Default::default(),
        content: content(),
    })
    .expect("server start");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let req = b"GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut buf = vec![0u8; 256 * 1024];

    // Measure the response length once (identical requests → identical
    // responses; the Date header is fixed-width by construction). A
    // completion backend may deliver it in several short writes.
    stream.write_all(req).expect("write probe");
    let mut got = 0;
    let resp_len = loop {
        let k = stream.read(&mut buf[got..]).expect("read probe");
        assert!(k > 0, "{backend:?}: server closed mid-probe");
        got += k;
        if let Some(head) = httpcore::parse_response_head(&buf[..got]) {
            let head = head.expect("valid response head");
            assert_eq!(head.status, 200, "{backend:?}: probe status");
            break head.head_len + head.content_length;
        }
    };
    while got < resp_len {
        got += stream.read(&mut buf[got..resp_len]).expect("read probe body");
    }

    // Warmup: fault in every recycled buffer on both sides of the socket
    // (parser scratch, head pool, read accumulation, reply ring, event
    // buffer, backend pools) so the measured windows exercise only
    // steady-state reuse.
    run_burst(&mut stream, req, resp_len, &mut buf, 64);

    // Several short windows; the ~1 Hz date refresh can straddle at most
    // one of them. Everything else on the path must never allocate.
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = ALLOC_EVENTS.load(Ordering::SeqCst);
        run_burst(&mut stream, req, resp_len, &mut buf, 256);
        let after = ALLOC_EVENTS.load(Ordering::SeqCst);
        best = best.min(after - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "{backend:?}: steady-state keep-alive loop allocated in every window"
    );

    drop(stream);
    server.shutdown();
}
