//! Single-layer timings on the workload's own inputs: `httpcore`'s request
//! parser and reply queue, and the simulator engine's event queue.

use desim::{BinaryHeapQueue, EventQueue, Rng, Scheduled, SimTime};
use httpcore::{ContentStore, HeadPool, ParseOutcome, ReplyQueue, RequestParser, RequestPool};
use std::hint::black_box;
use std::time::{Duration, Instant};
use workload::FileId;

const REPS: usize = 5;
const REP_TIME: Duration = Duration::from_millis(60);

/// Median over `REPS` repetitions of (elapsed ns / units), each repetition
/// looping `pass` until `REP_TIME` has passed. `pass` returns its units.
fn median_ns_per_unit(mut pass: impl FnMut() -> u64) -> f64 {
    let mut per: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut units = 0;
            while t0.elapsed() < REP_TIME {
                units += pass();
            }
            t0.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    crate::stats::median(&mut per)
}

/// `feed` + `parse_pooled` over the workload's request bursts: ns/request.
pub fn parse_ns_per_req(bursts: &[Vec<u8>]) -> f64 {
    let mut parser = RequestParser::new();
    let mut pool = RequestPool::new();
    median_ns_per_unit(|| {
        let mut n = 0;
        for b in bursts {
            parser.feed(black_box(b));
            while let ParseOutcome::Complete(req) = parser.parse_pooled(&mut pool) {
                black_box(&req);
                pool.give(req);
                n += 1;
            }
        }
        n
    })
}

/// `push_head` / `push_body` / `write_to(io::sink())` over the workload's
/// reply mix: ns per KB of reply.
pub fn reply_ns_per_kb(content: &ContentStore, files: &[FileId]) -> f64 {
    let mut pool = HeadPool::new();
    let mut q = ReplyQueue::new();
    let mut sink = std::io::sink();
    let bytes_per_pass: u64 = files.iter().map(|&f| content.size_of(f)).sum();
    let ns_per_pass = median_ns_per_unit(|| {
        for &f in files {
            let mut head = pool.take();
            httpcore::write_head_full(
                &mut head,
                httpcore::Version::Http11,
                httpcore::Status::Ok,
                content.size_of(f) as usize,
                true,
                "Thu, 01 Jan 2004 00:00:00 GMT",
                Some(content.last_modified(f)),
            );
            q.push_head(head, &mut pool);
            q.push_body(content.body_slice(f));
            while !q.is_empty() {
                black_box(q.write_to(&mut sink, &mut pool).expect("sink never fails"));
            }
        }
        1
    });
    ns_per_pass / (bytes_per_pass as f64 / 1024.0)
}

/// Hold model on the engine's queue: pop the earliest event, push one a
/// random increment later, at a steady population. ns per pop+push.
pub fn heap_ns_per_op(seed: u64) -> f64 {
    const POPULATION: u64 = 10_000;
    const OPS: u64 = 100_000;
    let mut rng = Rng::new(seed);
    let mut q: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut seq = 0;
    for _ in 0..POPULATION {
        seq += 1;
        q.push(Scheduled {
            time: SimTime::from_nanos(rng.below(1_000_000)),
            seq,
            event: seq,
        });
    }
    median_ns_per_unit(|| {
        for _ in 0..OPS {
            let e = q.pop().expect("steady population");
            seq += 1;
            q.push(Scheduled {
                time: SimTime::from_nanos(e.time.as_nanos() + rng.below(1_000_000)),
                seq,
                event: black_box(e.event),
            });
        }
        OPS
    })
}
