//! Microbenchmarks of the substrates: the DES event queue, the
//! processor-sharing link, histograms, the PRNG, SURGE sampling, and the
//! real HTTP parser/writer. These pin the per-event costs the simulated
//! experiments multiply by millions.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use desim::{BinaryHeapQueue, EventQueue, Rng, Scheduled, SimDuration, SimTime};
use httpcore::{ParseOutcome, RequestParser};
use metrics::Histogram;
use netsim::{FlowId, LinkConfig, PsLink};
use workload::{Distribution, FileSet, LogNormal, SurgeConfig, Zipf};

fn queue_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("binary_heap_push_pop_10k", |b| {
        b.iter_batched(
            || {
                let mut rng = Rng::new(1);
                let times: Vec<u64> = (0..10_000).map(|_| rng.below(100_000_000)).collect();
                (BinaryHeapQueue::new(), times)
            },
            |(mut q, times)| {
                for (i, &t) in times.iter().enumerate() {
                    q.push(Scheduled {
                        time: SimTime::from_nanos(t),
                        seq: i as u64,
                        event: i as u64,
                    });
                }
                let mut acc = 0u64;
                while let Some(e) = q.pop() {
                    acc ^= e.event;
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn link_benches(c: &mut Criterion) {
    c.bench_function("pslink_churn_1k_flows", |b| {
        b.iter(|| {
            let mut link = PsLink::new(LinkConfig::from_mbit(1000.0, SimDuration::ZERO));
            let mut now = SimTime::ZERO;
            for i in 0..1000u64 {
                link.start_flow(now, FlowId(i), 12_000.0);
                now += SimDuration::from_micros(50);
                if i % 3 == 0 {
                    if let Some((t, _)) = link.next_completion(now) {
                        if t <= now {
                            link.complete_next(now);
                        }
                    }
                }
            }
            while let Some((t, _)) = link.next_completion(now) {
                now = t;
                link.complete_next(now);
            }
            std::hint::black_box(link.bytes_delivered)
        })
    });
}

fn metrics_benches(c: &mut Criterion) {
    c.bench_function("histogram_record_100k", |b| {
        b.iter_batched(
            || {
                let mut rng = Rng::new(7);
                (0..100_000u64).map(|_| rng.below(10_000_000)).collect::<Vec<_>>()
            },
            |values| {
                let mut h = Histogram::default_precision();
                for v in values {
                    h.record(v);
                }
                std::hint::black_box(h.quantile(0.99))
            },
            BatchSize::SmallInput,
        )
    });
}

fn rng_and_workload_benches(c: &mut Criterion) {
    c.bench_function("xoshiro_next_u64_x1000", |b| {
        let mut rng = Rng::new(3);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc ^= rng.next_u64();
            }
            acc
        })
    });
    c.bench_function("lognormal_sample_x1000", |b| {
        let d = LogNormal::new(9.357, 1.318);
        let mut rng = Rng::new(4);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += d.sample(&mut rng);
            }
            acc
        })
    });
    c.bench_function("zipf_sample_x1000", |b| {
        let z = Zipf::new(2000, 1.0);
        let mut rng = Rng::new(5);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1000 {
                acc ^= z.sample_rank(&mut rng);
            }
            acc
        })
    });
    c.bench_function("fileset_build_2000", |b| {
        b.iter(|| {
            let mut rng = Rng::new(6);
            let fs = FileSet::build(&SurgeConfig::default(), &mut rng);
            std::hint::black_box(fs.mean_request_bytes())
        })
    });
}

fn http_benches(c: &mut Criterion) {
    let raw = b"GET /f/1234 HTTP/1.1\r\nHost: sut.example\r\nUser-Agent: bench\r\nAccept: */*\r\n\r\n";
    c.bench_function("http_parse_request", |b| {
        b.iter(|| {
            let mut p = RequestParser::new();
            p.feed(raw);
            match p.parse() {
                ParseOutcome::Complete(r) => std::hint::black_box(r.target.len()),
                _ => unreachable!(),
            }
        })
    });
    c.bench_function("http_parse_pipelined_x100", |b| {
        let mut block = Vec::new();
        for i in 0..100 {
            block.extend_from_slice(
                format!("GET /f/{i} HTTP/1.1\r\nHost: s\r\n\r\n").as_bytes(),
            );
        }
        b.iter(|| {
            let mut p = RequestParser::new();
            p.feed(&block);
            let mut n = 0;
            while let ParseOutcome::Complete(_) = p.parse() {
                n += 1;
            }
            assert_eq!(n, 100);
            n
        })
    });
    c.bench_function("http_write_head", |b| {
        let mut out = Vec::with_capacity(256);
        b.iter(|| {
            out.clear();
            httpcore::write_head(
                &mut out,
                httpcore::Version::Http11,
                httpcore::Status::Ok,
                12345,
                true,
                "Thu, 01 Jan 2004 00:00:00 GMT",
            );
            std::hint::black_box(out.len())
        })
    });
}

criterion_group!(
    benches,
    queue_benches,
    link_benches,
    metrics_benches,
    rng_and_workload_benches,
    http_benches
);
criterion_main!(benches);
