//! `eventscale-bench` — one live workload plus the paper-scale simulator
//! sweep, measured end to end (`--mode timed`) or layer by layer
//! (`--mode traced`), with every output checked.
//!
//! ```text
//! eventscale-bench --workload <churn-small|keepalive-large> --seed <n>
//!                  --seconds <s> --mode <timed|traced> [--out-dir <dir>]
//! ```
//!
//! Live path: two closed-loop driver threads, one connection each, against
//! three server variants started fresh and interleaved over `ROUNDS`
//! rounds — `nio` (`NioServer`, 1 worker, epoll, handoff accept),
//! `nio_uring` (the same on io_uring) and `httpd` (`PoolServer`, 2 threads,
//! httpd2 lifecycle). `--seconds` is split evenly over the measured windows;
//! in traced mode each window is halved into an untraced and a traced twin.
//! Simulator path: `experiments::Campaign` builds fig1a + fig1b.
//!
//! Human-readable progress goes to stderr; the last stdout line is one JSON
//! object with the metrics, operation counts, checks and every simulator
//! run result (which the caller compares with `results/figures.json`).

mod driver;
mod micro;
mod procstat;
mod responder;
mod sim;
mod stats;
mod trace;
mod workloads;

use driver::{run_drivers, DriverOut, Job, Site, Until};
use httpcore::{ContentStore, LifecyclePolicy};
use metrics::Json;
use nioserver::{AcceptMode, BackendKind, NioConfig, NioServer};
use obs::{Stage, StageHists};
use poolserver::{PoolConfig, PoolServer};
use procstat::{Role, Usage};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{ns, Span, NO_REQ};
use workloads::{stream, warmup_label, window_label, Workload};

/// Closed-loop driver threads, one connection each (the host has 2 CPUs).
const DRIVERS: usize = 2;
/// Interleaved rounds; each round starts every variant fresh.
const ROUNDS: usize = 30;
/// Requests each driver sends to warm a fresh server before measuring.
const WARMUP_REQUESTS: u64 = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Nio,
    NioUring,
    Httpd,
}

impl Variant {
    const ALL: [Variant; 3] = [Variant::Nio, Variant::NioUring, Variant::Httpd];

    fn name(self) -> &'static str {
        match self {
            Variant::Nio => "nio",
            Variant::NioUring => "nio_uring",
            Variant::Httpd => "httpd",
        }
    }
}

enum Server {
    Nio(NioServer),
    Pool(PoolServer),
}

impl Server {
    fn start(v: Variant, content: Arc<ContentStore>) -> std::io::Result<Server> {
        let nio = |backend, content| {
            NioServer::start(NioConfig {
                workers: 1,
                backend,
                accept: AcceptMode::Handoff,
                shed_watermark: None,
                lifecycle: LifecyclePolicy::default(),
                content,
            })
            .map(Server::Nio)
        };
        match v {
            Variant::Nio => nio(BackendKind::Epoll, content),
            Variant::NioUring => nio(BackendKind::IoUring, content),
            Variant::Httpd => PoolServer::start(PoolConfig {
                pool_size: DRIVERS,
                lifecycle: LifecyclePolicy::httpd2(),
                shed_watermark: None,
                content,
            })
            .map(Server::Pool),
        }
    }

    fn addr(&self) -> std::net::SocketAddr {
        match self {
            Server::Nio(s) => s.addr(),
            Server::Pool(s) => s.addr(),
        }
    }

    fn requests(&self) -> u64 {
        match self {
            Server::Nio(s) => s.stats().requests.load(Ordering::SeqCst),
            Server::Pool(s) => s.stats().requests.load(Ordering::SeqCst),
        }
    }

    fn accepted(&self) -> u64 {
        match self {
            Server::Nio(s) => s.stats().accepted.load(Ordering::SeqCst),
            Server::Pool(s) => s.stats().accepted.load(Ordering::SeqCst),
        }
    }

    /// Stop and join the server; returns its merged stage histograms.
    fn shutdown(self) -> StageHists {
        let hists = match &self {
            Server::Nio(s) => s.stage_hists(),
            Server::Pool(s) => s.stage_hists(),
        };
        match self {
            Server::Nio(s) => s.shutdown(),
            Server::Pool(s) => s.shutdown(),
        }
        // Workers merge their histograms as they exit, so read after join.
        let merged = hists.lock().clone();
        merged
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Timed,
    Traced,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = None;
    let mut out_dir = ".bench_results".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad seconds {val}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {val}"));
                }
                seconds = Some(s)
            }
            "--mode" => {
                mode = Some(match val.as_str() {
                    "timed" => Mode::Timed,
                    "traced" => Mode::Traced,
                    _ => return Err(format!("unknown mode {val}")),
                })
            }
            "--out-dir" => out_dir = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode: mode.ok_or("--mode is required")?,
        out_dir,
    })
}

/// Everything one run reports.
#[derive(Default)]
struct Record {
    metrics: Vec<(String, f64, &'static str)>,
    samples: Vec<(String, u64)>,
    checks: Vec<(String, bool, String)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    bodies_checked: u64,
    /// Server request counters compared with driver sends, and mismatches.
    counts_checked: u64,
    counts_mismatched: u64,
    sim_runs: Vec<Json>,
}

impl Record {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn samples(&mut self, name: impl Into<String>, n: usize) {
        self.samples.push((name.into(), n as u64));
    }

    fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    /// Count a driver's operations and keep a few of its failure reasons.
    fn ops(&mut self, out: &DriverOut) {
        self.attempted += out.sent;
        self.failed += out.failed;
        self.bodies_checked += out.bodies_checked;
        for e in &out.errors {
            if self.errors.len() < 16 {
                self.errors.push(e.clone());
            }
        }
    }

    /// The server must have counted exactly the requests the drivers sent.
    fn cross_check(&mut self, what: &str, server: u64, sent: u64) {
        self.counts_checked += 1;
        if server != sent {
            self.counts_mismatched += 1;
            self.failed += server.abs_diff(sent);
            self.check(
                format!("{what}: server request count matches the driver"),
                false,
                format!("server {server}, driver {sent}"),
            );
        }
    }

    /// Summarise the reply checks that passed silently.
    fn close_checks(&mut self) {
        let requests = self.attempted - self.sim_runs.len() as u64;
        self.check(
            "server request counters match driver sends",
            self.counts_mismatched == 0,
            format!(
                "{} of {} windows match",
                self.counts_checked - self.counts_mismatched,
                self.counts_checked
            ),
        );
        self.check(
            "replies verified: status 200, Content-Length, body bytes",
            self.failed == 0,
            format!(
                "{} of {} requests answered correctly; {} bodies compared byte for byte",
                requests - self.failed,
                requests,
                self.bodies_checked
            ),
        );
    }

    fn to_json(&self, args: &Args, io_uring: bool) -> Json {
        Json::obj(vec![
            ("workload", args.workload.name().into()),
            ("seed", (args.seed as f64).into()),
            (
                "mode",
                match args.mode {
                    Mode::Timed => "timed",
                    Mode::Traced => "traced",
                }
                .into(),
            ),
            ("io_uring_granted", Json::Bool(io_uring)),
            (
                "input_digest",
                format!(
                    "{:016x}",
                    workloads::request_digest(args.workload, args.seed, 2000)
                )
                .as_str()
                .into(),
            ),
            ("attempted", (self.attempted as f64).into()),
            ("failed", (self.failed as f64).into()),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(n, v, u)| {
                            (
                                n.clone(),
                                Json::obj(vec![("value", (*v).into()), ("unit", (*u).into())]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "samples",
                Json::Object(
                    self.samples
                        .iter()
                        .map(|(n, c)| (n.clone(), (*c as f64).into()))
                        .collect(),
                ),
            ),
            (
                "checks",
                Json::Array(
                    self.checks
                        .iter()
                        .map(|(n, ok, d)| {
                            Json::obj(vec![
                                ("name", n.as_str().into()),
                                ("ok", Json::Bool(*ok)),
                                ("detail", d.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "errors",
                Json::Array(self.errors.iter().map(|e| e.as_str().into()).collect()),
            ),
            ("sim_runs", Json::Array(self.sim_runs.clone())),
        ])
    }
}

/// Per-variant accumulation over the rounds.
#[derive(Default)]
struct Acc {
    /// Verified replies/s of each measured window.
    window_rps: Vec<f64>,
    /// Response-time p50 and p99 of each measured window, µs.
    window_p50: Vec<f64>,
    window_p99: Vec<f64>,
    /// Response-time samples behind those percentiles.
    samples: usize,
    /// Traced mode: replies/s of the untraced twin windows.
    untraced_rps: Vec<f64>,
    /// Drivers' view of the measured windows.
    out: DriverOut,
    wall_s: f64,
    worker: Usage,
    acceptor: Usage,
    accepted: u64,
    stages: StageHists,
}

/// Set-up work, per round: build the site, start each variant, warm it.
#[derive(Default)]
struct Setup {
    /// Whole set-up of each round, seconds.
    total_s: Vec<f64>,
    fileset_ms: Vec<f64>,
    content_ms: Vec<f64>,
    /// Summed over the round's variants.
    start_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    spans: Vec<Span>,
}

struct Ctx<'a> {
    args: &'a Args,
    window: Duration,
    epoch: Instant,
}

impl Ctx<'_> {
    fn jobs(
        &self,
        target: std::net::SocketAddr,
        until: Until,
        label: impl Fn(usize) -> u64,
        traced: bool,
    ) -> Vec<Job> {
        (0..DRIVERS)
            .map(|i| Job {
                id: i as u64,
                target,
                stream: stream(self.args.seed, label(i)),
                body_sample: (!traced).then(|| stream(self.args.seed, 0xB0D1_0000_0000 | label(i))),
                until,
                traced,
                epoch: self.epoch,
            })
            .collect()
    }
}

fn setup_span(spans: &mut Vec<Span>, epoch: Instant, layer: &'static str, a: Instant, b: Instant) {
    spans.push(Span {
        trace: 0,
        req: NO_REQ,
        layer,
        start_ns: ns(epoch, a),
        end_ns: ns(epoch, b),
    });
}

/// One variant's turn in a round: start it fresh, warm it, measure one
/// window (timed) or an untraced and a traced half-window in alternating
/// order (traced), stop it. Returns its start and warm-up seconds.
#[allow(clippy::too_many_arguments)]
fn variant_turn(
    ctx: &Ctx,
    site: &Site,
    content: &Arc<ContentStore>,
    v: Variant,
    round: usize,
    rec: &mut Record,
    acc: &mut Acc,
    spans: &mut Vec<Span>,
) -> (f64, f64) {
    let t0 = Instant::now();
    let server = match Server::start(v, Arc::clone(content)) {
        Ok(s) => s,
        Err(e) => {
            rec.check(format!("{}: server starts", v.name()), false, e.to_string());
            return (0.0, 0.0);
        }
    };
    let t1 = Instant::now();
    let warm_jobs = ctx.jobs(
        server.addr(),
        Until::Requests(WARMUP_REQUESTS),
        |i| warmup_label(round, i),
        false,
    );
    let (warm, _) = run_drivers(site, warm_jobs);
    let t2 = Instant::now();
    setup_span(spans, ctx.epoch, "setup.server_start", t0, t1);
    setup_span(spans, ctx.epoch, "setup.warmup", t1, t2);
    rec.ops(&warm);
    rec.cross_check(
        &format!("{} warm-up", v.name()),
        server.requests(),
        warm.sent,
    );

    let windows: &[bool] = match (ctx.args.mode, round % 2) {
        (Mode::Timed, _) => &[false],
        (Mode::Traced, 0) => &[false, true],
        (Mode::Traced, _) => &[true, false],
    };
    for &traced in windows {
        let req0 = server.requests();
        let acc0 = server.accepted();
        let snap0 = traced.then(procstat::snapshot);
        let jobs = ctx.jobs(
            server.addr(),
            Until::Deadline(Instant::now() + ctx.window / windows.len() as u32),
            |i| window_label(round, i),
            traced,
        );
        let (mut out, wall) = run_drivers(site, jobs);
        let snap1 = traced.then(procstat::snapshot);
        rec.ops(&out);
        rec.cross_check(v.name(), server.requests() - req0, out.sent);
        let rps = out.ok as f64 / wall.as_secs_f64();
        if traced || ctx.args.mode == Mode::Timed {
            acc.window_rps.push(rps);
            acc.window_p50
                .push(stats::quantile_us(&mut out.resp_ns, 0.50));
            acc.window_p99
                .push(stats::quantile_us(&mut out.resp_ns, 0.99));
            // Keep only the count: holding every sample would make the
            // process's peak memory follow the reply rate.
            acc.samples += out.resp_ns.len();
            out.resp_ns = Vec::new();
            acc.wall_s += wall.as_secs_f64();
            if let (Some(a), Some(b)) = (&snap0, &snap1) {
                acc.worker.add(&procstat::delta(a, b, Role::Worker));
                acc.acceptor.add(&procstat::delta(a, b, Role::Acceptor));
                acc.accepted += server.accepted() - acc0;
            }
            acc.out.merge(out);
        } else {
            acc.untraced_rps.push(rps);
        }
    }
    acc.stages.merge(&server.shutdown());
    ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// The canned responder's turn in a traced round: the driver's ceiling.
fn ceiling_turn(ctx: &Ctx, site: &Site, round: usize, rec: &mut Record, acc: &mut Acc) {
    let canned = match responder::Canned::start(site.content, DRIVERS) {
        Ok(c) => c,
        Err(e) => {
            rec.check("canned responder starts", false, e.to_string());
            return;
        }
    };
    let warm = ctx.jobs(
        canned.addr(),
        Until::Requests(WARMUP_REQUESTS),
        |i| warmup_label(round, i),
        false,
    );
    let (warm, _) = run_drivers(site, warm);
    rec.ops(&warm);
    let jobs = ctx.jobs(
        canned.addr(),
        Until::Deadline(Instant::now() + ctx.window / 2),
        |i| window_label(round, i),
        false,
    );
    let (out, wall) = run_drivers(site, jobs);
    rec.ops(&out);
    acc.window_rps.push(out.ok as f64 / wall.as_secs_f64());
    acc.out.merge(out);
    canned.shutdown();
}

fn per_reply(x: f64, replies: u64) -> f64 {
    x / replies.max(1) as f64
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eventscale-bench: {e}");
            eprintln!(
                "usage: eventscale-bench --workload <churn-small|keepalive-large> --seed <n> \
                 --seconds <s> --mode <timed|traced> [--out-dir <dir>]"
            );
            std::process::exit(2);
        }
    };
    let io_uring = nioserver::io_uring_available();
    let epoch = Instant::now();
    let ctx = Ctx {
        args: &args,
        window: Duration::from_secs_f64(args.seconds / (ROUNDS * Variant::ALL.len()) as f64),
        epoch,
    };
    let mut rec = Record::default();
    let mut accs: Vec<Acc> = Variant::ALL.iter().map(|_| Acc::default()).collect();
    let mut ceiling = Acc::default();
    let mut setup = Setup::default();
    let mut sweep = sim::Sweep::new();

    for round in 0..ROUNDS {
        let f0 = Instant::now();
        let files = args.workload.files();
        let f1 = Instant::now();
        let content = Arc::new(ContentStore::from_fileset(&files));
        let f2 = Instant::now();
        setup_span(&mut setup.spans, epoch, "setup.fileset", f0, f1);
        setup_span(&mut setup.spans, epoch, "setup.content", f1, f2);
        setup.fileset_ms.push((f1 - f0).as_secs_f64() * 1e3);
        setup.content_ms.push((f2 - f1).as_secs_f64() * 1e3);
        let session = args.workload.session();
        let site = Site::new(&files, &content, &session);
        let (mut start_s, mut warm_s) = (0.0, 0.0);
        for j in 0..Variant::ALL.len() {
            // Rotate the order so no variant always runs first.
            let vi = (round + j) % Variant::ALL.len();
            let (s, w) = variant_turn(
                &ctx,
                &site,
                &content,
                Variant::ALL[vi],
                round,
                &mut rec,
                &mut accs[vi],
                &mut setup.spans,
            );
            start_s += s;
            warm_s += w;
        }
        setup.start_ms.push(start_s * 1e3);
        setup.warm_ms.push(warm_s * 1e3);
        setup
            .total_s
            .push((f2 - f0).as_secs_f64() + start_s + warm_s);
        if args.mode == Mode::Traced {
            ceiling_turn(&ctx, &site, round, &mut rec, &mut ceiling);
        }
        sweep.after_round(round, ROUNDS, epoch);
        eprintln!(
            "[{}] round {}/{} done: {}",
            args.workload.name(),
            round + 1,
            ROUNDS,
            Variant::ALL
                .iter()
                .zip(&accs)
                .map(|(v, a)| format!(
                    "{} {:.0}/s p99 {:.0}us",
                    v.name(),
                    a.window_rps.last().unwrap_or(&0.0),
                    a.window_p99.last().unwrap_or(&0.0)
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let runs = sweep.finish(epoch);
    rec.attempted += runs.len() as u64;
    rec.sim_runs = runs;

    match args.mode {
        Mode::Timed => report_timed(&mut rec, &mut accs, &sweep, &mut setup),
        Mode::Traced => report_traced(&ctx, &mut rec, &mut accs, &mut ceiling, sweep, setup),
    }
    rec.close_checks();
    println!("{}", rec.to_json(&args, io_uring).render());
}

/// The end-to-end metrics.
fn report_timed(rec: &mut Record, accs: &mut [Acc], sweep: &sim::Sweep, setup: &mut Setup) {
    for (v, acc) in Variant::ALL.iter().zip(accs.iter_mut()) {
        let n = v.name();
        rec.metric(
            format!("{n}.rps"),
            stats::median(&mut acc.window_rps),
            "1/s",
        );
        // Percentiles per window, then the median over windows: a burst of
        // interference from outside spoils a minority of windows without
        // moving the result.
        rec.metric(
            format!("{n}.p50_us"),
            stats::median(&mut acc.window_p50),
            "us",
        );
        rec.metric(
            format!("{n}.p99_us"),
            stats::median(&mut acc.window_p99),
            "us",
        );
        rec.samples(format!("{n}.p50_us"), acc.samples);
        rec.samples(format!("{n}.p99_us"), acc.samples);
    }
    rec.metric("sim.wall_s", sweep.wall_s, "s");
    rec.metric("setup_s", stats::median(&mut setup.total_s), "s");
    rec.metric("peak_rss_mb", procstat::peak_rss_mb(), "MB");
}

/// The per-layer metrics, and the spans written out.
fn report_traced(
    ctx: &Ctx,
    rec: &mut Record,
    accs: &mut [Acc],
    ceiling: &mut Acc,
    mut sweep: sim::Sweep,
    mut setup: Setup,
) {
    let args = ctx.args;
    let mut spans: Vec<(String, Vec<Span>)> = Vec::new();
    for (v, acc) in Variant::ALL.iter().zip(accs.iter_mut()) {
        layer_metrics(rec, *v, acc);
        spans.push((v.name().to_string(), std::mem::take(&mut acc.out.spans)));
    }
    let overhead: f64 = accs
        .iter_mut()
        .map(|a| {
            1.0 - stats::median(&mut a.window_rps) / stats::median(&mut a.untraced_rps).max(1e-9)
        })
        .sum::<f64>()
        / accs.len() as f64;
    rec.metric("trace_overhead_frac", overhead, "ratio");
    rec.metric(
        "driver.ceiling_rps",
        stats::median(&mut ceiling.window_rps),
        "1/s",
    );
    rec.metric(
        "driver.cpu_us_per_reply",
        per_reply(ceiling.out.usage.cpu_ns as f64 / 1e3, ceiling.out.ok),
        "us",
    );

    let files = args.workload.files();
    let content = ContentStore::from_fileset(&files);
    let (bursts, mix) = micro_inputs(args, &files);
    rec.metric(
        "httpcore.parse_ns_per_req",
        micro::parse_ns_per_req(&bursts),
        "ns",
    );
    rec.metric(
        "httpcore.reply_ns_per_kb",
        micro::reply_ns_per_kb(&content, &mix),
        "ns",
    );
    rec.metric(
        "desim.heap_ns_per_op",
        micro::heap_ns_per_op(args.seed),
        "ns",
    );

    eprintln!(
        "[{}] simulator: serial pass over fig1a + fig1b",
        args.workload.name()
    );
    let serial = sim::serial(ctx.epoch);
    rec.attempted += serial.runs.len() as u64;
    rec.sim_runs.extend(serial.runs);
    let mut total_ms = 0.0;
    for (figure, mut ms) in serial.run_ms {
        total_ms += ms.iter().sum::<f64>();
        let name = match figure {
            "fig1a" => "serversim.run_ms.event_driven",
            _ => "serversim.run_ms.threaded",
        };
        rec.samples(name, ms.len());
        rec.metric(name, stats::median(&mut ms), "ms");
    }
    rec.metric(
        "serversim.sim_replies_per_wall_s",
        serial.sim_replies as f64 / (total_ms / 1e3),
        "1/s",
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    rec.metric(
        "experiments.sweep_efficiency",
        total_ms / 1e3 / (threads as f64 * sweep.wall_s),
        "ratio",
    );
    rec.metric(
        "setup.fileset_ms",
        stats::median(&mut setup.fileset_ms),
        "ms",
    );
    rec.metric(
        "setup.content_ms",
        stats::median(&mut setup.content_ms),
        "ms",
    );
    rec.metric(
        "setup.server_start_ms",
        stats::median(&mut setup.start_ms),
        "ms",
    );
    rec.metric("setup.warmup_ms", stats::median(&mut setup.warm_ms), "ms");

    spans.push((
        "sim".to_string(),
        [std::mem::take(&mut sweep.spans), serial.spans].concat(),
    ));
    spans.push(("setup".to_string(), setup.spans));
    write_spans(args, &spans);
}

/// Per-layer metrics of one variant from its traced windows.
fn layer_metrics(rec: &mut Record, v: Variant, acc: &mut Acc) {
    let n = v.name();
    let replies = acc.out.ok;
    let conns = acc.out.connect_ns.len();
    rec.metric(
        format!("{n}.connect_p50_us"),
        stats::quantile_us(&mut acc.out.connect_ns, 0.50),
        "us",
    );
    rec.metric(
        format!("{n}.connect_p99_us"),
        stats::quantile_us(&mut acc.out.connect_ns, 0.99),
        "us",
    );
    rec.samples(format!("{n}.connect_p50_us"), conns);
    rec.samples(format!("{n}.connect_p99_us"), conns);
    if v != Variant::Httpd {
        rec.metric(
            format!("{n}.acceptor_cpu_us_per_conn"),
            acc.acceptor.cpu_ns as f64 / 1e3 / acc.accepted.max(1) as f64,
            "us",
        );
    }
    let heads = acc.out.first_head_ns.len();
    rec.metric(
        format!("{n}.head_p50_us"),
        stats::quantile_us(&mut acc.out.first_head_ns, 0.50),
        "us",
    );
    rec.samples(format!("{n}.head_p50_us"), heads);
    let bodies = acc.out.body_ns.len();
    rec.metric(
        format!("{n}.body_p50_us"),
        stats::quantile_us(&mut acc.out.body_ns, 0.50),
        "us",
    );
    rec.samples(format!("{n}.body_p50_us"), bodies);
    for (stage, label) in [(Stage::Parse, "parse"), (Stage::Transfer, "transfer")] {
        let h = acc.stages.stage(stage);
        rec.metric(
            format!("{n}.stage.{label}_p50_us"),
            h.quantile(0.5) as f64 / 1e3,
            "us",
        );
        rec.samples(format!("{n}.stage.{label}_p50_us"), h.count() as usize);
    }
    let w = acc.worker;
    rec.metric(
        format!("{n}.worker_cpu_us_per_reply"),
        per_reply(w.cpu_ns as f64 / 1e3, replies),
        "us",
    );
    rec.metric(
        format!("{n}.worker_busy_frac"),
        w.cpu_ns as f64 / 1e9 / acc.wall_s.max(1e-9),
        "ratio",
    );
    rec.metric(
        format!("{n}.worker_wakeups_per_reply"),
        per_reply(w.vcsw as f64, replies),
        "count",
    );
    rec.metric(
        format!("{n}.worker_preempts_per_reply"),
        per_reply(w.ivcsw as f64, replies),
        "count",
    );
    rec.metric(
        format!("{n}.write_syscalls_per_reply"),
        per_reply(w.syscw as f64, replies),
        "count",
    );
    rec.metric(
        format!("{n}.write_bytes_per_syscall"),
        if w.syscw == 0 {
            0.0
        } else {
            w.wchar as f64 / w.syscw as f64
        },
        "B",
    );
    for (layer, self_ns) in trace::self_times(&acc.out.spans) {
        rec.metric(
            format!("{n}.self.{layer}_us_per_reply"),
            per_reply(self_ns as f64 / 1e3, replies),
            "us",
        );
    }
    rec.metric(format!("{n}.replies"), replies as f64, "count");
}

/// The workload's own request bursts (as wire bytes) and reply mix, for
/// the `httpcore` timings: the first sessions of the round-0 stream.
fn micro_inputs(args: &Args, files: &workload::FileSet) -> (Vec<Vec<u8>>, Vec<workload::FileId>) {
    let session = args.workload.session();
    let mut rng = stream(args.seed, window_label(0, 0));
    let mut bursts = Vec::new();
    let mut mix = Vec::new();
    while mix.len() < 2000 {
        let plan = workload::SessionPlan::generate(&session, files, &mut rng);
        for b in plan.bursts {
            let mut wire = Vec::new();
            for f in b.files {
                wire.extend_from_slice(&workloads::request_bytes(f.0));
                mix.push(f);
            }
            bursts.push(wire);
        }
    }
    (bursts, mix)
}

fn write_spans(args: &Args, groups: &[(String, Vec<Span>)]) {
    let path =
        std::path::Path::new(&args.out_dir).join(format!("{}.spans.tsv", args.workload.name()));
    let res = std::fs::create_dir_all(&args.out_dir).and_then(|_| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let refs: Vec<(&str, &[Span])> = groups
            .iter()
            .map(|(g, s)| (g.as_str(), s.as_slice()))
            .collect();
        trace::write_tsv(&mut w, &refs)?;
        std::io::Write::flush(&mut w)
    });
    if let Err(e) = res {
        eprintln!("eventscale-bench: could not write {}: {e}", path.display());
    }
}
