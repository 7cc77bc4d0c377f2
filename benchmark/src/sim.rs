//! The simulator path: the paper-scale fig1a + fig1b sweeps (63
//! `serversim` runs) through `experiments::Campaign::build`, plus a serial
//! traced pass that times each `serversim::run` call on the same configs.
//!
//! Every run result is emitted as JSON so that the caller can compare it
//! with `results/figures.json`.

use crate::trace::{ns, Span, NO_REQ};
use experiments::{Campaign, LinkSetup, Scale};
use metrics::Json;
use serversim::result::RunResult;
use serversim::{ServerArch, TestbedConfig};
use std::time::Instant;

/// The series of the figures this benchmark sweeps, as
/// `experiments::catalog` defines them: (figure, label, server).
pub const SERIES: [(&str, &str, ServerArch); 7] = [
    ("fig1a", "nio-1w", ServerArch::EventDriven { workers: 1 }),
    ("fig1a", "nio-4w", ServerArch::EventDriven { workers: 4 }),
    ("fig1a", "nio-8w", ServerArch::EventDriven { workers: 8 }),
    ("fig1b", "httpd-512t", ServerArch::Threaded { pool: 512 }),
    ("fig1b", "httpd-896t", ServerArch::Threaded { pool: 896 }),
    ("fig1b", "httpd-4096t", ServerArch::Threaded { pool: 4096 }),
    ("fig1b", "httpd-6000t", ServerArch::Threaded { pool: 6000 }),
];

/// One run result, tagged with its figure.
pub fn run_json(figure: &str, r: &RunResult) -> Json {
    Json::obj(vec![("figure", figure.into()), ("run", r.to_json())])
}

/// The campaign sweep, one series at a time. `Campaign::build` runs a
/// figure as one parallel sweep per series; running those series spread
/// over the run (between live rounds) samples the host's speed over the
/// whole run instead of one stretch of it. `finish` then builds the figures
/// from the campaign's memoised series.
pub struct Sweep {
    campaign: Campaign,
    next: usize,
    pub wall_s: f64,
    pub spans: Vec<Span>,
}

impl Sweep {
    pub fn new() -> Sweep {
        Sweep {
            campaign: Campaign::new(Scale::paper()),
            next: 0,
            wall_s: 0.0,
            spans: Vec::new(),
        }
    }

    /// Run the series due after live round `round` (0-based) of `rounds`.
    pub fn after_round(&mut self, round: usize, rounds: usize, epoch: Instant) {
        self.run_until(((round + 1) * SERIES.len()).div_ceil(rounds), epoch);
    }

    fn run_until(&mut self, due: usize, epoch: Instant) {
        while self.next < due.min(SERIES.len()) {
            let (_, label, arch) = SERIES[self.next];
            let t0 = Instant::now();
            self.campaign.series(label, arch, 1, LinkSetup::Gbit1);
            self.timed("experiments.series", t0, epoch);
            self.next += 1;
        }
    }

    fn timed(&mut self, layer: &'static str, t0: Instant, epoch: Instant) {
        let t1 = Instant::now();
        self.wall_s += (t1 - t0).as_secs_f64();
        self.spans.push(Span {
            trace: self.spans.len() as u64,
            req: NO_REQ,
            layer,
            start_ns: ns(epoch, t0),
            end_ns: ns(epoch, t1),
        });
    }

    /// Run any series still due, build both figures and return every run
    /// result.
    pub fn finish(&mut self, epoch: Instant) -> Vec<Json> {
        self.run_until(SERIES.len(), epoch);
        let t0 = Instant::now();
        let figures: Vec<_> = ["fig1a", "fig1b"]
            .iter()
            .map(|id| self.campaign.build(id))
            .collect();
        self.timed("experiments.build", t0, epoch);
        figures
            .iter()
            .flat_map(|f| {
                f.series
                    .iter()
                    .flat_map(|s| s.points.iter().map(|r| run_json(f.id, r)))
            })
            .collect()
    }
}

/// The campaign's configuration for one point of a uniprocessor, 1 Gbit
/// figure (mirrors `Campaign`'s private config builder; the comparison with
/// `results/figures.json` proves the mirror right).
fn config(server: ServerArch, clients: u32, scale: &Scale) -> TestbedConfig {
    let links = LinkSetup::Gbit1.links();
    let mut cfg = TestbedConfig::paper_default(server, 1, links[0]);
    cfg.links = links;
    cfg.num_clients = clients;
    cfg.duration = scale.duration;
    cfg.warmup = scale.warmup;
    cfg.ramp = scale.ramp;
    cfg.seed = scale.seed ^ (clients as u64).wrapping_mul(0x9E37_79B9);
    cfg
}

/// Serial pass: every call timed on its own.
pub struct SerialPass {
    /// Wall milliseconds per call, per figure.
    pub run_ms: Vec<(&'static str, Vec<f64>)>,
    /// Replies the simulated clients completed in the measured interval.
    pub sim_replies: u64,
    pub runs: Vec<Json>,
    pub spans: Vec<Span>,
}

pub fn serial(epoch: Instant) -> SerialPass {
    let scale = Scale::paper();
    let mut pass = SerialPass {
        run_ms: Vec::new(),
        sim_replies: 0,
        runs: Vec::new(),
        spans: Vec::new(),
    };
    let mut trace = 0;
    for figure in ["fig1a", "fig1b"] {
        let mut ms = Vec::new();
        for &(_, _, arch) in SERIES.iter().filter(|s| s.0 == figure) {
            for &clients in &scale.loads {
                let cfg = config(arch, clients, &scale);
                let t0 = Instant::now();
                let tb = serversim::run(cfg.clone());
                let t1 = Instant::now();
                trace += 1;
                pass.spans.push(Span {
                    trace,
                    req: NO_REQ,
                    layer: "serversim.run",
                    start_ns: ns(epoch, t0),
                    end_ns: ns(epoch, t1),
                });
                ms.push((t1 - t0).as_secs_f64() * 1e3);
                pass.sim_replies += tb.metrics.response_time_us.count();
                let r = RunResult::from_testbed(&cfg, &tb, cfg.duration.as_secs_f64());
                pass.runs.push(run_json(figure, &r));
            }
        }
        pass.run_ms.push((figure, ms));
    }
    pass
}
