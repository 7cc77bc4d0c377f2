//! Fault-plan properties: any valid generated plan leaves the simulation
//! deterministic — the same seed and plan produce bit-identical metrics —
//! and plan execution never corrupts accounting.

use desim::SimDuration;
use faults::{AcceptMode, FaultEvent, FaultKind, FaultPlan, FleetFaultPlan, HostFault};
use metrics::Histogram;
use netsim::LinkConfig;
use proptest::prelude::*;
use serversim::{
    run, run_fleet, FleetConfig, FleetTestbed, ServerArch, Strategy, Testbed, TestbedConfig,
};

const SEC: u64 = 1_000_000_000;

/// Build one fault event from plain scalars (the shim strategies generate
/// integers; the mapping below covers every `FaultKind`).
fn event_from(kind_sel: u8, start_s: u64, dur_s: u64, knob: u32) -> FaultEvent {
    let kind = match kind_sel % 8 {
        0 => FaultKind::LinkOutage { link: 0 },
        1 => FaultKind::LinkDegrade {
            link: 0,
            capacity_factor: 0.05 + 0.1 * (knob % 9) as f64,
        },
        2 => FaultKind::LatencyJitter {
            link: 0,
            added_ns: 10_000_000 * (knob as u64 % 40 + 1),
        },
        3 => FaultKind::WorkerCrash {
            fraction: 0.1 + 0.1 * (knob % 10).min(9) as f64,
            restart: knob.is_multiple_of(2),
        },
        4 => FaultKind::ServerStall,
        5 => FaultKind::SlowLoris {
            clients: (knob % 30) as usize + 1,
        },
        6 => FaultKind::NeverReads {
            clients: (knob % 30) as usize + 1,
        },
        _ => FaultKind::FdStorm {
            sockets: (knob % 400) as usize + 1,
        },
    };
    FaultEvent {
        start_ns: start_s * SEC,
        duration_ns: dur_s * SEC,
        kind,
    }
}

fn cfg_with(plan: FaultPlan, arch: ServerArch, seed: u64) -> TestbedConfig {
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(arch, 1, link);
    cfg.num_clients = 60;
    cfg.duration = SimDuration::from_secs(18);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.ramp = SimDuration::from_secs(1);
    cfg.seed = seed;
    cfg.fault_plan = Some(plan);
    cfg
}

/// Digest of everything a run measures, with exact (bit-level) equality.
#[derive(Debug, PartialEq)]
struct Digest {
    traffic: [u64; 8],
    errors: metrics::ErrorCounters,
    response_hist: (u64, u64, u64, u64),
    reply_windows: Vec<u64>,
    stale_events: u64,
    syns_refused: u64,
}

fn hist_digest(h: &Histogram) -> (u64, u64, u64, u64) {
    if h.is_empty() {
        return (0, 0, 0, 0);
    }
    (h.count(), h.min(), h.max(), h.mean().to_bits())
}

fn digest(tb: &Testbed) -> Digest {
    let t = &tb.metrics.traffic;
    Digest {
        traffic: [
            t.connections_established,
            t.requests_sent,
            t.replies_received,
            t.sessions_completed,
            t.sessions_aborted,
            t.bytes_received,
            t.bytes_sent,
            t.retries,
        ],
        errors: tb.metrics.errors,
        response_hist: hist_digest(&tb.metrics.response_time_us),
        reply_windows: tb
            .metrics
            .replies
            .rates_per_sec()
            .iter()
            .map(|r| r.to_bits())
            .collect(),
        stale_events: tb.stale_events,
        syns_refused: tb.syns_refused,
    }
}

/// Digest of a fleet run, with exact (bit-level) equality: client-side
/// traffic, loss/failover accounting, every health transition the balancer
/// recorded, and the per-replica reply split.
#[derive(Debug, PartialEq)]
struct FleetDigest {
    traffic: [u64; 6],
    lost_replies: u64,
    failover_retries: u64,
    connect_redirects: u64,
    conns_rehomed: u64,
    ejections: u64,
    readmissions: u64,
    transitions: Vec<(u64, usize, &'static str)>,
    host_replies: Vec<u64>,
    reply_windows: Vec<u64>,
    response_hist: (u64, u64, u64, u64),
    stale_events: u64,
    syns_refused: u64,
}

fn fleet_digest(tb: &FleetTestbed) -> FleetDigest {
    let t = &tb.metrics.traffic;
    FleetDigest {
        traffic: [
            t.connections_established,
            t.requests_sent,
            t.replies_received,
            t.sessions_completed,
            t.bytes_received,
            t.retries,
        ],
        lost_replies: tb.lost_replies,
        failover_retries: tb.failover_retries,
        connect_redirects: tb.connect_redirects,
        conns_rehomed: tb.conns_rehomed,
        ejections: tb.lb.ejections(),
        readmissions: tb.lb.readmissions(),
        transitions: tb
            .transitions
            .iter()
            .map(|&(ns, h, s)| (ns, h, s.label()))
            .collect(),
        host_replies: tb.host_replies(),
        reply_windows: tb
            .metrics
            .replies
            .rates_per_sec()
            .iter()
            .map(|r| r.to_bits())
            .collect(),
        response_hist: hist_digest(&tb.metrics.response_time_us),
        stale_events: tb.stale_events,
        syns_refused: tb.syns_refused,
    }
}

fn arch_from(which: u8) -> ServerArch {
    match which % 3 {
        0 => ServerArch::EventDriven { workers: 2 },
        1 => ServerArch::Threaded { pool: 128 },
        _ => ServerArch::Staged {
            parse_threads: 1,
            send_threads: 2,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same seed + same plan ⇒ bit-identical metrics, for any generated
    /// plan against any architecture. This is what makes fault replays
    /// debuggable: a chaos run can be reproduced exactly from its config.
    #[test]
    fn any_plan_is_deterministic(
        kind_sel in 0u8..8,
        start_s in 2u64..10,
        dur_s in 1u64..7,
        knob in 0u32..100,
        which in 0u8..3,
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan::new("generated", vec![event_from(kind_sel, start_s, dur_s, knob)]);
        prop_assert!(plan.validate(1).is_ok(), "generator must emit valid plans");
        let cfg = cfg_with(plan, arch_from(which), seed);
        let a = digest(&run(cfg.clone()));
        let b = digest(&run(cfg));
        prop_assert_eq!(a, b, "same seed + plan must replay identically");
    }

    /// A two-event plan (fault, then a later different fault) keeps the
    /// accounting coherent: replies never exceed requests and the run
    /// still makes progress outside the fault windows.
    #[test]
    fn plans_preserve_accounting(
        kind_a in 0u8..8,
        kind_b in 0u8..8,
        knob in 0u32..100,
        which in 0u8..3,
        seed in 0u64..10_000,
    ) {
        // Disjoint windows; different kinds may share a link, same kinds
        // on one link must not overlap (validate enforces it).
        let plan = FaultPlan::new(
            "generated-pair",
            vec![event_from(kind_a, 3, 2, knob), event_from(kind_b, 7, 2, knob / 7)],
        );
        prop_assert!(plan.validate(1).is_ok());
        let cfg = cfg_with(plan, arch_from(which), seed);
        let tb = run(cfg);
        let t = &tb.metrics.traffic;
        prop_assert!(t.replies_received <= t.requests_sent,
            "replies {} > requests {}", t.replies_received, t.requests_sent);
        prop_assert!(t.replies_received > 0, "run must survive the plan");
    }

    /// Any generated WorkerCrash plan replayed against the sharded accept
    /// path: the replay is bit-identical, the port stays reachable (clients
    /// keep getting replies through and after the crash window), and no
    /// already-accepted connection is lost — every establishment the
    /// clients measured is accounted to exactly one shard's accept
    /// counter, crash takeover included.
    #[test]
    fn sharded_worker_crash_loses_no_accepted_connections(
        fraction_sel in 1u32..10,
        restart in any::<bool>(),
        start_s in 2u64..8,
        dur_s in 1u64..6,
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan::new(
            "sharded-crash",
            vec![FaultEvent {
                start_ns: start_s * SEC,
                duration_ns: dur_s * SEC,
                kind: FaultKind::WorkerCrash {
                    fraction: 0.1 * fraction_sel as f64,
                    restart,
                },
            }],
        );
        prop_assert!(plan.validate(1).is_ok());
        let mut cfg = cfg_with(plan, ServerArch::EventDriven { workers: 4 }, seed);
        cfg.accept_mode = AcceptMode::Sharded;
        let a = run(cfg.clone());
        let b = run(cfg);
        prop_assert_eq!(
            digest(&a), digest(&b),
            "same seed + crash plan must replay bit-identically in sharded mode"
        );

        let t = &a.metrics.traffic;
        prop_assert!(t.replies_received > 0, "port must stay reachable through the crash");

        let ev = a.event_server().expect("event-driven arch");
        let shards = ev.accepted_per_shard();
        prop_assert_eq!(shards.len(), 4, "one accept counter per worker shard");
        let shard_total: u64 = shards.iter().sum();
        // Shard counters cover the whole run (warmup included) while the
        // client-side establishment counter only covers the measuring
        // window, so the shard total must dominate: a takeover that
        // dropped an accepted connection would break this.
        prop_assert!(
            shard_total >= t.connections_established,
            "shards accepted {} < clients established {} — accepted connections were lost",
            shard_total,
            t.connections_established
        );
        prop_assert!(shard_total > 0, "sharded path must actually accept");
    }

    /// Any generated fault event, scoped to any single replica of a 3-host
    /// fleet, replays bit-identically under every balancer strategy: same
    /// seed + same scoped plan ⇒ identical client metrics, loss/failover
    /// accounting, health-transition log and per-replica reply split. The
    /// scoping is also airtight — replicas the plan does not name get an
    /// empty fault fragment.
    #[test]
    fn any_per_host_plan_replays_bit_identically(
        kind_sel in 0u8..8,
        start_s in 2u64..10,
        dur_s in 1u64..7,
        knob in 0u32..100,
        host in 0usize..3,
        strat_sel in 0u8..3,
        seed in 0u64..10_000,
    ) {
        let plan = FleetFaultPlan::new(
            "generated-scoped",
            vec![HostFault {
                host,
                event: event_from(kind_sel, start_s, dur_s, knob),
            }],
        );
        prop_assert!(plan.validate(3, 1).is_ok(), "generator must emit valid fleet plans");
        for other in (0..3).filter(|&h| h != host) {
            prop_assert!(plan.for_host(other).is_empty(), "fault leaked to host {other}");
        }

        let mk = || {
            let mut cfg = FleetConfig::baseline(3, Strategy::ALL[strat_sel as usize % 3]);
            cfg.num_clients = 45;
            cfg.duration = SimDuration::from_secs(18);
            cfg.warmup = SimDuration::from_secs(3);
            cfg.seed = seed;
            cfg.fleet_plan = Some(plan.clone());
            cfg
        };
        let a = run_fleet(mk());
        let b = run_fleet(mk());
        prop_assert_eq!(
            fleet_digest(&a),
            fleet_digest(&b),
            "same seed + scoped plan must replay identically through the balancer"
        );
        prop_assert!(
            a.metrics.traffic.replies_received > 0,
            "fleet must survive the scoped fault"
        );
    }
}

/// FNV-1a over a digest's `Debug` rendering: a compact fingerprint that
/// pins exact simulator output across refactors.
fn fingerprint(digest: &impl std::fmt::Debug) -> u64 {
    format!("{digest:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One fixed single-server run: the property-test rig stretched to 30 s so
/// a catalog plan's 12–22 s window clears before the horizon.
fn golden_run(arch: ServerArch, mode: AcceptMode, plan: Option<&str>) -> Testbed {
    let mut cfg = cfg_with(FaultPlan::new("none", vec![]), arch, 0x601D);
    cfg.fault_plan = plan.map(|n| FaultPlan::named(n).expect("catalog plan"));
    cfg.accept_mode = mode;
    cfg.duration = SimDuration::from_secs(30);
    run(cfg)
}

/// Exact output of fixed single-server configurations, pinned so that a
/// refactor which claims to change nothing provably changes nothing.
/// Every mismatch is reported at once with its new fingerprint.
#[test]
fn golden_testbed_digests() {
    let event = ServerArch::EventDriven { workers: 2 };
    let threaded = ServerArch::Threaded { pool: 128 };
    let staged = ServerArch::Staged {
        parse_threads: 1,
        send_threads: 2,
    };
    let sharded = ServerArch::EventDriven { workers: 4 };
    let cases: [(&str, ServerArch, AcceptMode, Option<&str>, u64); 7] = [
        (
            "event",
            event,
            AcceptMode::Handoff,
            None,
            0x0149_af32_4cdc_e5d4,
        ),
        (
            "event+never-reads",
            event,
            AcceptMode::Handoff,
            Some("never-reads"),
            0x4ac7_f69c_44f3_f401,
        ),
        (
            "threaded",
            threaded,
            AcceptMode::Handoff,
            None,
            0xbf53_93f3_3446_435a,
        ),
        (
            "threaded+fd-storm",
            threaded,
            AcceptMode::Handoff,
            Some("fd-storm"),
            0x87f9_e2cc_5c0a_03aa,
        ),
        (
            "staged",
            staged,
            AcceptMode::Handoff,
            None,
            0x465e_e9dc_e097_58eb,
        ),
        (
            "staged+outage",
            staged,
            AcceptMode::Handoff,
            Some("outage"),
            0x1da9_eb97_88ba_9ade,
        ),
        (
            "sharded+worker-crash",
            sharded,
            AcceptMode::Sharded,
            Some("worker-crash"),
            0x8ca1_7790_ce09_28ae,
        ),
    ];
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|&(name, arch, mode, plan, want)| {
            let got = fingerprint(&digest(&golden_run(arch, mode, plan)));
            (got != want).then(|| format!("{name}: {got:#018x} (pinned {want:#018x})"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}

/// Exact output of the two fleet shapes the fleet's unit tests exercise:
/// a full host crash with restart, and a rolling restart.
#[test]
fn golden_fleet_digests() {
    let crash = {
        let mut cfg = FleetConfig::baseline(3, Strategy::LeastConn);
        cfg.num_clients = 90;
        cfg.fleet_plan = Some(FleetFaultPlan::new(
            "host-down",
            vec![HostFault {
                host: 0,
                event: FaultEvent {
                    start_ns: 12 * SEC,
                    duration_ns: 8 * SEC,
                    kind: FaultKind::WorkerCrash {
                        fraction: 1.0,
                        restart: true,
                    },
                },
            }],
        ));
        cfg
    };
    let rolling = {
        let mut cfg = FleetConfig::baseline(3, Strategy::LeastConn);
        cfg.num_clients = 90;
        cfg.rolling_restart = Some(serversim::RollingRestart {
            start: SimDuration::from_secs(10),
            stagger: SimDuration::from_secs(6),
            drain_timeout: SimDuration::from_secs(2),
            restart_down: SimDuration::from_secs(1),
        });
        cfg
    };
    let cases = [
        ("host-crash", crash, 0x439e_7f35_f9db_0539),
        ("rolling-restart", rolling, 0x0175_3ebd_db5a_7638),
    ];
    let mismatches: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, cfg, want)| {
            let got = fingerprint(&fleet_digest(&run_fleet(cfg)));
            (got != want).then(|| format!("{name}: {got:#018x} (pinned {want:#018x})"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}
