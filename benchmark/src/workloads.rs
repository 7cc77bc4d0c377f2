//! The live workloads: which static site the servers hold, and how the
//! closed-loop drivers draw their requests from a seed.
//!
//! The site (file sizes) is fixed per workload so that every seed measures
//! the same content; the seed decides the request stream — session lengths,
//! burst shapes and which files are asked for.

use desim::Rng;
use workload::{FileSet, SessionConfig, SessionPlan, SurgeConfig};

/// The live workloads. Both drive the same layers (`httpcore`, `reactor`,
/// `nioserver`, `poolserver`) in opposite proportions, so a change that
/// helps one and costs the other shows up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~1 KB replies, the paper's 6.5-request sessions, a new connection
    /// per session: the accept path, parsing and reactor wakeups dominate.
    ChurnSmall,
    /// ~80 KB mean replies with a Pareto tail on ~500-request sessions:
    /// the write path, user-space copies and completion submit/reap
    /// dominate, and connection set-up is under 1% of replies.
    KeepaliveLarge,
}

/// Same site seed as `experiments::perfbench`, so keepalive-large serves
/// the bytes `repro bench` serves.
const LARGE_SITE_SEED: u64 = 0xBE5C_0001;
const SMALL_SITE_SEED: u64 = 0xBE5C_0002;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ChurnSmall, Workload::KeepaliveLarge];

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnSmall => "churn-small",
            Workload::KeepaliveLarge => "keepalive-large",
        }
    }

    /// The static site this workload serves.
    pub fn files(self) -> FileSet {
        match self {
            Workload::ChurnSmall => FileSet::build(
                &SurgeConfig {
                    num_files: 200,
                    // ln(1024): lognormal body around 1 KB, no Pareto tail.
                    body_mu: 6.93,
                    body_sigma: 0.3,
                    tail_prob: 0.0,
                    correlate_popularity_with_size: false,
                    ..SurgeConfig::default()
                },
                &mut Rng::new(SMALL_SITE_SEED),
            ),
            // The `repro bench` mix: ~78 KB mean per request, 10% Pareto
            // tail capped at 500 KB, popularity independent of size.
            Workload::KeepaliveLarge => FileSet::build(
                &SurgeConfig {
                    num_files: 200,
                    body_mu: 10.8,
                    tail_prob: 0.10,
                    tail_cap: 500_000.0,
                    correlate_popularity_with_size: false,
                    ..SurgeConfig::default()
                },
                &mut Rng::new(LARGE_SITE_SEED),
            ),
        }
    }

    /// Session shape. Think times are ignored by the closed-loop driver.
    pub fn session(self) -> SessionConfig {
        match self {
            Workload::ChurnSmall => SessionConfig::default(),
            Workload::KeepaliveLarge => SessionConfig {
                mean_requests: 500.0,
                ..SessionConfig::default()
            },
        }
    }
}

/// The request stream of one driver thread in one window: every variant of
/// a round gets the same labels, so they all see the same requests.
pub fn stream(seed: u64, label: u64) -> Rng {
    Rng::new(seed).split_labeled(label)
}

/// Stream label of driver `driver` in measured window `round`.
pub fn window_label(round: usize, driver: usize) -> u64 {
    ((round as u64) << 8) | driver as u64
}

/// Stream label of driver `driver` in the warm-up before round `round`.
pub fn warmup_label(round: usize, driver: usize) -> u64 {
    0xA000_0000 | window_label(round, driver)
}

/// The request line a driver sends for a file (what `loadgen` sends).
pub fn request_bytes(file: u32) -> Vec<u8> {
    format!("GET /f/{file} HTTP/1.1\r\nHost: sut\r\n\r\n").into_bytes()
}

/// FNV-1a digest of the first `requests` requests a seed's stream yields,
/// burst boundaries included. Pinned by the tests below, so a change to the
/// workload generators that would silently change the inputs is caught.
pub fn request_digest(w: Workload, seed: u64, requests: usize) -> u64 {
    let files = w.files();
    let session = w.session();
    let mut rng = stream(seed, window_label(0, 0));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    let mut n = 0;
    while n < requests {
        let plan = SessionPlan::generate(&session, &files, &mut rng);
        eat(b"S");
        for burst in &plan.bursts {
            eat(b"B");
            for f in &burst.files {
                eat(&request_bytes(f.0));
                n += 1;
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("sim-paper"), None);
    }

    #[test]
    fn request_digests_are_pinned() {
        assert_eq!(
            request_digest(Workload::ChurnSmall, 1, 2000),
            0xa7c3_400f_0551_46f3
        );
        assert_eq!(
            request_digest(Workload::ChurnSmall, 2, 2000),
            0x0a4e_a37f_7f34_64e4
        );
        assert_eq!(
            request_digest(Workload::KeepaliveLarge, 1, 2000),
            0x9a18_59a8_d642_a326
        );
        assert_eq!(
            request_digest(Workload::KeepaliveLarge, 2, 2000),
            0x9637_350d_1e91_6db1
        );
    }

    #[test]
    fn sites_have_the_documented_shape() {
        let small = Workload::ChurnSmall.files();
        let mean = small.mean_request_bytes();
        assert!((800.0..1400.0).contains(&mean), "churn-small mean {mean}");
        let large = Workload::KeepaliveLarge.files();
        let mean = large.mean_request_bytes();
        assert!(
            (60_000.0..100_000.0).contains(&mean),
            "keepalive-large mean {mean}"
        );
        assert!(large.iter().all(|(_, s)| s <= 500_000));
    }
}
