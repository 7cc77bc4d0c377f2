//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A live request's spans nest `session` → `connect`, `burst` → `head`,
//! `body`; set-up and the simulator sweep get spans of their own. Spans stay
//! in memory and are written out when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One timed interval. `trace` is shared by every span of one session (or
/// one set-up step); `req` by the spans of one request, `NO_REQ` elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace: u64,
    pub req: u32,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_REQ: u32 = u32::MAX;

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds of `t` since the run's epoch.
pub fn ns(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// The live layers, parent first, with their child layers. Children never
/// overlap inside their parent, so self time is the parent's total minus
/// its children's.
pub const LIVE_LAYERS: [(&str, &[&str]); 5] = [
    ("session", &["connect", "burst"]),
    ("connect", &[]),
    ("burst", &["head", "body"]),
    ("head", &[]),
    ("body", &[]),
];

/// Total self time per live layer, in nanoseconds, in `LIVE_LAYERS` order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let total = |layer: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::dur_ns)
            .sum()
    };
    LIVE_LAYERS
        .iter()
        .map(|&(layer, children)| {
            let own = total(layer);
            let kids: u64 = children.iter().map(|c| total(c)).sum();
            (layer, own.saturating_sub(kids))
        })
        .collect()
}

/// Write spans as tab-separated lines under a header.
pub fn write_tsv<W: Write>(out: &mut W, groups: &[(&str, &[Span])]) -> io::Result<()> {
    writeln!(out, "group\ttrace\treq\tlayer\tstart_ns\tend_ns")?;
    for (group, spans) in groups {
        for s in spans.iter() {
            let req = if s.req == NO_REQ {
                "-".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                out,
                "{group}\t{}\t{req}\t{}\t{}\t{}",
                s.trace, s.layer, s.start_ns, s.end_ns
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            req: NO_REQ,
            layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("session", 0, 100),
            span("connect", 0, 10),
            span("burst", 20, 90),
            span("head", 25, 60),
            span("body", 60, 85),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], ("session", 20));
        assert_eq!(st[1], ("connect", 10));
        assert_eq!(st[2], ("burst", 10));
        assert_eq!(st[3], ("head", 35));
        assert_eq!(st[4], ("body", 25));
    }

    #[test]
    fn tsv_has_one_line_per_span() {
        let spans = [span("session", 0, 5), span("connect", 1, 2)];
        let mut out = Vec::new();
        write_tsv(&mut out, &[("nio", &spans)]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("nio\t1\t-\tconnect\t1\t2"));
    }
}
