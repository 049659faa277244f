//! The benchmark's own in-memory spans: one record per layer boundary the
//! benchmark can see from outside, kept in memory and written out when the
//! traced run ends. Spans inside the program are a later change.

use std::collections::BTreeMap;
use std::io::Write;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Spans kept per run; later requests only count towards the budget.
const MAX_SPANS: usize = 60_000;

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    /// Self time per span name over every request, kept or not.
    self_ns: BTreeMap<&'static str, u64>,
    /// Σ root durations.
    total_ns: u64,
}

/// The parts of one request: the root and its direct children as
/// `(name, duration)`; children are laid end to end from the root's start,
/// so a child that would run past the root's end shows as a budget gap.
pub struct RequestParts<'a> {
    pub request: u64,
    pub root: &'static str,
    pub start_ns: u64,
    pub total_ns: u64,
    pub children: &'a [(&'static str, u64)],
}

impl SpanLog {
    pub fn record(&mut self, parts: &RequestParts) {
        let covered: u64 = parts.children.iter().map(|c| c.1).sum();
        *self.self_ns.entry(parts.root).or_default() += parts.total_ns.saturating_sub(covered);
        for (name, ns) in parts.children {
            *self.self_ns.entry(name).or_default() += ns;
        }
        self.total_ns += parts.total_ns;
        if self.spans.len() + 1 + parts.children.len() > MAX_SPANS {
            return;
        }
        let root = self.spans.len();
        self.spans.push(Span {
            name: parts.root,
            request: parts.request,
            start_ns: parts.start_ns,
            end_ns: parts.start_ns + parts.total_ns,
            parent: None,
        });
        let mut at = parts.start_ns;
        for (name, ns) in parts.children {
            self.spans.push(Span {
                name,
                request: parts.request,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(root),
            });
            at += ns;
        }
    }

    /// Self time of `name` as a share of all root time.
    pub fn share(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0);
        ns as f64 / self.total_ns.max(1) as f64
    }

    /// |Σ self times − Σ root durations| ÷ Σ root durations: zero when the
    /// parts of every request add up to what the client waited.
    pub fn gap_share(&self) -> f64 {
        let parts: u64 = self.self_ns.values().sum();
        parts.abs_diff(self.total_ns) as f64 / self.total_ns.max(1) as f64
    }

    /// Write the kept spans as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{comma}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_that_add_up_leave_no_gap() {
        let mut log = SpanLog::default();
        log.record(&RequestParts {
            request: 1,
            root: "client.request",
            start_ns: 100,
            total_ns: 1000,
            children: &[("serve.router.submit", 100), ("vm.run", 700)],
        });
        assert_eq!(log.gap_share(), 0.0);
        assert!((log.share("client.request") - 0.2).abs() < 1e-12);
        assert!((log.share("vm.run") - 0.7).abs() < 1e-12);
        assert_eq!(log.share("absent"), 0.0);
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[2].parent, Some(0));
        assert_eq!((log.spans[2].start_ns, log.spans[2].end_ns), (200, 900));
    }

    #[test]
    fn overlapping_parts_show_as_a_gap() {
        let mut log = SpanLog::default();
        // The children claim 1100 ns of a 1000 ns request.
        log.record(&RequestParts {
            request: 1,
            root: "client.request",
            start_ns: 0,
            total_ns: 1000,
            children: &[("serve.router.submit", 300), ("vm.run", 800)],
        });
        assert!((log.gap_share() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn the_file_parses_back() {
        let mut log = SpanLog::default();
        for request in 0..3 {
            log.record(&RequestParts {
                request,
                root: "client.request",
                start_ns: request * 10,
                total_ns: 10,
                children: &[("vm.run", 8)],
            });
        }
        let path = crate::out_dir().join(format!("spans_test_{}.json", std::process::id()));
        log.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let parsed = nimble_obs::json::parse(&text).unwrap();
        let spans = parsed.as_arr().unwrap();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("vm.run"));
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(
            spans[0].get("parent"),
            Some(&nimble_obs::json::JsonValue::Null)
        );
    }
}
