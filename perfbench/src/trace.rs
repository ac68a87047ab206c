//! In-memory span recorder and the order statistics the report uses.
//!
//! A span is one timed call into a layer's public function: its name,
//! start and end (nanoseconds since the recorder's epoch), the span
//! open around it when it ran, and the request or batch id it served.
//! Self time is a span's duration minus the time its child spans
//! cover; it is accumulated online, so the per-name totals stay exact
//! even after the retained span list reaches its cap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; later spans still count in the
/// per-name totals.
const MAX_KEPT_SPANS: usize = 200_000;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: u64,
}

/// Per-name totals.
#[derive(Default, Clone, Copy)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    kept: Option<usize>,
    child_ns: u64,
}

/// Records spans from one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    stats: BTreeMap<&'static str, SpanStat>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            stack: Vec::new(),
            stats: BTreeMap::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn keep(&mut self, name: &'static str, start_ns: u64, id: u64) -> Option<usize> {
        if self.spans.len() >= MAX_KEPT_SPANS {
            self.dropped += 1;
            return None;
        }
        let parent = self.stack.last().and_then(|open| open.kept);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    fn close(
        &mut self,
        name: &'static str,
        kept: Option<usize>,
        end_ns: u64,
        dur: u64,
        child: u64,
    ) {
        if let Some(i) = kept {
            self.spans[i].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let stat = self.stats.entry(name).or_default();
        stat.count += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(child);
    }

    /// Open a span; it nests under the span open now.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let start = Instant::now();
        let kept = self.keep(name, self.ns(start), id);
        self.stack.push(Open {
            name,
            start,
            kept,
            child_ns: 0,
        });
    }

    /// Close the innermost open span and return its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = nanos(open.start, end);
        self.close(open.name, open.kept, self.ns(end), dur, open.child_ns);
        dur
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, u64) {
        self.enter(name, id);
        let out = f();
        (out, self.exit())
    }

    /// Record a span timed elsewhere (it has no children).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) -> u64 {
        let dur = nanos(start, end);
        let kept = self.keep(name, self.ns(start), id);
        self.close(name, kept, self.ns(end), dur, 0);
        dur
    }

    /// Totals for `name` (zero if it never ran).
    pub fn stat(&self, name: &str) -> SpanStat {
        self.stats.get(name).copied().unwrap_or_default()
    }

    /// The trace as JSON: per-name totals, then the kept spans as
    /// `[name, start_ns, end_ns, parent index or -1, id]`.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!(
            "{{{header},\"dropped_spans\":{},\"totals\":{{",
            self.dropped
        );
        for (i, (name, s)) in self.stats.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                s.count, s.total_ns, s.self_ns
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| i64::try_from(p).unwrap_or(-1));
            let _ = write!(
                out,
                "{sep}[\"{}\",{},{},{parent},{}]",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Nanoseconds from `start` to `end`, saturating.
pub fn nanos(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// The `q`-quantile of `samples` by the nearest-rank rule (exact: it is
/// one of the samples). Sorts in place; 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Which of a run's windows to keep: the half (rounded up) in which the
/// hypervisor stole the least CPU time, or all of them when any steal
/// reading is missing.
pub fn quiet_half(steal: &[Option<u64>]) -> Vec<bool> {
    let Some(mut sorted) = steal.iter().copied().collect::<Option<Vec<u64>>>() else {
        return vec![true; steal.len()];
    };
    sorted.sort_unstable();
    let Some(&threshold) = sorted.get(sorted.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    steal
        .iter()
        .map(|st| st.is_some_and(|st| st <= threshold))
        .collect()
}
