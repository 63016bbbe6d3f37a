//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public entry point: its name, start
//! and end (nanoseconds since the recorder's epoch), the span that caused
//! it, and the identifier shared by every span of one cell or request.
//! Spans are kept in memory while the run is measured and written out
//! once at the end.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Shared by all spans of one cell, selection job, program or request.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id, for spans whose interval is measured by the
    /// caller and recorded with [`Recorder::record`].
    pub fn next_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span; `f` receives the span's id so the calls it
    /// makes can record it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<u32>,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let id = self.next_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a child of `parent` measured elsewhere (the server-side
    /// simulate time a response reports), placed at the end of the
    /// parent's interval and clipped to it.
    pub fn record_within(&self, name: &'static str, parent: &Span, duration_ns: u64) {
        let duration_ns = duration_ns.min(parent.duration_ns());
        self.record(Span {
            id: self.next_id(),
            parent: Some(parent.id),
            trace: parent.trace,
            name,
            start_ns: parent.end_ns - duration_ns,
            end_ns: parent.end_ns,
        });
    }

    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking layer call")
            .push(span);
    }

    /// Every span recorded so far, ordered by id.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span recorder poisoned by a panicking layer call");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Overlapping children (concurrent calls made
/// on behalf of one parent) are counted once, and a child reaching past
/// its parent's interval only covers the overlapping part.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Summed self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += own[&s.id];
    }
    out
}

/// Summed duration and count of the spans called `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
}

/// One JSON object per line, for the span file written after the run.
pub fn to_jsonl(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id, parent, s.trace, s.name, s.start_ns, s.end_ns, own[&s.id]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 7,
            name: if parent.is_none() { "root" } else { "child" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        let own = self_times(&[span(0, None, 10, 35)]);
        assert_eq!(own[&0], 25);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Root [0, 100): children [10, 40) and [30, 60) overlap on
        // [30, 40), so together they cover [10, 60) = 50 ns; a third child
        // [80, 90) adds 10. Self time is 100 - 60.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 80, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 40);
        assert_eq!((own[&1], own[&2], own[&3]), (30, 30, 10));
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 40);
        assert_eq!(by_name["child"], 70);
    }

    #[test]
    fn nested_and_contained_children() {
        // A child wholly inside another child, and one reaching past the
        // parent's end: only the parent's own interval counts.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 20, 70),
            span(2, Some(0), 30, 40),
            span(3, Some(0), 90, 130),
            span(4, Some(1), 25, 35),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 100 - 50 - 10);
        assert_eq!(own[&1], 50 - 10);
        assert_eq!(own[&4], 10);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let rec = Recorder::new();
        rec.span("root", 1, None, |root| {
            rec.span("child", 1, Some(root), |_| std::hint::black_box(0));
        });
        let outer = span(rec.next_id(), None, 0, 50);
        rec.record(outer.clone());
        rec.record_within("remote", &outer, 80);
        let spans = rec.finish();
        assert_eq!(spans.len(), 4);
        let root = spans
            .iter()
            .find(|s| s.trace == 1 && s.parent.is_none())
            .unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        // A reported duration longer than its parent is clipped to it.
        let remote = spans.iter().find(|s| s.name == "remote").unwrap();
        assert_eq!(remote.parent, Some(outer.id));
        assert_eq!((remote.start_ns, remote.end_ns, remote.trace), (0, 50, 7));
    }
}
