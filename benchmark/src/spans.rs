//! In-memory spans recorded by the benchmark around every call it
//! makes into a layer. Spans live in memory until the run ends and are
//! then written out as JSON lines; nothing is recorded (and no clock is
//! read) while tracing is off.
//!
//! The tracer is thread-local: the benchmark's own code is
//! single-threaded, and the worker threads of the measured program
//! never see it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition this span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        origin: Instant::now(),
        rep: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off; `rep` labels the spans recorded from now
/// on.
pub fn set_enabled(enabled: bool, rep: u32) {
    TRACER.with_borrow_mut(|t| {
        t.enabled = enabled;
        t.rep = rep;
    });
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    TRACER.with_borrow_mut(|t| {
        if !t.enabled {
            return Guard(None);
        }
        let idx = t.spans.len();
        let now = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: t.open.last().copied(),
            rep: t.rep,
        });
        t.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        TRACER.with_borrow_mut(|t| {
            t.spans[idx].end_ns = t.origin.elapsed().as_nanos() as u64;
            // Guards drop in reverse order of creation, so the span
            // being closed is the innermost open one.
            t.open.retain(|&o| o != idx);
        });
    }
}

/// A copy of every span recorded so far.
pub fn peek() -> Vec<Span> {
    TRACER.with_borrow(|t| t.spans.clone())
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    TRACER.with_borrow_mut(|t| std::mem::take(&mut t.spans))
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total duration per span name, in seconds.
pub fn seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 * 1e-9;
    }
    out
}

/// Renders spans as JSON lines (`id`, `name`, `start_ns`, `end_ns`,
/// `self_ns`, `parent`, `rep`, plus the workload they came from).
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, (s, own)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let line = Json::obj([
            ("workload", Json::str(workload)),
            ("id", Json::Num(id as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("self_ns", Json::Num(own as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("rep", Json::Num(f64::from(s.rep))),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // rep [0,100] > run [10,90] > {warmup [10,30], measure [30,85]};
        // rep also has report [90,98].
        let spans = vec![
            sp("rep", 0, 100, None),
            sp("run", 10, 90, Some(0)),
            sp("warmup", 10, 30, Some(1)),
            sp("measure", 30, 85, Some(1)),
            sp("report", 90, 98, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![12, 5, 20, 55, 8]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        assert!((seconds_by_name(&spans)["run"] - 80e-9).abs() < 1e-18);
    }

    #[test]
    fn guards_nest_and_respect_the_switch() {
        set_enabled(false, 0);
        drop(span("ignored"));
        assert!(take().is_empty());

        set_enabled(true, 7);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        }
        set_enabled(false, 0);
        let spans = take();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.rep)).collect();
        assert_eq!(
            shape,
            vec![
                ("outer", None, 7),
                ("inner", Some(0), 7),
                ("sibling", Some(0), 7)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let jsonl = to_jsonl("w", &spans);
        assert_eq!(jsonl.lines().count(), 3);
        assert!(Json::parse(jsonl.lines().next().unwrap()).is_ok());
    }
}
