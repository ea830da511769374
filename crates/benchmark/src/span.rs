//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files only, around the calls
//! into each layer (`build` / `run` / `verify`) and around the callbacks
//! the layers call back into (`handler`, explorer `factory`). Spans
//! inside the runtime are the later event-spine change, not this one.
//!
//! A [`Tracer`] is a cheap handle: switched off it holds nothing and
//! every method is a branch on `None`, so the untraced run — the only
//! one end-to-end metrics are ever taken from — pays for no clock read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use crate::json::Json;

/// Callback spans kept individually per enclosing span. A keep-alive
/// rep calls the handler 12 000 times; every call is *timed* and counted
/// towards its parent's child time, but only the first few are kept as
/// spans of their own so `trace.json` stays small enough to open.
pub const CALLBACK_SPANS_KEPT: u64 = 64;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The repetition this span belongs to: spans of one rep share it.
    pub rep: Option<u64>,
    /// Time covered by child spans and callbacks, kept or not.
    pub children_ns: u64,
    /// Callbacks made while this span was the innermost open one.
    pub callbacks: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// A layer's self time: its span's duration minus the part of that
    /// interval its children cover.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.children_ns)
    }
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: Option<u64>,
    /// Per callback name: `(calls, total ns)` over the whole recording.
    callback_totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Handle to the recorder; `Tracer::off()` records nothing.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    pub fn on() -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(Recorder {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                rep: None,
                callback_totals: BTreeMap::new(),
            }))),
        }
    }

    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span under the innermost open one; it closes when the
    /// guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        if let Some(rec) = &self.inner {
            let mut r = rec.borrow_mut();
            let start_ns = r.now_ns();
            let span = Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: r.open.last().copied(),
                rep: r.rep,
                children_ns: 0,
                callbacks: 0,
            };
            let idx = r.spans.len();
            r.spans.push(span);
            r.open.push(idx);
        }
        SpanGuard {
            tracer: self.clone(),
            ends_rep: false,
        }
    }

    /// Opens the `rep` span; every span and callback inside carries
    /// `rep` as its shared identifier.
    pub fn rep_span(&self, rep: u64) -> SpanGuard {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().rep = Some(rep);
        }
        let mut guard = self.span("rep");
        guard.ends_rep = true;
        guard
    }

    /// Times a callback a layer makes into benchmark-supplied code
    /// (`handler`, explorer `factory`). Switched off, this is a plain
    /// call.
    pub fn callback<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(rec) = &self.inner else {
            return f();
        };
        let start_ns = rec.borrow().now_ns();
        let out = f();
        let mut r = rec.borrow_mut();
        let end_ns = r.now_ns();
        let dur = end_ns - start_ns;
        let totals = r.callback_totals.entry(name).or_insert((0, 0));
        totals.0 += 1;
        totals.1 += dur;
        let parent = r.open.last().copied();
        let mut keep = true;
        if let Some(p) = parent {
            let ps = &mut r.spans[p];
            ps.children_ns += dur;
            ps.callbacks += 1;
            keep = ps.callbacks <= CALLBACK_SPANS_KEPT;
        }
        if keep {
            let rep = r.rep;
            r.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                rep,
                children_ns: 0,
                callbacks: 0,
            });
        }
        out
    }

    fn close_innermost(&self, ends_rep: bool) {
        if let Some(rec) = &self.inner {
            let mut r = rec.borrow_mut();
            let now = r.now_ns();
            if let Some(idx) = r.open.pop() {
                r.spans[idx].end_ns = now;
                let dur = r.spans[idx].duration_ns();
                if let Some(p) = r.spans[idx].parent {
                    r.spans[p].children_ns += dur;
                }
            }
            if ends_rep {
                r.rep = None;
            }
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|rec| rec.borrow().spans.clone())
            .unwrap_or_default()
    }

    /// `(calls, total ns)` spent in callbacks of this name.
    pub fn callback_total(&self, name: &str) -> (u64, u64) {
        self.inner
            .as_ref()
            .and_then(|rec| rec.borrow().callback_totals.get(name).copied())
            .unwrap_or((0, 0))
    }

    /// Summed duration of every span with this name.
    pub fn total_ns_of(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |rec| {
            let spans = &rec.borrow().spans;
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration_ns)
                .sum()
        })
    }

    /// The recording in Chrome trace-event format (`chrome://tracing`,
    /// Perfetto): complete events (`"ph": "X"`), microsecond timestamps,
    /// with each span's id, parent id, rep and self time under `args`.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("id".to_owned(), Json::Num(id as f64)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("self_us".to_owned(), Json::Num(s.self_ns() as f64 / 1e3)),
                ];
                if let Some(rep) = s.rep {
                    args.push(("rep".to_owned(), Json::Num(rep as f64)));
                }
                if s.callbacks > 0 {
                    args.push(("callbacks".to_owned(), Json::Num(s.callbacks as f64)));
                }
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Closes its span on drop.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    tracer: Tracer,
    ends_rep: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.tracer.close_innermost(self.ends_rep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn off_records_nothing_and_still_runs_callbacks() {
        let t = Tracer::off();
        let _g = t.span("run");
        assert_eq!(t.callback("handler", || 7), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.callback_total("handler"), (0, 0));
    }

    #[test]
    fn parents_reps_and_self_time() {
        let t = Tracer::on();
        {
            let _w = t.span("workload");
            let _r = t.rep_span(3);
            {
                let _b = t.span("build");
                spin(200_000);
            }
            {
                let _run = t.span("run");
                spin(100_000);
                t.callback("handler", || spin(300_000));
                t.callback("handler", || spin(300_000));
            }
        }
        let spans = t.spans();
        let by_name = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        let (w, r, b, run) = (
            by_name("workload"),
            by_name("rep"),
            by_name("build"),
            by_name("run"),
        );
        assert_eq!(spans[w].parent, None);
        assert_eq!(spans[r].parent, Some(w));
        assert_eq!(spans[b].parent, Some(r));
        assert_eq!(spans[run].parent, Some(r));
        let handlers: Vec<&Span> = spans.iter().filter(|s| s.name == "handler").collect();
        assert_eq!(handlers.len(), 2);
        assert!(handlers
            .iter()
            .all(|h| h.parent == Some(run) && h.rep == Some(3)));
        assert_eq!(spans[w].rep, None);
        assert_eq!(spans[b].rep, Some(3));

        // Self time = duration − children: `run` spun 100 µs itself and
        // 600 µs in callbacks; `rep` did nothing but its children.
        let run_span = &spans[run];
        assert_eq!(run_span.callbacks, 2);
        assert!(run_span.children_ns >= 600_000);
        assert_eq!(
            run_span.self_ns(),
            run_span.duration_ns() - run_span.children_ns
        );
        assert!(run_span.self_ns() >= 100_000 && run_span.self_ns() < run_span.duration_ns() / 2);
        assert!(spans[r].self_ns() < spans[r].duration_ns() / 10);
        let (calls, ns) = t.callback_total("handler");
        assert_eq!(calls, 2);
        assert!(ns >= 600_000);
    }

    #[test]
    fn callbacks_beyond_the_cap_are_timed_but_not_kept() {
        let t = Tracer::on();
        {
            let _run = t.span("run");
            for _ in 0..CALLBACK_SPANS_KEPT + 10 {
                t.callback("factory", || ());
            }
        }
        let spans = t.spans();
        let kept = spans.iter().filter(|s| s.name == "factory").count() as u64;
        assert_eq!(kept, CALLBACK_SPANS_KEPT);
        assert_eq!(spans[0].callbacks, CALLBACK_SPANS_KEPT + 10);
        assert_eq!(t.callback_total("factory").0, CALLBACK_SPANS_KEPT + 10);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let t = Tracer::on();
        {
            let _w = t.span("workload");
            let _r = t.rep_span(0);
        }
        let doc = t.chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("rep").unwrap().as_f64(), Some(0.0));
        assert_eq!(crate::json::parse(&doc.render()).unwrap(), doc);
    }
}
