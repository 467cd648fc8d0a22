//! Spans around the benchmark's calls into each layer.
//!
//! Every traced repetition gets its own trace id, written as the chrome
//! trace `tid`, so one repetition's spans — the benchmark's own and the
//! engine spans a `smooth_profiled` call returns — share one timeline row.

use lms_trace::{chrome_trace_json, now_ns, EventPhase, Recorder, SpanEvent};

#[derive(Debug, Default)]
pub struct Tracer {
    events: Vec<SpanEvent>,
    open: Vec<(&'static str, u64)>,
    trace_id: u32,
}

impl Tracer {
    /// Start the spans of a new repetition (or run phase) under `id`.
    pub fn set_trace_id(&mut self, id: u32) {
        assert!(self.open.is_empty(), "trace id changed inside an open span");
        self.trace_id = id;
    }

    fn push(&mut self, name: &'static str, phase: EventPhase, ts_ns: u64) {
        self.events.push(SpanEvent { name, a: 0, b: 0, ts_ns, phase, tid: self.trace_id });
    }

    pub fn begin(&mut self, name: &'static str) {
        let t = now_ns();
        self.open.push((name, t));
        self.push(name, EventPhase::Begin, t);
    }

    /// Close the innermost span, which must be `name`; returns its
    /// duration in milliseconds.
    pub fn end(&mut self, name: &'static str) -> f64 {
        let t = now_ns();
        let (open, t0) = self.open.pop().expect("end without an open span");
        assert_eq!(open, name, "spans must close innermost first");
        self.push(name, EventPhase::End, t);
        (t - t0) as f64 / 1e6
    }

    /// Run `f` inside span `name`; returns its result and duration in ms.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name);
        let out = f();
        let ms = self.end(name);
        (out, ms)
    }

    /// Append the engine spans of a profiled call, re-tagged with the
    /// current trace id so they nest under the span open around the call.
    pub fn absorb(&mut self, recorder: &Recorder) {
        let id = self.trace_id;
        self.events.extend(recorder.events().iter().map(|ev| SpanEvent { tid: id, ..*ev }));
    }

    pub fn chrome_json(&self) -> String {
        assert!(self.open.is_empty(), "export with open spans");
        chrome_trace_json(&self.events)
    }
}
