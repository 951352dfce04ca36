//! The traced run's span buffer and its Chrome trace-event export.
//!
//! Spans are recorded around calls into each layer's public API — one
//! per cell, per phase, and per `step()`/`replay()` call — and kept in
//! memory until the run ends. Per-block calls are not spans: the
//! [`Meter`] folds them into their enclosing span as a count and a busy
//! time. Leaf spans of the three timed layer kinds also accumulate their
//! *self* time (duration minus the metered engine and memory time inside
//! them), which is what the coverage metric sums.

use crate::json;
use crate::timed::{Meter, Reading, TimedEngine, TimedMemory};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tnpu_memprot::functional::FunctionalMemory;
use tnpu_memprot::ProtectionEngine;

/// Lowering a tile trace (npu tiler): its self time is its duration.
pub const TRACE_BUILD: &str = "npu.trace_build";
/// Replaying a trace (npu scheduler): self time excludes engine calls.
pub const REPLAY: &str = "npu.replay";
/// A call into a functional session (`SecureRunner`, `SteppedSession`):
/// self time excludes engine and memory calls.
pub const RUNNER: &str = "core.runner";

#[derive(Debug)]
struct Span {
    cat: &'static str,
    name: String,
    start: Duration,
    dur: Duration,
    inside: Reading,
}

/// How a replica is observed — its spans, its sums, and the wrappers
/// around the memories and engines it builds. The traced run passes a
/// [`Tracer`], the untraced replica of the same code [`Untraced`], so
/// both run the identical code path and differ only in the observation.
pub trait Probe {
    /// Run `f` inside a span named by `name` (only called when recording);
    /// returns `f`'s result and the span's duration (zero when not
    /// recording).
    fn span<R>(
        &mut self,
        cat: &'static str,
        name: impl FnOnce() -> String,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Duration);

    /// Add `value` to the accumulator `key` (ignored when not recording).
    fn add(&mut self, key: &str, value: f64);

    /// The functional memory a replica should compute on: `mem` itself,
    /// or `mem` behind a [`TimedMemory`] when recording.
    fn memory(&self, mem: Box<dyn FunctionalMemory>) -> Box<dyn FunctionalMemory>;

    /// The cost engine a replica should drive: `engine` itself, or
    /// `engine` behind a [`TimedEngine`] when recording.
    fn engine(&self, engine: Box<dyn ProtectionEngine>) -> Box<dyn ProtectionEngine>;
}

/// The no-op [`Probe`] of an untraced replica.
#[derive(Debug, Default)]
pub struct Untraced;

impl Probe for Untraced {
    fn span<R>(
        &mut self,
        _cat: &'static str,
        _name: impl FnOnce() -> String,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Duration) {
        (f(self), Duration::ZERO)
    }

    fn add(&mut self, _key: &str, _value: f64) {}

    fn memory(&self, mem: Box<dyn FunctionalMemory>) -> Box<dyn FunctionalMemory> {
        mem
    }

    fn engine(&self, engine: Box<dyn ProtectionEngine>) -> Box<dyn ProtectionEngine> {
        engine
    }
}

/// In-memory span buffer plus named accumulators for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    meter: Arc<Meter>,
    spans: Vec<Span>,
    sums: BTreeMap<String, f64>,
}

impl Probe for Tracer {
    /// Besides recording the span, adds its duration to the `<cat>_s`
    /// sum; spans of the layer categories ([`TRACE_BUILD`], [`REPLAY`],
    /// [`RUNNER`]) also add their self time to `<cat>.self_s`.
    fn span<R>(
        &mut self,
        cat: &'static str,
        name: impl FnOnce() -> String,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Duration) {
        let at = self.meter.read();
        let start = Instant::now();
        let r = f(self);
        let dur = start.elapsed();
        let inside = self.meter.read().since(&at);
        self.add(&format!("{cat}_s"), dur.as_secs_f64());
        let metered = match cat {
            TRACE_BUILD => Some(0),
            REPLAY => Some(inside.engine_total().ns),
            RUNNER => Some(inside.engine_total().ns + inside.memory_total().ns),
            _ => None,
        };
        if let Some(ns) = metered {
            let self_s = dur.as_secs_f64() - ns as f64 * 1e-9;
            self.add(&format!("{cat}.self_s"), self_s);
        }
        self.spans.push(Span {
            cat,
            name: name(),
            start: start - self.origin,
            dur,
            inside,
        });
        (r, dur)
    }

    fn add(&mut self, key: &str, value: f64) {
        *self.sums.entry(key.to_owned()).or_default() += value;
    }

    fn memory(&self, mem: Box<dyn FunctionalMemory>) -> Box<dyn FunctionalMemory> {
        Box::new(TimedMemory::new(mem, self.meter()))
    }

    fn engine(&self, engine: Box<dyn ProtectionEngine>) -> Box<dyn ProtectionEngine> {
        Box::new(TimedEngine::new(engine, self.meter()))
    }
}

impl Tracer {
    /// An empty buffer whose wrappers count into a fresh meter.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            meter: Meter::new(),
            spans: Vec::new(),
            sums: BTreeMap::new(),
        }
    }

    /// The meter to hand to `TimedEngine`/`TimedMemory` wrappers.
    #[must_use]
    pub fn meter(&self) -> Arc<Meter> {
        Arc::clone(&self.meter)
    }

    /// The accumulator `key` (0 if never added to).
    #[must_use]
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Everything the wrappers counted so far.
    #[must_use]
    pub fn reading(&self) -> Reading {
        self.meter.read()
    }

    /// The spans as a Chrome trace-event JSON document (loadable in
    /// Perfetto or `chrome://tracing`): one complete (`"X"`) event per
    /// span on a single thread, with the metered calls folded in as args.
    #[must_use]
    pub fn chrome_json(&self, process: &str) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut events = vec![json::Object::new()
            .str("name", "process_name")
            .str("ph", "M")
            .raw("pid", "1")
            .raw("tid", "1")
            .raw("args", json::Object::new().str("name", process).finish())
            .finish()];
        for s in &self.spans {
            let engine = s.inside.engine_total();
            let reads = s.inside.reads_total().calls;
            let writes = s.inside.memory_total().calls - reads;
            let mut args = json::Object::new();
            if engine.calls > 0 {
                args = args
                    .raw("engine_calls", engine.calls.to_string())
                    .raw("engine_blocks", engine.blocks.to_string())
                    .num("engine_busy_us", engine.ns as f64 / 1e3);
            }
            if reads + writes > 0 {
                args = args
                    .raw("mem_reads", reads.to_string())
                    .raw("mem_writes", writes.to_string())
                    .num("mem_busy_us", s.inside.memory_total().ns as f64 / 1e3);
            }
            events.push(
                json::Object::new()
                    .str("name", &s.name)
                    .str("cat", s.cat)
                    .str("ph", "X")
                    .num("ts", us(s.start))
                    .num("dur", us(s.dur))
                    .raw("pid", "1")
                    .raw("tid", "1")
                    .raw("args", args.finish())
                    .finish(),
            );
        }
        json::Object::new()
            .raw("traceEvents", json::array(&events))
            .str("displayTimeUnit", "ms")
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_attribute_self_time() {
        let mut t = Tracer::new();
        let (v, outer) = t.span(
            "cell",
            || "outer".into(),
            |t| {
                let (x, _) = t.span(TRACE_BUILD, || "build".into(), |_| 2);
                x + 1
            },
        );
        assert_eq!(v, 3);
        assert!(t.sum("npu.trace_build.self_s") > 0.0);
        assert!(t.sum("npu.trace_build.self_s") <= outer.as_secs_f64());
        assert_eq!(t.sum("cell_s"), outer.as_secs_f64());
        assert_eq!(
            t.sum("cell.self_s"),
            0.0,
            "container spans have no self sum"
        );
        let (w, d) = Untraced.span("cell", || unreachable!(), |_| 5);
        assert_eq!((w, d), (5, Duration::ZERO));
        let doc = t.chrome_json("test");
        assert!(doc.starts_with("{\"traceEvents\": ["));
        assert!(doc.contains("\"name\": \"build\", \"cat\": \"npu.trace_build\", \"ph\": \"X\""));
        assert!(doc.contains("\"name\": \"outer\""));
        assert!(doc.ends_with("\"displayTimeUnit\": \"ms\"}"));
    }
}
