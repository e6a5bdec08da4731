//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans live only in the benchmark (the program under test is not
//! instrumented): each call into a crate's public function is timed and
//! filed under a `layer.call` name, and the per-layer metrics are
//! reductions over those samples.  A traced run prints one summary line
//! per span name when it ends.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Span durations in nanoseconds, grouped by span name.
#[derive(Debug, Default)]
pub struct Spans {
    by_name: BTreeMap<String, Vec<f64>>,
}

impl Spans {
    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_secs_f64() * 1.0e9);
        out
    }

    /// Files one span of `ns` nanoseconds under `name`.
    pub fn record(&mut self, name: &str, ns: f64) {
        self.by_name.entry(name.to_owned()).or_default().push(ns);
    }

    /// Every span recorded under `name`, in recording order.
    #[must_use]
    pub fn samples(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every span name with its samples, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.by_name.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Median span of `name` in nanoseconds (0 when none was recorded).
    #[must_use]
    pub fn median(&self, name: &str) -> f64 {
        stats::median(self.samples(name)).unwrap_or(0.0)
    }
}
