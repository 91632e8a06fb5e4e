//! The sim-plane metrics registry: named counters, gauges, and
//! histograms with a canonical (sorted) JSON export.

use serde::{Deserialize, Error, Serialize, Value};

use crate::histogram::Histogram;

/// A registry of deterministic, sim-plane metrics.
///
/// Names are hierarchical slash-paths (`cell-0/sched/placed`,
/// `cell-0/sim/pop_wheel`). The registry is populated at collection time
/// (end of run) from the subsystems' inline counters, so nothing here
/// runs on the hot path. Export sorts every section by name — two
/// registries with the same contents serialize to the same bytes
/// regardless of insertion order, which is what makes the metrics file
/// byte-comparable across thread counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter, creating it at 0 first if absent.
    pub fn counter(&mut self, name: impl Into<String>, delta: u64) {
        let name = name.into();
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Sets a gauge to an instantaneous value (last write wins).
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name, value)),
        }
    }

    /// Merges a histogram into the named slot (bucket-wise add when the
    /// name already exists).
    pub fn histogram(&mut self, name: impl Into<String>, h: &Histogram) {
        let name = name.into();
        match self.histograms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, existing)) => existing.merge(h),
            None => self.histograms.push((name, h.clone())),
        }
    }

    /// The value of a counter, if present.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The named histogram, if present.
    #[cfg(test)]
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All counters, sorted by name.
    pub fn counters_sorted(&self) -> Vec<(&str, u64)> {
        let mut out: Vec<(&str, u64)> = self
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the other's value, histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Metrics) {
        for (n, v) in &other.counters {
            self.counter(n.clone(), *v);
        }
        for (n, v) in &other.gauges {
            self.gauge(n.clone(), *v);
        }
        for (n, h) in &other.histograms {
            self.histogram(n.clone(), h);
        }
    }
}

impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        let mut counters: Vec<_> = self.counters.clone();
        counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<_> = self.gauges.clone();
        gauges.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<_> = self.histograms.clone();
        histograms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Value::Object(vec![
            (
                "counters".to_string(),
                Value::Object(
                    counters
                        .into_iter()
                        .map(|(n, v)| (n, Value::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Value::Object(
                    gauges
                        .into_iter()
                        .map(|(n, v)| (n, Value::Num(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Value::Object(
                    histograms
                        .into_iter()
                        .map(|(n, h)| (n, h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for Metrics {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut m = Metrics::new();
        if let Value::Object(pairs) = v.get_field("counters") {
            for (n, val) in pairs {
                m.counters.push((
                    n.clone(),
                    u64::from_value(val).map_err(|e| e.context("Metrics.counters"))?,
                ));
            }
        }
        if let Value::Object(pairs) = v.get_field("gauges") {
            for (n, val) in pairs {
                m.gauges.push((
                    n.clone(),
                    f64::from_value(val).map_err(|e| e.context("Metrics.gauges"))?,
                ));
            }
        }
        if let Value::Object(pairs) = v.get_field("histograms") {
            for (n, val) in pairs {
                m.histograms.push((
                    n.clone(),
                    Histogram::from_value(val).map_err(|e| e.context("Metrics.histograms"))?,
                ));
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_export_sorted() {
        let mut m = Metrics::new();
        m.counter("z/last", 1);
        m.counter("a/first", 2);
        m.counter("z/last", 3);
        assert_eq!(m.counter_value("z/last"), Some(4));
        let v = m.to_value();
        if let Value::Object(pairs) = v.get_field("counters") {
            let names: Vec<_> = pairs.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["a/first", "z/last"]);
        } else {
            panic!("counters should be an object");
        }
    }

    #[test]
    fn export_bytes_are_insertion_order_independent() {
        let mut a = Metrics::new();
        a.counter("x", 1);
        a.counter("y", 2);
        let mut b = Metrics::new();
        b.counter("y", 2);
        b.counter("x", 1);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut h = Histogram::new();
        h.record(4);
        let mut a = Metrics::new();
        a.counter("c", 1);
        a.histogram("h", &h);
        let mut b = Metrics::new();
        b.counter("c", 2);
        b.histogram("h", &h);
        b.gauge("g", 0.5);
        a.merge(&b);
        assert_eq!(a.counter_value("c"), Some(3));
        assert_eq!(a.histogram_value("h").unwrap().count(), 2);
    }

    #[test]
    fn roundtrips_through_json() {
        let mut h = Histogram::new();
        h.record(7);
        let mut m = Metrics::new();
        m.counter("events", 10);
        m.gauge("utilisation", 0.75);
        m.histogram("depth", &h);
        let text = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}
