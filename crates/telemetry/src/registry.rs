//! The metric registry: named families of labelled series.
//!
//! Registration takes a short write lock and returns a cheap handle onto
//! shared atomics; re-registering the same `(family, labels)` returns a
//! handle onto the *same* series. The lock is never touched on the
//! recording path.

use crate::metrics::{bucket_bound_us, Counter, Gauge, Histogram, HistogramSnapshot, BUCKET_COUNT};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// What a family holds (fixed at first registration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Log-scale latency histogram (µs).
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Sorted, rendered label key: `a="1",b="x"` (empty for unlabelled).
type LabelKey = String;

struct Family {
    kind: MetricKind,
    help: &'static str,
    series: BTreeMap<LabelKey, Series>,
}

/// A registry of metric families. Cheap to share (`Arc` internally is up
/// to the caller — `Registry` itself is `Sync`).
#[derive(Default)]
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
}

/// Renders labels canonically: sorted by key, `k="v"` comma-joined.
fn label_key(labels: &[(&str, String)]) -> LabelKey {
    let mut pairs: Vec<(&str, &String)> = labels.iter().map(|(k, v)| (*k, v)).collect();
    pairs.sort_unstable();
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Escape per the exposition format; values here are ids/names so
        // this is belt-and-braces.
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn series(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, String)],
        kind: MetricKind,
    ) -> Series {
        let key = label_key(labels);
        let mut families = self.families.write();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric family {name:?} registered with two kinds"
        );
        family
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Series::Counter(Counter::new()),
                MetricKind::Gauge => Series::Gauge(Gauge::new()),
                MetricKind::Histogram => Series::Histogram(Histogram::new()),
            })
            .clone()
    }

    /// Registers (or retrieves) a counter series.
    pub fn counter(&self, name: &str, help: &'static str, labels: &[(&str, String)]) -> Counter {
        match self.series(name, help, labels, MetricKind::Counter) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or retrieves) a gauge series.
    pub fn gauge(&self, name: &str, help: &'static str, labels: &[(&str, String)]) -> Gauge {
        match self.series(name, help, labels, MetricKind::Gauge) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or retrieves) a histogram series (µs observations).
    pub fn histogram(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, String)],
    ) -> Histogram {
        match self.series(name, help, labels, MetricKind::Histogram) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Reads a counter's value without registering, if present.
    pub fn counter_value(&self, name: &str, labels: &[(&str, String)]) -> Option<u64> {
        let families = self.families.read();
        match families.get(name)?.series.get(&label_key(labels))? {
            Series::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Reads a gauge's value without registering, if present.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, String)]) -> Option<i64> {
        let families = self.families.read();
        match families.get(name)?.series.get(&label_key(labels))? {
            Series::Gauge(g) => Some(g.get()),
            _ => None,
        }
    }

    /// Snapshots a histogram without registering, if present.
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, String)],
    ) -> Option<HistogramSnapshot> {
        let families = self.families.read();
        match families.get(name)?.series.get(&label_key(labels))? {
            Series::Histogram(h) => Some(h.snapshot()),
            _ => None,
        }
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format (deterministic: families and series sorted).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.families.read();
        for (name, family) in families.iter() {
            if !family.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", family.help);
            }
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.exposition_name());
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", name, braced(labels, None), c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", name, braced(labels, None), g.get());
                    }
                    Series::Histogram(h) => {
                        let s = h.snapshot();
                        let mut cum = 0u64;
                        for (i, &c) in s.buckets.iter().enumerate() {
                            cum += c;
                            let le = if i == BUCKET_COUNT {
                                "+Inf".to_string()
                            } else {
                                bucket_bound_us(i).to_string()
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                name,
                                braced(labels, Some(&le)),
                                cum
                            );
                        }
                        let _ = writeln!(out, "{}_sum{} {}", name, braced(labels, None), s.sum_us);
                        let _ = writeln!(out, "{}_count{} {}", name, braced(labels, None), s.count);
                    }
                }
            }
        }
        out
    }

    /// Writes [`render`](Self::render) output to `path` (best effort:
    /// errors are returned, not panicked, so a shutdown dump can never
    /// take the cluster down with it).
    pub fn write_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// `{a="1",le="8"}` — merged label set, or empty string for no labels.
fn braced(labels: &LabelKey, le: Option<&str>) -> String {
    match (labels.is_empty(), le) {
        (true, None) => String::new(),
        (true, Some(le)) => format!("{{le=\"{le}\"}}"),
        (false, None) => format!("{{{labels}}}"),
        (false, Some(le)) => format!("{{{labels},le=\"{le}\"}}"),
    }
}

/// Shared handle alias used across the workspace.
pub type SharedRegistry = Arc<Registry>;

#[cfg(test)]
mod tests {
    use super::*;

    fn l(pairs: &[(&'static str, &str)]) -> Vec<(&'static str, String)> {
        pairs.iter().map(|(k, v)| (*k, v.to_string())).collect()
    }

    #[test]
    fn reregistration_shares_the_series() {
        let r = Registry::new();
        let a = r.counter("x_total", "", &l(&[("node", "1")]));
        let b = r.counter("x_total", "", &l(&[("node", "1")]));
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.counter_value("x_total", &l(&[("node", "1")])), Some(2));
        // Different labels are a different series.
        let c = r.counter("x_total", "", &l(&[("node", "2")]));
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        let a = r.gauge("g", "", &l(&[("a", "1"), ("b", "2")]));
        let b = r.gauge("g", "", &l(&[("b", "2"), ("a", "1")]));
        a.set(9);
        assert_eq!(b.get(), 9);
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        let _ = r.counter("m", "", &[]);
        let _ = r.gauge("m", "", &[]);
    }

    #[test]
    fn render_is_deterministic_and_cumulative() {
        let r = Registry::new();
        r.counter("b_total", "things", &[]).add(3);
        r.gauge("a_depth", "", &l(&[("dim", "0")])).set(5);
        let h = r.histogram("lat_us", "latency", &[]);
        h.observe_us(3);
        h.observe_us(100);
        let text = r.render();
        let again = r.render();
        assert_eq!(text, again, "deterministic output");
        // Families sorted: a_depth before b_total before lat_us.
        let ia = text.find("# TYPE a_depth gauge").unwrap();
        let ib = text.find("# TYPE b_total counter").unwrap();
        let ih = text.find("# TYPE lat_us histogram").unwrap();
        assert!(ia < ib && ib < ih);
        assert!(text.contains("a_depth{dim=\"0\"} 5"));
        assert!(text.contains("b_total 3"));
        // Buckets are cumulative and end with the total count.
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_us_sum 103"));
        assert!(text.contains("lat_us_count 2"));
        // The value 3 lands in le=4 and stays counted in every later
        // bucket (cumulative).
        assert!(text.contains("lat_us_bucket{le=\"4\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"128\"} 2"));
    }

    #[test]
    fn file_dump_round_trips() {
        let r = Registry::new();
        r.counter("c_total", "", &[]).inc();
        let dir = std::env::temp_dir().join("bluedove-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.prom");
        r.write_to_file(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, r.render());
    }
}
