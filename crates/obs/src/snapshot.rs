//! The metrics export surface: a point-in-time snapshot of every counter,
//! gauge and histogram, with the Prometheus-text renderer and a delta
//! helper for rate computation.

/// A monotonically increasing counter sample. Names may carry Prometheus
/// labels inline (`table_log_bytes{relation="account"}`); the renderers
/// keep the label block intact and sanitize only the name part.
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    /// Metric name, optionally with a `{label="value",...}` suffix.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// An instantaneous gauge sample (queue depth, utilization, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct Gauge {
    /// Metric name, optionally with a `{label="value",...}` suffix.
    pub name: String,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// Summary of one latency histogram: count, sum and selected percentiles,
/// all in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Metric name (e.g. `commit_lock_ns`).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values in nanoseconds.
    pub sum_ns: u64,
    /// 50th percentile (median), nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Maximum recorded value, nanoseconds.
    pub max_ns: u64,
}

impl HistogramSummary {
    /// Summarizes a histogram under `name`.
    pub fn of(name: impl Into<String>, h: &crate::histogram::Histogram) -> Self {
        Self {
            name: name.into(),
            count: h.count(),
            sum_ns: h.sum(),
            p50_ns: h.percentile(0.50),
            p90_ns: h.percentile(0.90),
            p99_ns: h.percentile(0.99),
            p999_ns: h.percentile(0.999),
            max_ns: h.max(),
        }
    }
}

/// A point-in-time snapshot of every metric a database instance exports —
/// the return value of `ReactDB::metrics()`. Diffable
/// ([`MetricsSnapshot::delta`]) and renderable as Prometheus text.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Microseconds the instance has been up at snapshot time.
    pub uptime_us: u64,
    /// All counters, in stable order.
    pub counters: Vec<Counter>,
    /// All gauges, in stable order.
    pub gauges: Vec<Gauge>,
    /// All histogram summaries, in stable order.
    pub histograms: Vec<HistogramSummary>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram summary by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Counter and gauge names gain a `reactdb_` prefix; histograms render
    /// as summaries with `quantile` labels plus `_sum`/`_count` series.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE reactdb_uptime_us counter\n");
        out.push_str(&format!("reactdb_uptime_us {}\n", self.uptime_us));
        for c in &self.counters {
            let (name, labels) = split_labels(&c.name);
            let name = sanitize(name);
            out.push_str(&format!("# TYPE reactdb_{name} counter\n"));
            out.push_str(&format!("reactdb_{name}{labels} {}\n", c.value));
        }
        for g in &self.gauges {
            let (name, labels) = split_labels(&g.name);
            let name = sanitize(name);
            out.push_str(&format!("# TYPE reactdb_{name} gauge\n"));
            out.push_str(&format!("reactdb_{name}{labels} {}\n", g.value));
        }
        for h in &self.histograms {
            let name = sanitize(&h.name);
            out.push_str(&format!("# TYPE reactdb_{name} summary\n"));
            for (q, v) in [
                ("0.5", h.p50_ns),
                ("0.9", h.p90_ns),
                ("0.99", h.p99_ns),
                ("0.999", h.p999_ns),
            ] {
                out.push_str(&format!("reactdb_{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("reactdb_{name}_max {}\n", h.max_ns));
            out.push_str(&format!("reactdb_{name}_sum {}\n", h.sum_ns));
            out.push_str(&format!("reactdb_{name}_count {}\n", h.count));
        }
        out
    }

    /// The change from `earlier` to `self`: counters, histogram counts and
    /// sums subtract (saturating, so a restarted instance yields zeros
    /// rather than wrapping); gauges, percentiles and maxima keep this
    /// snapshot's instantaneous values. Metrics absent from `earlier`
    /// (e.g. a table created in between) diff against zero.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_us: self.uptime_us.saturating_sub(earlier.uptime_us),
            counters: self
                .counters
                .iter()
                .map(|c| Counter {
                    name: c.name.clone(),
                    value: c
                        .value
                        .saturating_sub(earlier.counter(&c.name).unwrap_or(0)),
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|h| {
                    let prev = earlier.histogram(&h.name);
                    HistogramSummary {
                        name: h.name.clone(),
                        count: h.count.saturating_sub(prev.map_or(0, |p| p.count)),
                        sum_ns: h.sum_ns.saturating_sub(prev.map_or(0, |p| p.sum_ns)),
                        ..h.clone()
                    }
                })
                .collect(),
        }
    }
}

/// Splits an inline label block off a metric name: `a{b="c"}` becomes
/// `("a", "{b=\"c\"}")`; a bare name keeps an empty label part.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(pos) => (&name[..pos], &name[pos..]),
        None => (name, ""),
    }
}

/// Maps a metric name onto the Prometheus charset: `/` and `-` (and any
/// other non `[a-zA-Z0-9_:]` byte) become `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample() -> MetricsSnapshot {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 5_000] {
            h.record(v);
        }
        MetricsSnapshot {
            uptime_us: 1_234_567,
            counters: vec![
                Counter {
                    name: "txn_commits".into(),
                    value: 42,
                },
                Counter {
                    name: "table_log_bytes{relation=\"account\"}".into(),
                    value: 9001,
                },
            ],
            gauges: vec![Gauge {
                name: "executor_utilization{executor=\"0\"}".into(),
                value: 0.75,
            }],
            histograms: vec![HistogramSummary::of("commit_lock_ns", &h)],
        }
    }

    #[test]
    fn lookup_helpers_find_by_name() {
        let snap = sample();
        assert_eq!(snap.counter("txn_commits"), Some(42));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(
            snap.gauge("executor_utilization{executor=\"0\"}"),
            Some(0.75)
        );
        assert_eq!(snap.histogram("commit_lock_ns").unwrap().count, 4);
    }

    #[test]
    fn prometheus_text_carries_the_same_values_as_the_snapshot() {
        let snap = sample();
        let text = snap.to_prometheus_text();
        // Labeled counter: name sanitized, label block preserved verbatim.
        assert!(text.contains("reactdb_table_log_bytes{relation=\"account\"} 9001\n"));
        assert!(text.contains("reactdb_txn_commits 42\n"));
        assert!(text.contains("reactdb_executor_utilization{executor=\"0\"} 0.75\n"));
        assert!(text.contains("# TYPE reactdb_commit_lock_ns summary\n"));
        let h = snap.histogram("commit_lock_ns").unwrap();
        assert!(text.contains(&format!(
            "reactdb_commit_lock_ns{{quantile=\"0.5\"}} {}\n",
            h.p50_ns
        )));
        assert!(text.contains(&format!(
            "reactdb_commit_lock_ns{{quantile=\"0.999\"}} {}\n",
            h.p999_ns
        )));
        assert!(text.contains(&format!("reactdb_commit_lock_ns_sum {}\n", h.sum_ns)));
        assert!(text.contains(&format!("reactdb_commit_lock_ns_count {}\n", h.count)));
        assert!(text.contains(&format!("reactdb_commit_lock_ns_max {}\n", h.max_ns)));
        assert!(text.contains(&format!("reactdb_uptime_us {}\n", snap.uptime_us)));
    }

    #[test]
    fn sanitize_maps_onto_the_prometheus_charset() {
        assert_eq!(sanitize("wal/commit-path p99"), "wal_commit_path_p99");
        assert_eq!(sanitize("already_fine:ok"), "already_fine:ok");
    }

    #[test]
    fn delta_subtracts_counters_and_histogram_totals() {
        let earlier = sample();
        let mut later = sample();
        later.uptime_us += 1_000_000;
        later.counters[0].value = 100;
        later.histograms[0].count = 10;
        later.histograms[0].sum_ns = 99_999;
        later.gauges[0].value = 0.25;
        let d = later.delta(&earlier);
        assert_eq!(d.uptime_us, 1_000_000);
        assert_eq!(d.counter("txn_commits"), Some(100 - 42));
        assert_eq!(d.counter("table_log_bytes{relation=\"account\"}"), Some(0));
        let h = d.histogram("commit_lock_ns").unwrap();
        assert_eq!(h.count, 10 - 4);
        assert_eq!(h.sum_ns, 99_999 - earlier.histograms[0].sum_ns);
        // Percentiles and gauges keep the later snapshot's values.
        assert_eq!(h.p50_ns, later.histograms[0].p50_ns);
        assert_eq!(d.gauges[0].value, 0.25);

        // A metric missing from the earlier snapshot diffs against zero.
        let novel = Counter {
            name: "new_metric".into(),
            value: 7,
        };
        later.counters.push(novel);
        let d2 = later.delta(&earlier);
        assert_eq!(d2.counter("new_metric"), Some(7));
    }
}
