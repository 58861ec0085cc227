//! Simulation results: per-transaction samples and aggregate metrics.

/// One completed (simulated) root transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnSample {
    /// Worker that issued the transaction.
    pub worker: usize,
    /// Virtual time at which the worker issued it (µs).
    pub start_us: f64,
    /// Virtual time at which it completed, including commit (µs).
    pub end_us: f64,
}

impl TxnSample {
    /// Latency of the transaction in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Aggregate outcome of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// All completed transactions.
    pub samples: Vec<TxnSample>,
    /// Busy virtual time accumulated per executor (µs).
    pub busy_us: Vec<f64>,
    /// Virtual time at which the last transaction completed (µs).
    pub makespan_us: f64,
}

impl SimReport {
    /// Number of committed transactions.
    pub fn committed(&self) -> usize {
        self.samples.len()
    }

    /// Average latency in microseconds.
    pub fn avg_latency_us(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(TxnSample::latency_us).sum::<f64>() / self.samples.len() as f64
    }

    /// Average latency in milliseconds (the unit of most of the paper's
    /// latency figures).
    pub fn avg_latency_ms(&self) -> f64 {
        self.avg_latency_us() / 1000.0
    }

    /// Throughput in transactions per second of virtual time.
    pub fn throughput_tps(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            return 0.0;
        }
        self.samples.len() as f64 / (self.makespan_us / 1_000_000.0)
    }

    /// Utilization of each executor: busy time over makespan (0..=1).
    pub fn utilization(&self) -> Vec<f64> {
        if self.makespan_us <= 0.0 {
            return vec![0.0; self.busy_us.len()];
        }
        self.busy_us
            .iter()
            .map(|b| (b / self.makespan_us).min(1.0))
            .collect()
    }

    /// p-th latency percentile in microseconds.
    pub fn percentile_latency_us(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut lats: Vec<f64> = self.samples.iter().map(TxnSample::latency_us).collect();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((lats.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        lats[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            samples: vec![
                TxnSample {
                    worker: 0,
                    start_us: 0.0,
                    end_us: 100.0,
                },
                TxnSample {
                    worker: 0,
                    start_us: 100.0,
                    end_us: 300.0,
                },
                TxnSample {
                    worker: 1,
                    start_us: 0.0,
                    end_us: 200.0,
                },
            ],
            busy_us: vec![150.0, 300.0],
            makespan_us: 300.0,
        }
    }

    #[test]
    fn aggregate_metrics() {
        let r = report();
        assert_eq!(r.committed(), 3);
        assert!((r.avg_latency_us() - (100.0 + 200.0 + 200.0) / 3.0).abs() < 1e-9);
        assert!((r.throughput_tps() - 3.0 / (300.0 / 1e6)).abs() < 1e-6);
        assert_eq!(r.utilization(), vec![0.5, 1.0]);
        assert_eq!(r.percentile_latency_us(1.0), 200.0);
        assert_eq!(r.percentile_latency_us(0.0), 100.0);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport::default();
        assert_eq!(r.avg_latency_us(), 0.0);
        assert_eq!(r.throughput_tps(), 0.0);
        assert_eq!(r.percentile_latency_us(0.5), 0.0);
    }
}
