//! The metric tables: names, units, directions and bounds, in the order they
//! are printed. `BENCHMARK.json` at the repository root is generated from
//! these tables (`--print-benchmark-json`), and a test keeps the two equal.

use crate::probes::Probes;
use crate::run::{Pass, PHASES};
use crate::workloads;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// One measured value.
pub struct Reading {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn end_to_end(pass: &Pass) -> Vec<Reading> {
    let values = [
        pass.txn_per_s(),
        pass.p50_us(),
        pass.p99_us(),
        pass.setup_s(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, value)| Reading {
            name: spec.name.to_string(),
            unit: spec.unit,
            value,
        })
        .collect()
}

/// Name, unit and better direction of every per-layer metric except the
/// `obs.phase_*_us` family, which `per_layer_specs` appends.
const PER_LAYER: [(&str, &str, &str); 41] = [
    ("client.codec_request_ns", "ns", "lower"),
    ("client.codec_response_ns", "ns", "lower"),
    ("client.bytes_per_req", "bytes", "lower"),
    ("client.submit_us", "us", "lower"),
    ("client.wait_us", "us", "lower"),
    ("server.ping_rtt_us", "us", "lower"),
    ("server.wire_overhead_us", "us", "lower"),
    ("server.net_requests", "count", "higher"),
    ("engine.submit_ns", "ns", "lower"),
    ("engine.invoke_us", "us", "lower"),
    ("engine.executor_utilization", "ratio", "higher"),
    ("core.fanout_speedup", "ratio", "higher"),
    ("txn.commit_ns", "ns", "lower"),
    ("txn.commit_2pc_ns", "ns", "lower"),
    ("txn.cc_abort_ratio", "ratio", "lower"),
    ("storage.get_ns", "ns", "lower"),
    ("storage.insert_ns", "ns", "lower"),
    ("storage.scan100_ns", "ns", "lower"),
    ("storage.get_mt_ns", "ns", "lower"),
    ("storage.insert_mt_ns", "ns", "lower"),
    ("storage.scan100_mt_ns", "ns", "lower"),
    ("wal.log_bytes", "bytes", "lower"),
    ("wal.bytes_per_txn", "bytes", "lower"),
    ("wal.fsyncs_per_s", "1/s", "lower"),
    ("wal.fsync_ms", "ms", "lower"),
    ("wal.checkpoints", "count", "higher"),
    ("wal.checkpoint_ms", "ms", "lower"),
    ("wal.recover_ms", "ms", "lower"),
    ("wal.ship_mb_per_s", "MB/s", "higher"),
    ("obs.client_mean_us", "us", "lower"),
    ("obs.unexplained_pct", "%", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("harness.traced_txn_per_s", "1/s", "higher"),
    ("harness.traced_p50_us", "us", "lower"),
    ("harness.traced_p99_us", "us", "lower"),
    ("harness.latency_samples", "count", "higher"),
    ("harness.gen_us", "us", "lower"),
    ("harness.fail_ratio", "ratio", "lower"),
    ("harness.user_abort_ratio", "ratio", "lower"),
    ("harness.over_limit_ratio", "ratio", "lower"),
    ("harness.gen_late_ratio", "ratio", "lower"),
];

fn per_layer_specs() -> Vec<(String, &'static str, &'static str)> {
    let mut specs: Vec<_> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| (name.to_string(), *unit, *better))
        .collect();
    for phase in PHASES {
        specs.push((format!("obs.phase_{phase}_us"), "us", "lower"));
    }
    specs
}

/// The per-layer readings of one traced run, in `per_layer_specs` order.
pub fn per_layer(traced: &Pass, untraced: &Pass, p: &Probes) -> Vec<Reading> {
    let overhead_pct = if untraced.txn_per_s() > 0.0 {
        (1.0 - traced.txn_per_s() / untraced.txn_per_s()) * 100.0
    } else {
        0.0
    };
    let t = &traced.totals;
    let mut named: Vec<(String, f64)> = [
        ("client.codec_request_ns", p.codec_request_ns),
        ("client.codec_response_ns", p.codec_response_ns),
        ("client.bytes_per_req", p.bytes_per_req),
        ("client.submit_us", traced.per_request_us(t.submit_ns)),
        ("client.wait_us", traced.per_request_us(t.wait_ns)),
        ("server.ping_rtt_us", p.ping_rtt_us),
        ("server.wire_overhead_us", p.wire_overhead_us),
        ("server.net_requests", traced.net_requests as f64),
        ("engine.submit_ns", p.submit_ns),
        ("engine.invoke_us", p.invoke_us),
        ("engine.executor_utilization", traced.executor_utilization),
        ("core.fanout_speedup", p.fanout_speedup),
        ("txn.commit_ns", p.commit_ns),
        ("txn.commit_2pc_ns", p.commit_2pc_ns),
        ("txn.cc_abort_ratio", traced.cc_abort_ratio()),
        ("storage.get_ns", p.get_ns[0]),
        ("storage.insert_ns", p.insert_ns[0]),
        ("storage.scan100_ns", p.scan100_ns[0]),
        ("storage.get_mt_ns", p.get_ns[1]),
        ("storage.insert_mt_ns", p.insert_ns[1]),
        ("storage.scan100_mt_ns", p.scan100_ns[1]),
        ("wal.log_bytes", traced.log_bytes as f64),
        ("wal.bytes_per_txn", traced.wal_bytes_per_txn()),
        ("wal.fsyncs_per_s", traced.wal_fsyncs_per_s()),
        ("wal.fsync_ms", traced.wal_fsync_ms),
        ("wal.checkpoints", traced.wal_checkpoints as f64),
        ("wal.checkpoint_ms", traced.wal_checkpoint_ms),
        ("wal.recover_ms", traced.wal_recover_ms),
        ("wal.ship_mb_per_s", traced.wal_ship_mb_per_s),
        ("obs.client_mean_us", traced.per_request_us(t.latency_ns)),
        ("obs.unexplained_pct", traced.unexplained_pct),
        ("obs.trace_overhead_pct", overhead_pct),
        ("harness.traced_txn_per_s", traced.txn_per_s()),
        ("harness.traced_p50_us", traced.p50_us()),
        ("harness.traced_p99_us", traced.p99_us()),
        ("harness.latency_samples", traced.samples() as f64),
        ("harness.gen_us", traced.per_request_us(t.gen_ns)),
        ("harness.fail_ratio", traced.fail_ratio()),
        ("harness.user_abort_ratio", traced.user_abort_ratio()),
        ("harness.over_limit_ratio", traced.over_limit_ratio()),
        ("harness.gen_late_ratio", traced.gen_late_ratio()),
    ]
    .map(|(name, value)| (name.to_string(), value))
    .to_vec();
    for (phase, us) in PHASES.iter().zip(&traced.phase_us) {
        named.push((format!("obs.phase_{phase}_us"), *us));
    }
    per_layer_specs()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = named
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no reading for per-layer metric {name}"))
                .1;
            Reading { name, unit, value }
        })
        .collect()
}

/// The latency budget of one traced pass as comment lines: the client's
/// mean latency, the phases that should add up to it, and what is left.
pub fn budget_table(pass: &Pass) -> String {
    let mut out = format!(
        "# budget: client mean latency {:.1} us per request\n",
        pass.per_request_us(pass.totals.latency_ns)
    );
    for (phase, us) in PHASES.iter().zip(&pass.phase_us) {
        if *us > 0.0 {
            out.push_str(&format!("# budget:   phase {phase:<18} {us:>10.1} us\n"));
        }
    }
    out.push_str(&format!(
        "# budget: unexplained {:.1}% of the client mean",
        pass.unexplained_pct
    ));
    out
}

/// A JSON number with all of the value's digits (0 for NaN or infinity,
/// which JSON cannot carry).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = workloads::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer_specs()
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"perfbench/run.sh\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: perfbench/run.sh --print-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn every_per_layer_metric_gets_a_reading() {
        let pass = Pass {
            phase_us: vec![0.0; PHASES.len()],
            ..Pass::default()
        };
        // Panics when a metric of the table has no reading.
        let readings = per_layer(&pass, &Pass::default(), &Probes::default());
        assert_eq!(readings.len(), PER_LAYER.len() + PHASES.len());
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<String> = per_layer_specs().into_iter().map(|s| s.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(workloads::ALL.iter().map(|w| w.name.to_string()));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        names.sort();
        names.dedup();
        assert_eq!(
            names.len(),
            per_layer_specs().len() + END_TO_END.len() + workloads::ALL.len(),
            "a name is used twice"
        );
        for (_, unit, _) in per_layer_specs() {
            assert!(unit_ok(unit), "{unit}");
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit) && m.bound <= 0.25);
        }
    }
}
