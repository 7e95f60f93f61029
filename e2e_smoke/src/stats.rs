//! Metric tables, order statistics and the result JSON.
//!
//! The two tables here are the single list of metric names; BENCHMARK.json
//! repeats them (a unit test holds the two together).

use std::collections::BTreeMap;

/// `(name, unit, better, bound)`: what a user of the system sees. Every
/// workload reports every one of them, with tracing off.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("stmt_per_s", "1/s", "higher", 0.25),
    ("slab_p50_ms", "ms", "lower", 0.25),
    ("sweep_p50_ms", "ms", "lower", 0.25),
    ("join_p50_ms", "ms", "lower", 0.25),
    ("stmt_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
];

/// `(name, unit, better)`: single layers, from the traced run. A workload
/// that does no work in a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // query
    ("query.parse_us", "us", "lower"),
    ("query.plan_us", "us", "lower"),
    ("query.exec_us.slab", "us", "lower"),
    ("query.exec_us.sweep", "us", "lower"),
    ("query.exec_us.join", "us", "lower"),
    ("query.exec_us.write", "us", "lower"),
    ("query.self_us.slab", "us", "lower"),
    ("query.self_us.sweep", "us", "lower"),
    ("query.self_us.join", "us", "lower"),
    ("query.alloc_bytes_per_stmt", "bytes", "lower"),
    ("query.alloc_count_per_stmt", "count", "lower"),
    ("query.cells_scanned_per_cell_out", "ratio", "lower"),
    ("query.result_cache_hit_pct", "%", "higher"),
    ("query.unattributed_pct", "%", "lower"),
    // core
    ("core.kernel_us.slab", "us", "lower"),
    ("core.kernel_us.sweep", "us", "lower"),
    ("core.kernel_us.join", "us", "lower"),
    ("core.kernel_us.subsample", "us", "lower"),
    ("core.kernel_us.filter", "us", "lower"),
    ("core.kernel_us.apply", "us", "lower"),
    ("core.kernel_us.aggregate", "us", "lower"),
    ("core.kernel_us.regrid", "us", "lower"),
    ("core.kernel_us.sjoin", "us", "lower"),
    ("core.kernel_cells_per_s", "cells/s", "higher"),
    ("core.direct_kernel_us.slab", "us", "lower"),
    ("core.direct_kernel_us.sweep", "us", "lower"),
    ("core.direct_kernel_us.join", "us", "lower"),
    // storage
    ("storage.read_us.slab", "us", "lower"),
    ("storage.read_us.sweep", "us", "lower"),
    ("storage.read_us.join", "us", "lower"),
    ("storage.region_read_us", "us", "lower"),
    ("storage.full_read_us", "us", "lower"),
    ("storage.buckets_read_per_stmt", "count", "lower"),
    ("storage.bytes_read_per_stmt", "bytes", "lower"),
    ("storage.pool_hit_pct.hot", "%", "higher"),
    ("storage.pool_hit_pct.cold", "%", "higher"),
    ("storage.pool_evictions", "count", "lower"),
    ("storage.ingest_cells_per_s", "cells/s", "higher"),
    ("storage.store_cells_per_s", "cells/s", "higher"),
    ("storage.wal_append_p50_us", "us", "lower"),
    ("storage.wal_append_p95_us", "us", "lower"),
    ("storage.stored_bytes_per_user_byte", "ratio", "lower"),
    ("storage.wal_bytes_per_user_byte", "ratio", "lower"),
    ("storage.pages_bytes", "bytes", "lower"),
    ("storage.codec_bytes_per_cell", "bytes", "lower"),
    ("storage.first_query_ms", "ms", "lower"),
    ("storage.replay_ms", "ms", "lower"),
    ("storage.replayed_ops", "count", "lower"),
    ("storage.merge_ms", "ms", "lower"),
    ("storage.merge_bytes_rewritten", "bytes", "lower"),
    ("storage.merge_stall_p95_ms", "ms", "lower"),
    // server
    ("server.rtt_us.slab", "us", "lower"),
    ("server.rtt_us.sweep", "us", "lower"),
    ("server.rtt_us.write", "us", "lower"),
    ("server.exec_us.slab", "us", "lower"),
    ("server.exec_us.sweep", "us", "lower"),
    ("server.queue_wait_us", "us", "lower"),
    ("server.wire_us.slab", "us", "lower"),
    ("server.wire_us.sweep", "us", "lower"),
    ("server.encode_us", "us", "lower"),
    ("server.decode_us", "us", "lower"),
    ("server.bytes_per_result_cell", "bytes", "lower"),
    ("server.connect_us", "us", "lower"),
    ("server.lock_contended_pct", "%", "lower"),
    // obs, relational
    ("obs.trace_overhead_pct", "%", "lower"),
    ("relational.e1_speedup_x", "x", "higher"),
];

/// Per-layer counts that are the same in every traced run of one seed and
/// `--seconds`: they depend on the data and the statement list alone, not
/// on how wire_mix's clients happen to interleave.
/// `e2e_smoke --trace 1 --repeat N` checks that they are.
pub const EXACT: &[&str] = &[
    "storage.buckets_read_per_stmt",
    "storage.bytes_read_per_stmt",
    "storage.stored_bytes_per_user_byte",
    "storage.wal_bytes_per_user_byte",
    "storage.pages_bytes",
    "storage.codec_bytes_per_cell",
    "storage.replayed_ops",
    "storage.merge_bytes_rewritten",
    "server.bytes_per_result_cell",
];

/// Unit of a metric in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics. Empty input gives 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of the usual tail percentiles that has at least ten samples
/// beyond it; `None` below 20 samples, where even the median has not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In per-mille, so that "ten beyond" is exact integer arithmetic.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

/// First quartile, median, third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    [1usize, 2, 3].map(|i| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Inter-quartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// One workload's outcome.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// name → value; units come from the tables.
    pub metrics: BTreeMap<String, f64>,
    /// What went wrong, for the human reading the log.
    pub errors: Vec<String>,
}

impl Outcome {
    /// The result line the driver reads: `names` in table order, a missing
    /// per-layer value reported as 0.
    pub fn to_json(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|n| {
                let v = self.metrics.get(*n).copied().unwrap_or(0.0);
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(v),
                    unit_of(n).unwrap_or("")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all measured digits (`{:?}` round-trips f64).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0));
        for n in names {
            assert!(!n.is_empty() && n.len() <= 64, "{n}");
            assert!(n.as_bytes()[0].is_ascii_alphanumeric(), "{n}");
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{n}"
            );
            assert!(seen.insert(n), "duplicate {n}");
        }
        assert!(EXACT.iter().all(|n| PER_LAYER.iter().any(|m| m.0 == *n)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&entry), "missing {entry}");
        }
        assert_eq!(
            text.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.insert("setup_s".into(), 0.5);
        let line = o.to_json(&["setup_s", "peak_rss_mb"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MiB\"}}}"
        );
    }
}
