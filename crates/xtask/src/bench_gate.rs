//! `cargo xtask bench-gate` — the benchmark regression gate.
//!
//! Compares the metrics emitted by the smoke benchmarks
//! (`target/chaos-smoke.json` from `chaos_smoke`,
//! `target/server-load.json` from `server_load`,
//! `target/storage-smoke.json` from `storage_smoke`, and
//! `target/kernel-smoke.json` from `kernel_smoke` — per-kernel wall times
//! plus exactly-pinned cell counters and adaptive-vs-default compressed
//! bucket footprints — plus a sanity check
//! that `target/obs-smoke.json` from `obs_smoke` exists and carries its
//! per-layer totals) against the committed `BENCH_baseline.json`:
//!
//! * **Deterministic counters** (cells scanned, failovers, retries, cells
//!   re-replicated, lost cells, …) must match the baseline *exactly* — the
//!   failover path is a pure function of the fault plan, so any drift is a
//!   behavior change someone must acknowledge with `--update-baseline`.
//! * **Wall-clock metrics** (`*_us`, `*_ms`) may regress at most 20 %
//!   over baseline, with a small absolute floor per unit so
//!   micro-benchmarks on noisy CI runners don't flap.
//! * **`failover_overhead_pct`** (chaotic / healthy wall ratio — machine
//!   speed largely cancels) may grow at most 20 % relative or 10
//!   percentage points, whichever is larger.
//! * **Aggregate wall totals** (`clean_wall_us`, `chaos_wall_us`) are
//!   *informational*: they are whole-phase sums whose run-to-run noise on
//!   shared runners exceeds any honest tolerance, and they are fully
//!   derived from the gated per-query latencies. They are printed but
//!   never fail the gate.
//!
//! The escape hatch is explicit: `--update-baseline` rewrites
//! `BENCH_baseline.json` from the current run.
//!
//! Everything here is dependency-free (no serde): the flat JSON the
//! benchmarks emit is parsed with a tiny `"key": number` scanner.

use crate::{Options, Outcome};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Workspace-relative location of the committed benchmark baseline.
pub const BENCH_BASELINE_PATH: &str = "BENCH_baseline.json";

/// Where `chaos_smoke` writes its metrics.
pub const CHAOS_SMOKE_PATH: &str = "target/chaos-smoke.json";

/// Where `obs_smoke` writes its telemetry dump.
pub const OBS_SMOKE_PATH: &str = "target/obs-smoke.json";

/// Where `server_load` writes its latency quantiles and counters.
pub const SERVER_LOAD_PATH: &str = "target/server-load.json";

/// Where `storage_smoke` writes its durable-layer metrics.
pub const STORAGE_SMOKE_PATH: &str = "target/storage-smoke.json";

/// Where `kernel_smoke` writes its vectorized-kernel metrics.
pub const KERNEL_SMOKE_PATH: &str = "target/kernel-smoke.json";

/// Relative wall-clock regression tolerated before failing (20 %).
pub const WALL_TOLERANCE: f64 = 0.20;

/// Absolute wall-clock floor in microseconds: regressions smaller than
/// this are noise, not signal.
pub const WALL_FLOOR_US: f64 = 2_000.0;

/// Absolute floor for millisecond-resolution wall metrics (`*_ms`):
/// recovery replay of a small smoke workload legitimately rounds to 0 ms,
/// so the floor must dominate until the workload is big enough to time.
pub const WALL_FLOOR_MS: f64 = 50.0;

/// Percentage-point floor for the failover-overhead ratio check.
pub const OVERHEAD_FLOOR_PP: f64 = 10.0;

/// Extracts every `"key": <number>` pair from a flat JSON object. String
/// values and nested objects are skipped; good enough for the one-level
/// metric files the smoke benchmarks emit.
pub fn parse_flat_json(s: &str) -> Vec<(String, f64)> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'"' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < b.len() && b[j] != b'"' {
            if b[j] == b'\\' {
                j += 1;
            }
            j += 1;
        }
        if j >= b.len() {
            break;
        }
        let key = &s[start..j];
        let mut k = j + 1;
        while k < b.len() && b[k].is_ascii_whitespace() {
            k += 1;
        }
        if k >= b.len() || b[k] != b':' {
            i = j + 1;
            continue;
        }
        k += 1;
        while k < b.len() && b[k].is_ascii_whitespace() {
            k += 1;
        }
        let num_start = k;
        while k < b.len()
            && (b[k].is_ascii_digit() || matches!(b[k], b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            k += 1;
        }
        if k > num_start {
            if let Ok(v) = s[num_start..k].parse::<f64>() {
                out.push((key.to_string(), v));
            }
        }
        i = k.max(j + 1);
    }
    out
}

fn lookup(metrics: &[(String, f64)], key: &str) -> Option<f64> {
    metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// How one metric is gated.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Gate {
    /// Deterministic: must equal the baseline exactly.
    Exact,
    /// Wall clock: may regress ≤ 20 % plus the given absolute floor
    /// (`WALL_FLOOR_US` for `*_us` keys, `WALL_FLOOR_MS` for `*_ms`).
    Wall { floor: f64, unit: &'static str },
    /// Overhead ratio: ≤ 20 % relative or +10 pp growth.
    Overhead,
    /// Informational: printed, never gated (whole-phase wall sums).
    Info,
}

/// Whole-phase wall totals: derived from the gated per-query latencies
/// and too noisy across runners to gate honestly. `server_wall_us` is the
/// whole 256-session load run; its p50/p99 quantiles are the gated form.
/// The lock-witness counters (total / contended ranked-lock acquisitions
/// over the load run) are scheduler-dependent and informational only —
/// they surface contention trends without gating on them.
/// The QueryStats-trailer keys from `server_load` are informational too:
/// queue wait is pure scheduler noise under a 256-session burst, and the
/// scanned/cache-hit split depends on which session wins the race to
/// populate the shared result cache.
const INFO_KEYS: &[&str] = &[
    "clean_wall_us",
    "chaos_wall_us",
    "server_wall_us",
    "server_lock_acquisitions",
    "server_lock_contended",
    "server_queue_wait_p99_us",
    "server_trailer_cells_scanned",
    "server_trailer_cache_hits",
];

fn gate_for(key: &str) -> Gate {
    match key {
        "failover_overhead_pct" => Gate::Overhead,
        k if INFO_KEYS.contains(&k) => Gate::Info,
        k if k.ends_with("_us") => Gate::Wall {
            floor: WALL_FLOOR_US,
            unit: "us",
        },
        k if k.ends_with("_ms") => Gate::Wall {
            floor: WALL_FLOOR_MS,
            unit: "ms",
        },
        _ => Gate::Exact,
    }
}

/// Outcome of one metric comparison.
#[derive(Debug, Clone)]
pub struct MetricCheck {
    /// Metric name.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Whether the gate passed.
    pub ok: bool,
    /// Human-readable verdict.
    pub verdict: String,
}

/// Compares current metrics against the baseline. Every baseline metric
/// must be present in the current run; new current-only metrics are
/// reported but don't fail (they land in the baseline on the next
/// `--update-baseline`).
pub fn compare(baseline: &[(String, f64)], current: &[(String, f64)]) -> Vec<MetricCheck> {
    let mut checks = Vec::new();
    for (key, base) in baseline {
        let Some(cur) = lookup(current, key) else {
            checks.push(MetricCheck {
                key: key.clone(),
                baseline: *base,
                current: f64::NAN,
                ok: false,
                verdict: "missing from current run".to_string(),
            });
            continue;
        };
        let (ok, verdict) = match gate_for(key) {
            Gate::Exact => {
                if cur == *base {
                    (true, "exact match".to_string())
                } else {
                    (
                        false,
                        format!("deterministic counter changed ({base} -> {cur})"),
                    )
                }
            }
            Gate::Wall { floor, unit } => {
                let allowed = base * (1.0 + WALL_TOLERANCE) + floor;
                if cur <= allowed {
                    (true, format!("within 20% (+{floor}{unit} floor)"))
                } else {
                    (
                        false,
                        format!("regressed {:.1}% (allowed 20%)", (cur / base - 1.0) * 100.0),
                    )
                }
            }
            Gate::Info => (true, "informational (not gated)".to_string()),
            Gate::Overhead => {
                let allowed = base + (base.abs() * WALL_TOLERANCE).max(OVERHEAD_FLOOR_PP);
                if cur <= allowed {
                    (true, format!("within +{OVERHEAD_FLOOR_PP}pp"))
                } else {
                    (
                        false,
                        format!("overhead grew {base:.1}% -> {cur:.1}% (allowed {allowed:.1}%)"),
                    )
                }
            }
        };
        checks.push(MetricCheck {
            key: key.clone(),
            baseline: *base,
            current: cur,
            ok,
            verdict,
        });
    }
    checks
}

/// Serializes metrics as the committed baseline file: one key per line,
/// sorted, so diffs review cleanly.
pub fn render_baseline(metrics: &[(String, f64)]) -> String {
    let mut sorted: Vec<&(String, f64)> = metrics.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        if v.fract() == 0.0 && v.abs() < 1e15 {
            let _ = write!(out, "  \"{k}\": {}", *v as i64);
        } else {
            let _ = write!(out, "  \"{k}\": {v:.3}");
        }
    }
    out.push_str("\n}\n");
    out
}

/// Runs the bench gate. `root` is the workspace root; results are written
/// to `out` (one line per metric unless `opts.quiet`).
pub fn bench_gate(root: &Path, opts: &Options, out: &mut dyn io::Write) -> io::Result<Outcome> {
    let chaos_path = root.join(CHAOS_SMOKE_PATH);
    let chaos_raw = std::fs::read_to_string(&chaos_path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "{}: {e} (run `cargo run --release -p scidb-bench --bin chaos_smoke` first)",
                chaos_path.display()
            ),
        )
    })?;
    let mut current = parse_flat_json(&chaos_raw);
    if current.is_empty() {
        writeln!(out, "bench-gate: {CHAOS_SMOKE_PATH} has no metrics")?;
        return Ok(Outcome::Failed);
    }

    // Serving-layer load metrics: sessions/queries/errors pinned exactly,
    // p50/p99 latency quantiles under the ±20 % wall gate.
    let server_path = root.join(SERVER_LOAD_PATH);
    let server_raw = std::fs::read_to_string(&server_path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "{}: {e} (run `cargo run --release -p scidb-bench --bin server_load` first)",
                server_path.display()
            ),
        )
    })?;
    let server_metrics = parse_flat_json(&server_raw);
    if server_metrics.is_empty() {
        writeln!(out, "bench-gate: {SERVER_LOAD_PATH} has no metrics")?;
        return Ok(Outcome::Failed);
    }
    current.extend(server_metrics);

    // Durable-layer metrics: buffer-pool hit rate and replayed-op count
    // pinned exactly, fsync p99 and replay time under the wall gates.
    let storage_path = root.join(STORAGE_SMOKE_PATH);
    let storage_raw = std::fs::read_to_string(&storage_path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "{}: {e} (run `cargo run --release -p scidb-bench --bin storage_smoke` first)",
                storage_path.display()
            ),
        )
    })?;
    let storage_metrics = parse_flat_json(&storage_raw);
    if storage_metrics.is_empty() {
        writeln!(out, "bench-gate: {STORAGE_SMOKE_PATH} has no metrics")?;
        return Ok(Outcome::Failed);
    }
    current.extend(storage_metrics);

    // Vectorized-kernel metrics: smoke cells, filter survivors, and the
    // compressed bucket footprints pinned exactly; per-kernel wall times
    // under the ±20 % gate.
    let kernel_path = root.join(KERNEL_SMOKE_PATH);
    let kernel_raw = std::fs::read_to_string(&kernel_path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "{}: {e} (run `cargo run --release -p scidb-bench --bin kernel_smoke` first)",
                kernel_path.display()
            ),
        )
    })?;
    let kernel_metrics = parse_flat_json(&kernel_raw);
    if kernel_metrics.is_empty() {
        writeln!(out, "bench-gate: {KERNEL_SMOKE_PATH} has no metrics")?;
        return Ok(Outcome::Failed);
    }
    current.extend(kernel_metrics);

    // obs_smoke sanity: the telemetry artifact must exist and carry the
    // per-layer totals section the dashboards key on.
    let obs_path = root.join(OBS_SMOKE_PATH);
    match std::fs::read_to_string(&obs_path) {
        Ok(obs) if obs.contains("\"layer_totals_us\"") => {}
        Ok(_) => {
            writeln!(
                out,
                "bench-gate: {OBS_SMOKE_PATH} is missing layer_totals_us"
            )?;
            return Ok(Outcome::Failed);
        }
        Err(e) => {
            writeln!(
                out,
                "bench-gate: cannot read {OBS_SMOKE_PATH}: {e} \
                 (run `cargo run --release -p scidb-bench --bin obs_smoke` first)"
            )?;
            return Ok(Outcome::Failed);
        }
    }

    let baseline_path = root.join(BENCH_BASELINE_PATH);
    if opts.update_baseline {
        std::fs::write(&baseline_path, render_baseline(&current))?;
        writeln!(
            out,
            "bench-gate: baseline updated ({} metrics -> {BENCH_BASELINE_PATH})",
            current.len()
        )?;
        return Ok(Outcome::Clean);
    }

    let baseline_raw = std::fs::read_to_string(&baseline_path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "{}: {e} (commit one with `cargo xtask bench-gate --update-baseline`)",
                baseline_path.display()
            ),
        )
    })?;
    let baseline = parse_flat_json(&baseline_raw);

    let checks = compare(&baseline, &current);
    let mut failed = 0usize;
    for c in &checks {
        if !c.ok {
            failed += 1;
        }
        if !opts.quiet || !c.ok {
            writeln!(
                out,
                "  {} {:<24} baseline {:>12} current {:>12}  {}",
                if c.ok { "ok  " } else { "FAIL" },
                c.key,
                c.baseline,
                c.current,
                c.verdict
            )?;
        }
    }
    for (k, v) in &current {
        if lookup(&baseline, k).is_none() {
            writeln!(
                out,
                "  new  {k:<24} {v} (not in baseline; --update-baseline adopts it)"
            )?;
        }
    }
    if failed > 0 {
        writeln!(
            out,
            "bench-gate: {failed}/{} metrics regressed (intentional? \
             `cargo xtask bench-gate --update-baseline`)",
            checks.len()
        )?;
        Ok(Outcome::Failed)
    } else {
        writeln!(out, "bench-gate: {} metrics within tolerance", checks.len())?;
        Ok(Outcome::Clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_json_numbers() {
        let m = parse_flat_json(
            r#"{"a":1,"b_us":2500,"pct":-3.25,"skip":"str","nested":{"c":7},"e":1e3}"#,
        );
        assert_eq!(lookup(&m, "a"), Some(1.0));
        assert_eq!(lookup(&m, "b_us"), Some(2500.0));
        assert_eq!(lookup(&m, "pct"), Some(-3.25));
        assert_eq!(lookup(&m, "skip"), None, "string values are not metrics");
        assert_eq!(lookup(&m, "c"), Some(7.0), "nested numbers still surface");
        assert_eq!(lookup(&m, "e"), Some(1000.0));
    }

    #[test]
    fn exact_counters_must_match() {
        let base = vec![("failovers".to_string(), 100.0)];
        let ok = compare(&base, &[("failovers".to_string(), 100.0)]);
        assert!(ok[0].ok);
        let bad = compare(&base, &[("failovers".to_string(), 101.0)]);
        assert!(!bad[0].ok, "deterministic drift fails the gate");
    }

    #[test]
    fn wall_metrics_allow_20_percent_plus_floor() {
        let base = vec![("clean_query_us".to_string(), 10_000.0)];
        // +20% + 2000us floor = 14000 allowed.
        assert!(compare(&base, &[("clean_query_us".to_string(), 13_900.0)])[0].ok);
        assert!(!compare(&base, &[("clean_query_us".to_string(), 14_100.0)])[0].ok);
        // Tiny baselines are covered by the absolute floor.
        let tiny = vec![("recovery_wall_us".to_string(), 100.0)];
        assert!(compare(&tiny, &[("recovery_wall_us".to_string(), 1_800.0)])[0].ok);
    }

    #[test]
    fn ms_wall_metrics_use_the_millisecond_floor() {
        // A 0 ms baseline (replay faster than the clock tick) still
        // admits anything under the 50 ms floor.
        let base = vec![("recovery_replay_ms".to_string(), 0.0)];
        assert!(compare(&base, &[("recovery_replay_ms".to_string(), 49.0)])[0].ok);
        assert!(!compare(&base, &[("recovery_replay_ms".to_string(), 51.0)])[0].ok);
        // A real baseline gets 20% + floor, not the microsecond floor.
        let big = vec![("recovery_replay_ms".to_string(), 1_000.0)];
        assert!(compare(&big, &[("recovery_replay_ms".to_string(), 1_249.0)])[0].ok);
        assert!(!compare(&big, &[("recovery_replay_ms".to_string(), 1_251.0)])[0].ok);
    }

    #[test]
    fn storage_counters_gate_exactly() {
        let base = vec![
            ("storage_pool_hit_rate".to_string(), 23.0),
            ("storage_replayed_ops".to_string(), 69.0),
        ];
        let drifted = vec![
            ("storage_pool_hit_rate".to_string(), 22.0),
            ("storage_replayed_ops".to_string(), 69.0),
        ];
        let checks = compare(&base, &drifted);
        assert!(!checks[0].ok, "hit-rate drift is a behavior change");
        assert!(checks[1].ok);
    }

    #[test]
    fn kernel_metrics_gate_as_expected() {
        // Compressed-bucket footprints and cell counters are deterministic
        // (exact); per-kernel wall times ride the ±20 % + floor gate.
        let base = vec![
            ("compressed_bytes_int_adaptive".to_string(), 130_000.0),
            ("kernel_filter_survivors".to_string(), 33_549.0),
            ("kernel_filter_us".to_string(), 10_000.0),
        ];
        let cur = vec![
            ("compressed_bytes_int_adaptive".to_string(), 129_000.0),
            ("kernel_filter_survivors".to_string(), 33_549.0),
            ("kernel_filter_us".to_string(), 13_900.0),
        ];
        let checks = compare(&base, &cur);
        assert!(!checks[0].ok, "codec-selection drift is a behavior change");
        assert!(checks[1].ok, "survivor count matches exactly");
        assert!(checks[2].ok, "kernel wall within 20% + floor passes");
        assert!(
            !compare(&base, &[("kernel_filter_us".to_string(), 14_100.0)])
                .iter()
                .find(|c| c.key == "kernel_filter_us")
                .unwrap()
                .ok,
            "kernel wall beyond 20% + floor fails"
        );
    }

    #[test]
    fn overhead_allows_10_point_growth() {
        let base = vec![("failover_overhead_pct".to_string(), 5.0)];
        assert!(compare(&base, &[("failover_overhead_pct".to_string(), 14.0)])[0].ok);
        assert!(!compare(&base, &[("failover_overhead_pct".to_string(), 16.0)])[0].ok);
    }

    #[test]
    fn phase_wall_totals_are_informational() {
        let base = vec![("clean_wall_us".to_string(), 23_000.0)];
        let checks = compare(&base, &[("clean_wall_us".to_string(), 80_000.0)]);
        assert!(checks[0].ok, "phase totals never gate: {checks:?}");
        assert!(checks[0].verdict.contains("informational"));
    }

    #[test]
    fn server_metrics_gate_as_expected() {
        let base = vec![
            ("server_errors".to_string(), 0.0),
            ("server_p99_us".to_string(), 400_000.0),
            ("server_wall_us".to_string(), 2_000_000.0),
        ];
        let cur = vec![
            ("server_errors".to_string(), 1.0),
            ("server_p99_us".to_string(), 430_000.0),
            ("server_wall_us".to_string(), 9_000_000.0),
        ];
        let checks = compare(&base, &cur);
        assert!(!checks[0].ok, "any server error is a gate failure");
        assert!(checks[1].ok, "p99 within 20% passes");
        assert!(checks[2].ok, "the load run's wall total is informational");
    }

    #[test]
    fn missing_metric_fails() {
        let base = vec![("retries".to_string(), 2.0)];
        let checks = compare(&base, &[]);
        assert!(!checks[0].ok);
    }

    #[test]
    fn baseline_roundtrips_through_parser() {
        let metrics = vec![
            ("failovers".to_string(), 4672.0),
            ("failover_overhead_pct".to_string(), 3.095),
            ("clean_wall_us".to_string(), 23325.0),
        ];
        let rendered = render_baseline(&metrics);
        let back = parse_flat_json(&rendered);
        for (k, v) in &metrics {
            assert_eq!(lookup(&back, k), Some(*v), "{k}");
        }
        assert!(rendered.ends_with("}\n"));
    }
}
