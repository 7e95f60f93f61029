//! End to end at toy size: all four workloads, oracle on, through the
//! binary the driver runs.

use std::process::Command;
use std::time::{Duration, Instant};

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_smoke"))
        .args(args)
        .output()
        .expect("run e2e_smoke");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn result_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .collect()
}

#[test]
fn quick_runs_all_four_workloads_with_the_oracle_on() {
    let start = Instant::now();
    let (ok, stdout) = run(&["--quick", "--seconds", "0.5", "--seed", "3"]);
    assert!(ok, "{stdout}");
    let results = result_lines(&stdout);
    assert_eq!(results.len(), 4, "{stdout}");
    for (line, workload) in results
        .iter()
        .zip(["aql_mem", "aql_disk", "ingest_mix", "wire_mix"])
    {
        assert!(stdout.contains(&format!("{workload}: ")), "{stdout}");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{line}");
        for metric in [
            "setup_s",
            "stmt_per_s",
            "slab_p50_ms",
            "join_p50_ms",
            "peak_rss_mb",
        ] {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{metric}: {line}"
            );
            assert!(
                !line.contains(&format!("\"{metric}\": {{\"value\": 0.0,")),
                "{metric} is 0: {line}"
            );
        }
    }
    assert_eq!(
        results.last(),
        stdout.lines().last().as_ref(),
        "the result is the last line"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "{:?}",
        start.elapsed()
    );
}

#[test]
fn traced_run_reports_each_layer_where_it_works_and_nowhere_else() {
    for (workload, has, lacks) in [
        (
            "aql_mem",
            "core.kernel_us.sweep",
            vec!["storage.read_us.slab", "server.rtt_us.slab"],
        ),
        (
            "aql_disk",
            "storage.read_us.slab",
            vec!["server.rtt_us.slab"],
        ),
        (
            "wire_mix",
            "server.rtt_us.slab",
            vec!["storage.read_us.slab"],
        ),
    ] {
        let (ok, stdout) = run(&[
            "--quick",
            "--seconds",
            "0.5",
            "--trace",
            "1",
            "--workload",
            workload,
        ]);
        assert!(ok, "{stdout}");
        let line = result_lines(&stdout)[0];
        assert!(
            !line.contains(&format!("\"{has}\": {{\"value\": 0.0,")),
            "{workload} {has}: {line}"
        );
        for name in lacks {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": 0.0,")),
                "{workload} {name}: {line}"
            );
        }
        assert!(stdout.contains("e2e-smoke-trace-"), "{stdout}");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let (ok, stdout) = run(&["--workload", "nope"]);
    assert!(!ok && result_lines(&stdout).is_empty());
}
