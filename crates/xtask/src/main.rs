//! `cargo xtask` — workspace automation: `analyze` (static invariant
//! checker), `bench-gate` (benchmark regression gate), and `conformance`
//! (the differential query harness).

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::{analyze, bench_gate::bench_gate, conformance, find_root, Options, Outcome};

const USAGE: &str = "\
cargo xtask <analyze | bench-gate | conformance> [OPTIONS]

analyze     Static analysis of the SciDB workspace invariants (R1-R8; see
            DESIGN.md). Any violation fails; the only exception is a
            justified `// analyze: allow(Rn, why)` at the site.

bench-gate  Benchmark regression gate: compares target/chaos-smoke.json +
            target/server-load.json (and checks target/obs-smoke.json)
            against BENCH_baseline.json. Run the smoke bins first:
              cargo run --release -p scidb-bench --bin chaos_smoke
              cargo run --release -p scidb-bench --bin obs_smoke
              cargo run --release -p scidb-bench --bin server_load
            Wall-clock metrics may regress <= 20%; deterministic failover
            and server counters must match exactly.

conformance Differential conformance harness: each seeded random pipeline
            runs through six engines (serial, parallel, grid, durable,
            remote, relational) and must produce byte-identical canonical
            answers.
            Replays the pinned corpus in tests/conformance-corpus/, then the seed
            range. Shrunk repros of any divergence land in
            target/conformance-failures/.

Options:
  --update-baseline   bench-gate only: rewrite BENCH_baseline.json from the
                      current run (the explicit escape hatch)
  --json <PATH>       analyze only: write the JSON report here
                      (default: target/xtask-analyze.json)
  --quiet             Summary only, no per-diagnostic output
  --seeds <A..B>      conformance only: inclusive seed range (default 1..50)
  --budget-secs <N>   conformance only: stop starting new seeds after N
                      seconds (nightly fuzz budget)
  -h, --help          Show this help
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let subcommand = match args.next().as_deref() {
        Some("analyze") => "analyze",
        Some("bench-gate") => "bench-gate",
        Some("conformance") => "conformance",
        Some("-h") | Some("--help") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("error: unknown subcommand `{other}`\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--update-baseline" if subcommand == "bench-gate" => opts.update_baseline = true,
            "--update-baseline" => {
                eprintln!(
                    "error: --update-baseline is bench-gate only; {subcommand} has no baseline"
                );
                return ExitCode::FAILURE;
            }
            "--quiet" => opts.quiet = true,
            "--json" => match args.next() {
                Some(p) => opts.json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --json requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--seeds" => match args.next() {
                Some(s) => opts.seeds = Some(s),
                None => {
                    eprintln!("error: --seeds requires a range like 1..50");
                    return ExitCode::FAILURE;
                }
            },
            "--budget-secs" => match args.next().map(|n| n.parse()) {
                Some(Ok(n)) => opts.budget_secs = Some(n),
                _ => {
                    eprintln!("error: --budget-secs requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown option `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot determine working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(root) = find_root(&cwd) else {
        eprintln!("error: not inside the workspace (no Cargo.toml + crates/ found)");
        return ExitCode::FAILURE;
    };

    let result = match subcommand {
        "bench-gate" => bench_gate(&root, &opts, &mut std::io::stdout()),
        "conformance" => conformance::conformance(&root, &opts, &mut std::io::stdout()),
        _ => analyze(&root, &opts, &mut std::io::stdout()),
    };
    match result {
        Ok(Outcome::Clean) => ExitCode::SUCCESS,
        Ok(Outcome::Failed) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
