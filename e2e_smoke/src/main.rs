//! `e2e_smoke`: the repo's end-to-end benchmark — AQL in, answer out, over
//! memory, disk, ingest and the wire. See README.md beside Cargo.toml.
//!
//! ```text
//! e2e_smoke [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!           [--repeat N] [--quick] [--dir D]
//! ```
//!
//! Each workload runs in a fresh child process of this binary, so peak RSS,
//! buffer pool and allocator state never carry over; this process cooks the
//! same data, computes the reference answers, and compares.

mod gen;
mod layers;
mod oracle;
mod run;
mod spans;
mod stats;
mod target;

use gen::Workload;
use stats::{Outcome, END_TO_END, PER_LAYER};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use target::Fingerprint;

#[global_allocator]
static ALLOC: spans::CountingAlloc = spans::CountingAlloc;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 20090104;
/// Seconds one run measures when none are given; BENCHMARK.json's
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 30.0;

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
    dir: Option<PathBuf>,
    child: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        quick: false,
        dir: None,
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workloads = vec![Workload::parse(v).ok_or(format!("unknown workload '{v}'"))?];
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--dir" => cli.dir = Some(PathBuf::from(value()?)),
            "--quick" => cli.quick = true,
            "--child" => cli.child = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

/// The build's target directory (`<target>/release/e2e_smoke` is this
/// binary): where results, the trace and scratch databases go, so the
/// benchmark writes only inside its checkout.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Runs one workload once: reference answers here, the workload in a child.
fn run_once(cli: &Cli, w: Workload, seed: u64) -> Outcome {
    let sizes = gen::Sizes::of(cli.quick);
    let pools = gen::pools(w, &sizes, seed, run::clients(w));
    let (expect, mut errors) = oracle::reference(&gen::dataset(sizes, seed), &pools);

    let out_dir = target_dir();
    let work = cli
        .dir
        .clone()
        .unwrap_or_else(|| out_dir.join("e2e-smoke-work"))
        .join(format!("{}-{}", w.name(), std::process::id()));
    let mut outcome = Outcome::default();
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
    ])
    .args([
        "--seconds",
        &cli.seconds.to_string(),
        "--trace",
        if cli.trace { "1" } else { "0" },
    ])
    .arg("--dir")
    .arg(&work)
    .stdout(Stdio::piped());
    if cli.quick {
        cmd.arg("--quick");
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            outcome.attempted = 1;
            outcome.failed = 1;
            outcome
                .errors
                .push(format!("cannot start the workload process: {e}"));
            return outcome;
        }
    };
    let mut checked = 0u64;
    let mut reported = false;
    for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
        let Ok(line) = line else { break };
        let mut f = line.splitn(2, ' ');
        match (f.next(), f.next().unwrap_or("")) {
            (Some("M"), rest) => {
                if let Some((name, v)) = rest.split_once(' ') {
                    outcome
                        .metrics
                        .insert(name.to_string(), v.parse().unwrap_or(0.0));
                }
            }
            (Some("C"), rest) => {
                checked += 1;
                let got = parse_check(rest);
                let want =
                    got.and_then(|(c, i, _)| Some((pools.get(c)?.get(i)?, expect.get(c)?.get(i)?)));
                match (got, want) {
                    (Some((_, _, print)), Some((_, want))) if print == *want => {}
                    (_, Some((stmt, _))) => errors.push(format!(
                        "answer differs from the in-memory reference: {}",
                        stmt.text
                    )),
                    _ => errors.push(format!("unreadable checksum line: {rest}")),
                }
            }
            (Some("O"), rest) => {
                let mut n = rest.split(' ').map(|v| v.parse::<u64>().unwrap_or(1));
                outcome.attempted = n.next().unwrap_or(1);
                outcome.failed = n.next().unwrap_or(1);
                reported = true;
            }
            (Some("E"), rest) => outcome.errors.push(rest.to_string()),
            (Some("I"), rest) => println!("  {rest}"),
            _ => println!("  {line}"),
        }
    }
    let status = child.wait();
    if !reported {
        outcome.attempted = outcome.attempted.max(1);
        outcome.failed += 1;
        outcome.errors.push(format!(
            "the workload process ended without a report ({status:?})"
        ));
    }
    let expected: u64 = pools.iter().map(|p| p.len() as u64).sum();
    if checked != expected && reported {
        errors.push(format!("{checked} of {expected} answers were checksummed"));
    }
    outcome.failed += errors.len() as u64;
    outcome.errors.extend(errors);
    outcome
}

/// A child's `C` line: client, pool index, checksum (hex), cells.
fn parse_check(rest: &str) -> Option<(usize, usize, Fingerprint)> {
    let mut p = rest.split(' ');
    let client = p.next()?.parse().ok()?;
    let index = p.next()?.parse().ok()?;
    let hash = u64::from_str_radix(p.next()?, 16).ok()?;
    let cells = p.next()?.parse().ok()?;
    Some((client, index, Fingerprint { hash, cells }))
}

/// Names of the metrics a run in this mode reports, in table order.
fn names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    }
}

fn print_outcome(w: Workload, o: &Outcome, trace: bool) {
    println!(
        "{}: {} attempted, {} failed",
        w.name(),
        o.attempted,
        o.failed
    );
    for e in o.errors.iter().take(8) {
        println!("  FAILED: {e}");
    }
    for n in names(trace) {
        let v = o.metrics.get(n).copied().unwrap_or(0.0);
        println!("  {n:<40} {v:>16.4} {}", stats::unit_of(n).unwrap_or(""));
    }
}

/// `--repeat N` with tracing off: per-metric median, quartiles and spread
/// over N runs on one seed, and whether the spread and the distance between
/// the medians of the first and the second half of the runs (two sets of
/// runs of one code) stay within each metric's bound.
fn print_agreement(w: Workload, runs: &[Outcome]) -> bool {
    let mut ok = true;
    println!("{}: agreement over {} runs", w.name(), runs.len());
    for &(name, unit, better, bound) in END_TO_END {
        let v: Vec<f64> = runs
            .iter()
            .filter_map(|o| o.metrics.get(name).copied())
            .collect();
        let [q1, q2, q3] = stats::quartiles(&v);
        let spread = stats::spread(&v);
        let (a, b) = v.split_at(v.len() / 2);
        let (ma, mb) = (stats::median(a), stats::median(b));
        let worse = if better == "lower" {
            mb / ma - 1.0
        } else {
            ma / mb - 1.0
        };
        let pass = spread <= bound && worse <= bound;
        ok &= pass;
        println!(
            "  {name:<16} median {q2:>12.4} {unit:<5} q1 {q1:>12.4} q3 {q3:>12.4} spread {:>5.1}% halves {:>+5.1}% bound {:>4.1}% {}",
            spread * 100.0,
            worse * 100.0,
            bound * 100.0,
            if pass { "pass" } else { "FAIL" }
        );
    }
    ok
}

/// `--repeat N` with tracing on: the counts that do not depend on how many
/// statements a window got through must be the same in every run of a seed.
fn print_exact(w: Workload, runs: &[Outcome]) -> bool {
    let mut ok = true;
    println!("{}: exact counts over {} runs", w.name(), runs.len());
    let attempted = (
        "statements attempted",
        runs.iter().map(|o| o.attempted as f64).collect(),
    );
    let counts = stats::EXACT.iter().map(|name| {
        let of = |o: &Outcome| o.metrics.get(*name).copied().unwrap_or(0.0);
        (*name, runs.iter().map(of).collect::<Vec<f64>>())
    });
    for (name, v) in std::iter::once(attempted).chain(counts) {
        let same = v.iter().all(|x| x.to_bits() == v[0].to_bits());
        ok &= same;
        println!(
            "  {name:<40} {:>16.4} {}",
            v[0],
            if same {
                "repeats".to_string()
            } else {
                format!("DIFFERS: {v:?}")
            }
        );
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2e_smoke: {e}");
            std::process::exit(2);
        }
    };
    if cli.child {
        let out_dir = target_dir();
        let args = run::Args {
            workload: cli.workloads[0],
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            quick: cli.quick,
            dir: cli
                .dir
                .clone()
                .unwrap_or_else(|| out_dir.join("e2e-smoke-work")),
            out_dir,
        };
        std::process::exit(run::child_main(&args));
    }

    let mut failed = false;
    let mut agree = true;
    for &w in &cli.workloads {
        let mut runs = Vec::new();
        for _ in 0..cli.repeat {
            let o = run_once(&cli, w, cli.seed);
            print_outcome(w, &o, cli.trace);
            failed |= o.failed > 0;
            let json = o.to_json(&names(cli.trace));
            let copy = target_dir().join(format!("e2e-smoke-{}.json", w.name()));
            if let Err(e) = std::fs::write(&copy, format!("{json}\n")) {
                eprintln!("e2e_smoke: {}: {e}", copy.display());
            }
            runs.push((o, json));
        }
        if cli.repeat > 1 {
            let outcomes: Vec<Outcome> = runs.iter().map(|r| r.0.clone()).collect();
            agree &= if cli.trace {
                print_exact(w, &outcomes)
            } else {
                print_agreement(w, &outcomes)
            };
        }
        // The result line: the last thing on standard output.
        println!("{}", runs.last().expect("repeat >= 1").1);
    }
    std::process::exit(i32::from(failed || !agree));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_takes_the_drivers_arguments() {
        let a = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let cli = parse_cli(&a("--workload wire_mix --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(cli.workloads, vec![Workload::WireMix]);
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 3.0, true));
        assert!(parse_cli(&a("--workload nope")).is_err());
        assert!(parse_cli(&a("--trace 2")).is_err());
        assert!(parse_cli(&a("--seconds 0")).is_err());
        assert_eq!(parse_cli(&[]).unwrap().workloads.len(), 4);
    }

    #[test]
    fn checksum_lines_round_trip() {
        let print = Fingerprint {
            hash: 0x00ab_cdef_0123_4567,
            cells: 42,
        };
        let line = format!("1 7 {:016x} {}", print.hash, print.cells);
        assert_eq!(parse_check(&line), Some((1, 7, print)));
        assert_eq!(parse_check("1 7 xyz 3"), None);
        assert_eq!(parse_check("1 7"), None);
    }
}
