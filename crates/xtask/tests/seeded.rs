//! End-to-end analyzer tests against synthetic workspaces: a seeded
//! violation must fail, the baseline must grandfather and ratchet, and the
//! real repository must be clean at its committed baseline.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::{analyze, Options, Outcome, BASELINE_PATH};

/// The two chunk drivers plus one kernel calling them, so R2 and R6 have
/// a kernel to check.
const OPS: &str = r#"
pub(crate) fn map_chunks<B, C>(ctx: &ExecContext) {
    let r = ctx.try_par_map(&chunks, |c| c);
}
pub(crate) fn fold_chunks<G>(ctx: &ExecContext) {
    let r = ctx.try_par_map(&chunks, |c| c);
}
pub fn filter_with(ctx: &ExecContext) {
    map_chunks("filter", &chunks, out, ctx, |c| None, |c, x, i| Ok(None))
}
"#;

/// Builds a synthetic workspace under `CARGO_TARGET_TMPDIR`.
fn scaffold(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clean scaffold");
    }
    for dir in [
        "crates/core/src/ops",
        "crates/query/src",
        "crates/conformance/src",
        "crates/obs/src",
        "crates/xtask",
        "tests",
    ] {
        fs::create_dir_all(root.join(dir)).expect("mkdir");
    }
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write");
    fs::write(root.join("crates/core/src/ops/mod.rs"), OPS).expect("write");
    // A minimal op table covering the kernel keeps R6 quiet.
    fs::write(
        root.join("crates/conformance/src/optable.rs"),
        "pub const OP_TABLE: &[OpEntry] = &[\n\
         OpEntry { name: \"filter\", kernel: Some(\"filter_with\"), weight: 1 },\n\
         ];\n",
    )
    .expect("write");
    fs::write(
        root.join("tests/parallel_equivalence.rs"),
        "// exercises filter_with\n",
    )
    .expect("write");
    root
}

fn run(root: &Path) -> Outcome {
    let mut out = Vec::new();
    analyze(root, &Options::default(), &mut out).expect("analyze runs")
}

#[test]
fn seeded_unwrap_fails_and_baseline_grandfathers() {
    let root = scaffold("seeded_unwrap");
    let victim = root.join("crates/core/src/victim.rs");
    fs::write(&victim, "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n").expect("write");
    assert_eq!(run(&root), Outcome::Failed, "seeded unwrap must fail");

    // Grandfather it, then the same run is clean.
    fs::write(
        root.join(BASELINE_PATH),
        "R1\tcrates/core/src/victim.rs\t1\n",
    )
    .expect("write baseline");
    assert_eq!(run(&root), Outcome::Clean, "baselined violation warns only");

    // A second violation in the same file exceeds the baseline count.
    fs::write(
        &victim,
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\npub fn g() { panic!(\"no\") }\n",
    )
    .expect("write");
    assert_eq!(
        run(&root),
        Outcome::Failed,
        "count above baseline must fail"
    );
}

#[test]
fn seeded_violations_in_tests_or_with_justified_allow_pass() {
    let root = scaffold("seeded_allowed");
    fs::write(
        root.join("crates/core/src/ok.rs"),
        "pub fn f(x: Option<u8>) -> u8 {\n\
         x.unwrap() // analyze: allow(R1, caller checked is_some above)\n\
         }\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n",
    )
    .expect("write");
    assert_eq!(run(&root), Outcome::Clean);
}

#[test]
fn seeded_spawn_and_foreign_result_fail() {
    let root = scaffold("seeded_r3_r4");
    fs::write(
        root.join("crates/query/src/bad.rs"),
        "pub fn go() { std::thread::spawn(|| {}); }\n\
         pub fn parse() -> Result<u8, String> { Ok(1) }\n",
    )
    .expect("write");
    let mut out = Vec::new();
    let outcome = analyze(&root, &Options::default(), &mut out).expect("analyze runs");
    assert_eq!(outcome, Outcome::Failed);
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.contains("error[R3]"), "{text}");
    assert!(text.contains("error[R4]"), "{text}");
}

#[test]
fn seeded_fanout_outside_the_drivers_fails_unless_allowed() {
    let root = scaffold("seeded_r2");
    let rogue = root.join("crates/core/src/ops/rogue.rs");
    fs::write(
        &rogue,
        "pub fn rogue_with(ctx: &ExecContext) { ctx.par_map(&v, |x| x); }\n",
    )
    .expect("write");
    let mut out = Vec::new();
    let outcome = analyze(&root, &Options::default(), &mut out).expect("analyze runs");
    assert_eq!(outcome, Outcome::Failed);
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.contains("error[R2]"), "{text}");
    assert!(
        text.contains("`rogue_with`, which is not a chunk driver"),
        "{text}"
    );

    fs::write(
        &rogue,
        "pub fn rogue_with(ctx: &ExecContext) {\n\
         // analyze: allow(R2, a side pass over the chunk list, merged in order)\n\
         ctx.par_map(&v, |x| x);\n}\n",
    )
    .expect("write");
    assert_eq!(run(&root), Outcome::Clean, "a justified allow silences R2");
}

#[test]
fn seeded_untested_kernel_fails_r2_and_r6() {
    let root = scaffold("seeded_r2_r6");
    fs::write(
        root.join("crates/core/src/ops/regrid.rs"),
        "pub fn regrid_with(ctx: &ExecContext) {\n\
         super::fold_chunks(\"regrid\", a, &idxs, agg, Some(k), schema, ctx)\n}\n",
    )
    .expect("write");
    let mut out = Vec::new();
    let outcome = analyze(&root, &Options::default(), &mut out).expect("analyze runs");
    assert_eq!(outcome, Outcome::Failed);
    let text = String::from_utf8(out).expect("utf8");
    assert!(
        text.contains("kernel `regrid_with` is not exercised by tests/parallel_equivalence.rs"),
        "{text}"
    );
    assert!(
        text.contains("parallel kernel `regrid_with` is not covered by the conformance op table"),
        "{text}"
    );
}

#[test]
fn update_baseline_ratchets_and_writes_json_report() {
    let root = scaffold("seeded_ratchet");
    let victim = root.join("crates/core/src/victim.rs");
    fs::write(&victim, "pub fn f() { todo!() }\npub fn g() { todo!() }\n").expect("write");

    let opts = Options {
        update_baseline: true,
        ..Options::default()
    };
    let mut out = Vec::new();
    assert_eq!(
        analyze(&root, &opts, &mut out).expect("analyze runs"),
        Outcome::Clean,
        "update-baseline run compares against the fresh baseline"
    );
    let baseline = fs::read_to_string(root.join(BASELINE_PATH)).expect("baseline written");
    assert!(
        baseline.contains("R1\tcrates/core/src/victim.rs\t2"),
        "{baseline}"
    );

    // Fixing one violation makes the baseline stale but still clean.
    fs::write(&victim, "pub fn f() { todo!() }\n").expect("write");
    let mut out = Vec::new();
    assert_eq!(
        analyze(&root, &Options::default(), &mut out).expect("analyze runs"),
        Outcome::Clean
    );
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.contains("baseline is stale"), "{text}");

    let report = fs::read_to_string(root.join("target/xtask-analyze.json")).expect("json report");
    assert!(report.contains("\"tool\":\"xtask-analyze\""), "{report}");
    assert!(report.contains("\"rule\":\"R1\""), "{report}");
}

/// A synthetic rank registry, written where the real one lives
/// (`crates/obs/src/sync.rs`) so the scaffold file is itself exempt.
const RANK_REGISTRY: &str = "
pub mod ranks {
    lock_ranks! {
        ALPHA = 10,
        BETA = 20,
        CATALOG = 30,
    }
}
";

#[test]
fn seeded_lock_cycle_fails_r7_naming_both_ranks() {
    let root = scaffold("seeded_r7_cycle");
    fs::write(root.join("crates/obs/src/sync.rs"), RANK_REGISTRY).expect("write");
    fs::write(
        root.join("crates/core/src/cycle.rs"),
        "pub struct S { lo: OrderedMutex<u8>, hi: OrderedMutex<u8> }\n\
         impl S {\n\
             pub fn build() -> S {\n\
                 S { lo: OrderedMutex::new(ranks::ALPHA, 0), hi: OrderedMutex::new(ranks::BETA, 0) }\n\
             }\n\
             pub fn forward(&self) { let a = self.lo.lock(); let b = self.hi.lock(); }\n\
             pub fn backward(&self) { let b = self.hi.lock(); let a = self.lo.lock(); }\n\
         }\n",
    )
    .expect("write");
    let mut out = Vec::new();
    let outcome = analyze(&root, &Options::default(), &mut out).expect("analyze runs");
    assert_eq!(outcome, Outcome::Failed);
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.contains("error[R7]"), "{text}");
    assert!(text.contains("`ALPHA` (rank 10)"), "{text}");
    assert!(text.contains("`BETA` (rank 20)"), "{text}");
    assert!(text.contains("lock ranks must strictly ascend"), "{text}");
    // Only the inverted pair is flagged; the ascending one passes.
    assert_eq!(text.matches("error[R7]").count(), 1, "{text}");
}

#[test]
fn seeded_raw_rwlock_fails_r7_outside_wrappers() {
    let root = scaffold("seeded_r7_raw");
    fs::write(root.join("crates/obs/src/sync.rs"), RANK_REGISTRY).expect("write");
    fs::write(
        root.join("crates/query/src/raw.rs"),
        "use std::sync::RwLock;\npub struct S { inner: RwLock<u8> }\n",
    )
    .expect("write");
    let mut out = Vec::new();
    let outcome = analyze(&root, &Options::default(), &mut out).expect("analyze runs");
    assert_eq!(outcome, Outcome::Failed);
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.contains("error[R7]"), "{text}");
    assert!(
        text.contains("raw `RwLock` outside the sync wrapper module"),
        "{text}"
    );
}

#[test]
fn seeded_blocking_under_write_guard_fails_r8() {
    let root = scaffold("seeded_r8");
    fs::write(root.join("crates/obs/src/sync.rs"), RANK_REGISTRY).expect("write");
    fs::write(
        root.join("crates/query/src/ddl.rs"),
        "pub struct S { state: OrderedRwLock<u8> }\n\
         impl S {\n\
             pub fn build() -> S { S { state: OrderedRwLock::new(ranks::CATALOG, 0) } }\n\
             pub fn bad(&self) {\n\
                 let mut g = self.state.write();\n\
                 let bytes = std::fs::read(\"snapshot.bin\");\n\
             }\n\
         }\n",
    )
    .expect("write");
    let mut out = Vec::new();
    let outcome = analyze(&root, &Options::default(), &mut out).expect("analyze runs");
    assert_eq!(outcome, Outcome::Failed);
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.contains("error[R8]"), "{text}");
    assert!(text.contains("file I/O"), "{text}");
    assert!(text.contains("`CATALOG` write guard"), "{text}");
}

#[test]
fn seeded_unhandled_request_variant_fails_r9() {
    let root = scaffold("seeded_r9");
    fs::create_dir_all(root.join("crates/server/src")).expect("mkdir");
    fs::write(
        root.join("crates/server/src/proto.rs"),
        "pub enum Request {\n    Hello { token: String },\n    Ping,\n    Rogue,\n}\n",
    )
    .expect("write");
    fs::write(
        root.join("crates/server/src/server.rs"),
        "fn dispatch(req: &Request) {\n\
         span.set_attr(\"request_type\", name(req));\n\
         match req {\n\
         Request::Hello { .. } => {}\n\
         Request::Ping => {}\n\
         _ => {}\n\
         }\n}\n",
    )
    .expect("write");
    let mut out = Vec::new();
    let outcome = analyze(&root, &Options::default(), &mut out).expect("analyze runs");
    assert_eq!(outcome, Outcome::Failed);
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.contains("error[R9]"), "{text}");
    assert!(
        text.contains("`Rogue` is never handled by the server dispatch"),
        "{text}"
    );

    // Handling the variant (here: removing it from the protocol) is clean
    // again — the rule gates the protocol/dispatch pair, not the baseline.
    fs::write(
        root.join("crates/server/src/proto.rs"),
        "pub enum Request {\n    Hello { token: String },\n    Ping,\n}\n",
    )
    .expect("write");
    assert_eq!(run(&root), Outcome::Clean);
}

/// The real repository must analyze clean against its committed baseline —
/// this makes `cargo test` itself enforce R1–R9.
#[test]
fn real_workspace_is_clean_at_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let opts = Options {
        quiet: true,
        // Keep the default report location free for interactive runs.
        json_out: Some(PathBuf::from("target/xtask-analyze-test.json")),
        ..Options::default()
    };
    let mut out = Vec::new();
    let outcome = analyze(root, &opts, &mut out).expect("analyze runs");
    let text = String::from_utf8_lossy(&out);
    assert_eq!(
        outcome,
        Outcome::Clean,
        "workspace has new violations:\n{text}"
    );
}
