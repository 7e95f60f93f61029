//! Seeded generator: the data set and every workload's statement list are
//! pure functions of `--seed`. The engine receives only what this module
//! produces — arrays and AQL text.
//!
//! Parameters that decide how much work a statement does (box sides, regrid
//! factors, window sizes, how many chunks a box straddles) are fixed; the
//! seed moves positions, thresholds, slice coordinates and insert
//! coordinates. That keeps a class's latency distribution the same shape
//! from seed to seed while no two statements of a run read the same cells.

use scidb_core::array::Array;
use scidb_core::geometry::HyperRect;
use scidb_core::schema::SchemaBuilder;
use scidb_core::value::{record, ScalarType, Value};
use scidb_core::Uncertain;
use scidb_ssdb::gen::ImageSpec;
use scidb_ssdb::queries::Benchmark;

/// Chunk stride of every spatial dimension.
pub const CHUNK: i64 = 64;

/// Chunk stride of the two catalog arrays, `obs` and `grp`. Their integer
/// and sigma columns repeat values (most groups span every epoch, most
/// point sources cover as many pixels), and a durable bucket whose column
/// run-length-encodes to fewer bytes than it has cells cannot be read back
/// today: `decode_i64s` takes a count above the payload's length for
/// corruption ("column count 38 exceeds payload of 19 bytes", seed 409). A
/// run costs 9 bytes, so a column of at most 8 cells can never get there.
/// For the same reason `sky` carries the flux alone.
const CATALOG_CHUNK: i64 = 8;

/// splitmix64: tiny, seedable, and good enough to scatter coordinates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: i64) -> i64 {
        (self.next_u64() % n as u64) as i64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below(hi - lo + 1)
    }
}

/// The four workloads, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AqlMem,
    AqlDisk,
    IngestMix,
    WireMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AqlMem,
        Workload::AqlDisk,
        Workload::IngestMix,
        Workload::WireMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AqlMem => "aql_mem",
            Workload::AqlDisk => "aql_disk",
            Workload::IngestMix => "ingest_mix",
            Workload::WireMix => "wire_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the read arrays live behind `Database::open` + the pool.
    pub fn durable(self) -> bool {
        matches!(self, Workload::AqlDisk | Workload::IngestMix)
    }
}

/// Statement classes; the same four names in every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Slab,
    Sweep,
    Join,
    Write,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Slab, Class::Sweep, Class::Join, Class::Write];

    pub fn name(self) -> &'static str {
        match self {
            Class::Slab => "slab",
            Class::Sweep => "sweep",
            Class::Join => "join",
            Class::Write => "write",
        }
    }
}

/// Data sizes. `full` is what BENCHMARK.json records; `quick` is the toy
/// size the unit test and `--quick` use.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Side of `cold`, the E1 array (several times the 64-frame pool).
    pub cold: i64,
    /// Side of `hot`, which fits the pool.
    pub hot: i64,
    /// Side of one SS-DB image.
    pub img: i64,
    /// SS-DB epochs.
    pub epochs: i64,
    /// SS-DB point sources.
    pub sources: usize,
    /// Side of `log`, the insert target.
    pub log: i64,
    /// Side of the boxes slab statements read.
    pub slab_side: i64,
    /// Side of the window the E1 self-join reads.
    pub join_side: i64,
}

impl Sizes {
    pub fn of(quick: bool) -> Sizes {
        if quick {
            Sizes::quick()
        } else {
            Sizes::full()
        }
    }

    pub fn full() -> Sizes {
        Sizes {
            cold: 512,
            hot: 128,
            img: 128,
            epochs: 8,
            sources: 40,
            log: 512,
            slab_side: 96,
            join_side: 128,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            cold: 128,
            hot: 64,
            img: 64,
            epochs: 3,
            sources: 10,
            log: 64,
            slab_side: 32,
            join_side: 64,
        }
    }
}

/// The arrays every workload loads, plus the SS-DB instance they came from
/// (the oracle asks it for Q1/Q3/Q5).
pub struct Dataset {
    pub sizes: Sizes,
    /// `(name, array)` in load order: cold, hot, stack, sky, obs, grp.
    pub arrays: Vec<(&'static str, Array)>,
    pub bench: Benchmark,
}

impl Dataset {
    pub fn array(&self, name: &str) -> &Array {
        &self
            .arrays
            .iter()
            .find(|(n, _)| *n == name)
            .expect("dataset array name")
            .1
    }

    /// Cells × attribute bytes over all loaded arrays: the "user bytes" the
    /// space metrics divide by.
    pub fn user_bytes(&self) -> u64 {
        self.arrays
            .iter()
            .map(|(_, a)| {
                let width: usize = a
                    .schema()
                    .attrs()
                    .iter()
                    .map(|at| at.ty.as_scalar().map_or(8, |t| t.fixed_width()))
                    .sum();
                (a.cell_count() * width) as u64
            })
            .sum()
    }

    pub fn cells(&self) -> u64 {
        self.arrays.iter().map(|(_, a)| a.cell_count() as u64).sum()
    }
}

/// A smooth, compressible field (like an instrument's), phase-shifted by
/// the seed.
pub fn dense(name: &str, n: i64, seed: u64) -> Array {
    let schema = SchemaBuilder::new(name)
        .attr("v", ScalarType::Float64)
        .dim_chunked("i", n, CHUNK.min(n))
        .dim_chunked("j", n, CHUNK.min(n))
        .build()
        .expect("dense schema");
    let phase = (seed % 1000) as f64 * 0.01;
    let mut a = Array::new(schema);
    a.fill_with(|c| {
        let (x, y) = (c[0] as f64, c[1] as f64);
        record([Value::from((x * 0.05 + phase).sin() * 100.0 + y * 0.01)])
    })
    .expect("dense fill");
    a
}

/// Six decimals. `scidb_ssdb::detect` sums a component's pixels in hash-map
/// order, so two cookings of the same image differ in a centroid's or a
/// flux's last bits; what is loaded must not.
fn micro(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// Generates and cooks the data set: two dense E1 arrays, and the SS-DB
/// stack with its observation and group arrays (detect and group run in
/// `scidb_ssdb`, outside AQL, as SS-DB cooks them).
pub fn dataset(sizes: Sizes, seed: u64) -> Dataset {
    let spec = ImageSpec {
        size: sizes.img,
        n_sources: sizes.sources,
        seed,
        ..ImageSpec::default()
    };
    let mut bench = Benchmark::prepare(&spec, sizes.epochs as usize).expect("ssdb prepare");

    // `sky` keys an observation by its rounded centre; should two of one
    // epoch ever round to the same pixel, keep the first in both the array
    // and the instance the oracle consults.
    for obs in &mut bench.observations {
        let mut seen = std::collections::BTreeSet::new();
        obs.retain(|o| {
            let (x, y) = o.center();
            seen.insert((x.round() as i64, y.round() as i64))
        });
    }

    let n = sizes.img;
    let pixels: Vec<Vec<f64>> = bench
        .stack
        .epochs
        .iter()
        .map(|e| {
            let mut v = vec![0.0; (n * n) as usize];
            for (c, f) in e.cells_f64(0) {
                v[((c[0] - 1) * n + c[1] - 1) as usize] = f;
            }
            v
        })
        .collect();
    let spatial = |name: &str| {
        SchemaBuilder::new(name)
            .dim_chunked("x", n, CHUNK.min(n))
            .dim_chunked("y", n, CHUNK.min(n))
            .dim_chunked("t", sizes.epochs, 1)
    };
    let mut stack = Array::new(
        spatial("stack")
            .attr("flux", ScalarType::Float64)
            .build()
            .expect("stack schema"),
    );
    stack
        .fill_with(|c| {
            record([Value::from(
                pixels[(c[2] - 1) as usize][((c[0] - 1) * n + c[1] - 1) as usize],
            )])
        })
        .expect("stack fill");

    let max_obs = bench
        .observations
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .max(1) as i64;
    let mut sky = Array::new(
        spatial("sky")
            .attr("flux", ScalarType::Float64)
            .build()
            .expect("sky schema"),
    );
    let mut obs = Array::new(
        SchemaBuilder::new("obs")
            .attr("x", ScalarType::Float64)
            .attr("y", ScalarType::Float64)
            .attr("flux", ScalarType::UncertainFloat64)
            .attr("npix", ScalarType::Int64)
            .dim_chunked("t", sizes.epochs, 1)
            .dim_chunked("id", max_obs, CATALOG_CHUNK)
            .build()
            .expect("obs schema"),
    );
    for (e, per_epoch) in bench.observations.iter().enumerate() {
        let t = e as i64 + 1;
        for (k, o) in per_epoch.iter().enumerate() {
            let (x, y) = o.center();
            // Detection centroids lie inside the image; clamp guards the
            // rounding at the very edge.
            let (px, py) = (
                (x.round() as i64).clamp(1, n),
                (y.round() as i64).clamp(1, n),
            );
            sky.set_cell(&[px, py, t], record([Value::from(micro(o.flux.mean))]))
                .expect("sky cell");
            obs.set_cell(
                &[t, k as i64 + 1],
                record([
                    Value::from(micro(x)),
                    Value::from(micro(y)),
                    Value::from(Uncertain::new(micro(o.flux.mean), micro(o.flux.sigma))),
                    Value::from(o.npix as i64),
                ]),
            )
            .expect("obs cell");
        }
    }

    let n_groups = bench.groups.len().max(1) as i64;
    let mut grp = Array::new(
        SchemaBuilder::new("grp")
            .attr("n", ScalarType::Int64)
            .attr("speed", ScalarType::Float64)
            .attr("flux", ScalarType::Float64)
            .dim_chunked("g", n_groups, CATALOG_CHUNK)
            .build()
            .expect("grp schema"),
    );
    for (k, g) in bench.groups.iter().enumerate() {
        let (vx, vy) = g.velocity();
        grp.set_cell(
            &[k as i64 + 1],
            record([
                Value::from(g.len() as i64),
                Value::from(micro(vx.hypot(vy))),
                Value::from(micro(g.mean_flux())),
            ]),
        )
        .expect("grp cell");
    }

    Dataset {
        sizes,
        arrays: vec![
            ("cold", dense("cold", sizes.cold, seed)),
            ("hot", dense("hot", sizes.hot, seed.wrapping_add(1))),
            ("stack", stack),
            ("sky", sky),
            ("obs", obs),
            ("grp", grp),
        ],
        bench,
    }
}

/// AQL that creates the insert target.
pub fn create_log(sizes: &Sizes) -> String {
    let n = sizes.log;
    let chunk = CHUNK.min(n);
    format!(
        "define Log (v = float) (i = 1:{n}:{chunk}, j = 1:{n}:{chunk}); create log as Log [{n}, {n}];"
    )
}

/// What the oracle must compare a statement's answer with, beyond the
/// in-memory reference checksum.
#[derive(Debug, Clone, PartialEq)]
pub enum Cross {
    None,
    /// E1 on `hot` against `scidb_relational::ArrayTable`.
    TableSlice {
        dim: &'static str,
        at: i64,
    },
    TableSlabSum(HyperRect),
    TableRegrid(i64),
    TableSjoin,
    /// SS-DB against `scidb_ssdb::queries::Benchmark`.
    Q1(HyperRect),
    Q3 {
        epoch: usize,
        factor: i64,
    },
    Q5 {
        epoch: usize,
        region: HyperRect,
    },
}

/// One generated statement.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Statement kind (README maps kind → class → AQL → E1/SS-DB query).
    pub kind: &'static str,
    pub class: Class,
    /// AQL text. A `store` ends in `into st_`; the harness appends a
    /// sequence number when it issues it, so targets never collide.
    pub text: String,
    /// Set for `insert`: `(i, j, value)`, so ingest_mix can re-read it.
    pub insert: Option<(i64, i64, f64)>,
    /// Stored array and rectangle the statement reads (for the storage
    /// head-room and direct-kernel probes).
    pub region: Option<(&'static str, HyperRect)>,
    pub cross: Cross,
}

impl Stmt {
    fn read(kind: &'static str, class: Class, text: String) -> Stmt {
        Stmt {
            kind,
            class,
            text,
            insert: None,
            region: None,
            cross: Cross::None,
        }
    }

    pub fn is_store(&self) -> bool {
        self.kind == "store"
    }
}

/// A box of side `side` in `1..=n` whose offset from a chunk boundary is
/// at most half a chunk, so every draw straddles the same number of chunks.
fn span(rng: &mut Rng, n: i64, side: i64) -> (i64, i64) {
    let r = rng.below(CHUNK.min(n) / 2 + 1);
    let kmax = ((n - side - r) / CHUNK).max(0);
    let lo = 1 + CHUNK * rng.below(kmax + 1) + r;
    let lo = lo.min(n - side + 1).max(1);
    (lo, lo + side - 1)
}

/// A chunk-aligned window of side `side`.
fn aligned(rng: &mut Rng, n: i64, side: i64) -> (i64, i64) {
    let kmax = (n - side) / CHUNK;
    let lo = 1 + CHUNK * rng.below(kmax + 1);
    (lo, lo + side - 1)
}

fn box2(d0: &str, a: (i64, i64), d1: &str, b: (i64, i64)) -> String {
    format!(
        "{d0} >= {} and {d0} <= {} and {d1} >= {} and {d1} <= {}",
        a.0, a.1, b.0, b.1
    )
}

fn rect2(a: (i64, i64), b: (i64, i64)) -> HyperRect {
    HyperRect::new(vec![a.0, b.0], vec![a.1, b.1]).expect("ordered box")
}

/// Threshold inside `cold`/`hot`'s value range, three decimals.
fn threshold(rng: &mut Rng) -> f64 {
    rng.between(-60_000, 60_000) as f64 / 1000.0
}

/// Generates one statement of `kind`. Kinds are listed in README.md.
pub fn statement(kind: &'static str, sizes: &Sizes, rng: &mut Rng) -> Stmt {
    let s = sizes;
    let side = s.slab_side;
    let epoch = |rng: &mut Rng| rng.between(1, s.epochs);
    match kind {
        // ---- slab: selective structural reads -------------------------
        "e1_slice" | "hot_slice" => {
            let (arr, n) = if kind == "e1_slice" { ("cold", s.cold) } else { ("hot", s.hot) };
            let dim = if rng.below(2) == 0 { "i" } else { "j" };
            let at = rng.between(1, n);
            let mut st = Stmt::read(kind, Class::Slab, format!("slice({arr}, {dim}, {at})"));
            if arr == "hot" {
                st.cross = Cross::TableSlice { dim, at };
            }
            st
        }
        "e1_slab" | "hot_slab" => {
            let (arr, n) = if kind == "e1_slab" { ("cold", s.cold) } else { ("hot", s.hot) };
            let side = side.min(n - CHUNK.min(n) / 2);
            let (a, b) = (span(rng, n, side), span(rng, n, side));
            let mut st = Stmt::read(
                kind,
                Class::Slab,
                format!(
                    "aggregate(subsample({arr}, {}), {{}}, sum(v))",
                    box2("i", a, "j", b)
                ),
            );
            st.region = Some((arr, rect2(a, b)));
            if arr == "hot" {
                st.cross = Cross::TableSlabSum(rect2(a, b));
            }
            st
        }
        "q1_slab_avg" => {
            let side = side.min(s.img - CHUNK.min(s.img) / 2);
            let (a, b) = (span(rng, s.img, side), span(rng, s.img, side));
            let mut st = Stmt::read(
                kind,
                Class::Slab,
                format!(
                    "aggregate(subsample(stack, {}), {{}}, avg(flux))",
                    box2("x", a, "y", b)
                ),
            );
            st.region = Some((
                "stack",
                HyperRect::new(vec![a.0, b.0, 1], vec![a.1, b.1, s.epochs]).expect("q1 box"),
            ));
            st.cross = Cross::Q1(rect2(a, b));
            st
        }
        "q2_recook" => {
            let side = (side / 3).max(8);
            let (a, b) = (span(rng, s.img, side), span(rng, s.img, side));
            let t = epoch(rng);
            let dark = rng.between(1, 9) as f64 / 10.0;
            let gain = 1.0 + rng.between(1, 9) as f64 / 20.0;
            let mut st = Stmt::read(
                kind,
                Class::Slab,
                format!(
                    "apply(subsample(stack, {} and t = {t}), cooked, (flux - {dark:?}) * {gain:?})",
                    box2("x", a, "y", b)
                ),
            );
            st.region = Some((
                "stack",
                HyperRect::new(vec![a.0, b.0, t], vec![a.1, b.1, t]).expect("q2 box"),
            ));
            st
        }
        "q5_obs_box" => {
            let side = side.min(s.img - CHUNK.min(s.img) / 2);
            let (a, b) = (span(rng, s.img, side), span(rng, s.img, side));
            let t = epoch(rng);
            let mut st = Stmt::read(
                kind,
                Class::Slab,
                format!(
                    "aggregate(subsample(sky, {} and t = {t}), {{}}, count(*))",
                    box2("x", a, "y", b)
                ),
            );
            st.region = Some((
                "sky",
                HyperRect::new(vec![a.0, b.0, t], vec![a.1, b.1, t]).expect("q5 box"),
            ));
            st.cross = Cross::Q5 {
                epoch: (t - 1) as usize,
                region: rect2(a, b),
            };
            st
        }
        // ---- sweep: whole-array content operators ---------------------
        "e1_regrid" | "hot_regrid" => {
            let arr = if kind == "e1_regrid" { "cold" } else { "hot" };
            // The factor is fixed (it sets the cost); the aggregate moves.
            let agg = ["avg", "sum", "max", "min"][rng.below(4) as usize];
            let mut st = Stmt::read(kind, Class::Sweep, format!("regrid({arr}, [4, 4], {agg})"));
            if arr == "hot" && agg == "avg" {
                st.cross = Cross::TableRegrid(4);
            }
            st
        }
        "e1_filter" => Stmt::read(
            kind,
            Class::Sweep,
            format!("filter(cold, v > {:?})", threshold(rng)),
        ),
        "q3_regrid" => {
            let t = epoch(rng);
            let mut st = Stmt::read(
                kind,
                Class::Sweep,
                format!("regrid(subsample(stack, t = {t}), [4, 4, 1], avg)"),
            );
            st.cross = Cross::Q3 {
                epoch: (t - 1) as usize,
                factor: 4,
            };
            st
        }
        "q4_count" => Stmt::read(
            kind,
            Class::Sweep,
            format!(
                "aggregate(filter(subsample(stack, t = {}), flux > {:?}), {{}}, count(*))",
                epoch(rng),
                rng.between(2000, 9000) as f64 / 1000.0
            ),
        ),
        "q6_bright" => Stmt::read(
            kind,
            Class::Sweep,
            format!(
                "aggregate(filter(subsample(obs, t = {}), 1.0 - prob_below(flux, {:?}) >= 0.95), {{}}, count(*))",
                epoch(rng),
                rng.between(200, 400) as f64
            ),
        ),
        "q7_groups" => Stmt::read(
            kind,
            Class::Sweep,
            if rng.below(2) == 0 {
                format!(
                    "aggregate(filter(grp, n >= {}), {{}}, count(*))",
                    rng.between(2, s.epochs)
                )
            } else {
                // Q8, fast movers, reads the same group array.
                format!(
                    "aggregate(filter(grp, speed > {:?} and n >= 2), {{}}, count(*))",
                    rng.between(100, 1500) as f64 / 1000.0
                )
            },
        ),
        // ---- join ------------------------------------------------------
        "e1_sjoin" => {
            let (a, b) = (
                aligned(rng, s.cold, s.join_side),
                aligned(rng, s.cold, s.join_side),
            );
            let w = box2("i", a, "j", b);
            let mut st = Stmt::read(
                kind,
                Class::Join,
                format!("sjoin(subsample(cold, {w}), subsample(cold, {w}), i = i and j = j)"),
            );
            st.region = Some(("cold", rect2(a, b)));
            st
        }
        "hot_sjoin" => {
            // Self-join of the whole pool-resident array; the projection
            // varies so the text does.
            let by = ["i", "j"][rng.below(2) as usize];
            let mut st = Stmt::read(
                kind,
                Class::Join,
                format!(
                    "sjoin(hot, subsample(hot, {by} >= {}), i = i and j = j)",
                    1 - rng.below(1000)
                ),
            );
            st.cross = Cross::TableSjoin;
            st
        }
        "q9_cjoin" => {
            let (a, mut b) = (epoch(rng), epoch(rng));
            if s.epochs > 1 && a == b {
                b = a % s.epochs + 1;
            }
            let k = rng.between(20, 60) as f64 / 10.0;
            Stmt::read(
                kind,
                Class::Join,
                format!(
                    "aggregate(cjoin(subsample(obs, t = {a}), subsample(obs, t = {b}), abs(x - x_r) <= {k:?} and abs(y - y_r) <= {k:?}), {{}}, count(*))"
                ),
            )
        }
        // ---- write -----------------------------------------------------
        "insert" => {
            let (i, j) = (rng.between(1, s.log), rng.between(1, s.log));
            let v = rng.below(1_000_000) as f64 / 8.0;
            let mut st = Stmt::read(
                kind,
                Class::Write,
                format!("insert into log[{i}, {j}] values ({v:?})"),
            );
            st.insert = Some((i, j, v));
            st
        }
        "store" => {
            let side = (side / 3).max(8);
            // From the pool-resident array: what is timed is the write, not
            // a full-domain read of `cold`.
            let w = box2("i", span(rng, s.hot, side), "j", span(rng, s.hot, side));
            Stmt::read(
                kind,
                Class::Write,
                format!("store subsample(hot, {w}) into st_"),
            )
        }
        other => unreachable!("unknown statement kind {other}"),
    }
}

/// The kinds a workload draws each class from, with how many draws of each
/// kind its pool holds. A class is a mix of kinds whose costs differ by two
/// orders of magnitude; the read classes weigh their kinds equally.
pub fn kinds(w: Workload, class: Class) -> &'static [(&'static str, usize)] {
    use Class::*;
    use Workload::*;
    match (w, class) {
        (AqlMem | AqlDisk, Slab) | (WireMix, Slab) => &[
            ("e1_slice", 3),
            ("e1_slab", 3),
            ("hot_slice", 3),
            ("hot_slab", 3),
            ("q1_slab_avg", 3),
            ("q2_recook", 3),
            ("q5_obs_box", 3),
        ],
        (AqlMem | AqlDisk, Sweep) => &[
            ("e1_regrid", 3),
            ("e1_filter", 3),
            ("hot_regrid", 3),
            ("q3_regrid", 3),
            ("q4_count", 3),
            ("q6_bright", 3),
            ("q7_groups", 3),
        ],
        (AqlMem | AqlDisk, Join) => &[("e1_sjoin", 5), ("hot_sjoin", 5), ("q9_cjoin", 5)],
        // The read workloads write nothing.
        (AqlMem | AqlDisk, Write) => &[],
        // Inserts, with one store per 32 writes, which ingest_mix's pattern
        // makes one per 64 operations.
        (IngestMix, Write) => &[("insert", 31), ("store", 1)],
        // Writes beside reads: cheap reads keep the insert rate up.
        (IngestMix, Slab) => &[("hot_slab", 5), ("q5_obs_box", 5), ("e1_slab", 5)],
        (IngestMix, Sweep) => &[("q4_count", 8)],
        (IngestMix, Join) => &[("hot_sjoin", 8)],
        // Large answers only: the wire has to carry every cell of `cold`.
        (WireMix, Sweep) => &[("e1_filter", 12)],
        (WireMix, Join) => &[("hot_sjoin", 8)],
        (WireMix, Write) => &[("insert", 16)],
    }
}

/// The repeating order in which a workload issues classes. `None` in
/// wire_mix is an `execute_prepared` repeat of the previous slab statement.
pub fn pattern(w: Workload) -> Vec<Option<Class>> {
    use Class::*;
    let of = |cs: &[Class]| cs.iter().copied().map(Some).collect::<Vec<_>>();
    match w {
        Workload::AqlMem | Workload::AqlDisk => of(&[Slab, Sweep, Join]),
        // 1 write : 1 slab read; of every 64 operations one read is a sweep
        // and one a join, so that every read class has a median here too.
        Workload::IngestMix => (0..64)
            .map(|op| match op {
                31 => Sweep,
                63 => Join,
                _ if op % 2 == 0 => Write,
                _ => Slab,
            })
            .map(Some)
            .collect(),
        // Of 20: 11 slab (55 %), 5 sweep (25 %), 2 prepared repeats (10 %),
        // 1 insert (5 %), 1 join (5 %).
        Workload::WireMix => vec![
            Some(Slab),
            Some(Sweep),
            Some(Slab),
            None,
            Some(Slab),
            Some(Sweep),
            Some(Slab),
            Some(Slab),
            Some(Write),
            Some(Slab),
            Some(Sweep),
            Some(Slab),
            None,
            Some(Slab),
            Some(Sweep),
            Some(Slab),
            Some(Join),
            Some(Slab),
            Some(Sweep),
            Some(Slab),
        ],
    }
}

/// A workload's statement pool for one client: per class, the statements it
/// cycles through. Kinds are interleaved so consecutive statements of a
/// class differ in kind.
pub fn pool(w: Workload, sizes: &Sizes, seed: u64, client: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed ^ client.wrapping_mul(0xa076_1d64_78bd_642f) ^ 0x5eed);
    let mut out = Vec::new();
    for class in Class::ALL {
        let ks = kinds(w, class);
        let rounds = ks.iter().map(|k| k.1).max().unwrap_or(0);
        for round in 0..rounds {
            for &(kind, draws) in ks {
                // Spread a kind with fewer draws evenly over the rounds.
                let due = (round + 1) * draws / rounds > round * draws / rounds;
                if due {
                    out.push(statement(kind, sizes, &mut rng));
                }
            }
        }
    }
    out
}

/// One pool per client.
pub fn pools(w: Workload, sizes: &Sizes, seed: u64, clients: usize) -> Vec<Vec<Stmt>> {
    (0..clients as u64)
        .map(|c| pool(w, sizes, seed, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_statements_and_other_seed_same_mix() {
        let s = Sizes::full();
        for w in Workload::ALL {
            let a = pool(w, &s, 7, 0);
            let b = pool(w, &s, 7, 0);
            let c = pool(w, &s, 8, 0);
            let text = |p: &[Stmt]| p.iter().map(|s| s.text.clone()).collect::<Vec<_>>();
            let mix = |p: &[Stmt]| p.iter().map(|s| (s.kind, s.class)).collect::<Vec<_>>();
            assert_eq!(text(&a), text(&b), "{}", w.name());
            assert_ne!(text(&a), text(&c), "{}", w.name());
            assert_eq!(mix(&a), mix(&c), "{}", w.name());
            let expect: usize = Class::ALL
                .iter()
                .flat_map(|&c| kinds(w, c))
                .map(|k| k.1)
                .sum();
            assert_eq!(a.len(), expect);
        }
        // A second client of the same run reads elsewhere.
        assert_ne!(
            pool(Workload::WireMix, &s, 7, 0)[0].text,
            pool(Workload::WireMix, &s, 7, 1)[0].text
        );
    }

    #[test]
    fn same_seed_same_data() {
        let a = dataset(Sizes::quick(), 3);
        let b = dataset(Sizes::quick(), 3);
        let c = dataset(Sizes::quick(), 4);
        for ((na, xa), (_, xb)) in a.arrays.iter().zip(&b.arrays) {
            assert!(xa.same_cells(xb), "{na}");
        }
        assert!(!a.array("cold").same_cells(c.array("cold")));
        assert!(!a.array("stack").same_cells(c.array("stack")));
    }

    #[test]
    fn every_chunk_survives_the_durable_codec() {
        use scidb_storage::{deserialize_chunk, serialize_chunk, CodecPolicy};
        // 409 is the seed whose group sizes, in one chunk, could not be read
        // back from disk.
        for seed in [409, 1, 2] {
            for (name, array) in dataset(Sizes::full(), seed).arrays {
                for chunk in array.chunks().values() {
                    let bytes = serialize_chunk(chunk, CodecPolicy::adaptive()).expect(name);
                    let back = deserialize_chunk(&bytes);
                    assert!(back.is_ok(), "{name}, seed {seed}: {:?}", back.err());
                }
            }
        }
    }

    #[test]
    fn boxes_stay_in_bounds_and_straddle_alike() {
        let mut rng = Rng::new(1);
        for _ in 0..2000 {
            for (n, side) in [(512, 96), (128, 96), (128, 32), (64, 32)] {
                let (lo, hi) = span(&mut rng, n, side);
                assert!(
                    lo >= 1 && hi <= n && hi - lo + 1 == side,
                    "{lo}..{hi} in {n}"
                );
                let chunks = (hi - 1) / CHUNK - (lo - 1) / CHUNK + 1;
                assert_eq!(chunks, if side > CHUNK / 2 && n > CHUNK { 2 } else { 1 });
            }
            let (lo, hi) = aligned(&mut rng, 512, 128);
            assert!((lo - 1) % CHUNK == 0 && hi <= 512);
        }
    }

    #[test]
    fn every_pattern_slot_has_a_pool() {
        let s = Sizes::quick();
        for w in Workload::ALL {
            let p = pool(w, &s, 1, 0);
            for slot in pattern(w).into_iter().flatten() {
                assert!(p.iter().any(|st| st.class == slot), "{} {slot:?}", w.name());
            }
        }
    }
}
