//! Properties of the core data structures, the codecs and the query
//! binding: geometry linearization, bit vectors, codec round trips under
//! adversarial bit patterns, columnar↔legacy chunk equivalence, operator
//! algebra, history semantics, replicated placement, uncertainty
//! arithmetic, parser robustness and the binding ⇄ AQL round trip.
//!
//! Each case is drawn from `SmallRng` over a fixed seed range, so a failure
//! names its seed and replays exactly. Edge values the random draws would
//! rarely hit (i64 extremes, NaN payloads, −0.0, ±∞) are drawn from explicit
//! lists; a space smaller than the case count is enumerated instead.

use scidb::core::bitvec::BitVec;
use scidb::core::chunk::{Chunk, Column, Layer};
use scidb::core::expr::Expr;
use scidb::core::geometry::HyperRect;
use scidb::core::history::{Transaction, UpdatableArray};
use scidb::core::ops::{self, DimCond, DimPredicate};
use scidb::core::registry::Registry;
use scidb::core::rng::SmallRng;
use scidb::core::schema::{AttrType, AttributeDef, DimensionDef};
use scidb::grid::{PartitionScheme, ReplicatedPlacement};
use scidb::query::{parse, parse_one, scan, Q};
use scidb::storage::compress::{
    decode_bytes, decode_f64s, decode_i64s, encode_bytes, encode_f64s, encode_i64s, Codec,
};
use scidb::storage::{deserialize_chunk, serialize_chunk, CodecPolicy, DeltaStore, MemDisk};
use scidb::{Array, ScalarType, SchemaBuilder, Uncertain, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// `n` draws of `f`, with `n` drawn from `len`.
fn vec_of<T>(
    rng: &mut SmallRng,
    len: Range<usize>,
    mut f: impl FnMut(&mut SmallRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| f(rng)).collect()
}

/// One element of `items`, uniformly.
fn pick<T: Copy>(rng: &mut SmallRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// `vals` with `0..8` values of `edges` inserted at drawn positions.
fn splice_edges<T: Copy>(rng: &mut SmallRng, mut vals: Vec<T>, edges: &[T]) -> Vec<T> {
    for _ in 0..rng.gen_range(0..8usize) {
        let at = rng.gen_range(0..=vals.len());
        vals.insert(at, pick(rng, edges));
    }
    vals
}

// ---- codec round trips under adversarial inputs ---------------------------

/// encode∘decode = id for every int-capable codec, with the values that
/// zigzag to the widest varints (`i64::MIN`/`MAX`) spliced into otherwise
/// arbitrary data.
#[test]
fn int_codecs_roundtrip() {
    const EDGES: [i64; 6] = [i64::MIN, i64::MAX, i64::MIN + 1, -1, 0, 1];
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = vec_of(&mut rng, 0..300, |r| r.next_u64() as i64);
        let vals = splice_edges(&mut rng, base, &EDGES);
        for codec in [Codec::Raw, Codec::Rle, Codec::DeltaVarint] {
            let enc = encode_i64s(&vals, codec).unwrap();
            let dec = decode_i64s(&enc, codec).unwrap();
            assert_eq!(dec, vals, "seed {seed}: {codec:?}");
        }
    }
}

/// encode∘decode preserves every f64 *bit pattern* for every float-capable
/// codec: arbitrary `u64` bit images cover all NaN payloads, and the listed
/// specials hit signaling NaNs, −0.0 and the infinities on every run.
#[test]
fn float_codecs_roundtrip_bits() {
    const EDGES: [u64; 7] = [
        0x7ff8_0000_0000_0001, // quiet NaN, payload 1
        0x7ff0_0000_0000_0001, // signaling NaN
        0xfff8_dead_beef_cafe, // negative NaN, full payload
        u64::MAX,
        0x8000_0000_0000_0000, // -0.0
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
    ];
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = vec_of(&mut rng, 0..300, |r| r.next_u64());
        let bits = splice_edges(&mut rng, base, &EDGES);
        let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        for codec in [Codec::Raw, Codec::Rle, Codec::XorFloat] {
            let enc = encode_f64s(&vals, codec).unwrap();
            let dec = decode_f64s(&enc, codec).unwrap();
            let got: Vec<u64> = dec.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, bits, "seed {seed}: {codec:?}");
        }
    }
}

#[test]
fn byte_codecs_roundtrip() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = vec_of(&mut rng, 0..500, |r| r.next_u64() as u8);
        for codec in [Codec::Raw, Codec::Rle] {
            let enc = encode_bytes(&data, codec).unwrap();
            let dec = decode_bytes(&enc, codec).unwrap();
            assert_eq!(dec, data, "seed {seed}: {codec:?}");
        }
    }
}

// ---- columnar ↔ legacy construction equivalence ---------------------------

/// The same cell set built two ways — cell writes in a drawn order, with
/// overwrites and `clear_cell`s (each new cell appends or inserts a lane),
/// and direct columnar `from_parts` from a `BTreeMap` model of the final
/// state — must compare equal, present the model's cells in its row-major
/// order, serialize to identical bucket bytes under every policy, and
/// round-trip through the bucket codec.
#[test]
fn columnar_construction_equals_legacy_cell_writes() {
    enum Op {
        Write(usize, Option<i64>, Option<f64>),
        Clear(usize),
    }
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(1..=72usize);
        let draw = |rng: &mut SmallRng, off: usize| {
            let iv = rng.gen_bool(0.5).then(|| rng.next_u64() as i64);
            let fv = rng.gen_bool(0.5).then(|| rng.gen_range(-1.0e300..1.0e300));
            Op::Write(off, iv, fv)
        };
        // A drawn subset of the cells, then overwrites and clears at drawn
        // cells, all in one drawn permutation.
        let mut ops: Vec<Op> = Vec::new();
        for off in 0..len {
            if rng.gen_bool(0.6) {
                ops.push(draw(&mut rng, off));
            }
        }
        for _ in 0..rng.gen_range(0..len) {
            let off = rng.gen_range(0..len);
            if rng.gen_bool(0.4) {
                ops.push(Op::Clear(off));
            } else {
                ops.push(draw(&mut rng, off));
            }
        }
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.gen_range(0..=i));
        }

        let rect = HyperRect::new(vec![1], vec![len as i64]).unwrap();
        let types = vec![
            AttrType::Scalar(ScalarType::Int64),
            AttrType::Scalar(ScalarType::Float64),
        ];
        let mut cells: BTreeMap<usize, (Option<i64>, Option<f64>)> = BTreeMap::new();
        let mut legacy = Chunk::new(rect.clone(), &types);
        for op in &ops {
            match *op {
                Op::Write(off, iv, fv) => {
                    let rec = vec![
                        iv.map(Value::from).unwrap_or(Value::Null),
                        fv.map(Value::from).unwrap_or(Value::Null),
                    ];
                    legacy.set_record(&rect.delinearize(off), &rec).unwrap();
                    cells.insert(off, (iv, fv));
                }
                Op::Clear(off) => {
                    legacy.clear_cell(&rect.delinearize(off));
                    cells.remove(&off);
                }
            }
        }

        let n = cells.len();
        let mut idata = vec![0i64; n];
        let mut inulls = BitVec::filled(n, true);
        let mut fdata = vec![0.0f64; n];
        let mut fnulls = BitVec::filled(n, true);
        for (lane, &(iv, fv)) in cells.values().enumerate() {
            if let Some(v) = iv {
                idata[lane] = v;
                inulls.set(lane, false);
            }
            if let Some(v) = fv {
                fdata[lane] = v;
                fnulls.set(lane, false);
            }
        }
        let columnar = Chunk::from_parts(
            rect.clone(),
            types.clone(),
            Arc::new(cells.keys().map(|&off| off as u32).collect()),
            vec![
                Column::Int64 {
                    data: idata,
                    nulls: inulls,
                },
                Column::Float64 {
                    data: fdata,
                    nulls: fnulls,
                },
            ],
        )
        .unwrap();

        assert_eq!(legacy, columnar, "seed {seed}");
        assert_eq!(legacy.present_count(), n, "seed {seed}");
        let model_order: Vec<_> = cells.keys().map(|&off| rect.delinearize(off)).collect();
        let order: Vec<_> = legacy.iter_present().map(|(coords, _)| coords).collect();
        assert_eq!(order, model_order, "seed {seed}: iter_present order");

        // The write order never leaks into the stored bytes, and the bytes
        // come back as the same chunk.
        for policy in [
            CodecPolicy::default_policy(),
            CodecPolicy::raw(),
            CodecPolicy::adaptive(),
        ] {
            let a = serialize_chunk(&legacy, policy).unwrap();
            let b = serialize_chunk(&columnar, policy).unwrap();
            assert_eq!(a, b, "seed {seed}: {policy:?}");
            let back = deserialize_chunk(&a).unwrap();
            assert_eq!(back, columnar, "seed {seed}: {policy:?}");
        }
    }
}

/// A drawn chunk over `rect` with an int, a float, a string and an
/// uncertain column: full, sparse or empty, with NULLs, and with one shared
/// or per-cell sigma.
fn drawn_chunk(rng: &mut SmallRng, rect: &HyperRect) -> Chunk {
    let types = [
        ScalarType::Int64,
        ScalarType::Float64,
        ScalarType::String,
        ScalarType::UncertainFloat64,
    ]
    .map(AttrType::Scalar);
    let fill = pick(rng, &[0.0, 0.2, 0.7, 1.0]);
    let shared_sigma = rng.gen_bool(0.5);
    let mut chunk = Chunk::new(rect.clone(), &types);
    for coords in rect.iter_cells() {
        if !rng.gen_bool(fill) {
            continue;
        }
        let mut null_or = |v: Value| if rng.gen_bool(0.2) { Value::Null } else { v };
        let sigma = if shared_sigma { 0.5 } else { coords[0] as f64 };
        let rec = vec![
            null_or(Value::from(coords.iter().sum::<i64>())),
            null_or(Value::from(coords[0] as f64 * 0.25)),
            null_or(Value::from(format!("s{coords:?}"))),
            null_or(Value::from(Uncertain::new(1.0, sigma))),
        ];
        chunk.set_record(&coords, &rec).unwrap();
    }
    chunk
}

/// A rectangle of rank `rank` with each side in `1..=6` and its low corner
/// in `lo..lo + 6`.
fn drawn_rect(rng: &mut SmallRng, rank: usize, lo: i64) -> HyperRect {
    let low: Vec<i64> = (0..rank).map(|_| rng.gen_range(lo..lo + 6)).collect();
    let high = low.iter().map(|&l| l + rng.gen_range(0..6i64)).collect();
    HyperRect::new(low, high).unwrap()
}

/// `project_onto` equals the per-cell model — each present cell inside
/// both rectangles written with `set_record` into an empty chunk of the
/// target — as a chunk and as bucket bytes, for the chunk's own rectangle,
/// drawn rectangles, and every cell of a grid laid over the chunk (the
/// split of a merged bucket into schema chunks). An exact cover shares the
/// offsets.
#[test]
fn project_onto_equals_per_cell_model() {
    let policy = CodecPolicy::default_policy();
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rank = rng.gen_range(1..=3usize);
        let rect = drawn_rect(&mut rng, rank, 1);
        let chunk = drawn_chunk(&mut rng, &rect);
        let model = |keep: &HyperRect, target: &HyperRect| {
            let mut out = Chunk::new(target.clone(), chunk.attr_types());
            for (coords, lane) in chunk.iter_present() {
                if keep.contains(&coords) && target.contains(&coords) {
                    out.set_record(&coords, &chunk.record_at(lane)).unwrap();
                }
            }
            out
        };
        let check = |keep: &HyperRect, target: &HyperRect| {
            let got = chunk.project_onto(keep, target);
            let want = model(keep, target);
            assert_eq!(got, want, "seed {seed}: keep {keep:?} target {target:?}");
            assert_eq!(
                serialize_chunk(&got, policy).unwrap(),
                serialize_chunk(&want, policy).unwrap(),
                "seed {seed}: bytes"
            );
            got
        };

        // The chunk's own rectangle, kept whole: shared offsets.
        let whole = check(&rect.expanded(rng.gen_range(0..3)), &rect);
        assert_eq!(
            whole.offsets().as_ptr(),
            chunk.offsets().as_ptr(),
            "seed {seed}"
        );
        // Drawn keep and target rectangles, overlapping or not.
        for _ in 0..4 {
            let keep = drawn_rect(&mut rng, rank, -1);
            let target = if rng.gen_bool(0.3) {
                rect.clone()
            } else {
                drawn_rect(&mut rng, rank, -1)
            };
            check(&keep, &target);
        }
        // A grid of strides in `1..=4` over the chunk: its cells partition
        // the kept present cells.
        let strides: Vec<i64> = (0..rank).map(|_| rng.gen_range(1..=4i64)).collect();
        let keep = drawn_rect(&mut rng, rank, 0);
        let origin = |c: i64, s: i64| (c - 1).div_euclid(s) * s + 1;
        let grid = HyperRect::new(
            (0..rank).map(|d| origin(rect.low[d], strides[d])).collect(),
            (0..rank)
                .map(|d| origin(rect.high[d], strides[d]))
                .collect(),
        )
        .unwrap();
        let mut split = 0;
        for corner in grid.iter_cells() {
            if (0..rank).any(|d| (corner[d] - grid.low[d]) % strides[d] != 0) {
                continue;
            }
            let high = (0..rank).map(|d| corner[d] + strides[d] - 1).collect();
            split += check(&keep, &HyperRect::new(corner, high).unwrap()).present_count();
        }
        let kept = chunk
            .iter_present()
            .filter(|(coords, _)| keep.contains(coords))
            .count();
        assert_eq!(
            split, kept,
            "seed {seed}: the grid split loses or repeats cells"
        );
    }
}

/// `overlay` equals writing the layers' cells in order with `set_record`,
/// a deletion lane clearing its cell with `clear_cell`: the newest layer
/// holding a cell wins it, and a winning deletion removes it. The two-layer
/// cases without deletions come first, drawn as before; then k layers, some
/// with deletion lanes.
#[test]
fn overlay_equals_later_writes_win() {
    let model = |layers: &[Layer]| {
        let mut want = Chunk::new(layers[0].chunk.rect().clone(), layers[0].chunk.attr_types());
        for l in layers {
            for (coords, lane) in l.chunk.iter_present() {
                if l.deleted.as_ref().is_some_and(|d| d.get(lane)) {
                    want.clear_cell(&coords);
                } else {
                    want.set_record(&coords, &l.chunk.record_at(lane)).unwrap();
                }
            }
        }
        want
    };
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rank = rng.gen_range(1..=3usize);
        let rect = drawn_rect(&mut rng, rank, 1);
        let older = drawn_chunk(&mut rng, &rect);
        let newer = drawn_chunk(&mut rng, &rect);
        let layers = [Layer::from(older), Layer::from(newer)];
        let want = model(&layers);
        assert_eq!(
            Chunk::overlay(layers.to_vec()).unwrap(),
            want,
            "seed {seed}"
        );
    }
    let policy = CodecPolicy::default_policy();
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rank = rng.gen_range(1..=3usize);
        let rect = drawn_rect(&mut rng, rank, 1);
        let layers: Vec<Layer> = vec_of(&mut rng, 1..6, |r| {
            let chunk = drawn_chunk(r, &rect);
            let deleted = r.gen_bool(0.5).then(|| {
                let mut d = BitVec::filled(chunk.present_count(), false);
                for lane in 0..chunk.present_count() {
                    d.set(lane, r.gen_bool(0.3));
                }
                d
            });
            Layer { chunk, deleted }
        });
        let got = Chunk::overlay(layers.clone()).unwrap();
        let want = model(&layers);
        assert_eq!(got, want, "seed {seed}: {} layers", layers.len());
        assert_eq!(
            serialize_chunk(&got, policy).unwrap(),
            serialize_chunk(&want, policy).unwrap(),
            "seed {seed}: bytes"
        );
    }
    let rect = HyperRect::new(vec![1], vec![4]).unwrap();
    let other = HyperRect::new(vec![5], vec![8]).unwrap();
    let mut rng = SmallRng::seed_from_u64(0);
    let a = Layer::from(drawn_chunk(&mut rng, &rect));
    let b = Layer::from(drawn_chunk(&mut rng, &other));
    assert!(Chunk::overlay(vec![a.clone(), b]).is_err());
    assert!(Chunk::overlay(Vec::new()).is_err());
    let short = Layer {
        deleted: Some(BitVec::filled(a.chunk.present_count() + 1, true)),
        ..a
    };
    assert!(
        Chunk::overlay(vec![short]).is_err(),
        "deletion lanes off by one"
    );
}

/// A drawn array over `uppers` (`None` is unbounded, its cells then drawn
/// over `1..=9`): every dimension with a stride in `1..=4`, so chunks are
/// clipped by the bound or not, and the column types of [`drawn_chunk`],
/// NULLs included.
fn drawn_array(rng: &mut SmallRng, name: &str, uppers: &[Option<i64>]) -> Array {
    let attrs = [
        ("a", ScalarType::Int64),
        ("b", ScalarType::Float64),
        ("c", ScalarType::String),
        ("d", ScalarType::UncertainFloat64),
    ]
    .map(|(n, t)| AttributeDef::scalar(n, t));
    let dims = uppers.iter().enumerate().map(|(d, upper)| {
        let dim = match upper {
            Some(u) => DimensionDef::bounded(format!("d{d}"), *u),
            None => DimensionDef::unbounded(format!("d{d}")),
        };
        dim.with_chunk(rng.gen_range(1..=4))
    });
    let schema = scidb::ArraySchema::new(name, attrs.to_vec(), dims.collect()).unwrap();
    let mut a = Array::new(schema);
    let high = uppers.iter().map(|u| u.unwrap_or(9)).collect();
    let fill = pick(rng, &[0.0, 0.3, 0.8]);
    let shared_sigma = rng.gen_bool(0.5);
    for coords in HyperRect::new(vec![1; uppers.len()], high)
        .unwrap()
        .iter_cells()
    {
        if !rng.gen_bool(fill) {
            continue;
        }
        let mut null_or = |v: Value| if rng.gen_bool(0.2) { Value::Null } else { v };
        let sigma = if shared_sigma { 0.5 } else { coords[0] as f64 };
        let rec = vec![
            null_or(Value::from(coords.iter().sum::<i64>())),
            null_or(Value::from(coords[0] as f64 * 0.25)),
            null_or(Value::from(format!("s{coords:?}"))),
            null_or(Value::from(Uncertain::new(1.0, sigma))),
        ];
        a.set_cell(&coords, rec).unwrap();
    }
    a
}

/// `add_dimension`, `remove_dimension` and `concat` move chunks whole; each
/// equals the per-cell loop it replaced — every input cell written with
/// `set_cell` at its output coordinates into an empty array of the output
/// schema — as an array and as bucket bytes. The draws cover chunks the
/// bound clips or not, unbounded dimensions, NULL and string columns,
/// slices outside the domain, and concatenations whose operands have
/// different strides.
#[test]
fn structural_ops_equal_per_cell_model() {
    let policy = CodecPolicy::default_policy();
    let check = |seed: u64, what: &str, got: Array, cells: Vec<(Vec<i64>, Vec<Value>)>| {
        let mut want = Array::new(got.schema().clone());
        for (coords, rec) in cells {
            want.set_cell(&coords, rec).unwrap();
        }
        assert_eq!(got, want, "seed {seed}: {what}");
        for (g, w) in got.chunks().values().zip(want.chunks().values()) {
            assert_eq!(
                serialize_chunk(g, policy).unwrap(),
                serialize_chunk(w, policy).unwrap(),
                "seed {seed}: {what} bytes"
            );
        }
    };
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rank = rng.gen_range(1..=3usize);
        let uppers: Vec<Option<i64>> = (0..rank)
            .map(|_| (!rng.gen_bool(0.25)).then(|| rng.gen_range(1..=9i64)))
            .collect();
        let a = drawn_array(&mut rng, "A", &uppers);

        let added = a.cells().map(|(mut c, r)| {
            c.push(1);
            (c, r)
        });
        check(
            seed,
            "adddim",
            ops::add_dimension(&a, "new").unwrap(),
            added.collect(),
        );

        let d = rng.gen_range(0..rank);
        let name = format!("d{d}");
        if rank > 1 {
            // `at` 0 and 10 lie outside every domain drawn.
            let at = rng.gen_range(0..=10i64);
            let sliced = a.cells().filter(|(c, _)| c[d] == at).map(|(mut c, r)| {
                c.remove(d);
                (c, r)
            });
            let got = ops::remove_dimension(&a, &name, at).unwrap();
            check(seed, "slice", got, sliced.collect());
        }

        let mut b_uppers = uppers.clone();
        b_uppers[d] = (!rng.gen_bool(0.25)).then(|| rng.gen_range(1..=9i64));
        let b = drawn_array(&mut rng, "B", &b_uppers);
        let a_extent = uppers[d].unwrap_or_else(|| a.high_water(d));
        let shifted = b.cells().map(|(mut c, r)| {
            c[d] += a_extent;
            (c, r)
        });
        let got = ops::concat(&a, &b, &name).unwrap();
        check(seed, "concat", got, a.cells().chain(shifted).collect());
    }
}

// ---- geometry --------------------------------------------------------------

#[test]
fn rect_linearize_roundtrips() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rank = rng.gen_range(1..=3usize);
        let low: Vec<i64> = (0..rank).map(|_| rng.gen_range(1..50i64)).collect();
        let high: Vec<i64> = low.iter().map(|&l| l + rng.gen_range(0..5i64)).collect();
        let rect = HyperRect::new(low, high).unwrap();
        for (k, coords) in rect.iter_cells().enumerate() {
            assert_eq!(
                rect.linearize(&coords),
                k,
                "seed {seed}: row-major is dense"
            );
            assert_eq!(rect.delinearize(k), coords, "seed {seed}");
        }
        assert_eq!(
            rect.iter_cells().count() as u64,
            rect.volume(),
            "seed {seed}"
        );
    }
}

/// The intersection is commutative and holds exactly the cells both
/// rectangles contain.
#[test]
fn rect_intersection_is_commutative_and_exact() {
    let rect = |rng: &mut SmallRng| {
        let low: Vec<i64> = (0..2).map(|_| rng.gen_range(1..20i64)).collect();
        let high: Vec<i64> = low.iter().map(|&l| l + rng.gen_range(0..9i64)).collect();
        HyperRect::new(low, high).unwrap()
    };
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (a, b) = (rect(&mut rng), rect(&mut rng));
        let ab = a.intersection(&b);
        assert_eq!(ab, b.intersection(&a), "seed {seed}: {a:?} ∩ {b:?}");
        let shared = a.iter_cells().filter(|c| b.contains(c)).count() as u64;
        assert_eq!(
            ab.as_ref().map_or(0, |i| i.volume()),
            shared,
            "seed {seed}: {a:?} ∩ {b:?} = {ab:?}"
        );
        if let Some(i) = ab {
            for c in i.iter_cells() {
                assert!(a.contains(&c) && b.contains(&c), "seed {seed}: {c:?}");
            }
        }
    }
}

// ---- bitvec ----------------------------------------------------------------

#[test]
fn bitvec_matches_model() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bv = BitVec::filled(200, false);
        let mut model = [false; 200];
        for _ in 0..rng.gen_range(1..100usize) {
            let (i, v) = (rng.gen_range(0..200usize), rng.gen_bool(0.5));
            bv.set(i, v);
            model[i] = v;
        }
        let expect: Vec<usize> = (0..200).filter(|&i| model[i]).collect();
        assert_eq!(bv.count_ones(), expect.len(), "seed {seed}");
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), expect, "seed {seed}");
    }
}

// ---- array vs model, bucket round trip --------------------------------------

fn small_schema() -> scidb::ArraySchema {
    SchemaBuilder::new("P")
        .attr("v", ScalarType::Float64)
        .dim_chunked("i", 12, 4)
        .dim_chunked("j", 12, 4)
        .build()
        .unwrap()
}

/// `len` drawn writes of values from `vals` into a 12×12 grid.
fn gen_writes(rng: &mut SmallRng, len: Range<usize>, vals: Range<f64>) -> Vec<([i64; 2], f64)> {
    vec_of(rng, len, |r| {
        let at = [r.gen_range(1..=12i64), r.gen_range(1..=12i64)];
        (at, r.gen_range(vals.clone()))
    })
}

fn small_array(writes: &[([i64; 2], f64)]) -> Array {
    let mut a = Array::new(small_schema());
    for (at, v) in writes {
        a.set_cell(at, vec![Value::from(*v)]).unwrap();
    }
    a
}

#[test]
fn array_matches_hashmap_model() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let writes = gen_writes(&mut rng, 1..80, -100.0..100.0);
        let mut a = small_array(&writes);
        let mut model: HashMap<[i64; 2], f64> = writes.into_iter().collect();
        for _ in 0..rng.gen_range(0..20usize) {
            let at = [rng.gen_range(1..=12i64), rng.gen_range(1..=12i64)];
            a.delete_cell(&at).unwrap();
            model.remove(&at);
        }
        assert_eq!(a.cell_count(), model.len(), "seed {seed}");
        for (at, v) in &model {
            assert_eq!(a.get_f64(0, at), Some(*v), "seed {seed}: {at:?}");
        }
        // Iteration yields exactly the model's cells.
        let mut seen = 0;
        for (coords, rec) in a.cells() {
            let at = [coords[0], coords[1]];
            assert_eq!(rec[0].as_f64(), model.get(&at).copied(), "seed {seed}");
            seen += 1;
        }
        assert_eq!(seen, model.len(), "seed {seed}");
    }
}

#[test]
fn bucket_serialization_roundtrips_arbitrary_chunks() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = small_array(&gen_writes(&mut rng, 0..60, -100.0..100.0));
        for chunk in a.chunks().values() {
            for policy in [
                CodecPolicy::default_policy(),
                CodecPolicy::raw(),
                CodecPolicy::adaptive(),
            ] {
                let bytes = serialize_chunk(chunk, policy).unwrap();
                let back = deserialize_chunk(&bytes).unwrap();
                assert_eq!(&back, chunk, "seed {seed}: {policy:?}");
            }
        }
    }
}

// ---- operator algebra ---------------------------------------------------------

#[test]
fn subsample_is_monotone_and_idempotent() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = small_array(&gen_writes(&mut rng, 1..60, -10.0..10.0));
        let (x, y) = (rng.gen_range(1..=12i64), rng.gen_range(1..=12i64));
        let (lo, hi) = (x.min(y), x.max(y));
        let pred = DimPredicate::new().with("i", DimCond::Between(lo, hi));
        let once = ops::subsample(&a, &pred, None).unwrap();
        // Every output cell existed in the input with the same record.
        for (coords, rec) in once.cells() {
            assert!(
                coords[0] >= lo && coords[0] <= hi,
                "seed {seed}: {coords:?}"
            );
            assert_eq!(a.get_cell(&coords), Some(rec), "seed {seed}: {coords:?}");
        }
        let twice = ops::subsample(&once, &pred, None).unwrap();
        assert!(once.same_cells(&twice), "seed {seed}: not idempotent");
    }
}

/// Every shape of up to 4×4×4 (the whole space, enumerated).
#[test]
fn reshape_preserves_value_multiset() {
    for (a_len, b_len, c_len) in
        (1..=4i64).flat_map(|a| (1..=4i64).flat_map(move |b| (1..=4i64).map(move |c| (a, b, c))))
    {
        let shape = (a_len, b_len, c_len);
        let schema = SchemaBuilder::new("R")
            .attr("v", ScalarType::Int64)
            .dim("A", a_len)
            .dim("B", b_len)
            .dim("C", c_len)
            .build()
            .unwrap();
        let mut arr = Array::new(schema);
        arr.fill_with(|c| vec![Value::from(c[0] * 100 + c[1] * 10 + c[2])])
            .unwrap();
        let total = a_len * b_len * c_len;
        let out = ops::reshape(&arr, &["C", "A", "B"], &[("k".to_string(), total)]).unwrap();
        assert_eq!(out.cell_count() as i64, total, "{shape:?}");
        let values = |a: &Array| {
            let mut v: Vec<i64> = a.cells().map(|(_, r)| r[0].as_i64().unwrap()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(values(&arr), values(&out), "{shape:?}");
    }
}

#[test]
fn regrid_count_conserves_cells() {
    let registry = Registry::with_builtins();
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = small_array(&gen_writes(&mut rng, 1..60, 0.0..10.0));
        let factors = [rng.gen_range(1..=4i64), rng.gen_range(1..=4i64)];
        let out = ops::regrid(&a, &factors, "count", &registry).unwrap();
        let total: i64 = out.cells().map(|(_, r)| r[0].as_i64().unwrap()).sum();
        assert_eq!(total as usize, a.cell_count(), "seed {seed}: {factors:?}");
    }
}

// ---- history -------------------------------------------------------------------

/// One transaction: cell writes, `None` for a delete.
type TxnSpec = Vec<([i64; 2], Option<f64>)>;

#[test]
fn history_latest_matches_sequential_model() {
    let schema = SchemaBuilder::new("H")
        .attr("v", ScalarType::Float64)
        .dim("I", 6)
        .dim("J", 6)
        .updatable()
        .build()
        .unwrap();
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let txns: Vec<TxnSpec> = vec_of(&mut rng, 1..12, |r| {
            vec_of(r, 1..5, |r| {
                let at = [r.gen_range(1..=6i64), r.gen_range(1..=6i64)];
                (at, r.gen_bool(0.5).then(|| r.gen_range(-10.0..10.0)))
            })
        });
        let mut arr = UpdatableArray::new(schema.clone()).unwrap();
        let mut store =
            DeltaStore::new(Arc::new(MemDisk::new()), &schema, CodecPolicy::adaptive()).unwrap();
        let mut model: HashMap<[i64; 2], Option<f64>> = HashMap::new();
        let mut snapshots = Vec::new();
        for spec in &txns {
            let mut txn = Transaction::new();
            for (at, val) in spec {
                match val {
                    Some(v) => txn.put(at, vec![Value::from(*v)]),
                    None => txn.delete(at),
                };
            }
            // Commit applies all puts, then all deletes: within one
            // transaction the last put wins among puts, and a delete of the
            // same cell wins over any put.
            for (at, val) in spec.iter().filter(|(_, v)| v.is_some()) {
                model.insert(*at, *val);
            }
            for (at, _) in spec.iter().filter(|(_, v)| v.is_none()) {
                model.insert(*at, None);
            }
            arr.commit(txn).unwrap();
            store.sync_from(&arr).unwrap();
            snapshots.push(model.clone());
        }
        let value = |r: Vec<Value>| r[0].as_f64().unwrap();
        for i in 1..=6i64 {
            for j in 1..=6i64 {
                let expect = model.get(&[i, j]).copied().flatten();
                let got = arr.get_latest(&[i, j]).map(value);
                assert_eq!(got, expect, "seed {seed}: latest ({i}, {j})");
            }
        }
        // Time travel matches every historical snapshot: cell by cell, as
        // a materialized snapshot, and from the persisted layers.
        for (h, snap) in snapshots.iter().enumerate() {
            let h = h as i64 + 1;
            for (at, expect) in snap {
                let got = arr.get_at(at, h).map(value);
                assert_eq!(got, *expect, "seed {seed}: history {h} cell {at:?}");
            }
            let live: BTreeMap<[i64; 2], f64> = snap
                .iter()
                .filter_map(|(at, v)| v.map(|v| (*at, v)))
                .collect();
            let read = |a: &Array| -> BTreeMap<[i64; 2], f64> {
                a.cells().map(|(c, r)| ([c[0], c[1]], value(r))).collect()
            };
            let mem = arr.snapshot_at(h).unwrap();
            assert_eq!(read(&mem), live, "seed {seed}: snapshot at {h}");
            assert_eq!(mem.cell_count(), live.len(), "seed {seed}: {h}");
            let disk = store.snapshot_at(h).unwrap();
            assert_eq!(disk, mem, "seed {seed}: persisted snapshot at {h}");
            for (at, expect) in snap {
                let (got, _) = store.read_cell_at(at, h).unwrap();
                assert_eq!(got.map(value), *expect, "seed {seed}: read {at:?} at {h}");
            }
        }
    }
}

// ---- grid replicated placement --------------------------------------------

/// Fault-tolerance placement invariants (§2.11): every coordinate has at
/// least one placement, the home is always among them, and the copy count
/// never exceeds the node count but always reaches the requested
/// replication factor (clamped to the cluster size).
#[test]
fn replicated_placement_invariants() {
    let space = HyperRect::new(vec![1, 1], vec![64, 64]).unwrap();
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_nodes = rng.gen_range(1..=9usize);
        let scheme = match rng.gen_range(0..3u32) {
            0 => PartitionScheme::grid(space.clone(), vec![4, 4], n_nodes).unwrap(),
            1 => PartitionScheme::Hash {
                dims: vec![0, 1],
                n_nodes,
            },
            // n_nodes − 1 splits ⇒ n_nodes nodes, 7 apart.
            _ => PartitionScheme::range(0, (1..n_nodes as i64).map(|k| k * 7).collect()).unwrap(),
        };
        let replicas = rng.gen_range(1..6usize);
        let margin = rng.gen_range(0..4i64);
        let coords = vec![rng.gen_range(1..=64i64), rng.gen_range(1..=64i64)];
        let case = format!("seed {seed}: {scheme:?} k={replicas} margin={margin} at {coords:?}");
        let n = scheme.n_nodes();
        let p = ReplicatedPlacement::with_replicas(scheme, margin, replicas);
        assert_eq!(p.replicas(), replicas.min(n), "{case}: factor clamped");
        let placements = p.placements(&coords);
        assert!(!placements.is_empty(), "{case}: placed nowhere");
        assert!(
            placements.contains(&p.home(&coords)),
            "{case}: home ∉ placements"
        );
        assert!(
            placements.iter().all(|&node| node < n),
            "{case}: {placements:?}"
        );
        assert!(
            placements.windows(2).all(|w| w[0] < w[1]),
            "{case}: not sorted and duplicate-free: {placements:?}"
        );
        let copies = p.copies(&coords);
        assert_eq!(copies, placements.len(), "{case}");
        assert!(copies <= n, "{case}: copies exceed node count");
        assert!(copies >= replicas.min(n), "{case}: k-copy floor");
        // Placement is a pure function of the coordinates.
        assert_eq!(placements, p.placements(&coords), "{case}");
    }
}

// ---- uncertainty -------------------------------------------------------------

#[test]
fn uncertain_addition_properties() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (m1, s1) = (rng.gen_range(-1e6..1e6), rng.gen_range(0.0..1e3));
        let (m2, s2) = (rng.gen_range(-1e6..1e6), rng.gen_range(0.0..1e3));
        let (a, b) = (Uncertain::new(m1, s1), Uncertain::new(m2, s2));
        let (ab, ba) = (a + b, b + a);
        assert_eq!(ab.mean.to_bits(), ba.mean.to_bits(), "seed {seed}");
        assert_eq!(ab.sigma.to_bits(), ba.sigma.to_bits(), "seed {seed}");
        // Variance is additive: sigma² = s1² + s2² (within fp tolerance).
        let expect = (s1 * s1 + s2 * s2).sqrt();
        assert!(
            (ab.sigma - expect).abs() <= 1e-9 * (1.0 + expect),
            "seed {seed}: sigma {} vs {expect}",
            ab.sigma
        );
        // Adding an exact zero is the identity.
        let id = a + Uncertain::exact(0.0);
        assert_eq!(id.mean.to_bits(), a.mean.to_bits(), "seed {seed}");
        assert_eq!(id.sigma.to_bits(), a.sigma.to_bits(), "seed {seed}");
    }
}

#[test]
fn uncertain_cdf_is_monotone() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let u = Uncertain::new(rng.gen_range(-100.0..100.0), rng.gen_range(0.01..50.0));
        let x = rng.gen_range(-200.0..200.0);
        assert!(u.cdf(x) <= u.cdf(x + 1.0) + 1e-12, "seed {seed}");
        assert!((0.0..=1.0).contains(&u.cdf(x)), "seed {seed}");
    }
}

#[test]
fn combine_is_between_inputs() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (m1, m2) = (rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0));
        let s = rng.gen_range(0.1..10.0);
        let (a, b) = (Uncertain::new(m1, s), Uncertain::new(m2, s * 2.0));
        let c = a.combine(&b);
        assert!(
            c.mean >= m1.min(m2) - 1e-9 && c.mean <= m1.max(m2) + 1e-9,
            "seed {seed}: mean {}",
            c.mean
        );
        assert!(
            c.sigma <= a.sigma.min(b.sigma) + 1e-12,
            "seed {seed}: combining lost precision"
        );
    }
}

// ---- parser robustness -------------------------------------------------------

/// Arbitrary text (any character but a newline, half of them ASCII):
/// tokenize+parse returns Ok or Err, never panics.
#[test]
fn parser_never_panics_on_arbitrary_input() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let chars = vec_of(&mut rng, 0..201, |r| loop {
            let code = if r.gen_bool(0.5) {
                r.gen_range(0x20..0x7fu32)
            } else {
                r.gen_range(0..0x11_0000u32)
            };
            match char::from_u32(code) {
                Some(c) if c != '\n' => break c,
                _ => {}
            }
        });
        let _ = parse(&chars.into_iter().collect::<String>());
    }
}

/// AQL-shaped garbage: keywords and symbols glued together.
#[test]
fn parser_never_panics_on_aql_shaped_input() {
    const PARTS: [&str; 36] = [
        "define",
        "create",
        "insert",
        "store",
        "drop",
        "scan",
        "filter",
        "subsample",
        "aggregate",
        "sjoin",
        "cjoin",
        "reshape",
        "regrid",
        "A",
        "B",
        "v",
        "X",
        "(",
        ")",
        "[",
        "]",
        "{",
        "}",
        ",",
        ";",
        "=",
        "<",
        ">",
        "*",
        ":",
        "1",
        "2.5",
        "'s'",
        "and",
        "or",
        "null",
    ];
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let text = vec_of(&mut rng, 0..40, |r| pick(r, &PARTS)).join(" ");
        let _ = parse(&text);
    }
}

// ---- binding ⇄ text round trip ---------------------------------------------

/// A random but valid operator pipeline built through the binding: a leaf
/// scan under 0–4 operators, each binary one joining a fresh scan.
fn gen_pipeline(rng: &mut SmallRng) -> Q {
    let mut q = scan(pick(rng, &["A", "B", "My_remote"]));
    for _ in 0..rng.gen_range(0..=4u32) {
        let other = scan(pick(rng, &["A", "B"]));
        q = match rng.gen_range(0..10u32) {
            0 => q.subsample(Expr::attr("X").le(Expr::lit(rng.gen_range(1..100i64)))),
            1 => q.filter(Expr::attr("v").gt(Expr::lit(rng.gen_range(-50.0..50.0)))),
            2 => q.aggregate(
                &["X"],
                pick(rng, &["sum", "avg", "count", "min", "max"]),
                "v",
            ),
            3 => q.regrid(&[rng.gen_range(1..8i64), rng.gen_range(1..8i64)], "avg"),
            4 => q.apply(
                "w",
                Expr::attr("v").mul(Expr::lit(2.0)).add(Expr::lit(1i64)),
            ),
            5 => q.project(&["v"]),
            6 => q.add_dim("layer"),
            7 => q.sjoin(other, &[("X", "X")]),
            8 => q.cjoin(other, Expr::attr("v").eq(Expr::attr("v_r"))),
            _ => q.cross(other),
        };
    }
    q
}

fn assert_roundtrips(q: Q, case: &str) {
    let text = q.to_aql();
    let reparsed = parse_one(&text)
        .unwrap_or_else(|e| panic!("{case}: canonical AQL must parse: {text}\n{e}"));
    assert_eq!(reparsed, q.into_stmt(), "{case}: {text}");
}

/// Every binding-built tree renders to AQL that parses back to the same
/// tree — the §2.4 "one parse tree, many bindings" invariant.
#[test]
fn binding_roundtrips_through_canonical_aql() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        assert_roundtrips(gen_pipeline(&mut rng), &format!("seed {seed}"));
    }
}

/// Shrunk pipelines whose canonical AQL once failed to round-trip.
#[test]
fn pinned_roundtrip_regressions() {
    let apply = scan("A").apply(
        "w",
        Expr::attr("v").mul(Expr::lit(2.0)).add(Expr::lit(1i64)),
    );
    let cases = [
        apply
            .subsample(Expr::attr("X").le(Expr::lit(1i64)))
            .subsample(Expr::attr("X").le(Expr::lit(1i64))),
        scan("A").filter(Expr::attr("v").gt(Expr::lit(-0.8357318137472601))),
    ];
    for (k, q) in cases.into_iter().enumerate() {
        assert_roundtrips(q, &format!("pinned case {k}"));
    }
}
