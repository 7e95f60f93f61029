//! Property-based tests on the core data structures and invariants
//! (proptest): geometry linearization, bit vectors, codecs, chunk
//! representations, operator algebra, history semantics, and uncertainty
//! arithmetic.

use proptest::prelude::*;
use scidb::core::bitvec::BitVec;
use scidb::core::geometry::HyperRect;
use scidb::core::history::{Transaction, UpdatableArray};
use scidb::core::ops;
use scidb::core::ops::structural::{DimCond, DimPredicate};
use scidb::core::registry::Registry;
use scidb::storage::compress::{
    decode_bytes, decode_f64s, decode_i64s, encode_bytes, encode_f64s, encode_i64s, Codec,
};
use scidb::storage::{deserialize_chunk, serialize_chunk, CodecPolicy};
use scidb::{Array, ScalarType, SchemaBuilder, Uncertain, Value};
use std::collections::HashMap;

// ---- geometry -----------------------------------------------------------

proptest! {
    #[test]
    fn rect_linearize_roundtrips(
        lows in prop::collection::vec(1i64..50, 1..4),
        lens in prop::collection::vec(1i64..6, 1..4),
    ) {
        let rank = lows.len().min(lens.len());
        let low = lows[..rank].to_vec();
        let high: Vec<i64> = (0..rank).map(|d| low[d] + lens[d] - 1).collect();
        let rect = HyperRect::new(low, high).unwrap();
        for (k, coords) in rect.iter_cells().enumerate() {
            prop_assert_eq!(rect.linearize(&coords), k, "row-major order is dense");
            prop_assert_eq!(rect.delinearize(k), coords);
        }
        prop_assert_eq!(rect.iter_cells().count() as u64, rect.volume());
    }

    #[test]
    fn rect_intersection_is_commutative_and_contained(
        a_low in prop::collection::vec(1i64..20, 2),
        a_len in prop::collection::vec(1i64..10, 2),
        b_low in prop::collection::vec(1i64..20, 2),
        b_len in prop::collection::vec(1i64..10, 2),
    ) {
        let a = HyperRect::new(
            a_low.clone(),
            vec![a_low[0] + a_len[0] - 1, a_low[1] + a_len[1] - 1],
        ).unwrap();
        let b = HyperRect::new(
            b_low.clone(),
            vec![b_low[0] + b_len[0] - 1, b_low[1] + b_len[1] - 1],
        ).unwrap();
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        prop_assert_eq!(&ab, &ba);
        if let Some(i) = ab {
            for c in i.iter_cells() {
                prop_assert!(a.contains(&c) && b.contains(&c));
            }
        }
    }
}

// ---- bitvec ---------------------------------------------------------------

proptest! {
    #[test]
    fn bitvec_matches_model(ops in prop::collection::vec((0usize..200, any::<bool>()), 1..100)) {
        let mut bv = BitVec::filled(200, false);
        let mut model = [false; 200];
        for (i, v) in ops {
            bv.set(i, v);
            model[i] = v;
        }
        prop_assert_eq!(bv.count_ones(), model.iter().filter(|&&b| b).count());
        let ones: Vec<usize> = bv.iter_ones().collect();
        let expect: Vec<usize> = model
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(ones, expect);
    }
}

// ---- codecs ----------------------------------------------------------------

proptest! {
    #[test]
    fn int_codecs_roundtrip(vals in prop::collection::vec(any::<i64>(), 0..300)) {
        for codec in [Codec::Raw, Codec::Rle, Codec::DeltaVarint] {
            let enc = encode_i64s(&vals, codec).unwrap();
            prop_assert_eq!(&decode_i64s(&enc, codec).unwrap(), &vals);
        }
    }

    #[test]
    fn float_codecs_roundtrip(vals in prop::collection::vec(any::<f64>(), 0..300)) {
        for codec in [Codec::Raw, Codec::Rle, Codec::XorFloat] {
            let enc = encode_f64s(&vals, codec).unwrap();
            let dec = decode_f64s(&enc, codec).unwrap();
            prop_assert_eq!(dec.len(), vals.len());
            for (d, v) in dec.iter().zip(&vals) {
                prop_assert_eq!(d.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn byte_codecs_roundtrip(data in prop::collection::vec(any::<u8>(), 0..500)) {
        for codec in [Codec::Raw, Codec::Rle] {
            let enc = encode_bytes(&data, codec).unwrap();
            prop_assert_eq!(&decode_bytes(&enc, codec).unwrap(), &data);
        }
    }
}

// ---- array vs model, bucket roundtrip ----------------------------------------

fn small_schema() -> scidb::ArraySchema {
    SchemaBuilder::new("P")
        .attr("v", ScalarType::Float64)
        .dim_chunked("i", 12, 4)
        .dim_chunked("j", 12, 4)
        .build()
        .unwrap()
}

proptest! {
    #[test]
    fn array_matches_hashmap_model(
        writes in prop::collection::vec(((1i64..=12, 1i64..=12), -100.0f64..100.0), 1..80),
        deletes in prop::collection::vec((1i64..=12, 1i64..=12), 0..20),
    ) {
        let mut a = Array::new(small_schema());
        let mut model: HashMap<(i64, i64), f64> = HashMap::new();
        for ((i, j), v) in writes {
            a.set_cell(&[i, j], vec![Value::from(v)]).unwrap();
            model.insert((i, j), v);
        }
        for (i, j) in deletes {
            a.delete_cell(&[i, j]).unwrap();
            model.remove(&(i, j));
        }
        prop_assert_eq!(a.cell_count(), model.len());
        for ((i, j), v) in &model {
            prop_assert_eq!(a.get_f64(0, &[*i, *j]), Some(*v));
        }
        // Iteration yields exactly the model's cells.
        let mut seen = 0;
        for (coords, rec) in a.cells() {
            let key = (coords[0], coords[1]);
            prop_assert_eq!(rec[0].as_f64(), model.get(&key).copied());
            seen += 1;
        }
        prop_assert_eq!(seen, model.len());
    }

    #[test]
    fn bucket_serialization_roundtrips_arbitrary_chunks(
        writes in prop::collection::vec(((1i64..=12, 1i64..=12), -100.0f64..100.0), 0..60),
    ) {
        let mut a = Array::new(small_schema());
        for ((i, j), v) in writes {
            a.set_cell(&[i, j], vec![Value::from(v)]).unwrap();
        }
        for chunk in a.chunks().values() {
            for policy in [CodecPolicy::default_policy(), CodecPolicy::raw()] {
                let bytes = serialize_chunk(chunk, policy).unwrap();
                let back = deserialize_chunk(&bytes).unwrap();
                prop_assert_eq!(chunk, &back);
            }
        }
    }
}

// ---- operator algebra ----------------------------------------------------------

proptest! {
    #[test]
    fn subsample_is_monotone_and_idempotent(
        writes in prop::collection::vec(((1i64..=12, 1i64..=12), -10.0f64..10.0), 1..60),
        lo in 1i64..=12,
        hi in 1i64..=12,
    ) {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let mut a = Array::new(small_schema());
        for ((i, j), v) in writes {
            a.set_cell(&[i, j], vec![Value::from(v)]).unwrap();
        }
        let pred = DimPredicate::new().with("i", DimCond::Between(lo, hi));
        let once = ops::subsample(&a, &pred, None).unwrap();
        // Every output cell existed in the input with the same record.
        for (coords, rec) in once.cells() {
            prop_assert!(coords[0] >= lo && coords[0] <= hi);
            prop_assert_eq!(a.get_cell(&coords), Some(rec));
        }
        // Idempotent.
        let twice = ops::subsample(&once, &pred, None).unwrap();
        prop_assert!(once.same_cells(&twice));
    }

    #[test]
    fn reshape_preserves_value_multiset(
        lens in (1i64..=4, 1i64..=4, 1i64..=4),
    ) {
        let (a_len, b_len, c_len) = lens;
        let schema = SchemaBuilder::new("R")
            .attr("v", ScalarType::Int64)
            .dim("A", a_len)
            .dim("B", b_len)
            .dim("C", c_len)
            .build()
            .unwrap();
        let mut arr = Array::new(schema);
        arr.fill_with(|c| vec![Value::from(c[0] * 100 + c[1] * 10 + c[2])]).unwrap();
        let total = a_len * b_len * c_len;
        let out = ops::reshape(&arr, &["C", "A", "B"], &[("k".to_string(), total)]).unwrap();
        prop_assert_eq!(out.cell_count() as i64, total);
        let mut before: Vec<i64> = arr.cells().map(|(_, r)| r[0].as_i64().unwrap()).collect();
        let mut after: Vec<i64> = out.cells().map(|(_, r)| r[0].as_i64().unwrap()).collect();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn regrid_count_conserves_cells(
        writes in prop::collection::vec(((1i64..=12, 1i64..=12), 0.0f64..10.0), 1..60),
        fi in 1i64..=4,
        fj in 1i64..=4,
    ) {
        let mut a = Array::new(small_schema());
        for ((i, j), v) in writes {
            a.set_cell(&[i, j], vec![Value::from(v)]).unwrap();
        }
        let registry = Registry::with_builtins();
        let out = ops::regrid(&a, &[fi, fj], "count", &registry).unwrap();
        let total: i64 = out.cells().map(|(_, r)| r[0].as_i64().unwrap()).sum();
        prop_assert_eq!(total as usize, a.cell_count());
    }
}

// ---- history ----------------------------------------------------------------

proptest! {
    #[test]
    fn history_latest_matches_sequential_model(
        txns in prop::collection::vec(
            prop::collection::vec(((1i64..=6, 1i64..=6), prop::option::of(-10.0f64..10.0)), 1..5),
            1..12,
        ),
    ) {
        let schema = SchemaBuilder::new("H")
            .attr("v", ScalarType::Float64)
            .dim("I", 6)
            .dim("J", 6)
            .updatable()
            .build()
            .unwrap();
        let mut arr = UpdatableArray::new(schema).unwrap();
        let mut model: HashMap<(i64, i64), Option<f64>> = HashMap::new();
        let mut snapshots: Vec<HashMap<(i64, i64), Option<f64>>> = Vec::new();
        for txn_spec in &txns {
            let mut txn = Transaction::new();
            for ((i, j), val) in txn_spec {
                match val {
                    Some(v) => { txn.put(&[*i, *j], vec![Value::from(*v)]); }
                    None => { txn.delete(&[*i, *j]); }
                }
            }
            // Commit applies all puts, then all deletes: within one
            // transaction the last put wins among puts, and a delete of the
            // same cell wins over any put. Mirror that in the model.
            for ((i, j), val) in txn_spec {
                if val.is_some() {
                    model.insert((*i, *j), *val);
                }
            }
            for ((i, j), val) in txn_spec {
                if val.is_none() {
                    model.insert((*i, *j), None);
                }
            }
            arr.commit(txn).unwrap();
            snapshots.push(model.clone());
        }
        // Latest state matches the model.
        for i in 1..=6i64 {
            for j in 1..=6i64 {
                let expect = model.get(&(i, j)).copied().flatten();
                prop_assert_eq!(arr.get_latest(&[i, j]).map(|r| r[0].as_f64().unwrap()), expect);
            }
        }
        // Time travel matches every historical snapshot.
        for (h, snap) in snapshots.iter().enumerate() {
            let h = h as i64 + 1;
            for ((i, j), expect) in snap {
                prop_assert_eq!(
                    arr.get_at(&[*i, *j], h).map(|r| r[0].as_f64().unwrap()),
                    expect.to_owned(),
                    "history {} cell ({}, {})", h, i, j
                );
            }
        }
    }
}

// ---- grid replicated placement ---------------------------------------------

fn arb_scheme() -> impl Strategy<Value = scidb::grid::PartitionScheme> {
    use scidb::grid::PartitionScheme;
    (1usize..=9, 0u32..3).prop_map(|(n_nodes, kind)| {
        let space = HyperRect::new(vec![1, 1], vec![64, 64]).unwrap();
        match kind {
            0 => PartitionScheme::grid(space, vec![4, 4], n_nodes).unwrap(),
            1 => PartitionScheme::Hash {
                dims: vec![0, 1],
                n_nodes,
            },
            // n_nodes splits ⇒ n_nodes + 1 nodes; keep ≥ 1 split spacing.
            _ => PartitionScheme::range(0, (1..n_nodes as i64).map(|k| k * 7).collect()).unwrap(),
        }
    })
}

proptest! {
    /// Fault-tolerance placement invariants (§2.11): every coordinate has
    /// at least one placement, the home is always among the placements,
    /// and the copy count never exceeds the node count but always reaches
    /// the requested replication factor (clamped to the cluster size).
    #[test]
    fn replicated_placement_invariants(
        scheme in arb_scheme(),
        replicas in 1usize..6,
        margin in 0i64..4,
        x in 1i64..=64,
        y in 1i64..=64,
    ) {
        use scidb::grid::ReplicatedPlacement;
        let n = scheme.n_nodes();
        let p = ReplicatedPlacement::with_replicas(scheme, margin, replicas);
        prop_assert_eq!(p.replicas(), replicas.min(n), "factor clamped to cluster");
        let coords = vec![x, y];
        let placements = p.placements(&coords);
        prop_assert!(!placements.is_empty(), "every coordinate is placed somewhere");
        prop_assert!(placements.contains(&p.home(&coords)), "home ∈ placements");
        prop_assert!(placements.iter().all(|&node| node < n), "placements in range");
        prop_assert!(
            placements.windows(2).all(|w| w[0] < w[1]),
            "sorted and duplicate-free: {:?}", placements
        );
        let copies = p.copies(&coords);
        prop_assert_eq!(copies, placements.len());
        prop_assert!(copies <= n, "copies never exceed node count");
        prop_assert!(copies >= replicas.min(n), "k-copy floor holds");
        // Determinism: placement is a pure function of the coordinates.
        prop_assert_eq!(&placements, &p.placements(&coords));
    }
}

// ---- uncertainty -----------------------------------------------------------

proptest! {
    #[test]
    fn uncertain_addition_properties(
        m1 in -1e6f64..1e6, s1 in 0.0f64..1e3,
        m2 in -1e6f64..1e6, s2 in 0.0f64..1e3,
    ) {
        let a = Uncertain::new(m1, s1);
        let b = Uncertain::new(m2, s2);
        let ab = a + b;
        let ba = b + a;
        prop_assert_eq!(ab.mean.to_bits(), ba.mean.to_bits());
        prop_assert_eq!(ab.sigma.to_bits(), ba.sigma.to_bits());
        // Variance is additive: sigma² = s1² + s2² (within fp tolerance).
        let expect = (s1 * s1 + s2 * s2).sqrt();
        prop_assert!((ab.sigma - expect).abs() <= 1e-9 * (1.0 + expect));
        // Adding an exact zero is the identity on the mean.
        let id = a + Uncertain::exact(0.0);
        prop_assert_eq!(id.mean.to_bits(), a.mean.to_bits());
        prop_assert_eq!(id.sigma.to_bits(), a.sigma.to_bits());
    }

    #[test]
    fn uncertain_cdf_is_monotone(m in -100.0f64..100.0, s in 0.01f64..50.0, x in -200.0f64..200.0) {
        let u = Uncertain::new(m, s);
        let dx = 1.0;
        prop_assert!(u.cdf(x) <= u.cdf(x + dx) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&u.cdf(x)));
    }

    #[test]
    fn combine_is_between_inputs(m1 in -100.0f64..100.0, m2 in -100.0f64..100.0, s in 0.1f64..10.0) {
        let a = Uncertain::new(m1, s);
        let b = Uncertain::new(m2, s * 2.0);
        let c = a.combine(&b);
        let (lo, hi) = (m1.min(m2), m1.max(m2));
        prop_assert!(c.mean >= lo - 1e-9 && c.mean <= hi + 1e-9);
        prop_assert!(c.sigma <= a.sigma.min(b.sigma) + 1e-12, "combining never loses precision");
    }
}
