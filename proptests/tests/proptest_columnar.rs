//! Property tests for the columnar migration (proptest): codec roundtrips
//! under adversarial bit patterns, and columnar↔legacy chunk construction
//! equivalence — the two representations must be indistinguishable both to
//! `PartialEq` and to the bucket serializer, byte for byte.

use proptest::prelude::*;
use scidb::core::bitvec::BitVec;
use scidb::core::chunk::{Chunk, Column};
use scidb::core::geometry::HyperRect;
use scidb::core::schema::AttrType;
use scidb::storage::compress::{
    decode_bytes, decode_f64s, decode_i64s, encode_bytes, encode_f64s, encode_i64s, Codec,
};
use scidb::storage::{deserialize_chunk, serialize_chunk, CodecPolicy};
use scidb::{ScalarType, Value};
use std::collections::BTreeMap;

// ---- codec roundtrips under adversarial inputs -----------------------------

proptest! {
    /// encode∘decode = id for every int-capable codec, with max-varint
    /// values (`i64::MIN`/`MAX` zigzag to the widest possible varints)
    /// spliced into otherwise arbitrary data.
    #[test]
    fn int_codecs_roundtrip_adversarial(
        base in prop::collection::vec(any::<i64>(), 0..200),
        extremes in prop::collection::vec(
            prop::sample::select(vec![i64::MIN, i64::MAX, i64::MIN + 1, -1, 0, 1]),
            0..8,
        ),
    ) {
        let mut vals = base;
        vals.extend(extremes);
        for codec in [Codec::Raw, Codec::Rle, Codec::DeltaVarint] {
            let enc = encode_i64s(&vals, codec).unwrap();
            prop_assert_eq!(&decode_i64s(&enc, codec).unwrap(), &vals, "{:?}", codec);
        }
    }

    /// encode∘decode preserves every f64 *bit pattern* for every
    /// float-capable codec: arbitrary `u64` bit images cover all NaN
    /// payloads, and the pinned specials hit signaling NaNs, -0.0, and
    /// infinities even on runs where the random bits miss them.
    #[test]
    fn float_codecs_roundtrip_adversarial_bits(
        base in prop::collection::vec(any::<u64>(), 0..200),
        specials in prop::collection::vec(
            prop::sample::select(vec![
                0x7ff8_0000_0000_0001u64, // quiet NaN, payload 1
                0x7ff0_0000_0000_0001,    // signaling NaN
                0xfff8_dead_beef_cafe,    // negative NaN, full payload
                u64::MAX,
                (-0.0f64).to_bits(),
                f64::INFINITY.to_bits(),
                f64::NEG_INFINITY.to_bits(),
            ]),
            0..8,
        ),
    ) {
        let mut bits = base;
        bits.extend(specials);
        let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        for codec in [Codec::Raw, Codec::Rle, Codec::XorFloat] {
            let enc = encode_f64s(&vals, codec).unwrap();
            let dec = decode_f64s(&enc, codec).unwrap();
            let got: Vec<u64> = dec.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &bits, "{:?}", codec);
        }
    }

    #[test]
    fn byte_codecs_roundtrip_adversarial(data in prop::collection::vec(any::<u8>(), 0..400)) {
        for codec in [Codec::Raw, Codec::Rle] {
            let enc = encode_bytes(&data, codec).unwrap();
            prop_assert_eq!(&decode_bytes(&enc, codec).unwrap(), &data, "{:?}", codec);
        }
    }
}

// ---- columnar ↔ legacy construction equivalence -----------------------------

proptest! {
    /// The same cell set built two ways — row-at-a-time `set_record`
    /// (legacy, densifies on its own schedule) and direct columnar
    /// `from_parts` — must compare equal, serialize to identical bucket
    /// bytes under every policy, and roundtrip through the bucket codec.
    #[test]
    fn columnar_construction_equals_legacy_cell_writes(
        len in 1usize..=72,
        raw_cells in prop::collection::vec(
            (
                0usize..72,
                prop::option::of(any::<i64>()),
                prop::option::of(-1.0e300f64..1.0e300),
            ),
            1..72,
        ),
    ) {
        // Resolve duplicate offsets up front so both constructions see the
        // identical final cell state.
        let mut cells: BTreeMap<usize, (Option<i64>, Option<f64>)> = BTreeMap::new();
        for (o, iv, fv) in raw_cells {
            cells.insert(o % len, (iv, fv));
        }
        let rect = HyperRect::new(vec![1], vec![len as i64]).unwrap();
        let types = vec![
            AttrType::Scalar(ScalarType::Int64),
            AttrType::Scalar(ScalarType::Float64),
        ];

        let mut legacy = Chunk::new(rect.clone(), &types);
        for (&off, &(iv, fv)) in &cells {
            let rec = vec![
                iv.map(Value::from).unwrap_or(Value::Null),
                fv.map(Value::from).unwrap_or(Value::Null),
            ];
            legacy.set_record(&rect.delinearize(off), &rec).unwrap();
        }

        let mut present = BitVec::filled(len, false);
        let mut idata = vec![0i64; len];
        let mut inulls = BitVec::filled(len, true);
        let mut fdata = vec![0.0f64; len];
        let mut fnulls = BitVec::filled(len, true);
        for (&off, &(iv, fv)) in &cells {
            present.set(off, true);
            if let Some(v) = iv {
                idata[off] = v;
                inulls.set(off, false);
            }
            if let Some(v) = fv {
                fdata[off] = v;
                fnulls.set(off, false);
            }
        }
        let columnar = Chunk::from_parts(
            rect.clone(),
            types.clone(),
            present,
            vec![
                Column::Int64 { data: idata, nulls: inulls },
                Column::Float64 { data: fdata, nulls: fnulls },
            ],
        )
        .unwrap();

        prop_assert_eq!(&legacy, &columnar);
        prop_assert_eq!(legacy.present_count(), cells.len());

        // The representation must never leak into the stored bytes, and
        // the bytes must come back as the same chunk.
        for policy in [
            CodecPolicy::default_policy(),
            CodecPolicy::raw(),
            CodecPolicy::adaptive(),
        ] {
            let a = serialize_chunk(&legacy, policy).unwrap();
            let b = serialize_chunk(&columnar, policy).unwrap();
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&deserialize_chunk(&a).unwrap(), &columnar);
        }

        // Forcing the legacy chunk dense is also invisible.
        let mut densified = legacy.clone();
        densified.densify();
        prop_assert_eq!(&densified, &columnar);
    }
}
