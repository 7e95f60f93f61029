//! Failure injection, the property half: a byte flip anywhere in a bucket
//! or an in-situ file surfaces as `Err` or as *some* decoded value — never
//! as a panic. The deterministic half is `tests/failure_injection.rs`.

use proptest::prelude::*;
use scidb::insitu::{write_h5, write_netcdf, write_sddf, DatasetSpec};
use scidb::storage::{deserialize_chunk, serialize_chunk, CodecPolicy};
use scidb::{Array, ScalarType, SchemaBuilder, Value};

include!("../../tests/support/failure_fixtures.rs");

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A single byte flip in a bucket payload either errors or decodes to
    /// *some* chunk — it never panics. (Bit flips in value payloads can be
    /// silent; headers and structure must stay robust.)
    #[test]
    fn bucket_byte_flips_never_panic(pos_frac in 0.0f64..1.0, delta in 1u8..=255) {
        let a = sample(8);
        let chunk = a.chunks().values().next().unwrap();
        let mut bytes = serialize_chunk(chunk, CodecPolicy::default_policy()).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] = bytes[pos].wrapping_add(delta);
        let _ = deserialize_chunk(&bytes);
    }

    /// The same property for every in-situ format reader.
    #[test]
    fn insitu_byte_flips_never_panic(
        which in 0usize..3,
        pos_frac in 0.0f64..1.0,
        delta in 1u8..=255,
    ) {
        let dir = tmp_dir("flip");
        let a = {
            let schema = SchemaBuilder::new("f")
                .attr("v", ScalarType::Float64)
                .dim_chunked("x", 8, 8)
                .dim_chunked("y", 8, 8)
                .build()
                .unwrap();
            let mut a = Array::new(schema);
            a.fill_with(|c| vec![Value::from((c[0] + c[1]) as f64)]).unwrap();
            a
        };
        let path = dir.join(format!("flip_{which}.bin"));
        match which {
            0 => {
                write_netcdf(&path, &a, &[]).unwrap();
            }
            1 => {
                write_h5(&path, &[DatasetSpec { path: "/d".into(), array: &a }]).unwrap();
            }
            _ => {
                write_sddf(&path, &a, CodecPolicy::default_policy()).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] = bytes[pos].wrapping_add(delta);
        std::fs::write(&path, &bytes).unwrap();
        // Open + full read: any Err is fine; panics are not.
        if let Ok(mut src) = scidb::insitu::open(&path) {
            let _ = src.read_all();
        }
    }
}
