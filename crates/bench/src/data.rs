//! Shared deterministic data builders for benches and experiments.

use scidb_core::array::Array;
use scidb_core::rng::SmallRng;
use scidb_core::schema::SchemaBuilder;
use scidb_core::uncertain::Uncertain;
use scidb_core::value::{record, Record, ScalarType, Value};

/// Dense 2-D float array `n × n` with `v = sin`-flavored smooth values
/// (compressible, like instrument fields).
pub fn dense_f64(n: i64, chunk: i64) -> Array {
    let schema = SchemaBuilder::new("dense")
        .attr("v", ScalarType::Float64)
        .dim_chunked("i", n, chunk)
        .dim_chunked("j", n, chunk)
        .build()
        .expect("valid schema");
    let mut a = Array::new(schema);
    a.fill_with(|c| {
        let x = c[0] as f64;
        let y = c[1] as f64;
        record([Value::from((x * 0.05).sin() * 100.0 + y * 0.01)])
    })
    .expect("fill in bounds");
    a
}

/// Dense 2-D array with the paper's three sensor attributes
/// (`s1, s2, s3 = float`), the `Remote` schema of §2.1.
pub fn remote_array(n: i64, chunk: i64) -> Array {
    let schema = SchemaBuilder::new("Remote")
        .attr("s1", ScalarType::Float64)
        .attr("s2", ScalarType::Float64)
        .attr("s3", ScalarType::Float64)
        .dim_chunked("I", n, chunk)
        .dim_chunked("J", n, chunk)
        .build()
        .expect("valid schema");
    let mut a = Array::new(schema);
    a.fill_with(|c| {
        let base = (c[0] * 1000 + c[1]) as f64;
        record([
            Value::from(base),
            Value::from(base * 0.5),
            Value::from(base.sqrt()),
        ])
    })
    .expect("fill in bounds");
    a
}

/// 1-D uncertain array of `n` cells; `constant_sigma` controls the §2.13
/// compact-encoding case.
pub fn uncertain_1d(n: i64, constant_sigma: bool, seed: u64) -> Array {
    let schema = SchemaBuilder::new("u")
        .attr("v", ScalarType::UncertainFloat64)
        .dim_chunked("i", n, 4096.min(n))
        .build()
        .expect("valid schema");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut a = Array::new(schema);
    for i in 1..=n {
        let sigma = if constant_sigma {
            0.25
        } else {
            rng.gen_range(0.01..2.0)
        };
        a.set_cell(
            &[i],
            record([Value::from(Uncertain::new(i as f64 * 0.5, sigma))]),
        )
        .expect("in bounds");
    }
    a
}

/// 1-D plain float array of `n` cells (the E7 baseline).
pub fn plain_1d(n: i64) -> Array {
    let schema = SchemaBuilder::new("p")
        .attr("v", ScalarType::Float64)
        .dim_chunked("i", n, 4096.min(n))
        .build()
        .expect("valid schema");
    let mut a = Array::new(schema);
    for i in 1..=n {
        a.set_cell(&[i], record([Value::from(i as f64 * 0.5)]))
            .expect("in bounds");
    }
    a
}

/// An ordered `(coords, record)` stream for the bulk loader: `n` steps of
/// a time-dominant 2-D series with `width` sensors.
pub fn load_stream(n: i64, width: i64) -> Vec<(Vec<i64>, Record)> {
    let mut out = Vec::with_capacity((n * width) as usize);
    for t in 1..=n {
        for s in 1..=width {
            out.push((vec![t, s], record([Value::from((t * 7 + s) as f64)])));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_sizes() {
        assert_eq!(dense_f64(32, 16).cell_count(), 1024);
        assert_eq!(remote_array(16, 8).schema().attrs().len(), 3);
        assert_eq!(uncertain_1d(100, true, 1).cell_count(), 100);
        assert_eq!(plain_1d(50).cell_count(), 50);
        assert_eq!(load_stream(10, 4).len(), 40);
    }

    #[test]
    fn constant_sigma_array_is_smaller() {
        let c = uncertain_1d(10_000, true, 1);
        let v = uncertain_1d(10_000, false, 1);
        assert!(c.byte_size() < v.byte_size());
    }
}
