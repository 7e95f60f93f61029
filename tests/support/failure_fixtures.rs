// Fixtures of the failure-injection suite. `include!`d by
// `tests/failure_injection.rs` and by its byte-flip properties in
// `proptests/tests/failure_injection.rs`.

fn sample(n: i64) -> Array {
    let schema = SchemaBuilder::new("s")
        .attr("v", ScalarType::Float64)
        .attr("n", ScalarType::Int64)
        .dim_chunked("x", n, 8)
        .dim_chunked("y", n, 8)
        .build()
        .unwrap();
    let mut a = Array::new(schema);
    a.fill_with(|c| {
        vec![
            Value::from((c[0] * 100 + c[1]) as f64),
            Value::from(c[0] - c[1]),
        ]
    })
    .unwrap();
    a
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scidb_fi_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
