//! E4 — in-situ vs load-then-query (§2.9): "I am looking forward to
//! getting something done, but I am still trying to load my data."

use crate::data::dense_f64;
use crate::report::{f3, fmt_bytes, median_ms, ReportTable};
use scidb_core::geometry::HyperRect;
use scidb_insitu::{write_h5, write_netcdf, write_sddf, DatasetSpec, InSituSource, NetcdfReader};
use scidb_storage::{CodecPolicy, MemDisk, ReadOptions, StorageManager};
use std::sync::Arc;
use std::time::Instant;

/// Runs E4.
pub fn run(quick: bool) -> Vec<ReportTable> {
    let n: i64 = if quick { 256 } else { 512 };
    let dir = std::env::temp_dir().join(format!("scidb_e4_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("sensor.ncdf");

    // The external instrument file.
    let source = dense_f64(n, 64);
    let file_bytes = write_netcdf(&path, &source, &[("instrument", "E4")]).unwrap() as usize;

    // Query mix: k random-ish slabs of 1/8 side.
    let slab = |k: i64| {
        let side = n / 8;
        let x = 1 + (k * 37) % (n - side);
        let y = 1 + (k * 61) % (n - side);
        HyperRect::new(vec![x, y], vec![x + side - 1, y + side - 1]).unwrap()
    };

    let mut t = ReportTable::new(
        "E4 — in-situ vs load-then-query (NetCDF-like source)",
        &[
            "queries",
            "in-situ total ms",
            "in-situ bytes",
            "load+query total ms",
            "ttfr(load) ms",
            "winner",
        ],
    );
    for &k in &[1usize, 4, 16, 64] {
        // In-situ arm: open + read each slab directly from the file.
        let start = Instant::now();
        let mut reader = NetcdfReader::open(&path).unwrap();
        for q in 0..k {
            let out = reader.read_region(&slab(q as i64)).unwrap();
            std::hint::black_box(out.cell_count());
        }
        let insitu_ms = start.elapsed().as_secs_f64() * 1000.0;
        let insitu_bytes = reader.bytes_read() as usize;

        // Load arm: bulk load everything into native buckets, then query.
        let start = Instant::now();
        let mut reader = NetcdfReader::open(&path).unwrap();
        let loaded = reader.read_all().unwrap();
        let mut mgr = StorageManager::new(
            Arc::new(MemDisk::new()),
            loaded.schema_arc(),
            CodecPolicy::default_policy(),
        );
        mgr.store_array(&loaded).unwrap();
        let load_ms = start.elapsed().as_secs_f64() * 1000.0;
        for q in 0..k {
            let (out, _) = mgr
                .read_region(&slab(q as i64), ReadOptions::default())
                .unwrap();
            std::hint::black_box(out.cell_count());
        }
        let load_total_ms = start.elapsed().as_secs_f64() * 1000.0;

        let winner = if insitu_ms < load_total_ms {
            "in-situ"
        } else {
            "load"
        };
        t.row(vec![
            k.to_string(),
            f3(insitu_ms),
            fmt_bytes(insitu_bytes),
            f3(load_total_ms),
            f3(load_ms),
            winner.into(),
        ]);
    }
    let mut meta = ReportTable::new("E4 — source file", &["metric", "value"]);
    meta.row(vec!["file size".into(), fmt_bytes(file_bytes)]);
    meta.row(vec!["cells".into(), (n * n).to_string()]);

    // The same slab through each adaptor: open + partial read, no load.
    let h5 = dir.join("sensor.h5lt");
    let sddf = dir.join("sensor.sddf");
    let dataset = DatasetSpec {
        path: "/sensor".into(),
        array: &source,
    };
    write_h5(&h5, &[dataset]).unwrap();
    write_sddf(&sddf, &source, CodecPolicy::default_policy()).unwrap();
    let mut adaptors = ReportTable::new(
        "E4 — one slab in situ, per adaptor (open + read_region)",
        &["adaptor", "cells", "ms"],
    );
    for (label, file) in [("netcdf", &path), ("h5lite", &h5), ("sddf", &sddf)] {
        let read = || {
            let mut src = scidb_insitu::open(file).unwrap();
            src.read_region(&slab(0)).unwrap().cell_count()
        };
        adaptors.row(vec![
            label.into(),
            read().to_string(),
            f3(median_ms(3, read)),
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();
    vec![meta, t, adaptors]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_in_situ_wins_few_queries() {
        let tables = run(true);
        let t = &tables[1];
        // With a single query, skipping the load must win.
        assert_eq!(t.rows[0][5], "in-situ", "{t}");
        // In-situ bytes for one slab are far below the file size.
        let meta = &tables[0];
        assert!(meta.rows[0][1].contains("KiB") || meta.rows[0][1].contains("MiB"));
        // Every adaptor answers the same slab.
        assert!(
            tables[2].rows.iter().all(|r| r[1] == "1024"),
            "{}",
            tables[2]
        );
    }
}
