//! E1 — the ASAP claim (§2.1): "the performance penalty of simulating
//! arrays on top of tables was around two orders of magnitude."
//!
//! Identical logical queries run against the array engine — as the AQL
//! text a user would send, through a [`Session`] on a serial in-memory
//! database (parse, plan, scan, kernel) — and the table simulation
//! ([`scidb_relational::ArrayTable`], with its composite B-tree dimension
//! index): dimension slice, slab sum, regrid, and structural self-join.
//! Both sides must compute the same answer before either is timed; the
//! asymmetry is architectural — positional/columnar vs
//! value-based/tuple-at-a-time. Beside the times, each row reports the
//! work of one execution: the kernel cells the AQL statement touched
//! (from the session's metrics) and the rows the relational plan touched
//! ([`ArrayTable::rows_touched`]).

use crate::data::dense_f64;
use crate::report::{f3, median_ms, ReportTable};
use scidb_core::array::Array;
use scidb_core::geometry::HyperRect;
use scidb_core::registry::Registry;
use scidb_core::value::Value;
use scidb_query::{Database, Session};
use scidb_relational::ArrayTable;
use std::hint::black_box;

/// Runs E1.
pub fn run(quick: bool) -> Vec<ReportTable> {
    let sizes: &[i64] = if quick {
        &[128, 256]
    } else {
        &[128, 256, 512, 1024]
    };
    let registry = Registry::with_builtins();
    let mut t = ReportTable::new(
        "E1 — array engine through AQL vs array-on-tables (ASAP ~100x claim)",
        &[
            "n",
            "query",
            "AQL ms",
            "relational ms",
            "speedup",
            "AQL cells",
            "relational rows",
        ],
    );
    for &n in sizes {
        let reps = if n <= 256 { 7 } else { 3 };
        let a = dense_f64(n, 64);
        let table = ArrayTable::from_array(&a).expect("simulate");
        let mut db = Database::with_threads(1);
        db.put_array("A", a).expect("register");
        let mut s = db.session();
        let aql = |s: &mut Session, text: &str| s.query(text).expect(text);

        // (a) dimension slices. The leading dimension is where the
        // relational B-tree index is clustered (its best case); the
        // trailing dimension exposes the asymmetry arrays don't have.
        for (label, dim) in [("slice lead", "i"), ("slice trail", "j")] {
            let text = format!("subsample(A, {dim} = {})", n / 2);
            let rel = || sum_last(&table.slice(dim, n / 2).unwrap());
            let (grid, cells) = counted(&mut s, &text);
            let (want, rows) = touched(&table, rel);
            agree(&text, sum_v(&grid), want);
            let native = median_ms(reps, || sum_v(&aql(&mut s, black_box(&text))));
            push(&mut t, n, label, native, median_ms(reps, rel), cells, rows);
        }

        // (b) slab sum: the central 1/4 × 1/4 region.
        let (lo, hi) = (n / 4, n / 2);
        let text = format!(
            "aggregate(subsample(A, i >= {lo} and i <= {hi} and j >= {lo} and j <= {hi}), {{}}, sum(v))"
        );
        let region = HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap();
        let rel = || sum_last(&table.slab(&region).unwrap());
        let (grid, cells) = counted(&mut s, &text);
        let (want, rows) = touched(&table, rel);
        agree(&text, sum_v(&grid), want);
        let native = median_ms(reps, || sum_v(&aql(&mut s, black_box(&text))));
        push(&mut t, n, "slab", native, median_ms(reps, rel), cells, rows);

        // (c) regrid 8×8 average: as many blocks, and the same total of
        // block averages, on both sides.
        let text = "regrid(A, [8, 8], avg)";
        let rel = || table.regrid(&[8, 8], "avg", "v", &registry).unwrap();
        let ((grid, cells), (blocks, rows)) = (counted(&mut s, text), touched(&table, rel));
        assert_eq!(grid.cell_count(), blocks.len(), "{text}: block count");
        let rel_rows: Vec<&[Value]> = blocks.rows().iter().map(Vec::as_slice).collect();
        agree(text, sum_v(&grid), sum_last(&rel_rows));
        let native = median_ms(reps, || aql(&mut s, black_box(text)));
        let rel_ms = median_ms(reps, rel);
        push(&mut t, n, "regrid 8x8", native, rel_ms, cells, rows);

        // (d) structural self-join on all dimensions (co-aligned inputs:
        // `sjoin` concatenates columns chunk by chunk; the relational side
        // must hash-join on the dimension columns).
        if n <= 512 {
            let text = "sjoin(A, A, i = i and j = j)";
            let rel = || table.sjoin_all_dims(&table).unwrap();
            let ((grid, cells), (joined, rows)) = (counted(&mut s, text), touched(&table, rel));
            assert_eq!(grid.cell_count(), joined.len(), "{text}: row count");
            let native = median_ms(reps.min(3), || aql(&mut s, black_box(text)));
            let rel_ms = median_ms(reps.min(3), rel);
            push(&mut t, n, "sjoin", native, rel_ms, cells, rows);
        }
    }
    vec![t]
}

/// Runs `text` once on a drained session: the answer and the kernel cells
/// it touched.
fn counted(s: &mut Session, text: &str) -> (Array, u64) {
    s.take_metrics();
    let answer = s.query(text).expect(text);
    (answer, s.take_metrics().cells_touched())
}

/// Runs one relational plan: its answer and the rows it touched.
fn touched<T>(table: &ArrayTable, plan: impl FnOnce() -> T) -> (T, u64) {
    let before = table.rows_touched();
    let answer = plan();
    (answer, table.rows_touched() - before)
}

/// Sum of the first attribute over every cell of an AQL answer.
fn sum_v(a: &Array) -> f64 {
    a.cells().filter_map(|(_, r)| r[0].as_f64()).sum()
}

/// Sum of the last column (the attribute) over relational rows.
fn sum_last(rows: &[&[Value]]) -> f64 {
    rows.iter()
        .filter_map(|row| row.last().and_then(Value::as_f64))
        .sum()
}

/// Asserts the two engines' answers agree to a relative 1e-9.
fn agree(query: &str, aql: f64, rel: f64) {
    assert!(
        (aql - rel).abs() <= 1e-9 * rel.abs().max(1.0),
        "{query}: AQL {aql} vs relational {rel}"
    );
}

fn push(t: &mut ReportTable, n: i64, query: &str, native: f64, rel: f64, cells: u64, rows: u64) {
    let speedup = if native > 0.0 { rel / native } else { f64::NAN };
    t.row(vec![
        n.to_string(),
        query.to_string(),
        f3(native),
        f3(rel),
        format!("{:.1}x", speedup),
        cells.to_string(),
        rows.to_string(),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_work_counts_are_exact_at_256() {
        let tables = run(true);
        let t = &tables[0];
        let work = |query: &str| -> (u64, u64) {
            let row = t
                .rows
                .iter()
                .find(|r| r[0] == "256" && r[1] == query)
                .unwrap();
            (row[5].parse().unwrap(), row[6].parse().unwrap())
        };
        // (AQL kernel cells, relational rows) for one execution at n = 256.
        // The trailing slice touches one column of cells against a full
        // table scan; the slab sums its 65² cells twice (subsample, then
        // aggregate) against the 65-row strip of the leading index; regrid
        // folds every cell once against the table plus its block-id copy;
        // sjoin concatenates every cell against build and probe sides.
        // The times stay in the table; only the work is asserted, because
        // wall-clock ratios vary from run to run.
        assert_eq!(work("slice trail"), (256, 65_536));
        assert_eq!(work("slab"), (8_450, 16_640));
        assert_eq!(work("regrid 8x8"), (65_536, 131_072));
        assert_eq!(work("sjoin"), (65_536, 131_072));
    }
}
