//! F1–F3: the paper's three figures, reproduced exactly, and the
//! serial-vs-parallel check of the chunk-parallel kernels behind them.

use crate::data::dense_f64;
use crate::report::{f3, median_ms, ReportTable};
use scidb_core::array::Array;
use scidb_core::exec::{ExecContext, QueryMetrics};
use scidb_core::expr::Expr;
use scidb_core::ops::{self, AggInput};
use scidb_core::registry::Registry;
use scidb_core::schema::SchemaBuilder;
use scidb_core::value::{record, ScalarType, Value};

fn render_1d(a: &Array, label: &str) -> Vec<String> {
    let n = a.high_water(0);
    let mut cells = Vec::new();
    for i in 1..=n {
        let text = match a.get_cell(&[i]) {
            Some(rec) => rec
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(","),
            None => "·".into(),
        };
        cells.push(text);
    }
    vec![label.to_string(), cells.join(" | ")]
}

/// Chunk-parallel kernels, serial vs machine-sized thread budget, over 256
/// chunks. Results are verified identical before timing; the speedup needs
/// a multi-core machine to exceed 1× — the thread count is in the title.
fn parallel_speedup(quick: bool, registry: &Registry) -> ReportTable {
    let a = if quick {
        dense_f64(256, 16)
    } else {
        dense_f64(512, 32)
    };
    assert_eq!(a.chunks().len(), 256);
    let serial = ExecContext::serial();
    let parallel = ExecContext::new();
    let pred = Expr::attr("v").gt(Expr::lit(50.0));
    let filter =
        |ctx: &ExecContext| ops::filter_with(&a, &pred, Some(registry), ctx).expect("filter");
    let aggregate = |ctx: &ExecContext| {
        ops::aggregate_with(&a, &["i"], "avg", AggInput::Star, registry, ctx).expect("aggregate")
    };
    assert_eq!(
        filter(&serial),
        filter(&parallel),
        "filter depends on threads"
    );
    assert_eq!(
        aggregate(&serial),
        aggregate(&parallel),
        "aggregate depends on threads"
    );

    // One traced parallel run per kernel supplies the per-op counts.
    let trace = scidb_obs::Trace::new();
    let root = trace.root("bench", scidb_obs::LAYER_CORE);
    parallel.set_current_span(Some(root.clone()));
    filter(&parallel);
    aggregate(&parallel);
    parallel.set_current_span(None);
    root.finish();
    let metrics = QueryMetrics::from_trace(&trace.finish());

    let mut t = ReportTable::new(
        format!(
            "Parallel speedup over serial ({} threads, 256 chunks, identical results)",
            parallel.threads()
        ),
        &[
            "op",
            "serial_ms",
            "parallel_ms",
            "speedup_x",
            "chunks",
            "cells",
        ],
    );
    let reps = if quick { 3 } else { 5 };
    let mut row = |op: &str, kernel: &dyn Fn(&ExecContext) -> Array| {
        let serial_ms = median_ms(reps, || kernel(&serial));
        let parallel_ms = median_ms(reps, || kernel(&parallel));
        let counts = metrics.ops.iter().find(|m| m.op == op);
        t.row(vec![
            op.to_string(),
            f3(serial_ms),
            f3(parallel_ms),
            f3(serial_ms / parallel_ms),
            counts.map_or(0, |m| m.chunks_scanned).to_string(),
            counts.map_or(0, |m| m.cells_touched).to_string(),
        ]);
    };
    row("filter", &filter);
    row("aggregate", &aggregate);
    t
}

/// Runs the figure reproductions.
pub fn run(quick: bool) -> Vec<ReportTable> {
    let registry = Registry::with_builtins();
    let mut tables = Vec::new();

    // ---- Figure 1: Sjoin over two 1-D arrays ---------------------------
    let a = Array::int_1d("A", "x", &[1, 2]);
    let b = Array::int_1d("B", "x", &[1, 2]);
    let sj = ops::sjoin(&a, &b, &[("i", "i")]).expect("figure 1 sjoin");
    let mut t = ReportTable::new(
        "Figure 1 — Sjoin(A, B, A.x = B.x): 1-D result with concatenated values",
        &["array", "cells [index 1..N]"],
    );
    t.row(render_1d(&a, "A"));
    t.row(render_1d(&b, "B"));
    t.row(render_1d(&sj, "Sjoin"));
    tables.push(t);

    // ---- Figure 2: Aggregate(H, {Y}, Sum(*)) ---------------------------
    let schema = SchemaBuilder::new("H")
        .attr("v", ScalarType::Int64)
        .dim("X", 2)
        .dim("Y", 2)
        .build()
        .expect("H schema");
    let mut h = Array::new(schema);
    for (x, y, v) in [(1, 1, 1i64), (2, 1, 3), (1, 2, 2), (2, 2, 5)] {
        h.set_cell(&[x, y], record([Value::from(v)]))
            .expect("set H");
    }
    let agg = ops::aggregate(&h, &["Y"], "sum", ops::AggInput::Star, &registry)
        .expect("figure 2 aggregate");
    let mut t = ReportTable::new(
        "Figure 2 — Aggregate(H, {Y}, Sum(*)): group on Y, sum over X",
        &["Y", "H[X=1,Y]", "H[X=2,Y]", "Sum"],
    );
    for y in 1..=2i64 {
        t.row(vec![
            y.to_string(),
            h.get_f64(0, &[1, y]).unwrap().to_string(),
            h.get_f64(0, &[2, y]).unwrap().to_string(),
            agg.get_cell(&[y]).unwrap()[0].to_string(),
        ]);
    }
    tables.push(t);

    // ---- Figure 3: Cjoin(A, B, A.val = B.val) ---------------------------
    let a = Array::int_1d("A", "val", &[1, 2]);
    let b = Array::int_1d("B", "val", &[1, 2]);
    let cj = ops::cjoin(
        &a,
        &b,
        &Expr::attr("val").eq(Expr::attr("val_r")),
        Some(&registry),
    )
    .expect("figure 3 cjoin");
    let mut t = ReportTable::new(
        "Figure 3 — Cjoin(A, B, A.val = B.val): 2-D result, NULL where predicate false",
        &["x\\y", "y=1", "y=2"],
    );
    for x in 1..=2i64 {
        let cell = |y: i64| {
            let rec = cj.get_cell(&[x, y]).expect("cjoin output is dense");
            if rec[0].is_null() {
                "NULL".to_string()
            } else {
                format!("{},{}", rec[0], rec[1])
            }
        };
        t.row(vec![format!("x={x}"), cell(1), cell(2)]);
    }
    tables.push(t);

    tables.push(parallel_speedup(quick, &registry));
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_render_expected_cells() {
        let tables = run(true);
        assert_eq!(tables.len(), 4);
        let f1 = tables[0].to_string();
        assert!(f1.contains("1,1") && f1.contains("2,2"), "{f1}");
        let f2 = tables[1].to_string();
        assert!(f2.contains('4') && f2.contains('7'), "{f2}");
        let f3 = tables[2].to_string();
        assert!(f3.contains("NULL") && f3.contains("1,1"), "{f3}");
        let par = tables[3].to_string();
        assert!(par.contains("filter") && par.contains("65536"), "{par}");
    }
}
