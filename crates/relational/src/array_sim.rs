//! Simulating arrays on top of tables — the ASAP comparison arm (§2.1).
//!
//! "The Sequoia 2000 project realized in the mid 1990s that their users
//! wanted an array data model, and that simulating arrays on top of tables
//! was difficult and resulted in poor performance. A similar conclusion was
//! reached in the ASAP prototype which found that the performance penalty
//! of simulating arrays on top of tables was around two orders of
//! magnitude."
//!
//! [`ArrayTable`] is that simulation, done the way a competent SQL schema
//! designer would: one row per cell with explicit integer dimension columns,
//! a composite B-tree index on the dimensions, and array operations
//! expressed as relational plans (index range scans, hash joins on
//! dimension columns, GROUP BY computed block ids). Experiment E1 runs the
//! same logical queries against [`scidb_core::ops`] and this module.

use crate::exec;
use crate::table::{ColumnDef, Table};
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::geometry::HyperRect;
use scidb_core::registry::Registry;
use scidb_core::value::{ScalarType, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// An array stored as a table of `(dim…, attr…)` rows.
#[derive(Debug)]
pub struct ArrayTable {
    table: Table,
    n_dims: usize,
    dim_names: Vec<String>,
    /// Rows read by this table's query plans so far (see
    /// [`rows_touched`](Self::rows_touched)); a statistic, so relaxed.
    rows_touched: AtomicU64,
}

impl ArrayTable {
    /// Builds the table (and its composite dimension index) from an array.
    pub fn from_array(array: &Array) -> Result<Self> {
        let schema = array.schema();
        let mut cols: Vec<ColumnDef> = schema
            .dims()
            .iter()
            .map(|d| ColumnDef {
                name: d.name.clone(),
                ty: ScalarType::Int64,
            })
            .collect();
        for a in schema.attrs() {
            let ty =
                a.ty.as_scalar()
                    .ok_or_else(|| Error::Unsupported("nested attrs not simulatable".into()))?;
            cols.push(ColumnDef {
                name: a.name.clone(),
                ty,
            });
        }
        let mut table = Table::new(format!("{}_tab", schema.name()), cols)?;
        for (coords, rec) in array.cells() {
            let mut row: Vec<Value> = coords.into_iter().map(Value::from).collect();
            row.extend(rec);
            table.insert(row)?;
        }
        let dim_names: Vec<String> = schema.dims().iter().map(|d| d.name.clone()).collect();
        let dim_refs: Vec<&str> = dim_names.iter().map(String::as_str).collect();
        table.create_index(&dim_refs)?;
        Ok(ArrayTable {
            table,
            n_dims: schema.rank(),
            dim_names,
            rows_touched: AtomicU64::new(0),
        })
    }

    /// Rows the query plans of this table have read so far — index hits,
    /// scanned rows, and the rows of intermediate tables they build and
    /// read again — the relational side's work count in E1.
    pub fn rows_touched(&self) -> u64 {
        self.rows_touched.load(Ordering::Relaxed)
    }

    fn touch(&self, rows: usize) {
        self.rows_touched.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Number of simulated cells.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Point read of one cell (index lookup).
    pub fn get_cell(&self, coords: &[i64]) -> Result<Option<Vec<Value>>> {
        let dim_refs: Vec<&str> = self.dim_names.iter().map(String::as_str).collect();
        let hits = self.table.lookup(&dim_refs, coords)?;
        self.touch(hits.len());
        Ok(hits.first().map(|row| row[self.n_dims..].to_vec()))
    }

    /// Dimension slice `dim = at`: a range scan when `dim` is the index
    /// prefix, otherwise a filtered scan — exactly the asymmetry arrays
    /// don't have.
    pub fn slice(&self, dim: &str, at: i64) -> Result<Vec<&[Value]>> {
        let d = self
            .dim_names
            .iter()
            .position(|n| n == dim)
            .ok_or_else(|| Error::not_found(format!("dimension '{dim}'")))?;
        if d == 0 {
            // Leading index column: a lexicographic range scan covers the
            // slice exactly.
            let dim_refs: Vec<&str> = self.dim_names.iter().map(String::as_str).collect();
            let mut lows = vec![i64::MIN; self.n_dims];
            let mut highs = vec![i64::MAX; self.n_dims];
            lows[0] = at;
            highs[0] = at;
            let rows = self.table.range(&dim_refs, &lows, &highs)?;
            self.touch(rows.len());
            return Ok(rows.into_iter().map(|r| r.as_slice()).collect());
        }
        self.touch(self.table.len());
        Ok(exec::select(&self.table, |row| row[d].as_i64() == Some(at))
            .into_iter()
            .map(|r| r.as_slice())
            .collect())
    }

    /// Rectangular slab query: an index range on the leading dimension
    /// plus residual predicates on the rest.
    pub fn slab(&self, region: &HyperRect) -> Result<Vec<&[Value]>> {
        if region.rank() != self.n_dims {
            return Err(Error::dimension("slab rank mismatch"));
        }
        let dim_refs: Vec<&str> = self.dim_names.iter().map(String::as_str).collect();
        let mut lows = vec![i64::MIN; self.n_dims];
        let mut highs = vec![i64::MAX; self.n_dims];
        lows[0] = region.low[0];
        highs[0] = region.high[0];
        let candidates = self.table.range(&dim_refs, &lows, &highs)?;
        self.touch(candidates.len());
        Ok(candidates
            .into_iter()
            .filter(|row| {
                (1..self.n_dims).all(|d| {
                    row[d]
                        .as_i64()
                        .is_some_and(|v| region.low[d] <= v && v <= region.high[d])
                })
            })
            .map(|r| r.as_slice())
            .collect())
    }

    /// Regrid as GROUP BY over computed block ids.
    pub fn regrid(
        &self,
        factors: &[i64],
        agg: &str,
        attr: &str,
        registry: &Registry,
    ) -> Result<Table> {
        if factors.len() != self.n_dims {
            return Err(Error::dimension("regrid factor rank mismatch"));
        }
        // Materialize block-id columns (the relational plan must compute
        // and store them; the array engine gets them from coordinates).
        let mut cols: Vec<ColumnDef> = (0..self.n_dims)
            .map(|d| ColumnDef {
                name: format!("block_{d}"),
                ty: ScalarType::Int64,
            })
            .collect();
        cols.push(ColumnDef {
            name: attr.to_string(),
            ty: self.table.columns()[self.table.column_index(attr)?].ty,
        });
        let a_col = self.table.column_index(attr)?;
        let mut blocks = Table::new("blocks", cols)?;
        for row in self.table.rows() {
            let mut out: Vec<Value> = Vec::with_capacity(self.n_dims + 1);
            for d in 0..self.n_dims {
                let c = row[d]
                    .as_i64()
                    .ok_or_else(|| Error::eval("non-integer dimension value"))?;
                out.push(Value::from((c - 1) / factors[d] + 1));
            }
            out.push(row[a_col].clone());
            blocks.insert(out)?;
        }
        let group_refs: Vec<String> = (0..self.n_dims).map(|d| format!("block_{d}")).collect();
        let group_refs: Vec<&str> = group_refs.iter().map(String::as_str).collect();
        self.touch(self.table.len() + blocks.len());
        exec::group_aggregate(&blocks, &group_refs, agg, attr, registry)
    }

    /// Structural join on all dimensions: hash join on the dimension
    /// columns.
    pub fn sjoin_all_dims(&self, other: &ArrayTable) -> Result<Table> {
        if self.n_dims != other.n_dims {
            return Err(Error::dimension("join rank mismatch"));
        }
        let pairs: Vec<(&str, &str)> = self
            .dim_names
            .iter()
            .zip(&other.dim_names)
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        self.touch(self.table.len() + other.table.len());
        exec::hash_join(&self.table, &other.table, &pairs)
    }

    /// Filter on an attribute predicate (full scan — no index helps).
    pub fn filter(&self, attr: &str, pred: impl Fn(f64) -> bool) -> Result<usize> {
        let col = self.table.column_index(attr)?;
        self.touch(self.table.len());
        Ok(exec::select(&self.table, |row| row[col].as_f64().is_some_and(&pred)).len())
    }

    /// Storage footprint of the simulation (dimension columns + index are
    /// pure overhead relative to positional array storage).
    pub fn byte_size(&self) -> usize {
        self.table.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidb_core::ops;
    use scidb_core::ops::structural::{DimCond, DimPredicate};
    use scidb_core::value::record;

    fn sample(n: i64) -> Array {
        let rows: Vec<Vec<f64>> = (1..=n)
            .map(|i| (1..=n).map(|j| (i * 100 + j) as f64).collect())
            .collect();
        Array::f64_2d("A", "v", &rows)
    }

    #[test]
    fn from_array_materializes_all_cells() {
        let a = sample(8);
        let t = ArrayTable::from_array(&a).unwrap();
        assert_eq!(t.len(), 64);
        assert_eq!(t.get_cell(&[3, 4]).unwrap(), Some(vec![Value::from(304.0)]));
        assert_eq!(t.get_cell(&[99, 1]).unwrap(), None);
    }

    #[test]
    fn slice_matches_array_subsample() {
        let a = sample(8);
        let t = ArrayTable::from_array(&a).unwrap();
        // Leading-dimension slice uses the index.
        let rows = t.slice("i", 3).unwrap();
        assert_eq!(rows.len(), 8);
        // Trailing-dimension slice degrades to a scan but is still correct.
        let rows = t.slice("j", 3).unwrap();
        assert_eq!(rows.len(), 8);
        // Equivalent array op.
        let pred = DimPredicate::new().with("i", DimCond::Eq(3));
        let native = ops::subsample(&a, &pred, None).unwrap();
        assert_eq!(native.cell_count(), 8);
    }

    #[test]
    fn slab_matches_array_region() {
        let a = sample(16);
        let t = ArrayTable::from_array(&a).unwrap();
        let region = HyperRect::new(vec![3, 5], vec![6, 9]).unwrap();
        let rows = t.slab(&region).unwrap();
        assert_eq!(rows.len() as u64, region.volume());
        let native: Vec<_> = a.cells_in(&region).collect();
        assert_eq!(native.len(), rows.len());
    }

    #[test]
    fn regrid_matches_array_regrid() {
        let a = sample(8);
        let t = ArrayTable::from_array(&a).unwrap();
        let r = Registry::with_builtins();
        let rel = t.regrid(&[2, 2], "avg", "v", &r).unwrap();
        let native = ops::regrid(&a, &[2, 2], "avg", &r).unwrap();
        assert_eq!(rel.len(), native.cell_count());
        // Spot-check one block.
        let row = rel
            .rows()
            .iter()
            .find(|r| r[0].as_i64() == Some(1) && r[1].as_i64() == Some(1))
            .unwrap();
        assert_eq!(row[2].as_f64(), native.get_f64(0, &[1, 1]));
    }

    #[test]
    fn sjoin_matches_array_sjoin() {
        let a = sample(6);
        let b = sample(6);
        let ta = ArrayTable::from_array(&a).unwrap();
        let tb = ArrayTable::from_array(&b).unwrap();
        let joined = ta.sjoin_all_dims(&tb).unwrap();
        let native = ops::sjoin(&a, &b, &[("i", "i"), ("j", "j")]).unwrap();
        assert_eq!(joined.len(), native.cell_count());
    }

    #[test]
    fn rows_touched_counts_what_each_plan_reads() {
        let t = ArrayTable::from_array(&sample(8)).unwrap();
        let r = Registry::with_builtins();
        let mut seen = 0;
        let mut delta = |t: &ArrayTable| {
            let d = t.rows_touched() - seen;
            seen = t.rows_touched();
            d
        };
        t.get_cell(&[3, 4]).unwrap();
        assert_eq!(delta(&t), 1, "point lookup: the index hit");
        t.slice("i", 3).unwrap();
        assert_eq!(delta(&t), 8, "leading slice: the index range");
        t.slice("j", 3).unwrap();
        assert_eq!(delta(&t), 64, "trailing slice: a full scan");
        t.slab(&HyperRect::new(vec![3, 5], vec![6, 8]).unwrap())
            .unwrap();
        assert_eq!(delta(&t), 32, "slab: the leading-dimension strip");
        t.regrid(&[2, 2], "avg", "v", &r).unwrap();
        assert_eq!(delta(&t), 128, "regrid: the table, then its block rows");
        t.sjoin_all_dims(&t).unwrap();
        assert_eq!(delta(&t), 128, "join: build and probe sides");
        t.filter("v", |v| v > 400.0).unwrap();
        assert_eq!(delta(&t), 64, "filter: a full scan");
    }

    #[test]
    fn filter_counts_match() {
        let a = sample(8);
        let t = ArrayTable::from_array(&a).unwrap();
        let n_rel = t.filter("v", |v| v > 400.0).unwrap();
        let native = ops::filter(
            &a,
            &scidb_core::expr::Expr::attr("v").gt(scidb_core::expr::Expr::lit(400.0)),
            None,
        )
        .unwrap();
        let n_native = native.cells().filter(|(_, rec)| !rec[0].is_null()).count();
        assert_eq!(n_rel, n_native);
    }

    #[test]
    fn simulation_storage_overhead_is_real() {
        // Dimension columns + index make the table bigger than the array.
        let a = sample(32);
        let t = ArrayTable::from_array(&a).unwrap();
        assert!(
            t.byte_size() > a.byte_size() * 2,
            "table {} vs array {}",
            t.byte_size(),
            a.byte_size()
        );
    }

    #[test]
    fn sparse_arrays_simulate_too() {
        let mut a = Array::new(sample(8).schema().renamed("S"));
        a.set_cell(&[1, 1], record([Value::from(1.0)])).unwrap();
        a.set_cell(&[8, 8], record([Value::from(2.0)])).unwrap();
        let t = ArrayTable::from_array(&a).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get_cell(&[8, 8]).unwrap(), Some(vec![Value::from(2.0)]));
    }
}
