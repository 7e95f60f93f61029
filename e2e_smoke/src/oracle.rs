//! The correctness oracle. It runs outside every timed window.
//!
//! The reference answer of a statement is what a single-threaded in-memory
//! database answers; every workload's answer to the same statement must
//! serialize to the same bytes. On top of that, E1's four queries on `hot`
//! must agree with the array-on-tables simulation, and SS-DB Q1/Q3/Q5 with
//! `scidb_ssdb::queries::Benchmark`, which compute the same results by
//! other code.

use crate::gen::{create_log, Cross, Dataset, Stmt};
use crate::target::{Answer, Fingerprint, Target};
use scidb_core::array::Array;
use scidb_core::registry::Registry;
use scidb_query::Database;
use scidb_relational::ArrayTable;

/// Floating-point sums are taken in different orders by the two sides.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// The text to issue for `stmt`: a `store` gets a fresh target name.
pub fn issue_text(stmt: &Stmt, seq: u64) -> String {
    if stmt.is_store() {
        format!("{}{seq}", stmt.text)
    } else {
        stmt.text.clone()
    }
}

/// The single value of a one-cell aggregate answer (0 when no cell
/// qualified and the answer is empty).
fn scalar(a: &Array) -> f64 {
    a.cells()
        .next()
        .and_then(|(_, rec)| rec.first().and_then(|v| v.as_f64()))
        .unwrap_or(0.0)
}

fn cross_check(ds: &Dataset, hot: &ArrayTable, stmt: &Stmt, a: &Array) -> Result<(), String> {
    let col = |row: &[scidb_core::Value], c: usize| row[c].as_f64().unwrap_or(f64::NAN);
    match &stmt.cross {
        Cross::None => Ok(()),
        Cross::TableSlice { dim, at } => {
            let keep = usize::from(*dim == "i");
            let mut want: Vec<(i64, f64)> = hot
                .slice(dim, *at)
                .map_err(|e| e.to_string())?
                .iter()
                .map(|row| (row[keep].as_i64().unwrap_or(0), col(row, 2)))
                .collect();
            want.sort_by_key(|x| x.0);
            let got: Vec<(i64, f64)> = a.cells_f64(0).map(|(c, v)| (c[0], v)).collect();
            (got == want).then_some(()).ok_or_else(|| {
                format!(
                    "slice differs from ArrayTable ({} vs {} cells)",
                    got.len(),
                    want.len()
                )
            })
        }
        Cross::TableSlabSum(rect) => {
            let want: f64 = hot
                .slab(rect)
                .map_err(|e| e.to_string())?
                .iter()
                .map(|row| col(row, 2))
                .sum();
            close(scalar(a), want)
                .then_some(())
                .ok_or_else(|| format!("slab sum {} differs from ArrayTable {want}", scalar(a)))
        }
        Cross::TableRegrid(f) => {
            let t = hot
                .regrid(&[*f, *f], "avg", "v", &Registry::with_builtins())
                .map_err(|e| e.to_string())?;
            if t.len() != a.cell_count() {
                return Err(format!(
                    "regrid has {} cells, ArrayTable {}",
                    a.cell_count(),
                    t.len()
                ));
            }
            for row in t.rows() {
                let at = [row[0].as_i64().unwrap_or(0), row[1].as_i64().unwrap_or(0)];
                match a.get_f64(0, &at) {
                    Some(v) if close(v, col(row, 2)) => {}
                    other => {
                        return Err(format!(
                            "regrid block {at:?}: {other:?} vs ArrayTable {}",
                            col(row, 2)
                        ))
                    }
                }
            }
            Ok(())
        }
        Cross::TableSjoin => {
            let t = hot.sjoin_all_dims(hot).map_err(|e| e.to_string())?;
            if t.len() != a.cell_count() {
                return Err(format!(
                    "sjoin has {} cells, ArrayTable {}",
                    a.cell_count(),
                    t.len()
                ));
            }
            for row in t.rows() {
                let at = [row[0].as_i64().unwrap_or(0), row[1].as_i64().unwrap_or(0)];
                let got = a.get_cell(&at).map(|r| (r[0].as_f64(), r[1].as_f64()));
                if got != Some((Some(col(row, 2)), Some(col(row, 5)))) {
                    return Err(format!(
                        "sjoin cell {at:?}: {got:?} differs from ArrayTable"
                    ));
                }
            }
            Ok(())
        }
        Cross::Q1(rect) => {
            let want = ds.bench.q1_raw_slab(rect).map_err(|e| e.to_string())?.value;
            close(scalar(a), want)
                .then_some(())
                .ok_or_else(|| format!("Q1 {} differs from ssdb {want}", scalar(a)))
        }
        Cross::Q3 { epoch, factor } => {
            let want = ds
                .bench
                .q3_regrid(*epoch, *factor)
                .map_err(|e| e.to_string())?
                .value;
            (a.cell_count() as f64 == want)
                .then_some(())
                .ok_or_else(|| format!("Q3 has {} cells, ssdb {want}", a.cell_count()))
        }
        Cross::Q5 { epoch, region } => {
            let want = ds.bench.q5_obs_in_box(*epoch, region).value;
            (scalar(a) == want)
                .then_some(())
                .ok_or_else(|| format!("Q5 counts {}, ssdb {want}", scalar(a)))
        }
    }
}

/// Reference fingerprints for every statement of every client's pool, and
/// a description of each cross-check that failed.
pub fn reference(ds: &Dataset, pools: &[Vec<Stmt>]) -> (Vec<Vec<Fingerprint>>, Vec<String>) {
    let mut db = Database::with_threads(1);
    for (name, a) in &ds.arrays {
        db.put_array(name, a.clone()).expect("reference load");
    }
    db.run(&create_log(&ds.sizes)).expect("reference log");
    let mut sess = db.share().session();
    let hot = ArrayTable::from_array(ds.array("hot")).expect("hot as a table");
    let mut errors = Vec::new();
    let mut seq = 0u64;
    let mut out = Vec::new();
    for pool in pools {
        let mut prints = Vec::new();
        for stmt in pool {
            seq += 1;
            let answer = match sess.exec(&issue_text(stmt, seq)) {
                Ok(a) => a,
                Err(e) => {
                    errors.push(format!("reference failed: {}: {e}", stmt.text));
                    prints.push(Fingerprint::default());
                    continue;
                }
            };
            if let Answer::Array(a) = &answer {
                if let Err(e) = cross_check(ds, &hot, stmt, a) {
                    errors.push(format!("{}: {e}", stmt.text));
                }
            }
            prints.push(answer.fingerprint());
        }
        sess.take_metrics();
        out.push(prints);
    }
    (out, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{dataset, pool, Sizes, Workload};

    #[test]
    fn reference_agrees_with_tables_and_ssdb_and_covers_every_cross_check() {
        let sizes = Sizes::quick();
        let ds = dataset(sizes, 11);
        let pools = vec![pool(Workload::AqlMem, &sizes, 11, 0)];
        let (prints, errors) = reference(&ds, &pools);
        assert_eq!(errors, Vec::<String>::new());
        assert_eq!(prints[0].len(), pools[0].len());
        let crossed: std::collections::BTreeSet<_> = pools[0]
            .iter()
            .filter(|s| s.cross != Cross::None)
            .map(|s| s.kind)
            .collect();
        for kind in [
            "hot_slice",
            "hot_slab",
            "hot_sjoin",
            "q1_slab_avg",
            "q3_regrid",
            "q5_obs_box",
        ] {
            assert!(crossed.contains(kind), "{kind} is never cross-checked");
        }
    }

    #[test]
    fn a_wrong_answer_is_caught() {
        let sizes = Sizes::quick();
        let ds = dataset(sizes, 5);
        let hot = ArrayTable::from_array(ds.array("hot")).unwrap();
        let mut rng = crate::gen::Rng::new(1);
        let stmt = crate::gen::statement("q5_obs_box", &sizes, &mut rng);
        // `cold` is not the count Q5 expects.
        assert!(cross_check(&ds, &hot, &stmt, ds.array("cold")).is_err());
    }
}
