//! The science benchmark query suite (§2.15).
//!
//! The paper promises "a science benchmark … this collection of tasks"; the
//! realized benchmark from this group was SS-DB, whose structure we follow:
//! three data levels — raw imagery, cooked imagery + observations, and
//! observation groups — with three queries each:
//!
//! | level | queries |
//! |---|---|
//! | raw | Q1 slab average, Q2 recook a region, Q3 regrid pyramid |
//! | observations | Q4 detect + count, Q5 spatial box, Q6 uncertain flux filter |
//! | groups | Q7 trajectory count, Q8 fast movers, Q9 uncertain cross-epoch join |
//!
//! [`relational`] re-expresses the array-resident queries (Q1/Q3/Q5)
//! against the table simulation for the E10 per-query comparison.

use crate::cooking::{calibrate, Calibration};
use crate::detect::{detect, DetectParams, Observation};
use crate::gen::{generate_stack, ImageSpec, Stack};
use crate::group::{group_observations, GroupParams, ObsGroup};
use scidb_core::error::{Error, Result};
use scidb_core::geometry::HyperRect;
use scidb_core::ops::{self, AggInput, DimCond, DimPredicate};
use scidb_core::registry::Registry;

/// One query's outcome: a scalar summary plus work accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Query name (`Q1`…`Q9`).
    pub name: &'static str,
    /// Scalar result (count / average — enough to check plausibility and
    /// compare engines).
    pub value: f64,
    /// Cells or records touched.
    pub cells: usize,
}

/// A prepared benchmark instance: generated stack, cooked epochs,
/// detections, and groups.
pub struct Benchmark {
    /// The generated stack.
    pub stack: Stack,
    /// Calibrated epochs.
    pub cooked: Vec<scidb_core::array::Array>,
    /// Per-epoch detections.
    pub observations: Vec<Vec<Observation>>,
    /// Cross-epoch groups.
    pub groups: Vec<ObsGroup>,
    registry: Registry,
}

impl Benchmark {
    /// Generates and fully prepares a benchmark instance.
    pub fn prepare(spec: &ImageSpec, n_epochs: usize) -> Result<Benchmark> {
        let stack = generate_stack(spec, n_epochs);
        let cal = Calibration {
            dark_offset: 0.0,
            gain: 1.0,
        };
        let cooked: Vec<_> = stack
            .epochs
            .iter()
            .map(|e| calibrate(e, &cal))
            .collect::<Result<_>>()?;
        let params = DetectParams {
            noise_sigma: spec.noise_sigma,
            ..Default::default()
        };
        let observations: Vec<Vec<Observation>> = cooked
            .iter()
            .map(|img| detect(img, &params))
            .collect::<Result<_>>()?;
        let groups = group_observations(&observations, &GroupParams::default());
        Ok(Benchmark {
            stack,
            cooked,
            observations,
            groups,
            registry: Registry::with_builtins(),
        })
    }

    /// The benchmark's function registry (available to custom queries).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Q1: average raw pixel over a slab, across all epochs — per epoch a
    /// subsample of the slab, then its `sum` and `count`.
    pub fn q1_raw_slab(&self, region: &HyperRect) -> Result<QueryResult> {
        let (mut sum, mut n) = (0.0, 0.0);
        for epoch in &self.stack.epochs {
            if region.rank() != epoch.rank() {
                return Err(Error::dimension("slab rank mismatch"));
            }
            let mut pred = DimPredicate::new();
            for (d, dim) in epoch.schema().dims().iter().enumerate() {
                let cond = DimCond::Between(region.low[d], region.high[d]);
                pred = pred.with(dim.name.clone(), cond);
            }
            let slab = ops::subsample(epoch, &pred, None)?;
            for (agg, total) in [("sum", &mut sum), ("count", &mut n)] {
                let out = ops::aggregate(&slab, &[], agg, AggInput::Star, &self.registry)?;
                *total += out.get_f64(0, &[1]).unwrap_or(0.0);
            }
        }
        Ok(QueryResult {
            name: "Q1",
            value: if n == 0.0 { 0.0 } else { sum / n },
            cells: n as usize,
        })
    }

    /// Q2: recook (calibrate) a region of one raw epoch with different
    /// calibration constants — the §2.11 "different cooking step" case.
    pub fn q2_recook(
        &self,
        epoch: usize,
        region: &HyperRect,
        cal: &Calibration,
    ) -> Result<QueryResult> {
        let mut out_sum = 0.0;
        let mut n = 0usize;
        for (_, rec) in self.stack.epochs[epoch].cells_in(region) {
            if let Some(v) = rec[0].as_f64() {
                out_sum += (v - cal.dark_offset) * cal.gain;
                n += 1;
            }
        }
        Ok(QueryResult {
            name: "Q2",
            value: if n == 0 { 0.0 } else { out_sum / n as f64 },
            cells: n,
        })
    }

    /// Q3: regrid one cooked epoch by `factor` (resolution pyramid level,
    /// block averages).
    pub fn q3_regrid(&self, epoch: usize, factor: i64) -> Result<QueryResult> {
        let img = &self.cooked[epoch];
        let out = ops::regrid(img, &[factor, factor], "avg", &self.registry)?;
        Ok(QueryResult {
            name: "Q3",
            value: out.cell_count() as f64,
            cells: img.cell_count(),
        })
    }

    /// Q4: number of observations in one epoch.
    pub fn q4_detect_count(&self, epoch: usize) -> QueryResult {
        QueryResult {
            name: "Q4",
            value: self.observations[epoch].len() as f64,
            cells: self.cooked[epoch].cell_count(),
        }
    }

    /// Q5: observations of one epoch inside a spatial box.
    pub fn q5_obs_in_box(&self, epoch: usize, region: &HyperRect) -> QueryResult {
        let hits = self.observations[epoch]
            .iter()
            .filter(|o| {
                let (x, y) = o.center();
                region.contains(&[x.round() as i64, y.round() as i64])
            })
            .count();
        QueryResult {
            name: "Q5",
            value: hits as f64,
            cells: self.observations[epoch].len(),
        }
    }

    /// Q6: observations whose flux exceeds `f0` with probability ≥ `p` —
    /// the §2.13 uncertainty-aware filter.
    pub fn q6_bright_obs(&self, epoch: usize, f0: f64, p: f64) -> QueryResult {
        let hits = self.observations[epoch]
            .iter()
            .filter(|o| 1.0 - o.flux.cdf(f0) >= p)
            .count();
        QueryResult {
            name: "Q6",
            value: hits as f64,
            cells: self.observations[epoch].len(),
        }
    }

    /// Q7: number of cross-epoch groups seen in at least `min_epochs`.
    pub fn q7_group_count(&self, min_epochs: usize) -> QueryResult {
        let n = self.groups.iter().filter(|g| g.len() >= min_epochs).count();
        QueryResult {
            name: "Q7",
            value: n as f64,
            cells: self.groups.iter().map(ObsGroup::len).sum(),
        }
    }

    /// Q8: groups moving faster than `v_min` pixels/epoch.
    pub fn q8_fast_movers(&self, v_min: f64) -> QueryResult {
        let n = self
            .groups
            .iter()
            .filter(|g| {
                let (vx, vy) = g.velocity();
                vx.hypot(vy) > v_min && g.len() >= 2
            })
            .count();
        QueryResult {
            name: "Q8",
            value: n as f64,
            cells: self.groups.len(),
        }
    }

    /// Q9: uncertain cross-epoch join — pairs of observations in epochs
    /// `a`, `b` matching within `k` combined sigmas (§2.13 PanSTARRS).
    pub fn q9_uncertain_join(&self, a: usize, b: usize, k: f64) -> QueryResult {
        let mut pairs = 0usize;
        for oa in &self.observations[a] {
            for ob in &self.observations[b] {
                if oa.matches_within(ob, k) {
                    pairs += 1;
                }
            }
        }
        QueryResult {
            name: "Q9",
            value: pairs as f64,
            cells: self.observations[a].len() * self.observations[b].len(),
        }
    }

    /// Runs the full suite at default parameters.
    pub fn run_all(&self) -> Result<Vec<QueryResult>> {
        let n = self.stack.spec.size;
        let slab = HyperRect::new(vec![1, 1], vec![n / 4, n]).unwrap();
        let box_q = HyperRect::new(vec![n / 4, n / 4], vec![3 * n / 4, 3 * n / 4]).unwrap();
        Ok(vec![
            self.q1_raw_slab(&slab)?,
            self.q2_recook(
                0,
                &slab,
                &Calibration {
                    dark_offset: 0.5,
                    gain: 1.1,
                },
            )?,
            self.q3_regrid(0, 4)?,
            self.q4_detect_count(0),
            self.q5_obs_in_box(0, &box_q),
            self.q6_bright_obs(0, self.stack.spec.min_flux, 0.95),
            self.q7_group_count(2),
            self.q8_fast_movers(0.5),
            self.q9_uncertain_join(0, self.stack.epochs.len() - 1, 3.0),
        ])
    }
}

/// Relational arms of all nine queries, for the E10 per-query comparison:
/// raw imagery through [`ArrayTable`](scidb_relational::ArrayTable) (pixel
/// rows with explicit dimension columns), observations and groups through
/// plain typed tables built by [`relational::obs_table`] and
/// [`relational::group_table`].
pub mod relational {
    use super::*;
    use scidb_core::uncertain::Uncertain;
    use scidb_core::value::{ScalarType, Value};
    use scidb_relational::{group_aggregate, hash_join, select, ArrayTable, ColumnDef, Table};

    fn col(name: &str, ty: ScalarType) -> ColumnDef {
        ColumnDef {
            name: name.to_string(),
            ty,
        }
    }

    /// Flattens per-epoch detections into one observation table:
    /// `(epoch, id, x, x_sigma, y, y_sigma, flux, flux_sigma, npix)`.
    pub fn obs_table(per_epoch: &[Vec<Observation>]) -> Result<Table> {
        let mut t = Table::new(
            "observations",
            vec![
                col("epoch", ScalarType::Int64),
                col("id", ScalarType::Int64),
                col("x", ScalarType::Float64),
                col("x_sigma", ScalarType::Float64),
                col("y", ScalarType::Float64),
                col("y_sigma", ScalarType::Float64),
                col("flux", ScalarType::Float64),
                col("flux_sigma", ScalarType::Float64),
                col("npix", ScalarType::Int64),
            ],
        )?;
        for (epoch, obs) in per_epoch.iter().enumerate() {
            for o in obs {
                t.insert(vec![
                    Value::from(epoch as i64),
                    Value::from(o.id as i64),
                    Value::from(o.x.mean),
                    Value::from(o.x.sigma),
                    Value::from(o.y.mean),
                    Value::from(o.y.sigma),
                    Value::from(o.flux.mean),
                    Value::from(o.flux.sigma),
                    Value::from(o.npix as i64),
                ])?;
            }
        }
        Ok(t)
    }

    /// Flattens group membership into one table:
    /// `(group_id, epoch, x, y, flux)` — one row per member observation.
    pub fn group_table(groups: &[ObsGroup]) -> Result<Table> {
        let mut t = Table::new(
            "obs_groups",
            vec![
                col("group_id", ScalarType::Int64),
                col("epoch", ScalarType::Int64),
                col("x", ScalarType::Float64),
                col("y", ScalarType::Float64),
                col("flux", ScalarType::Float64),
            ],
        )?;
        for g in groups {
            for (epoch, o) in &g.members {
                t.insert(vec![
                    Value::from(g.id as i64),
                    Value::from(*epoch as i64),
                    Value::from(o.x.mean),
                    Value::from(o.y.mean),
                    Value::from(o.flux.mean),
                ])?;
            }
        }
        Ok(t)
    }

    /// Q1 against the table simulation: slab via index range + residual.
    pub fn q1_raw_slab(tables: &[ArrayTable], region: &HyperRect) -> Result<QueryResult> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for t in tables {
            for row in t.slab(region)? {
                if let Some(v) = row.last().and_then(|v| v.as_f64()) {
                    sum += v;
                    n += 1;
                }
            }
        }
        Ok(QueryResult {
            name: "Q1(rel)",
            value: if n == 0 { 0.0 } else { sum / n as f64 },
            cells: n,
        })
    }

    /// Q2 against the table simulation: recook a slab of pixel rows with
    /// different calibration constants.
    pub fn q2_recook(
        table: &ArrayTable,
        region: &HyperRect,
        cal: &Calibration,
    ) -> Result<QueryResult> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for row in table.slab(region)? {
            if let Some(v) = row.last().and_then(|v| v.as_f64()) {
                sum += (v - cal.dark_offset) * cal.gain;
                n += 1;
            }
        }
        Ok(QueryResult {
            name: "Q2(rel)",
            value: if n == 0 { 0.0 } else { sum / n as f64 },
            cells: n,
        })
    }

    /// Q3 against the table simulation: GROUP BY computed block ids.
    pub fn q3_regrid(table: &ArrayTable, factor: i64, registry: &Registry) -> Result<QueryResult> {
        let out = table.regrid(&[factor, factor], "avg", "flux", registry)?;
        Ok(QueryResult {
            name: "Q3(rel)",
            value: out.len() as f64,
            cells: table.len(),
        })
    }

    /// Q4 against the table simulation: `SELECT COUNT(*) WHERE epoch = e`.
    pub fn q4_detect_count(obs: &Table, epoch: usize) -> Result<QueryResult> {
        let e = obs.column_index("epoch")?;
        let hits = select(obs, |row| row[e].as_i64() == Some(epoch as i64)).len();
        Ok(QueryResult {
            name: "Q4(rel)",
            value: hits as f64,
            cells: obs.len(),
        })
    }

    /// Q5 against the table simulation: spatial box as a value predicate
    /// over the centroid columns.
    pub fn q5_obs_in_box(obs: &Table, epoch: usize, region: &HyperRect) -> Result<QueryResult> {
        let (e, xc, yc) = (
            obs.column_index("epoch")?,
            obs.column_index("x")?,
            obs.column_index("y")?,
        );
        let rows = select(obs, |row| {
            row[e].as_i64() == Some(epoch as i64)
                && match (row[xc].as_f64(), row[yc].as_f64()) {
                    (Some(x), Some(y)) => region.contains(&[x.round() as i64, y.round() as i64]),
                    _ => false,
                }
        });
        let total = select(obs, |row| row[e].as_i64() == Some(epoch as i64)).len();
        Ok(QueryResult {
            name: "Q5(rel)",
            value: rows.len() as f64,
            cells: total,
        })
    }

    /// Q6 against the table simulation: the §2.13 uncertainty-aware filter,
    /// reconstructing the flux distribution from its mean/sigma columns.
    pub fn q6_bright_obs(obs: &Table, epoch: usize, f0: f64, p: f64) -> Result<QueryResult> {
        let (e, fm, fs) = (
            obs.column_index("epoch")?,
            obs.column_index("flux")?,
            obs.column_index("flux_sigma")?,
        );
        let rows = select(obs, |row| {
            row[e].as_i64() == Some(epoch as i64)
                && match (row[fm].as_f64(), row[fs].as_f64()) {
                    (Some(mean), Some(sigma)) => 1.0 - Uncertain::new(mean, sigma).cdf(f0) >= p,
                    _ => false,
                }
        });
        let total = select(obs, |row| row[e].as_i64() == Some(epoch as i64)).len();
        Ok(QueryResult {
            name: "Q6(rel)",
            value: rows.len() as f64,
            cells: total,
        })
    }

    /// Q7 against the table simulation: `GROUP BY group_id HAVING
    /// COUNT(*) >= min_epochs`.
    pub fn q7_group_count(
        groups: &Table,
        min_epochs: usize,
        reg: &Registry,
    ) -> Result<QueryResult> {
        let counts = group_aggregate(groups, &["group_id"], "count", "epoch", reg)?;
        let c = counts.column_index("count_epoch")?;
        let hits = select(&counts, |row| {
            row[c].as_i64().is_some_and(|n| n >= min_epochs as i64)
        })
        .len();
        Ok(QueryResult {
            name: "Q7(rel)",
            value: hits as f64,
            cells: groups.len(),
        })
    }

    /// Q8 against the table simulation: join each group's first and last
    /// member rows (min/max epoch aggregates) and filter on the implied
    /// per-epoch velocity.
    pub fn q8_fast_movers(groups: &Table, v_min: f64, reg: &Registry) -> Result<QueryResult> {
        let firsts = endpoint_rows(groups, "min", reg)?;
        let lasts = endpoint_rows(groups, "max", reg)?;
        let j = hash_join(&firsts, &lasts, &[("group_id", "group_id")])?;
        let (e0, x0, y0) = (
            j.column_index("epoch")?,
            j.column_index("x")?,
            j.column_index("y")?,
        );
        let (e1, x1, y1) = (
            j.column_index("epoch_r")?,
            j.column_index("x_r")?,
            j.column_index("y_r")?,
        );
        let hits = select(&j, |row| {
            let (Some(ea), Some(eb)) = (row[e0].as_i64(), row[e1].as_i64()) else {
                return false;
            };
            if ea == eb {
                return false; // single-epoch group
            }
            let d = (eb - ea) as f64;
            let (Some(xa), Some(ya), Some(xb), Some(yb)) = (
                row[x0].as_f64(),
                row[y0].as_f64(),
                row[x1].as_f64(),
                row[y1].as_f64(),
            ) else {
                return false;
            };
            ((xb - xa) / d).hypot((yb - ya) / d) > v_min
        })
        .len();
        Ok(QueryResult {
            name: "Q8(rel)",
            value: hits as f64,
            cells: j.len(),
        })
    }

    /// The member rows at each group's `min`/`max` epoch: aggregate the
    /// endpoint epoch per group, join back, keep the matching rows.
    fn endpoint_rows(groups: &Table, which: &str, reg: &Registry) -> Result<Table> {
        let ends = group_aggregate(groups, &["group_id"], which, "epoch", reg)?;
        let j = hash_join(groups, &ends, &[("group_id", "group_id")])?;
        let (e, end) = (
            j.column_index("epoch")?,
            j.column_index(&format!("{which}_epoch"))?,
        );
        let mut out = Table::new(format!("{which}_members"), groups.columns().to_vec())?;
        for row in select(&j, |row| row[e] == row[end]) {
            out.insert(row[..groups.columns().len()].to_vec())?;
        }
        Ok(out)
    }

    /// Q9 against the table simulation: the §2.13 uncertain theta-join —
    /// a nested-loop join of two epoch selections under the combined-sigma
    /// match predicate, evaluated on table columns.
    pub fn q9_uncertain_join(obs: &Table, a: usize, b: usize, k: f64) -> Result<QueryResult> {
        let e = obs.column_index("epoch")?;
        let (xc, xs) = (obs.column_index("x")?, obs.column_index("x_sigma")?);
        let (yc, ys) = (obs.column_index("y")?, obs.column_index("y_sigma")?);
        let left = select(obs, |row| row[e].as_i64() == Some(a as i64));
        let right = select(obs, |row| row[e].as_i64() == Some(b as i64));
        let axis = |m1: f64, s1: f64, m2: f64, s2: f64| {
            let s = s1.hypot(s2).max(0.5);
            (m1 - m2).abs() <= k * s.max(1.0) + k
        };
        let mut pairs = 0usize;
        for ra in &left {
            for rb in &right {
                let vals = (
                    ra[xc].as_f64(),
                    ra[xs].as_f64(),
                    ra[yc].as_f64(),
                    ra[ys].as_f64(),
                    rb[xc].as_f64(),
                    rb[xs].as_f64(),
                    rb[yc].as_f64(),
                    rb[ys].as_f64(),
                );
                if let (
                    Some(xa),
                    Some(xsa),
                    Some(ya),
                    Some(ysa),
                    Some(xb),
                    Some(xsb),
                    Some(yb),
                    Some(ysb),
                ) = vals
                {
                    if axis(xa, xsa, xb, xsb) && axis(ya, ysa, yb, ysb) {
                        pairs += 1;
                    }
                }
            }
        }
        Ok(QueryResult {
            name: "Q9(rel)",
            value: pairs as f64,
            cells: left.len() * right.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidb_relational::ArrayTable;

    fn bench() -> Benchmark {
        Benchmark::prepare(
            &ImageSpec {
                size: 96,
                n_sources: 10,
                min_flux: 600.0,
                noise_sigma: 0.8,
                seed: 77,
                ..Default::default()
            },
            3,
        )
        .unwrap()
    }

    #[test]
    fn full_suite_runs_and_is_plausible() {
        let b = bench();
        let results = b.run_all().unwrap();
        assert_eq!(results.len(), 9);
        let by_name = |n: &str| results.iter().find(|r| r.name == n).unwrap().value;
        // Q1: background-dominated average near zero.
        assert!(by_name("Q1").abs() < 5.0);
        // Q4: roughly the planted source count.
        assert!((by_name("Q4") - 10.0).abs() <= 3.0, "Q4 {}", by_name("Q4"));
        // Q7: most sources tracked in ≥2 epochs.
        assert!(by_name("Q7") >= 6.0, "Q7 {}", by_name("Q7"));
        // Q9: at least as many matches as tracked groups.
        assert!(by_name("Q9") >= 5.0, "Q9 {}", by_name("Q9"));
    }

    #[test]
    fn q2_recook_changes_values() {
        let b = bench();
        let slab = HyperRect::new(vec![1, 1], vec![24, 96]).unwrap();
        let base = b.q1_raw_slab(&slab).unwrap().value;
        let recooked = b
            .q2_recook(
                0,
                &slab,
                &Calibration {
                    dark_offset: 10.0,
                    gain: 1.0,
                },
            )
            .unwrap()
            .value;
        assert!((base - recooked).abs() > 5.0, "{base} vs {recooked}");
    }

    #[test]
    fn q6_threshold_monotone() {
        let b = bench();
        let loose = b.q6_bright_obs(0, 100.0, 0.5).value;
        let tight = b.q6_bright_obs(0, 2000.0, 0.95).value;
        assert!(loose >= tight);
    }

    #[test]
    fn relational_arms_agree_with_array_arms() {
        let b = bench();
        let slab = HyperRect::new(vec![1, 1], vec![24, 96]).unwrap();
        let tables: Vec<ArrayTable> = b
            .stack
            .epochs
            .iter()
            .map(|e| ArrayTable::from_array(e).unwrap())
            .collect();
        let rel = relational::q1_raw_slab(&tables, &slab).unwrap();
        let arr = b.q1_raw_slab(&slab).unwrap();
        assert_eq!(rel.cells, arr.cells);
        assert!((rel.value - arr.value).abs() < 1e-9);

        let r = Registry::with_builtins();
        let t0 = ArrayTable::from_array(&b.cooked[0]).unwrap();
        let rel3 = relational::q3_regrid(&t0, 4, &r).unwrap();
        let arr3 = b.q3_regrid(0, 4).unwrap();
        assert_eq!(rel3.value, arr3.value);
    }

    /// The full E10 comparison: every query's relational arm must agree
    /// with the array arm on the fixed dataset — exact for counts, within
    /// float-sum reassociation tolerance for the averaged slabs.
    #[test]
    fn all_nine_relational_arms_agree_with_array_arms() {
        let b = bench();
        let reg = Registry::with_builtins();
        let n = b.stack.spec.size;
        let slab = HyperRect::new(vec![1, 1], vec![n / 4, n]).unwrap();
        let box_q = HyperRect::new(vec![n / 4, n / 4], vec![3 * n / 4, 3 * n / 4]).unwrap();
        let recal = Calibration {
            dark_offset: 0.5,
            gain: 1.1,
        };

        let tables: Vec<ArrayTable> = b
            .stack
            .epochs
            .iter()
            .map(|e| ArrayTable::from_array(e).unwrap())
            .collect();
        let cooked0 = ArrayTable::from_array(&b.cooked[0]).unwrap();
        let obs = relational::obs_table(&b.observations).unwrap();
        let groups = relational::group_table(&b.groups).unwrap();
        let last = b.stack.epochs.len() - 1;

        let close = |rel: &QueryResult, arr: &QueryResult| {
            assert!(
                (rel.value - arr.value).abs() < 1e-9,
                "{}: {} vs {}: {}",
                rel.name,
                rel.value,
                arr.name,
                arr.value
            );
        };
        let exact = |rel: &QueryResult, arr: &QueryResult| {
            assert_eq!(rel.value, arr.value, "{} vs {}", rel.name, arr.name);
        };

        close(
            &relational::q1_raw_slab(&tables, &slab).unwrap(),
            &b.q1_raw_slab(&slab).unwrap(),
        );
        close(
            &relational::q2_recook(&tables[0], &slab, &recal).unwrap(),
            &b.q2_recook(0, &slab, &recal).unwrap(),
        );
        exact(
            &relational::q3_regrid(&cooked0, 4, &reg).unwrap(),
            &b.q3_regrid(0, 4).unwrap(),
        );
        exact(
            &relational::q4_detect_count(&obs, 0).unwrap(),
            &b.q4_detect_count(0),
        );
        exact(
            &relational::q5_obs_in_box(&obs, 0, &box_q).unwrap(),
            &b.q5_obs_in_box(0, &box_q),
        );
        exact(
            &relational::q6_bright_obs(&obs, 0, b.stack.spec.min_flux, 0.95).unwrap(),
            &b.q6_bright_obs(0, b.stack.spec.min_flux, 0.95),
        );
        exact(
            &relational::q7_group_count(&groups, 2, &reg).unwrap(),
            &b.q7_group_count(2),
        );
        exact(
            &relational::q8_fast_movers(&groups, 0.5, &reg).unwrap(),
            &b.q8_fast_movers(0.5),
        );
        exact(
            &relational::q9_uncertain_join(&obs, 0, last, 3.0).unwrap(),
            &b.q9_uncertain_join(0, last, 3.0),
        );
    }

    #[test]
    fn q5_box_bounded_by_total() {
        let b = bench();
        let all = HyperRect::new(vec![1, 1], vec![96, 96]).unwrap();
        let r = b.q5_obs_in_box(0, &all);
        assert_eq!(r.value as usize, b.observations[0].len());
    }
}
