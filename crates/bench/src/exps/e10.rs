//! E10 — the science benchmark suite (§2.15): Q1–Q9 over synthetic
//! telescope data, with relational arms for the array-resident queries.

use crate::report::{f3, median_ms, ReportTable};
use scidb_core::geometry::HyperRect;
use scidb_core::registry::Registry;
use scidb_relational::ArrayTable;
use scidb_ssdb::queries::{relational, Benchmark};
use scidb_ssdb::ImageSpec;

/// Runs E10.
pub fn run(quick: bool) -> Vec<ReportTable> {
    let spec = ImageSpec {
        size: if quick { 128 } else { 512 },
        n_sources: if quick { 40 } else { 400 },
        min_flux: 600.0,
        noise_sigma: 1.0,
        seed: 2009,
        ..Default::default()
    };
    let n_epochs = if quick { 5 } else { 20 };
    let (bench, prep_ms) = crate::report::time_ms(|| Benchmark::prepare(&spec, n_epochs).unwrap());

    let mut t = ReportTable::new(
        format!(
            "E10 — science benchmark ({}x{} px × {} epochs; prepare {} ms)",
            spec.size,
            spec.size,
            n_epochs,
            f3(prep_ms)
        ),
        &["query", "result", "records touched", "ms"],
    );
    // Timed individual queries at default parameters.
    let n = spec.size;
    let slab = HyperRect::new(vec![1, 1], vec![n / 4, n]).unwrap();
    let box_q = HyperRect::new(vec![n / 4, n / 4], vec![3 * n / 4, 3 * n / 4]).unwrap();

    macro_rules! timed {
        ($label:expr, $body:expr) => {{
            let result = $body;
            let ms = median_ms(3, || $body);
            t.row(vec![
                $label.into(),
                f3(result.value),
                result.cells.to_string(),
                f3(ms),
            ]);
        }};
    }
    timed!("Q1 raw slab avg", bench.q1_raw_slab(&slab).unwrap());
    timed!(
        "Q2 recook slab",
        bench
            .q2_recook(
                0,
                &slab,
                &scidb_ssdb::cooking::Calibration {
                    dark_offset: 0.5,
                    gain: 1.1
                }
            )
            .unwrap()
    );
    timed!("Q3 regrid 4x4", bench.q3_regrid(0, 4).unwrap());
    timed!("Q4 detect count", bench.q4_detect_count(0));
    timed!("Q5 obs in box", bench.q5_obs_in_box(0, &box_q));
    timed!(
        "Q6 bright obs (P>=0.95)",
        bench.q6_bright_obs(0, spec.min_flux, 0.95)
    );
    timed!("Q7 groups (>=2 epochs)", bench.q7_group_count(2));
    timed!("Q8 fast movers", bench.q8_fast_movers(0.5));
    timed!(
        "Q9 uncertain join",
        bench.q9_uncertain_join(0, n_epochs - 1, 3.0)
    );
    let mut tables = vec![t];

    // Relational arms: Q1 and Q3 on the table simulation.
    let registry = Registry::with_builtins();
    let rel_tables: Vec<ArrayTable> = bench
        .stack
        .epochs
        .iter()
        .map(|e| ArrayTable::from_array(e).unwrap())
        .collect();
    let t0 = ArrayTable::from_array(&bench.cooked[0]).unwrap();
    let mut t = ReportTable::new(
        "E10 — array vs relational per query",
        &["query", "array ms", "relational ms", "speedup"],
    );
    let arr_q1 = median_ms(3, || bench.q1_raw_slab(&slab).unwrap());
    let rel_q1 = median_ms(3, || relational::q1_raw_slab(&rel_tables, &slab).unwrap());
    t.row(vec![
        "Q1 slab".into(),
        f3(arr_q1),
        f3(rel_q1),
        format!("{:.1}x", rel_q1 / arr_q1),
    ]);
    let arr_q3 = median_ms(3, || bench.q3_regrid(0, 4).unwrap());
    let rel_q3 = median_ms(3, || relational::q3_regrid(&t0, 4, &registry).unwrap());
    t.row(vec![
        "Q3 regrid".into(),
        f3(arr_q3),
        f3(rel_q3),
        format!("{:.1}x", rel_q3 / arr_q3),
    ]);
    tables.push(t);

    // Q4 answers from the detections `prepare` cached; this is the
    // detection itself, over one whole cooked image.
    let detect = || scidb_ssdb::detect(&bench.cooked[0], &Default::default()).unwrap();
    let mut t = ReportTable::new(
        "E10 — detection, full image (uncached)",
        &["observations", "pixels", "ms"],
    );
    t.row(vec![
        detect().len().to_string(),
        (n * n).to_string(),
        f3(median_ms(3, detect)),
    ]);
    tables.push(t);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_suite_produces_all_queries() {
        let tables = run(true);
        assert_eq!(tables[0].rows.len(), 9);
        // Q4 recovers most planted sources.
        let q4: f64 = tables[0].rows[3][1].parse().unwrap();
        assert!((25.0..=55.0).contains(&q4), "Q4 ≈ 40 sources: {q4}");
        // Comparison table has both queries.
        assert_eq!(tables[1].rows.len(), 2);
    }
}
