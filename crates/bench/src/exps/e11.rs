//! E11 — PanSTARRS overlap replication (§2.13): fraction of uncertain
//! spatial joins resolvable without data movement vs replication margin.

use crate::report::{f3, ReportTable};
use scidb_core::geometry::HyperRect;
use scidb_core::rng::SmallRng;
use scidb_grid::{local_join_fraction, replication_overhead, PartitionScheme, ReplicatedPlacement};

/// Runs E11.
pub fn run(quick: bool) -> Vec<ReportTable> {
    let n: i64 = 1024;
    let n_obs = if quick { 20_000 } else { 100_000 };
    let sigma_max = 3i64; // the DBA-identified maximum location error
    let space = HyperRect::new(vec![1, 1], vec![n, n]).unwrap();
    let scheme = PartitionScheme::grid(space, vec![4, 4], 16).unwrap();

    // Observation pairs: the same object seen twice with positional
    // jitter up to sigma_max.
    let mut rng = SmallRng::seed_from_u64(2013);
    let mut obs = Vec::with_capacity(n_obs);
    let mut pairs = Vec::with_capacity(n_obs);
    for _ in 0..n_obs {
        let x = rng.gen_range(1 + sigma_max..=n - sigma_max);
        let y = rng.gen_range(1 + sigma_max..=n - sigma_max);
        let dx = rng.gen_range(-sigma_max..=sigma_max);
        let dy = rng.gen_range(-sigma_max..=sigma_max);
        obs.push(vec![x, y]);
        pairs.push((vec![x, y], vec![x + dx, y + dy]));
    }

    let mut t = ReportTable::new(
        "E11 — overlap replication: local-join fraction vs margin (σ_max = 3 px)",
        &["margin (px)", "local join fraction", "storage overhead"],
    );
    for margin in [0i64, 1, 2, 3, 6, 9] {
        let placement = ReplicatedPlacement::new(scheme.clone(), margin);
        let local = local_join_fraction(&placement, &pairs);
        let overhead = replication_overhead(&placement, &obs);
        t.row(vec![
            margin.to_string(),
            f3(local),
            format!("{overhead:.3}x"),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_margin_at_sigma_max_localizes_everything() {
        let tables = run(true);
        let t = &tables[0];
        let at = |margin: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == margin).unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(at("0") < 1.0, "no replication leaves remote joins");
        assert!(at("3") >= 0.999, "margin = σ_max localizes all joins");
        assert!(at("1") < at("2") || at("1") == 1.0);
        // Overhead stays modest even at 3σ_max.
        let overhead: f64 = t.rows.last().unwrap()[2]
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(overhead < 1.25, "overhead at 9 px margin: {overhead}");
    }
}
