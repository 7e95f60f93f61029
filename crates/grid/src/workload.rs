//! Deterministic workload generators for the partitioning experiments
//! (E2): a uniform sky-survey scan and a skewed "steerable" instrument
//! workload.
//!
//! §2.7: "LSST and PanSTARRS have a substantial component of their workload
//! that is to survey the entire sky on a regular basis. For these
//! applications, dividing the coordinate system … into fixed partitions
//! will probably work well. … In contrast, any science experimentation
//! that is 'steerable' will be non-uniform. For example, … the
//! mid-equatorial pacific is not very interesting … On the other hand,
//! during El Niño or La Niña events, it is very interesting."

use scidb_core::geometry::HyperRect;
use scidb_core::rng::SmallRng;

/// One workload entry: a query region and how often it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The accessed region.
    pub region: HyperRect,
    /// Relative frequency (weight).
    pub weight: f64,
}

/// A sample workload: weighted query regions over one array space.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// The queries.
    pub queries: Vec<QuerySpec>,
}

impl Workload {
    /// Number of queries — each runs as one logical cluster operation, so
    /// this is also how far a workload advances the fault-plan clock.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Total weight.
    pub fn total_weight(&self) -> f64 {
        self.queries.iter().map(|q| q.weight).sum()
    }

    /// Expected cells scanned per unit weight (for normalization).
    pub fn weighted_volume(&self) -> f64 {
        self.queries
            .iter()
            .map(|q| q.weight * q.region.volume() as f64)
            .sum()
    }
}

/// A uniform survey: tiles of `tile × tile` sweeping the whole 2-D space,
/// all with equal weight — the sky-survey pattern that fixed partitioning
/// serves well.
pub fn survey_workload(space: &HyperRect, tile: i64) -> Workload {
    assert_eq!(space.rank(), 2, "survey workload is 2-D");
    let mut queries = Vec::new();
    let mut x = space.low[0];
    while x <= space.high[0] {
        let mut y = space.low[1];
        while y <= space.high[1] {
            let hi = vec![
                (x + tile - 1).min(space.high[0]),
                (y + tile - 1).min(space.high[1]),
            ];
            // `x <= hi[0]` and `y <= hi[1]`: a valid rect by construction.
            queries.push(QuerySpec {
                region: HyperRect {
                    low: vec![x, y],
                    high: hi,
                },
                weight: 1.0,
            });
            y += tile;
        }
        x += tile;
    }
    Workload { queries }
}

/// A steerable (hot-spot) workload: most weight concentrates on a few
/// event regions (the "El Niño" effect); a light uniform background scan
/// remains.
pub fn steerable_workload(
    space: &HyperRect,
    n_hotspots: usize,
    hotspot_side: i64,
    hotspot_weight: f64,
    seed: u64,
) -> Workload {
    assert_eq!(space.rank(), 2, "steerable workload is 2-D");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut w = survey_workload(space, hotspot_side.max(8));
    for q in &mut w.queries {
        q.weight = 0.05; // faint background survey
    }
    // A side of at least 1 keeps every hotspot a valid rect.
    let side = hotspot_side.max(1);
    for _ in 0..n_hotspots {
        let x = rng.gen_range(space.low[0]..=(space.high[0] - side + 1).max(space.low[0]));
        let y = rng.gen_range(space.low[1]..=(space.high[1] - side + 1).max(space.low[1]));
        w.queries.push(QuerySpec {
            region: HyperRect {
                low: vec![x, y],
                high: vec![
                    (x + side - 1).min(space.high[0]),
                    (y + side - 1).min(space.high[1]),
                ],
            },
            weight: hotspot_weight,
        });
    }
    w
}

/// 1-D slab workload along a dominant dimension (time-series analyses):
/// weights follow a truncated Zipf over recency — recent slabs are hot.
pub fn recency_workload(space: &HyperRect, dim: usize, n_slabs: i64) -> Workload {
    let len = space.len(dim);
    let slab = (len + n_slabs - 1) / n_slabs;
    let mut queries = Vec::new();
    for k in 0..n_slabs {
        let lo = space.low[dim] + k * slab;
        if lo > space.high[dim] {
            break;
        }
        let hi = (lo + slab - 1).min(space.high[dim]);
        let mut low = space.low.clone();
        let mut high = space.high.clone();
        low[dim] = lo;
        high[dim] = hi;
        // Most recent slab gets the most weight: 1/(rank from the end).
        let rank_from_end = (n_slabs - k) as f64;
        queries.push(QuerySpec {
            // `lo <= hi` on `dim`, the other sides copied from `space`.
            region: HyperRect { low, high },
            weight: 1.0 / rank_from_end,
        });
    }
    Workload { queries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(n: i64) -> HyperRect {
        HyperRect::new(vec![1, 1], vec![n, n]).unwrap()
    }

    #[test]
    fn survey_tiles_cover_space_exactly_once() {
        let w = survey_workload(&space(64), 16);
        assert_eq!(w.queries.len(), 16);
        let total: u64 = w.queries.iter().map(|q| q.region.volume()).sum();
        assert_eq!(total, 64 * 64);
        assert_eq!(w.total_weight(), 16.0);
    }

    #[test]
    fn survey_handles_non_divisible_tiles() {
        let w = survey_workload(&space(10), 4);
        let total: u64 = w.queries.iter().map(|q| q.region.volume()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn steerable_workload_is_skewed_and_deterministic() {
        let a = steerable_workload(&space(256), 3, 32, 50.0, 42);
        let b = steerable_workload(&space(256), 3, 32, 50.0, 42);
        assert_eq!(a.queries, b.queries, "same seed, same workload");
        let hot: f64 = a
            .queries
            .iter()
            .filter(|q| q.weight > 1.0)
            .map(|q| q.weight)
            .sum();
        let cold: f64 = a
            .queries
            .iter()
            .filter(|q| q.weight <= 1.0)
            .map(|q| q.weight)
            .sum();
        assert!(hot > 5.0 * cold, "hotspots dominate: hot={hot} cold={cold}");
    }

    #[test]
    fn recency_workload_weights_recent_slabs() {
        let w = recency_workload(&space(100), 0, 10);
        assert_eq!(w.queries.len(), 10);
        assert!(w.queries.last().unwrap().weight > w.queries[0].weight * 5.0);
        // Slabs tile the dimension.
        let total: u64 = w.queries.iter().map(|q| q.region.volume()).sum();
        assert_eq!(total, 100 * 100);
    }
}
