//! Overlap replication for uncertain positions (§2.13, PanSTARRS).
//!
//! "The PanSTARRS DBAs have identified the maximum possible location error.
//! Since they have a fixed partitioning schema between nodes, they can
//! redundantly place an observation in multiple partitions if the
//! observation is close to a partition boundary. In this way, they ensure
//! that 'uncertain' spatial joins can be performed without moving data
//! elements."
//!
//! [`ReplicatedPlacement`] wraps a [`PartitionScheme`] with a replication
//! margin: an observation is placed on its home node plus every node owning
//! cells within `margin` of it. Experiment E11 measures the fraction of
//! uncertain matches resolvable with zero movement versus the margin (in
//! multiples of the maximum positional error) and the storage overhead paid
//! for it.

use crate::partition::PartitionScheme;
use scidb_core::geometry::HyperRect;
use std::collections::BTreeSet;

/// A partitioning with boundary-overlap replication and an optional k-copy
/// fault-tolerance factor.
#[derive(Debug, Clone)]
pub struct ReplicatedPlacement {
    scheme: PartitionScheme,
    margin: i64,
    /// Fault-tolerance copies per observation (≥ 1). Copy `i` lives on the
    /// `i`-th successor of the home node, ring-ordered over the scheme's
    /// nodes, so losing any `replicas − 1` non-adjacent nodes loses no data.
    replicas: usize,
}

impl ReplicatedPlacement {
    /// Wraps `scheme` with a replication `margin` in cells (typically
    /// `k × σ_max`, the identified maximum location error).
    pub fn new(scheme: PartitionScheme, margin: i64) -> Self {
        Self::with_replicas(scheme, margin, 1)
    }

    /// Wraps `scheme` with both an overlap `margin` and a k-copy
    /// fault-tolerance factor: every observation is stored on its home node
    /// and the next `replicas − 1` ring-successor nodes (§2.11 node-failure
    /// recovery), in addition to any margin-induced boundary copies.
    /// `replicas` is clamped to the scheme's node count.
    pub fn with_replicas(scheme: PartitionScheme, margin: i64, replicas: usize) -> Self {
        assert!(margin >= 0, "margin must be non-negative");
        assert!(replicas >= 1, "need at least one copy");
        let replicas = replicas.min(scheme.n_nodes());
        ReplicatedPlacement {
            scheme,
            margin,
            replicas,
        }
    }

    /// The home node (authoritative copy).
    pub fn home(&self, coords: &[i64]) -> usize {
        self.scheme.node_of(coords)
    }

    /// All nodes receiving a copy: the owners of every cell within the
    /// margin box around `coords`. Checking the corners and the center of
    /// the margin box suffices for the convex tile/range schemes used here,
    /// but we scan the box edges coarsely to stay scheme-agnostic.
    pub fn placements(&self, coords: &[i64]) -> Vec<usize> {
        let mut nodes = BTreeSet::new();
        let home = self.home(coords);
        nodes.insert(home);
        // k-copy fault-tolerance replicas on the home's ring successors.
        let n = self.scheme.n_nodes();
        for i in 1..self.replicas {
            nodes.insert((home + i) % n);
        }
        if self.margin > 0 {
            let rect = HyperRect::cell(coords).expanded(self.margin);
            // Probe the corner points and axis-aligned extremes of the box.
            let rank = coords.len();
            let n_corners = 1usize << rank;
            for mask in 0..n_corners {
                let corner: Vec<i64> = (0..rank)
                    .map(|d| {
                        if mask >> d & 1 == 1 {
                            rect.high[d]
                        } else {
                            rect.low[d]
                        }
                    })
                    .collect();
                nodes.insert(self.scheme.node_of(&corner));
            }
            // Axis midpoints catch thin-tile schemes.
            for d in 0..rank {
                for &edge in &[rect.low[d], rect.high[d]] {
                    let mut probe = coords.to_vec();
                    probe[d] = edge;
                    nodes.insert(self.scheme.node_of(&probe));
                }
            }
        }
        nodes.into_iter().collect()
    }

    /// Replication factor for one observation.
    pub fn copies(&self, coords: &[i64]) -> usize {
        self.placements(coords).len()
    }

    /// True if two observations share at least one node — i.e. their
    /// uncertain spatial join resolves without data movement.
    pub fn join_local(&self, a: &[i64], b: &[i64]) -> bool {
        let pa = self.placements(a);
        let pb = self.placements(b);
        pa.iter().any(|n| pb.contains(n))
    }

    /// The wrapped scheme.
    pub fn scheme(&self) -> &PartitionScheme {
        &self.scheme
    }

    /// The margin.
    pub fn margin(&self) -> i64 {
        self.margin
    }

    /// The k-copy fault-tolerance factor.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Nodes addressed by the wrapped scheme.
    pub fn n_nodes(&self) -> usize {
        self.scheme.n_nodes()
    }
}

/// Storage overhead of replication over a set of observations:
/// `total copies / observations` (1.0 = no overhead).
pub fn replication_overhead(placement: &ReplicatedPlacement, obs: &[Vec<i64>]) -> f64 {
    if obs.is_empty() {
        return 1.0;
    }
    let copies: usize = obs.iter().map(|o| placement.copies(o)).sum();
    copies as f64 / obs.len() as f64
}

/// Fraction of observation pairs whose join is node-local.
pub fn local_join_fraction(placement: &ReplicatedPlacement, pairs: &[(Vec<i64>, Vec<i64>)]) -> f64 {
    if pairs.is_empty() {
        return 1.0;
    }
    let local = pairs
        .iter()
        .filter(|(a, b)| placement.join_local(a, b))
        .count();
    local as f64 / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidb_core::rng::SmallRng;

    fn space(n: i64) -> HyperRect {
        HyperRect::new(vec![1, 1], vec![n, n]).unwrap()
    }

    fn grid4(n: i64) -> PartitionScheme {
        PartitionScheme::grid(space(n), vec![2, 2], 4).unwrap()
    }

    #[test]
    fn interior_observation_has_one_copy() {
        let p = ReplicatedPlacement::new(grid4(100), 3);
        assert_eq!(p.copies(&[25, 25]), 1);
    }

    #[test]
    fn boundary_observation_is_replicated() {
        let p = ReplicatedPlacement::new(grid4(100), 3);
        // Tile boundary at 50/51 along each dimension.
        assert_eq!(p.copies(&[50, 25]), 2);
        assert_eq!(p.copies(&[50, 50]), 4, "corner gets all four tiles");
        // Beyond the margin: single copy again.
        assert_eq!(p.copies(&[46, 25]), 1);
    }

    #[test]
    fn zero_margin_never_replicates() {
        let p = ReplicatedPlacement::new(grid4(100), 0);
        for x in [1i64, 50, 51, 100] {
            assert_eq!(p.copies(&[x, x]), 1);
        }
    }

    #[test]
    fn join_local_for_nearby_boundary_pairs() {
        let margin = 3;
        let p = ReplicatedPlacement::new(grid4(100), margin);
        // Same object observed twice, straddling the boundary by < margin.
        assert!(p.join_local(&[50, 25], &[52, 25]));
        // Without replication the same pair is remote.
        let bare = ReplicatedPlacement::new(grid4(100), 0);
        assert!(!bare.join_local(&[50, 25], &[52, 25]));
        // Interior pairs are always local.
        assert!(bare.join_local(&[10, 10], &[12, 12]));
    }

    #[test]
    fn local_fraction_increases_with_margin() {
        // Pairs: same object jittered by up to sigma_max = 2 cells.
        let mut rng = SmallRng::seed_from_u64(11);
        let mut pairs = Vec::new();
        for _ in 0..2000 {
            let x = rng.gen_range(3..=98i64);
            let y = rng.gen_range(3..=98i64);
            let dx = rng.gen_range(-2..=2i64);
            let dy = rng.gen_range(-2..=2i64);
            pairs.push((
                vec![x, y],
                vec![(x + dx).clamp(1, 100), (y + dy).clamp(1, 100)],
            ));
        }
        let f0 = local_join_fraction(&ReplicatedPlacement::new(grid4(100), 0), &pairs);
        let f2 = local_join_fraction(&ReplicatedPlacement::new(grid4(100), 2), &pairs);
        assert!(f0 < 1.0, "some boundary pairs are remote: {f0}");
        assert_eq!(f2, 1.0, "margin = sigma_max localizes every join");
        assert!(f2 > f0);
    }

    #[test]
    fn overhead_grows_with_margin_but_stays_modest() {
        let mut rng = SmallRng::seed_from_u64(13);
        let obs: Vec<Vec<i64>> = (0..5000)
            .map(|_| vec![rng.gen_range(1..=100i64), rng.gen_range(1..=100i64)])
            .collect();
        let o0 = replication_overhead(&ReplicatedPlacement::new(grid4(100), 0), &obs);
        let o2 = replication_overhead(&ReplicatedPlacement::new(grid4(100), 2), &obs);
        let o5 = replication_overhead(&ReplicatedPlacement::new(grid4(100), 5), &obs);
        assert_eq!(o0, 1.0);
        assert!(o2 > 1.0 && o2 < 1.3, "small margin, small overhead: {o2}");
        assert!(o5 > o2, "more margin, more copies: {o5} > {o2}");
    }

    #[test]
    fn k_copy_replicas_on_ring_successors() {
        let p = ReplicatedPlacement::with_replicas(grid4(100), 0, 2);
        assert_eq!(p.replicas(), 2);
        assert_eq!(p.n_nodes(), 4);
        // Interior observation: home plus one ring successor.
        let placements = p.placements(&[25, 25]);
        assert_eq!(placements.len(), 2);
        let home = p.home(&[25, 25]);
        assert!(placements.contains(&home));
        assert!(placements.contains(&((home + 1) % 4)));
        // Corner observation: margin copies and ring copies combine.
        let corner = ReplicatedPlacement::with_replicas(grid4(100), 3, 2);
        assert!(corner.copies(&[50, 50]) >= 4);
        assert!(corner.copies(&[50, 50]) <= 4, "never exceeds node count");
    }

    #[test]
    fn replicas_clamped_to_node_count() {
        let p = ReplicatedPlacement::with_replicas(grid4(100), 0, 99);
        assert_eq!(p.replicas(), 4);
        assert_eq!(p.copies(&[10, 10]), 4);
    }

    #[test]
    fn range_scheme_replication() {
        let scheme = PartitionScheme::range(0, vec![25, 50, 75]).unwrap();
        let p = ReplicatedPlacement::new(scheme, 2);
        assert_eq!(p.copies(&[10, 1]), 1);
        assert_eq!(p.copies(&[25, 1]), 2);
        assert_eq!(p.copies(&[26, 1]), 2);
        assert_eq!(p.copies(&[28, 1]), 1);
    }
}
