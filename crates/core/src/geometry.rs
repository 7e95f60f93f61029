//! Coordinate geometry: cell addresses, hyper-rectangles, and row-major
//! linearization shared by chunks, buckets, and the grid partitioner.
//!
//! Coordinates are `i64` and 1-based, matching §2.1's "contiguous integer
//! values between 1 and N". Enhanced coordinate systems (§2.1) map onto
//! these basic integer coordinates via enhancement functions.

use crate::error::{Error, Result};

/// A cell address: one integer per dimension.
pub type Coords = Vec<i64>;

/// An axis-aligned hyper-rectangle `[low, high]`, bounds inclusive.
///
/// Used for chunk extents, storage buckets ("rectangular buckets, defined by
/// a stride in each dimension", §2.8), R-tree entries, and grid partitions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HyperRect {
    /// Inclusive lower corner.
    pub low: Coords,
    /// Inclusive upper corner.
    pub high: Coords,
}

impl HyperRect {
    /// Creates a rectangle, validating rank and ordering.
    pub fn new(low: Coords, high: Coords) -> Result<Self> {
        if low.len() != high.len() {
            return Err(Error::dimension(format!(
                "rect rank mismatch: {} vs {}",
                low.len(),
                high.len()
            )));
        }
        for (l, h) in low.iter().zip(&high) {
            if l > h {
                return Err(Error::dimension(format!("rect low {l} exceeds high {h}")));
            }
        }
        Ok(HyperRect { low, high })
    }

    /// The rectangle covering a single cell.
    pub fn cell(coords: &[i64]) -> Self {
        HyperRect {
            low: coords.to_vec(),
            high: coords.to_vec(),
        }
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.low.len()
    }

    /// Side length along dimension `d`.
    pub fn len(&self, d: usize) -> i64 {
        self.high[d] - self.low[d] + 1
    }

    /// Side lengths along every dimension.
    pub fn shape(&self) -> Vec<i64> {
        (0..self.rank()).map(|d| self.len(d)).collect()
    }

    /// Number of cells in the rectangle.
    pub fn volume(&self) -> u64 {
        (0..self.rank()).map(|d| self.len(d) as u64).product()
    }

    /// Number of cells, or `None` when a side or the product overflows
    /// `u64` — the form for rectangles read from untrusted bytes.
    pub fn checked_volume(&self) -> Option<u64> {
        (0..self.rank()).try_fold(1u64, |cells, d| {
            let side = i128::from(self.high[d]) - i128::from(self.low[d]) + 1;
            if !(1..=i128::from(u64::MAX)).contains(&side) {
                return None;
            }
            cells.checked_mul(side as u64)
        })
    }

    /// True if the rectangle contains `coords`.
    pub fn contains(&self, coords: &[i64]) -> bool {
        coords.len() == self.rank()
            && coords
                .iter()
                .enumerate()
                .all(|(d, &c)| self.low[d] <= c && c <= self.high[d])
    }

    /// True if two rectangles intersect.
    pub fn intersects(&self, other: &HyperRect) -> bool {
        self.rank() == other.rank()
            && (0..self.rank())
                .all(|d| self.low[d] <= other.high[d] && other.low[d] <= self.high[d])
    }

    /// The intersection, if non-empty.
    pub fn intersection(&self, other: &HyperRect) -> Option<HyperRect> {
        if !self.intersects(other) {
            return None;
        }
        Some(HyperRect {
            low: (0..self.rank())
                .map(|d| self.low[d].max(other.low[d]))
                .collect(),
            high: (0..self.rank())
                .map(|d| self.high[d].min(other.high[d]))
                .collect(),
        })
    }

    /// The smallest rectangle covering both inputs.
    pub fn union(&self, other: &HyperRect) -> HyperRect {
        assert_eq!(self.rank(), other.rank(), "rect rank mismatch");
        HyperRect {
            low: (0..self.rank())
                .map(|d| self.low[d].min(other.low[d]))
                .collect(),
            high: (0..self.rank())
                .map(|d| self.high[d].max(other.high[d]))
                .collect(),
        }
    }

    /// Grows the rectangle by `margin` cells on every side (used by the
    /// PanSTARRS-style overlap replication of §2.13).
    pub fn expanded(&self, margin: i64) -> HyperRect {
        HyperRect {
            low: self.low.iter().map(|l| l - margin).collect(),
            high: self.high.iter().map(|h| h + margin).collect(),
        }
    }

    /// Row-major linear offset of `coords` within the rectangle
    /// (last dimension varies fastest).
    pub fn linearize(&self, coords: &[i64]) -> usize {
        debug_assert!(self.contains(coords), "{coords:?} outside {self:?}");
        let mut idx: i64 = 0;
        for (d, (&c, &lo)) in coords.iter().zip(&self.low).enumerate() {
            idx = idx * self.len(d) + (c - lo);
        }
        idx as usize
    }

    /// Inverse of [`linearize`](Self::linearize).
    pub fn delinearize(&self, mut idx: usize) -> Coords {
        let mut coords = vec![0i64; self.rank()];
        for d in (0..self.rank()).rev() {
            let len = self.len(d) as usize;
            coords[d] = self.low[d] + (idx % len) as i64;
            idx /= len;
        }
        coords
    }

    /// Iterates all cell coordinates in row-major order.
    pub fn iter_cells(&self) -> CellCoordIter {
        CellCoordIter {
            rect: self.clone(),
            next: Some(self.low.clone()),
        }
    }
}

/// Row-major iterator over the coordinates of a [`HyperRect`].
pub struct CellCoordIter {
    rect: HyperRect,
    next: Option<Coords>,
}

impl Iterator for CellCoordIter {
    type Item = Coords;

    fn next(&mut self) -> Option<Coords> {
        let current = self.next.take()?;
        // Compute successor: increment last dim, carrying leftwards.
        let mut succ = current.clone();
        let mut d = self.rect.rank();
        loop {
            if d == 0 {
                // overflowed the first dimension: iteration ends
                self.next = None;
                break;
            }
            d -= 1;
            succ[d] += 1;
            if succ[d] <= self.rect.high[d] {
                self.next = Some(succ);
                break;
            }
            succ[d] = self.rect.low[d];
        }
        Some(current)
    }
}

/// Aligns `coord` down to its chunk origin for a stride starting at 1:
/// origins are `1, 1+stride, 1+2·stride, …`.
pub fn chunk_origin(coord: i64, stride: i64) -> i64 {
    debug_assert!(stride > 0);
    ((coord - 1).div_euclid(stride)) * stride + 1
}

/// The chunk-origin coordinates for a cell given per-dimension strides.
pub fn chunk_origin_of(coords: &[i64], strides: &[i64]) -> Coords {
    coords
        .iter()
        .zip(strides)
        .map(|(&c, &s)| chunk_origin(c, s))
        .collect()
}

/// The chunk rectangle with the given origin and strides, clipped to
/// optional per-dimension upper bounds.
pub fn chunk_rect(origin: &[i64], strides: &[i64], uppers: &[Option<i64>]) -> HyperRect {
    let high = origin
        .iter()
        .zip(strides)
        .zip(uppers)
        .map(|((&o, &s), &u)| {
            let h = o + s - 1;
            match u {
                Some(u) => h.min(u),
                None => h,
            }
        })
        .collect();
    HyperRect {
        low: origin.to_vec(),
        high,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(low: &[i64], high: &[i64]) -> HyperRect {
        HyperRect::new(low.to_vec(), high.to_vec()).unwrap()
    }

    #[test]
    fn volume_and_shape() {
        let rect = r(&[1, 1], &[4, 3]);
        assert_eq!(rect.volume(), 12);
        assert_eq!(rect.shape(), vec![4, 3]);
    }

    #[test]
    fn rejects_inverted_bounds_and_rank_mismatch() {
        assert!(HyperRect::new(vec![2], vec![1]).is_err());
        assert!(HyperRect::new(vec![1], vec![1, 2]).is_err());
    }

    #[test]
    fn contains_and_intersects() {
        let a = r(&[1, 1], &[4, 4]);
        assert!(a.contains(&[1, 4]));
        assert!(!a.contains(&[0, 4]));
        assert!(!a.contains(&[1]));
        let b = r(&[4, 4], &[8, 8]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r(&[4, 4], &[4, 4])));
        let c = r(&[5, 5], &[8, 8]);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn union_covers_both() {
        let u = r(&[1, 5], &[2, 6]).union(&r(&[3, 1], &[4, 2]));
        assert_eq!(u, r(&[1, 1], &[4, 6]));
    }

    #[test]
    fn linearize_roundtrip_row_major() {
        let rect = r(&[1, 1, 1], &[2, 3, 4]);
        let mut seen = vec![false; rect.volume() as usize];
        for c in rect.iter_cells() {
            let idx = rect.linearize(&c);
            assert_eq!(rect.delinearize(idx), c);
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Row-major: last dim fastest.
        assert_eq!(rect.linearize(&[1, 1, 1]), 0);
        assert_eq!(rect.linearize(&[1, 1, 2]), 1);
        assert_eq!(rect.linearize(&[1, 2, 1]), 4);
        assert_eq!(rect.linearize(&[2, 1, 1]), 12);
    }

    #[test]
    fn iter_cells_in_order() {
        let rect = r(&[1, 1], &[2, 2]);
        let cells: Vec<Coords> = rect.iter_cells().collect();
        assert_eq!(cells, vec![vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]]);
    }

    #[test]
    fn iter_cells_single_cell() {
        let rect = HyperRect::cell(&[5, 7]);
        assert_eq!(rect.iter_cells().count(), 1);
    }

    #[test]
    fn chunk_origin_alignment() {
        assert_eq!(chunk_origin(1, 64), 1);
        assert_eq!(chunk_origin(64, 64), 1);
        assert_eq!(chunk_origin(65, 64), 65);
        assert_eq!(chunk_origin(129, 64), 129);
        assert_eq!(chunk_origin(1, 1), 1);
        assert_eq!(chunk_origin(7, 1), 7);
    }

    #[test]
    fn chunk_rect_clips_to_upper_bound() {
        let rect = chunk_rect(&[65, 1], &[64, 64], &[Some(100), Some(64)]);
        assert_eq!(rect, r(&[65, 1], &[100, 64]));
        let unbounded = chunk_rect(&[65], &[64], &[None]);
        assert_eq!(unbounded, r(&[65], &[128]));
    }

    #[test]
    fn expanded_grows_both_sides() {
        assert_eq!(r(&[5, 5], &[6, 6]).expanded(2), r(&[3, 3], &[8, 8]));
    }
}
