//! Enhanced arrays (§2.1): user-defined functions applied to dimensions.
//!
//! "Any function that accepts integer arguments can be applied to the
//! dimensions of an array to enhance the array by transposition, scaling,
//! translation, and other co-ordinate transformations." Each enhancement
//! adds *pseudo-coordinates*: a second addressing system. The basic integer
//! system stays valid and is addressed `A[7, 8]`; enhanced coordinates are
//! addressed `A{20, 50}` (resolved through the enhancement's inverse).
//!
//! Pseudo-coordinates "do not have to be integer-valued and do not have to
//! be contiguous" — they are [`PseudoValue`]s. The paper's examples are all
//! provided as built-ins: `Scale10`, general affine transforms, irregular
//! coordinate maps (`16.3, 27.6, 48.2, …`), Mercator geometry, and the
//! wall-clock mapping of the history dimension (§2.5).

use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A pseudo-coordinate value in an enhanced addressing system.
#[derive(Debug, Clone, PartialEq)]
pub enum PseudoValue {
    /// Integer pseudo-coordinate.
    Int(i64),
    /// Real-valued pseudo-coordinate (irregular grids, Mercator degrees).
    Float(f64),
    /// Symbolic pseudo-coordinate.
    Str(String),
}

impl PseudoValue {
    /// Numeric view (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            PseudoValue::Int(v) => Some(*v as f64),
            PseudoValue::Float(v) => Some(*v),
            PseudoValue::Str(_) => None,
        }
    }
}

impl fmt::Display for PseudoValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PseudoValue::Int(v) => write!(f, "{v}"),
            PseudoValue::Float(v) => write!(f, "{v}"),
            PseudoValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for PseudoValue {
    fn from(v: i64) -> Self {
        PseudoValue::Int(v)
    }
}
impl From<f64> for PseudoValue {
    fn from(v: f64) -> Self {
        PseudoValue::Float(v)
    }
}

/// An enhancement function: maps basic integer coordinates to
/// pseudo-coordinates and (where invertible) back.
///
/// This is the engine-facing trait behind the paper's
/// `Define function Scale10 (integer I, integer J) returns (integer K,
/// integer L) file_handle` — see DESIGN.md §4 for the object-code
/// substitution rationale.
pub trait EnhancementFn: fmt::Debug + Send + Sync {
    /// Function name, used in `Enhance A with <name>`.
    fn name(&self) -> &str;

    /// Names of the output pseudo-dimensions (e.g. `["K", "L"]`).
    fn output_names(&self) -> &[String];

    /// Maps basic coordinates to pseudo-coordinates.
    fn forward(&self, basic: &[i64]) -> Result<Vec<PseudoValue>>;

    /// Maps pseudo-coordinates back to basic coordinates. Returns
    /// `Ok(None)` when the pseudo-coordinates address no cell.
    fn inverse(&self, pseudo: &[PseudoValue]) -> Result<Option<Vec<i64>>>;
}

/// Shared handle to an enhancement function.
pub type EnhancementRef = Arc<dyn EnhancementFn>;

fn check_rank(name: &str, expected: usize, got: usize) -> Result<()> {
    if expected != got {
        Err(Error::dimension(format!(
            "enhancement '{name}' expects {expected} coordinates, got {got}"
        )))
    } else {
        Ok(())
    }
}

/// Integer scaling of every dimension by a constant factor. `Scale(10)` is
/// the paper's `Scale10` example: `Enhance My_remote with Scale10` makes
/// `A{70, 80}` address the same cell as `A[7, 8]`.
#[derive(Debug)]
pub struct Scale {
    name: String,
    factor: i64,
    out_names: Vec<String>,
}

impl Scale {
    /// Creates a scale enhancement for `rank` dimensions.
    pub fn new(name: impl Into<String>, factor: i64, rank: usize) -> Self {
        assert!(factor != 0, "scale factor must be nonzero");
        Scale {
            name: name.into(),
            factor,
            out_names: (0..rank).map(|d| format!("scaled_{d}")).collect(),
        }
    }

    /// The paper's `Scale10` for a given rank.
    pub fn scale10(rank: usize) -> Self {
        Scale::new("Scale10", 10, rank)
    }
}

impl EnhancementFn for Scale {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_names(&self) -> &[String] {
        &self.out_names
    }
    fn forward(&self, basic: &[i64]) -> Result<Vec<PseudoValue>> {
        check_rank(&self.name, self.out_names.len(), basic.len())?;
        Ok(basic
            .iter()
            .map(|&c| PseudoValue::Int(c * self.factor))
            .collect())
    }
    fn inverse(&self, pseudo: &[PseudoValue]) -> Result<Option<Vec<i64>>> {
        check_rank(&self.name, self.out_names.len(), pseudo.len())?;
        let mut out = Vec::with_capacity(pseudo.len());
        for p in pseudo {
            match p {
                PseudoValue::Int(v) if v % self.factor == 0 => out.push(v / self.factor),
                PseudoValue::Int(_) => return Ok(None),
                _ => {
                    return Err(Error::dimension(format!(
                        "enhancement '{}' takes integer pseudo-coordinates",
                        self.name
                    )))
                }
            }
        }
        Ok(Some(out))
    }
}

/// Per-dimension integer affine transform `out = a·x + b` — covers the
/// paper's "transposition, scaling, translation" when combined with
/// [`Permute`].
#[derive(Debug)]
pub struct Affine {
    name: String,
    coeffs: Vec<(i64, i64)>,
    out_names: Vec<String>,
}

impl Affine {
    /// Creates an affine enhancement with per-dimension `(a, b)` pairs.
    pub fn new(name: impl Into<String>, coeffs: Vec<(i64, i64)>) -> Self {
        assert!(coeffs.iter().all(|&(a, _)| a != 0), "a must be nonzero");
        let out_names = (0..coeffs.len()).map(|d| format!("affine_{d}")).collect();
        Affine {
            name: name.into(),
            coeffs,
            out_names,
        }
    }

    /// Pure translation by per-dimension offsets.
    pub fn translate(name: impl Into<String>, offsets: &[i64]) -> Self {
        Affine::new(name, offsets.iter().map(|&b| (1, b)).collect())
    }
}

impl EnhancementFn for Affine {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_names(&self) -> &[String] {
        &self.out_names
    }
    fn forward(&self, basic: &[i64]) -> Result<Vec<PseudoValue>> {
        check_rank(&self.name, self.coeffs.len(), basic.len())?;
        Ok(basic
            .iter()
            .zip(&self.coeffs)
            .map(|(&x, &(a, b))| PseudoValue::Int(a * x + b))
            .collect())
    }
    fn inverse(&self, pseudo: &[PseudoValue]) -> Result<Option<Vec<i64>>> {
        check_rank(&self.name, self.coeffs.len(), pseudo.len())?;
        let mut out = Vec::with_capacity(pseudo.len());
        for (p, &(a, b)) in pseudo.iter().zip(&self.coeffs) {
            match p {
                PseudoValue::Int(v) => {
                    let num = v - b;
                    if num % a != 0 {
                        return Ok(None);
                    }
                    out.push(num / a);
                }
                _ => {
                    return Err(Error::dimension(format!(
                        "enhancement '{}' takes integer pseudo-coordinates",
                        self.name
                    )))
                }
            }
        }
        Ok(Some(out))
    }
}

/// Dimension permutation (transposition).
#[derive(Debug)]
pub struct Permute {
    name: String,
    perm: Vec<usize>,
    out_names: Vec<String>,
}

impl Permute {
    /// Creates a permutation enhancement; `perm[i]` is the basic dimension
    /// appearing at output position `i`.
    pub fn new(name: impl Into<String>, perm: Vec<usize>) -> Result<Self> {
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            if p >= perm.len() || seen[p] {
                return Err(Error::dimension("invalid permutation"));
            }
            seen[p] = true;
        }
        let out_names = (0..perm.len()).map(|d| format!("perm_{d}")).collect();
        Ok(Permute {
            name: name.into(),
            perm,
            out_names,
        })
    }
}

impl EnhancementFn for Permute {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_names(&self) -> &[String] {
        &self.out_names
    }
    fn forward(&self, basic: &[i64]) -> Result<Vec<PseudoValue>> {
        check_rank(&self.name, self.perm.len(), basic.len())?;
        Ok(self
            .perm
            .iter()
            .map(|&p| PseudoValue::Int(basic[p]))
            .collect())
    }
    fn inverse(&self, pseudo: &[PseudoValue]) -> Result<Option<Vec<i64>>> {
        check_rank(&self.name, self.perm.len(), pseudo.len())?;
        let mut out = vec![0i64; pseudo.len()];
        for (i, p) in pseudo.iter().enumerate() {
            match p {
                PseudoValue::Int(v) => out[self.perm[i]] = *v,
                _ => return Err(Error::dimension("integer pseudo-coordinates required")),
            }
        }
        Ok(Some(out))
    }
}

/// Irregular per-dimension coordinate maps: the paper's 1-D array with
/// coordinates `16.3, 27.6, 48.2, …`. Basic index `i` (1-based) maps to
/// `coords[d][i-1]`; the inverse finds an exact float match by binary search
/// over the (strictly increasing) coordinate list.
#[derive(Debug)]
pub struct IrregularMap {
    name: String,
    coords: Vec<Vec<f64>>,
    out_names: Vec<String>,
}

impl IrregularMap {
    /// Creates an irregular map; each dimension's coordinates must be
    /// finite and strictly increasing.
    pub fn new(
        name: impl Into<String>,
        out_names: Vec<String>,
        coords: Vec<Vec<f64>>,
    ) -> Result<Self> {
        if out_names.len() != coords.len() {
            return Err(Error::dimension("output name per dimension required"));
        }
        for c in &coords {
            if c.iter().any(|x| !x.is_finite()) {
                return Err(Error::dimension("irregular coordinates must be finite"));
            }
            // Finite, so `>=` is exactly "not strictly increasing".
            if c.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Error::dimension(
                    "irregular coordinates must be strictly increasing",
                ));
            }
        }
        Ok(IrregularMap {
            name: name.into(),
            coords,
            out_names,
        })
    }

    /// Nearest-cell lookup: maps a float pseudo-coordinate to the basic
    /// index whose mapped value is closest (used by `A{16.3, 48.2}`-style
    /// addressing with measured values). A NaN is nearest to nothing.
    pub fn nearest(&self, dim: usize, value: f64) -> Option<i64> {
        let c = &self.coords[dim];
        if c.is_empty() || value.is_nan() {
            return None;
        }
        let i = c.partition_point(|&x| x < value);
        let best = [i.saturating_sub(1), i.min(c.len() - 1)]
            .into_iter()
            .min_by(|&a, &b| (c[a] - value).abs().total_cmp(&(c[b] - value).abs()))?;
        Some(best as i64 + 1)
    }
}

impl EnhancementFn for IrregularMap {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_names(&self) -> &[String] {
        &self.out_names
    }
    fn forward(&self, basic: &[i64]) -> Result<Vec<PseudoValue>> {
        check_rank(&self.name, self.coords.len(), basic.len())?;
        basic
            .iter()
            .zip(&self.coords)
            .map(|(&i, c)| {
                let idx = i - 1;
                if idx < 0 || idx as usize >= c.len() {
                    Err(Error::dimension(format!(
                        "index {i} outside irregular map '{}'",
                        self.name
                    )))
                } else {
                    Ok(PseudoValue::Float(c[idx as usize]))
                }
            })
            .collect()
    }
    fn inverse(&self, pseudo: &[PseudoValue]) -> Result<Option<Vec<i64>>> {
        check_rank(&self.name, self.coords.len(), pseudo.len())?;
        let mut out = Vec::with_capacity(pseudo.len());
        for (p, c) in pseudo.iter().zip(&self.coords) {
            let v = p
                .as_f64()
                .ok_or_else(|| Error::dimension("numeric pseudo-coordinate required"))?;
            if v.is_nan() {
                return Ok(None);
            }
            // Finite coordinates against a non-NaN value: every pair is
            // ordered, so the fallback is never taken.
            match c.binary_search_by(|x| x.partial_cmp(&v).unwrap_or(Ordering::Less)) {
                Ok(i) => out.push(i as i64 + 1),
                Err(_) => return Ok(None),
            }
        }
        Ok(Some(out))
    }
}

/// Mercator geometry for a 2-D (row, col) array over a regular lat/lon grid:
/// pseudo-coordinates are (latitude°, longitude°) with the Mercator
/// projection applied along the latitude axis — the paper's example of a
/// dimension "in some well-known co-ordinate system, e.g.
/// Mercator-latitude".
#[derive(Debug)]
pub struct Mercator {
    name: String,
    rows: i64,
    cols: i64,
    out_names: Vec<String>,
}

impl Mercator {
    /// Creates a Mercator enhancement for a `rows × cols` world grid
    /// spanning latitude (−85°, 85°) and longitude (−180°, 180°).
    pub fn new(name: impl Into<String>, rows: i64, cols: i64) -> Self {
        Mercator {
            name: name.into(),
            rows,
            cols,
            out_names: vec!["lat".into(), "lon".into()],
        }
    }

    const MAX_LAT: f64 = 85.05112878; // Web-Mercator cutoff

    fn row_to_lat(&self, row: i64) -> f64 {
        // Rows map uniformly in Mercator y; invert the Gudermannian.
        let y_max = Self::MAX_LAT.to_radians().tan().asinh();
        let frac = (row as f64 - 0.5) / self.rows as f64; // cell center
        let y = y_max - 2.0 * y_max * frac;
        y.sinh().atan().to_degrees()
    }

    fn lat_to_row(&self, lat: f64) -> Option<i64> {
        if lat.abs() > Self::MAX_LAT {
            return None;
        }
        let y_max = Self::MAX_LAT.to_radians().tan().asinh();
        let y = lat.to_radians().tan().asinh();
        let frac = (y_max - y) / (2.0 * y_max);
        let row = (frac * self.rows as f64 + 0.5).round() as i64;
        (1..=self.rows).contains(&row).then_some(row)
    }
}

impl EnhancementFn for Mercator {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_names(&self) -> &[String] {
        &self.out_names
    }
    fn forward(&self, basic: &[i64]) -> Result<Vec<PseudoValue>> {
        check_rank(&self.name, 2, basic.len())?;
        let lat = self.row_to_lat(basic[0]);
        let lon = -180.0 + 360.0 * (basic[1] as f64 - 0.5) / self.cols as f64;
        Ok(vec![PseudoValue::Float(lat), PseudoValue::Float(lon)])
    }
    fn inverse(&self, pseudo: &[PseudoValue]) -> Result<Option<Vec<i64>>> {
        check_rank(&self.name, 2, pseudo.len())?;
        let lat = pseudo[0]
            .as_f64()
            .ok_or_else(|| Error::dimension("lat must be numeric"))?;
        let lon = pseudo[1]
            .as_f64()
            .ok_or_else(|| Error::dimension("lon must be numeric"))?;
        let Some(row) = self.lat_to_row(lat) else {
            return Ok(None);
        };
        let col = ((lon + 180.0) / 360.0 * self.cols as f64 + 0.5).round() as i64;
        if !(1..=self.cols).contains(&col) {
            return Ok(None);
        }
        Ok(Some(vec![row, col]))
    }
}

/// Wall-clock mapping for the history dimension (§2.5): "enhance the history
/// dimension with a mapping between the integers … and wall clock time".
/// History value `h` maps to `base + (h-1) · step` (a logical clock; see
/// DESIGN.md §4 on timestamp injection).
#[derive(Debug)]
pub struct WallClock {
    name: String,
    base: i64,
    step: i64,
    out_names: Vec<String>,
}

impl WallClock {
    /// Creates a wall-clock enhancement with epoch `base` and `step`
    /// seconds between history versions.
    pub fn new(name: impl Into<String>, base: i64, step: i64) -> Self {
        assert!(step > 0, "step must be positive");
        WallClock {
            name: name.into(),
            base,
            step,
            out_names: vec!["time".into()],
        }
    }
}

impl EnhancementFn for WallClock {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_names(&self) -> &[String] {
        &self.out_names
    }
    fn forward(&self, basic: &[i64]) -> Result<Vec<PseudoValue>> {
        check_rank(&self.name, 1, basic.len())?;
        Ok(vec![PseudoValue::Int(
            self.base + (basic[0] - 1) * self.step,
        )])
    }
    fn inverse(&self, pseudo: &[PseudoValue]) -> Result<Option<Vec<i64>>> {
        check_rank(&self.name, 1, pseudo.len())?;
        let t = match &pseudo[0] {
            PseudoValue::Int(t) => *t,
            PseudoValue::Float(t) => *t as i64,
            _ => return Err(Error::dimension("time must be numeric")),
        };
        if t < self.base {
            return Ok(None);
        }
        // Round down to the latest version at or before t.
        Ok(Some(vec![(t - self.base) / self.step + 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale10_matches_paper_semantics() {
        let s = Scale::scale10(2);
        assert_eq!(
            s.forward(&[7, 8]).unwrap(),
            vec![PseudoValue::Int(70), PseudoValue::Int(80)]
        );
        assert_eq!(
            s.inverse(&[PseudoValue::Int(20), PseudoValue::Int(50)])
                .unwrap(),
            Some(vec![2, 5])
        );
        // Off-grid pseudo-coordinates address no cell.
        assert_eq!(
            s.inverse(&[PseudoValue::Int(21), PseudoValue::Int(50)])
                .unwrap(),
            None
        );
    }

    #[test]
    fn scale_rank_checked() {
        let s = Scale::scale10(2);
        assert!(s.forward(&[7]).is_err());
        assert!(s.inverse(&[PseudoValue::Int(10)]).is_err());
    }

    #[test]
    fn affine_translate_roundtrip() {
        let t = Affine::translate("shift", &[100, -5]);
        assert_eq!(
            t.forward(&[1, 10]).unwrap(),
            vec![PseudoValue::Int(101), PseudoValue::Int(5)]
        );
        assert_eq!(
            t.inverse(&[PseudoValue::Int(101), PseudoValue::Int(5)])
                .unwrap(),
            Some(vec![1, 10])
        );
    }

    #[test]
    fn affine_non_divisible_is_none() {
        let a = Affine::new("a", vec![(3, 1)]);
        assert_eq!(a.inverse(&[PseudoValue::Int(5)]).unwrap(), None); // (5-1)%3 != 0
        assert_eq!(a.inverse(&[PseudoValue::Int(7)]).unwrap(), Some(vec![2]));
    }

    #[test]
    fn permute_transposes() {
        let p = Permute::new("t", vec![1, 0]).unwrap();
        assert_eq!(
            p.forward(&[3, 9]).unwrap(),
            vec![PseudoValue::Int(9), PseudoValue::Int(3)]
        );
        assert_eq!(
            p.inverse(&[PseudoValue::Int(9), PseudoValue::Int(3)])
                .unwrap(),
            Some(vec![3, 9])
        );
    }

    #[test]
    fn permute_rejects_invalid() {
        assert!(Permute::new("p", vec![0, 0]).is_err());
        assert!(Permute::new("p", vec![2, 0]).is_err());
    }

    #[test]
    fn irregular_map_matches_paper_example() {
        // "coordinates 16.3, 27.6, 48.2, …"
        let m = IrregularMap::new("irr", vec!["pos".into()], vec![vec![16.3, 27.6, 48.2]]).unwrap();
        assert_eq!(m.forward(&[1]).unwrap(), vec![PseudoValue::Float(16.3)]);
        assert_eq!(m.forward(&[3]).unwrap(), vec![PseudoValue::Float(48.2)]);
        assert_eq!(
            m.inverse(&[PseudoValue::Float(27.6)]).unwrap(),
            Some(vec![2])
        );
        assert_eq!(m.inverse(&[PseudoValue::Float(27.0)]).unwrap(), None);
        assert!(m.forward(&[4]).is_err());
    }

    #[test]
    fn irregular_map_nearest() {
        let m = IrregularMap::new("irr", vec!["pos".into()], vec![vec![16.3, 27.6, 48.2]]).unwrap();
        assert_eq!(m.nearest(0, 17.0), Some(1));
        assert_eq!(m.nearest(0, 30.0), Some(2));
        assert_eq!(m.nearest(0, 100.0), Some(3));
    }

    #[test]
    fn irregular_map_requires_increasing() {
        assert!(IrregularMap::new("bad", vec!["p".into()], vec![vec![2.0, 1.0]]).is_err());
    }

    /// NaN never reaches a comparison: a map cannot hold one (so no lookup
    /// on such a map can panic), and looking one up finds nothing.
    #[test]
    fn irregular_map_nan_is_rejected_or_not_found() {
        let p = || vec!["p".to_string()];
        for bad in [
            vec![1.0, f64::NAN],
            vec![f64::NAN, 1.0],
            vec![f64::NAN],
            vec![1.0, f64::INFINITY],
            vec![f64::NEG_INFINITY, 1.0],
        ] {
            assert!(
                IrregularMap::new("bad", p(), vec![bad.clone()]).is_err(),
                "{bad:?}"
            );
        }
        let m = IrregularMap::new("irr", p(), vec![vec![16.3, 27.6, 48.2]]).unwrap();
        assert_eq!(m.inverse(&[PseudoValue::Float(f64::NAN)]).unwrap(), None);
        assert_eq!(
            m.inverse(&[PseudoValue::Float(f64::INFINITY)]).unwrap(),
            None
        );
        assert_eq!(m.nearest(0, f64::NAN), None);
        assert_eq!(m.nearest(0, f64::NEG_INFINITY), Some(1));
    }

    #[test]
    fn mercator_roundtrip_cell_centers() {
        let m = Mercator::new("merc", 180, 360);
        for &row in &[1i64, 45, 90, 135, 180] {
            for &col in &[1i64, 180, 360] {
                let p = m.forward(&[row, col]).unwrap();
                let back = m.inverse(&p).unwrap().unwrap();
                assert_eq!(back, vec![row, col], "row {row} col {col}");
            }
        }
    }

    #[test]
    fn mercator_rejects_out_of_range() {
        let m = Mercator::new("merc", 180, 360);
        assert_eq!(
            m.inverse(&[PseudoValue::Float(89.9), PseudoValue::Float(0.0)])
                .unwrap(),
            None
        );
    }

    #[test]
    fn wall_clock_maps_history_to_time() {
        let w = WallClock::new("clock", 1_000_000, 3600);
        assert_eq!(w.forward(&[1]).unwrap(), vec![PseudoValue::Int(1_000_000)]);
        assert_eq!(w.forward(&[3]).unwrap(), vec![PseudoValue::Int(1_007_200)]);
        // Time between versions resolves to the latest version before it.
        assert_eq!(
            w.inverse(&[PseudoValue::Int(1_005_000)]).unwrap(),
            Some(vec![2])
        );
        assert_eq!(w.inverse(&[PseudoValue::Int(999)]).unwrap(), None);
    }
}
