//! Observation detection: thresholding + connected components over cooked
//! imagery, producing uncertain positions (§2.13's PanSTARRS use case: "the
//! 'best' location of an observed object is calculated. However, this
//! location has some error").

use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::uncertain::Uncertain;
use std::collections::HashMap;

/// One detected observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Sequential id within the detection run.
    pub id: usize,
    /// Flux-weighted x centroid with positional error.
    pub x: Uncertain,
    /// Flux-weighted y centroid with positional error.
    pub y: Uncertain,
    /// Total flux with propagated noise error.
    pub flux: Uncertain,
    /// Pixels in the component.
    pub npix: usize,
    /// Peak pixel value.
    pub peak: f64,
}

impl Observation {
    /// Center as plain floats.
    pub fn center(&self) -> (f64, f64) {
        (self.x.mean, self.y.mean)
    }

    /// Euclidean distance between two observation centers.
    pub fn distance(&self, other: &Observation) -> f64 {
        let dx = self.x.mean - other.x.mean;
        let dy = self.y.mean - other.y.mean;
        dx.hypot(dy)
    }

    /// True if `other` lies within `k` combined position sigmas — the
    /// uncertain spatial match of §2.13.
    pub fn matches_within(&self, other: &Observation, k: f64) -> bool {
        let sx = self.x.sigma.hypot(other.x.sigma).max(0.5);
        let sy = self.y.sigma.hypot(other.y.sigma).max(0.5);
        let dx = (self.x.mean - other.x.mean).abs();
        let dy = (self.y.mean - other.y.mean).abs();
        dx <= k * sx.max(1.0) + k && dy <= k * sy.max(1.0) + k
    }
}

/// Detection parameters.
#[derive(Debug, Clone)]
pub struct DetectParams {
    /// Threshold in sigmas above the background mean.
    pub k_sigma: f64,
    /// Minimum component size in pixels.
    pub min_pixels: usize,
    /// Pixel noise sigma (for flux error propagation).
    pub noise_sigma: f64,
}

impl Default for DetectParams {
    fn default() -> Self {
        DetectParams {
            k_sigma: 5.0,
            min_pixels: 3,
            noise_sigma: 1.0,
        }
    }
}

/// Detects observations in a 2-D image (attribute 0 = flux).
///
/// Pixels above `mean + k·sigma` are grouped by 4-connectivity; each
/// component becomes an [`Observation`] with a flux-weighted centroid whose
/// positional sigma comes from the component's spatial spread, and a total
/// flux with noise propagated in quadrature (σ_F = σ_noise · √npix).
pub fn detect(img: &Array, params: &DetectParams) -> Result<Vec<Observation>> {
    if img.rank() != 2 {
        return Err(Error::dimension("detection expects a 2-D image"));
    }
    let (mean, sigma) = crate::cooking::background_stats(img);
    let threshold = mean + params.k_sigma * sigma.max(params.noise_sigma * 0.5);

    // Collect bright pixels.
    let bright: HashMap<(i64, i64), f64> = img
        .cells_f64(0)
        .filter(|(_, v)| *v > threshold)
        .map(|(c, v)| ((c[0], c[1]), v))
        .collect();

    // 4-connected components by BFS.
    let mut visited: HashMap<(i64, i64), bool> = HashMap::new();
    let mut observations = Vec::new();
    for &start in bright.keys() {
        if visited.contains_key(&start) {
            continue;
        }
        let mut stack = vec![start];
        visited.insert(start, true);
        let mut members: Vec<((i64, i64), f64)> = Vec::new();
        while let Some(p) = stack.pop() {
            let v = bright[&p];
            members.push((p, v));
            for q in [
                (p.0 - 1, p.1),
                (p.0 + 1, p.1),
                (p.0, p.1 - 1),
                (p.0, p.1 + 1),
            ] {
                if bright.contains_key(&q) && !visited.contains_key(&q) {
                    visited.insert(q, true);
                    stack.push(q);
                }
            }
        }
        if members.len() < params.min_pixels {
            continue;
        }
        observations.push(component_to_observation(0, &members, params));
    }
    // Deterministic order: by (x, y) center.
    observations.sort_by(|a, b| {
        (a.x.mean, a.y.mean)
            .partial_cmp(&(b.x.mean, b.y.mean))
            .unwrap()
    });
    for (i, o) in observations.iter_mut().enumerate() {
        o.id = i;
    }
    Ok(observations)
}

fn component_to_observation(
    id: usize,
    members: &[((i64, i64), f64)],
    params: &DetectParams,
) -> Observation {
    let total: f64 = members.iter().map(|(_, v)| v).sum();
    let cx: f64 = members.iter().map(|((x, _), v)| *x as f64 * v).sum::<f64>() / total;
    let cy: f64 = members.iter().map(|((_, y), v)| *y as f64 * v).sum::<f64>() / total;
    // Positional sigma: flux-weighted spread / sqrt(npix), floored at a
    // tenth of a pixel.
    let var_x: f64 = members
        .iter()
        .map(|((x, _), v)| v * (*x as f64 - cx).powi(2))
        .sum::<f64>()
        / total;
    let var_y: f64 = members
        .iter()
        .map(|((_, y), v)| v * (*y as f64 - cy).powi(2))
        .sum::<f64>()
        / total;
    let n = members.len() as f64;
    let peak = members.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    Observation {
        id,
        x: Uncertain::new(cx, (var_x / n).sqrt().max(0.1)),
        y: Uncertain::new(cy, (var_y / n).sqrt().max(0.1)),
        flux: Uncertain::new(total, params.noise_sigma * n.sqrt()),
        npix: members.len(),
        peak,
    }
}

/// Matches detections against a ground-truth catalog; returns
/// `(matched, spurious, missed)` using a `radius`-pixel association.
pub fn score_against_truth(
    detections: &[Observation],
    truth: &[(f64, f64)],
    radius: f64,
) -> (usize, usize, usize) {
    let mut used = vec![false; truth.len()];
    let mut matched = 0;
    let mut spurious = 0;
    for d in detections {
        let best = truth
            .iter()
            .enumerate()
            .filter(|(i, _)| !used[*i])
            .map(|(i, &(tx, ty))| (i, (d.x.mean - tx).hypot(d.y.mean - ty)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        match best {
            Some((i, dist)) if dist <= radius => {
                used[i] = true;
                matched += 1;
            }
            _ => spurious += 1,
        }
    }
    let missed = used.iter().filter(|&&u| !u).count();
    (matched, spurious, missed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_sources, render_epoch, ImageSpec};

    fn spec() -> ImageSpec {
        ImageSpec {
            size: 128,
            n_sources: 12,
            noise_sigma: 1.0,
            min_flux: 500.0,
            // A sky whose sources are at least 11 px apart: blended pairs
            // are the detector's known miss, not what these tests check.
            seed: 22,
            ..Default::default()
        }
    }

    #[test]
    fn detects_most_ground_truth_sources() {
        let spec = spec();
        let sources = generate_sources(&spec);
        let img = render_epoch(&spec, &sources, 0);
        let obs = detect(&img, &DetectParams::default()).unwrap();
        let truth: Vec<(f64, f64)> = sources.iter().map(|s| (s.x, s.y)).collect();
        let (matched, spurious, missed) = score_against_truth(&obs, &truth, 2.0);
        assert!(
            matched >= 10,
            "matched {matched}, spurious {spurious}, missed {missed}, n_obs {}",
            obs.len()
        );
        assert!(spurious <= 2, "few false positives: {spurious}");
    }

    #[test]
    fn empty_sky_yields_no_observations() {
        let spec = ImageSpec {
            n_sources: 0,
            size: 64,
            seed: 3,
            ..Default::default()
        };
        let img = render_epoch(&spec, &[], 0);
        let obs = detect(&img, &DetectParams::default()).unwrap();
        assert!(obs.len() <= 1, "noise rarely clusters: {}", obs.len());
    }

    #[test]
    fn centroid_accuracy_subpixel() {
        let spec = ImageSpec {
            size: 64,
            n_sources: 0,
            noise_sigma: 0.1,
            seed: 9,
            ..Default::default()
        };
        let sources = vec![crate::gen::Source {
            x: 30.4,
            y: 41.7,
            flux: 5000.0,
            motion: (0.0, 0.0),
        }];
        let img = render_epoch(&spec, &sources, 0);
        let obs = detect(&img, &DetectParams::default()).unwrap();
        assert_eq!(obs.len(), 1);
        assert!((obs[0].x.mean - 30.4).abs() < 0.3, "x {}", obs[0].x.mean);
        assert!((obs[0].y.mean - 41.7).abs() < 0.3, "y {}", obs[0].y.mean);
        assert!(obs[0].x.sigma > 0.0);
    }

    #[test]
    fn flux_error_grows_with_component_size() {
        let params = DetectParams {
            noise_sigma: 2.0,
            ..Default::default()
        };
        let small = component_to_observation(
            0,
            &[((1, 1), 10.0), ((1, 2), 10.0), ((2, 1), 10.0)],
            &params,
        );
        let members: Vec<((i64, i64), f64)> = (0..12).map(|k| ((k / 4, k % 4), 10.0)).collect();
        let big = component_to_observation(0, &members, &params);
        assert!(big.flux.sigma > small.flux.sigma);
        assert!((small.flux.sigma - 2.0 * 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn min_pixels_filters_single_pixel_noise() {
        let spec = ImageSpec {
            size: 64,
            n_sources: 0,
            noise_sigma: 1.0,
            seed: 17,
            ..Default::default()
        };
        let img = render_epoch(&spec, &[], 0);
        let strict = detect(
            &img,
            &DetectParams {
                k_sigma: 3.0,
                min_pixels: 3,
                noise_sigma: 1.0,
            },
        )
        .unwrap();
        let loose = detect(
            &img,
            &DetectParams {
                k_sigma: 3.0,
                min_pixels: 1,
                noise_sigma: 1.0,
            },
        )
        .unwrap();
        assert!(loose.len() > strict.len());
    }

    #[test]
    fn matches_within_uses_combined_sigma() {
        let mk = |x: f64, sx: f64| Observation {
            id: 0,
            x: Uncertain::new(x, sx),
            y: Uncertain::new(0.0, 0.1),
            flux: Uncertain::exact(1.0),
            npix: 1,
            peak: 1.0,
        };
        let a = mk(10.0, 0.5);
        let near = mk(11.0, 0.5);
        let far = mk(20.0, 0.5);
        assert!(a.matches_within(&near, 2.0));
        assert!(!a.matches_within(&far, 2.0));
        assert_eq!(a.distance(&near), 1.0);
    }
}
