//! Synthetic telescope imagery (the §2.15 science benchmark's data
//! generator, modeled on SS-DB's star-field generator; see DESIGN.md §4
//! for the substitution rationale).
//!
//! Images are deterministic functions of a seed: point sources with
//! power-law fluxes rendered through a Gaussian PSF onto a pixel grid, plus
//! Gaussian read noise and an optional cloud mask. Multi-epoch stacks move
//! the sources along linear trajectories so observation grouping (§
//! benchmark Q7–Q9) has ground truth to recover.

use scidb_core::array::Array;
use scidb_core::rng::SmallRng;
use scidb_core::schema::SchemaBuilder;
use scidb_core::value::{record, ScalarType, Value};

/// A ground-truth point source.
#[derive(Debug, Clone, PartialEq)]
pub struct Source {
    /// Sub-pixel x center (1-based pixel space).
    pub x: f64,
    /// Sub-pixel y center.
    pub y: f64,
    /// Total flux.
    pub flux: f64,
    /// Per-epoch motion (dx, dy) in pixels.
    pub motion: (f64, f64),
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct ImageSpec {
    /// Image side length in pixels.
    pub size: i64,
    /// Number of point sources.
    pub n_sources: usize,
    /// Gaussian PSF sigma (pixels).
    pub psf_sigma: f64,
    /// Read-noise sigma (flux units).
    pub noise_sigma: f64,
    /// Minimum source flux; fluxes follow a power law above it.
    pub min_flux: f64,
    /// Fraction of pixels obscured by clouds (0 disables the mask).
    pub cloud_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImageSpec {
    fn default() -> Self {
        ImageSpec {
            size: 256,
            n_sources: 100,
            psf_sigma: 1.2,
            noise_sigma: 1.0,
            min_flux: 200.0,
            cloud_fraction: 0.0,
            seed: 42,
        }
    }
}

/// Draws the ground-truth source catalog for a spec.
pub fn generate_sources(spec: &ImageSpec) -> Vec<Source> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let margin = 4.0 * spec.psf_sigma;
    (0..spec.n_sources)
        .map(|_| {
            let x = rng.gen_range(margin..spec.size as f64 - margin);
            let y = rng.gen_range(margin..spec.size as f64 - margin);
            // Power-law flux: F = F_min * u^{-1/(α-1)}, α ≈ 2.35 (Salpeter-ish).
            let u: f64 = rng.gen_range(1e-3..1.0f64);
            let flux = spec.min_flux * u.powf(-1.0 / 1.35);
            let motion = (rng.gen_range(-1.5..1.5), rng.gen_range(-1.5..1.5));
            Source {
                x,
                y,
                flux: flux.min(spec.min_flux * 100.0),
                motion,
            }
        })
        .collect()
}

/// Standard normal via Box–Muller.
fn gauss(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Renders one epoch of a source catalog into a pixel array
/// (`flux = float`, dims `x, y`), with noise and clouds. Cloudy pixels are
/// *absent* (empty cells), matching instrument masks.
pub fn render_epoch(spec: &ImageSpec, sources: &[Source], epoch: i64) -> Array {
    let schema = SchemaBuilder::new(format!("img_{epoch}"))
        .attr("flux", ScalarType::Float64)
        .dim_chunked("x", spec.size, 64.min(spec.size))
        .dim_chunked("y", spec.size, 64.min(spec.size))
        .build()
        .expect("valid image schema");
    let mut pixels = vec![0.0f64; (spec.size * spec.size) as usize];

    // Render PSFs (truncate at 4σ).
    let reach = (4.0 * spec.psf_sigma).ceil() as i64;
    let two_s2 = 2.0 * spec.psf_sigma * spec.psf_sigma;
    let norm = 1.0 / (std::f64::consts::PI * two_s2);
    for s in sources {
        let cx = s.x + s.motion.0 * epoch as f64;
        let cy = s.y + s.motion.1 * epoch as f64;
        let (px, py) = (cx.round() as i64, cy.round() as i64);
        for ix in (px - reach).max(1)..=(px + reach).min(spec.size) {
            for iy in (py - reach).max(1)..=(py + reach).min(spec.size) {
                let dx = ix as f64 - cx;
                let dy = iy as f64 - cy;
                let v = s.flux * norm * (-(dx * dx + dy * dy) / two_s2).exp();
                pixels[((ix - 1) * spec.size + (iy - 1)) as usize] += v;
            }
        }
    }

    // Noise + cloud mask, then materialize.
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ (epoch as u64).wrapping_mul(0x9e3779b9));
    let mut img = Array::new(schema);
    for ix in 1..=spec.size {
        for iy in 1..=spec.size {
            if spec.cloud_fraction > 0.0 && rng.gen_range(0.0..1.0f64) < spec.cloud_fraction {
                continue; // obscured: no measurement
            }
            let base = pixels[((ix - 1) * spec.size + (iy - 1)) as usize];
            let v = base + spec.noise_sigma * gauss(&mut rng);
            img.set_cell(&[ix, iy], record([Value::from(v)]))
                .expect("in bounds");
        }
    }
    img
}

/// A multi-epoch stack with shared ground truth.
pub struct Stack {
    /// Generator parameters.
    pub spec: ImageSpec,
    /// Ground-truth catalog (epoch-0 positions + motions).
    pub sources: Vec<Source>,
    /// Rendered epochs.
    pub epochs: Vec<Array>,
}

/// Generates `n_epochs` images of the same sky region.
pub fn generate_stack(spec: &ImageSpec, n_epochs: usize) -> Stack {
    let sources = generate_sources(spec);
    let epochs = (0..n_epochs)
        .map(|e| render_epoch(spec, &sources, e as i64))
        .collect();
    Stack {
        spec: spec.clone(),
        sources,
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ImageSpec {
        ImageSpec {
            size: 64,
            n_sources: 8,
            noise_sigma: 0.5,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = small_spec();
        let a = render_epoch(&spec, &generate_sources(&spec), 0);
        let b = render_epoch(&spec, &generate_sources(&spec), 0);
        assert!(a.same_cells(&b));
    }

    /// The benchmark's data set is cooked here: a pinned image of one
    /// seeded epoch (sources, noise and cloud mask all drawn) means an edit
    /// to this generator or to `scidb_core::rng` cannot silently change
    /// what `e2e_smoke` measures.
    #[test]
    fn a_seeded_epoch_is_pinned_byte_for_byte() {
        let spec = ImageSpec {
            size: 64,
            n_sources: 8,
            cloud_fraction: 0.1,
            seed: 7,
            ..Default::default()
        };
        let img = render_epoch(&spec, &generate_sources(&spec), 1);
        assert_eq!(img.cell_count(), 3682);
        let mut image = Vec::new();
        scidb_core::codec::encode_array(&mut image, &img);
        assert_eq!(scidb_storage::page::crc32(&image), 0xa899_7781);
    }

    #[test]
    fn cloudless_image_fills_every_pixel() {
        let spec = small_spec();
        let img = render_epoch(&spec, &generate_sources(&spec), 0);
        assert_eq!(img.cell_count(), 64 * 64);
    }

    #[test]
    fn sources_appear_as_bright_pixels() {
        let spec = small_spec();
        let sources = generate_sources(&spec);
        let img = render_epoch(&spec, &sources, 0);
        for s in &sources {
            let v = img
                .get_f64(0, &[s.x.round() as i64, s.y.round() as i64])
                .unwrap();
            assert!(
                v > 10.0 * spec.noise_sigma,
                "source at ({}, {}) should be bright, got {v}",
                s.x,
                s.y
            );
        }
    }

    #[test]
    fn cloud_mask_removes_pixels() {
        let mut spec = small_spec();
        spec.cloud_fraction = 0.25;
        let img = render_epoch(&spec, &generate_sources(&spec), 0);
        let density = img.cell_count() as f64 / (64.0 * 64.0);
        assert!(
            (density - 0.75).abs() < 0.05,
            "≈75% of pixels survive: {density}"
        );
    }

    #[test]
    fn epochs_move_sources() {
        let spec = ImageSpec {
            n_sources: 1,
            noise_sigma: 0.0,
            ..small_spec()
        };
        let sources = vec![Source {
            x: 32.0,
            y: 32.0,
            flux: 1000.0,
            motion: (2.0, 0.0),
        }];
        let e0 = render_epoch(&spec, &sources, 0);
        let e2 = render_epoch(&spec, &sources, 2);
        let peak0 = e0.get_f64(0, &[32, 32]).unwrap();
        let peak2_at_old = e2.get_f64(0, &[32, 32]).unwrap();
        let peak2_at_new = e2.get_f64(0, &[36, 32]).unwrap();
        assert!(peak0 > 50.0);
        assert!(peak2_at_new > 50.0);
        assert!(peak2_at_old < peak2_at_new / 10.0);
    }

    #[test]
    fn stack_has_shared_ground_truth() {
        let stack = generate_stack(&small_spec(), 3);
        assert_eq!(stack.epochs.len(), 3);
        assert_eq!(stack.sources.len(), 8);
    }

    #[test]
    fn flux_distribution_is_heavy_tailed() {
        let spec = ImageSpec {
            n_sources: 500,
            ..small_spec()
        };
        let sources = generate_sources(&spec);
        let max = sources.iter().map(|s| s.flux).fold(0.0, f64::max);
        let median = {
            let mut f: Vec<f64> = sources.iter().map(|s| s.flux).collect();
            f.sort_by(|a, b| a.partial_cmp(b).unwrap());
            f[f.len() / 2]
        };
        assert!(max > 5.0 * median, "power law: max {max}, median {median}");
    }
}
