//! Deterministic synthetic video sources.
//!
//! Substitutes for the paper's real MPEG-2 test material (see the crate
//! docs). The generator composes three layers whose parameters are what
//! make the coded workload data-dependent, like real video:
//!
//! * a smooth moving gradient background (cheap to code, good motion
//!   prediction),
//! * a set of textured rectangles moving with distinct velocities
//!   (moderate coefficients, trackable motion), and
//! * seeded pseudo-random detail noise whose amplitude follows the
//!   `complexity` parameter (drives coefficient counts up, defeating
//!   prediction the way film grain does).
//!
//! Determinism: frames are a pure function of `(seed, frame_index)`, so
//! every experiment is reproducible.

use crate::frame::Frame;

/// Parameters of the synthetic scene.
#[derive(Debug, Clone, Copy)]
pub struct SourceConfig {
    /// Luma width (multiple of 16).
    pub width: usize,
    /// Luma height (multiple of 16).
    pub height: usize,
    /// Detail/noise amplitude, 0.0 (flat, trivially codeable) to 1.0
    /// (heavy texture).
    pub complexity: f64,
    /// Global motion magnitude in pixels/frame.
    pub motion: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SourceConfig {
    fn default() -> Self {
        SourceConfig {
            width: 64,
            height: 48,
            complexity: 0.4,
            motion: 2.0,
            seed: 0x0EC1_195E,
        }
    }
}

/// A deterministic synthetic video source.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    cfg: SourceConfig,
    objects: Vec<MovingRect>,
}

/// A textured rectangle on a linear trajectory. Its texture rides with
/// it, so its samples are fixed at construction: `tile` holds its luma
/// samples in rows of `w`.
#[derive(Debug, Clone)]
struct MovingRect {
    x0: f64,
    y0: f64,
    w: usize,
    vx: f64,
    vy: f64,
    tile: Vec<u8>,
}

fn hash64(mut x: u64) -> u64 {
    // SplitMix64 finalizer — keeps this crate dependency-free.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SyntheticSource {
    /// Create a source for the given scene parameters.
    pub fn new(cfg: SourceConfig) -> Self {
        let n_objects = 3 + (cfg.complexity * 5.0) as usize;
        let objects = (0..n_objects)
            .map(|i| {
                let h1 = hash64(cfg.seed ^ (i as u64 * 0x1234_5678_9ABC));
                let h2 = hash64(h1);
                let h3 = hash64(h2);
                let vx = cfg.motion * (((h3 % 200) as f64 / 100.0) - 1.0);
                let vy = cfg.motion * ((((h3 >> 8) % 200) as f64 / 100.0) - 1.0);
                // Half the objects move on full-pel trajectories (their
                // motion is exactly trackable); the rest drift at
                // fractional speeds and leave residual texture behind —
                // a realistic mix of prediction quality.
                let (vx, vy) = if i % 2 == 0 {
                    (vx.round(), vy.round())
                } else {
                    (vx, vy)
                };
                let w = 8 + (h1 >> 32) as usize % (cfg.width / 6).max(8);
                let h = 8 + (h2 >> 32) as usize % (cfg.height / 6).max(8);
                let luma = 60 + ((h3 >> 16) % 150) as i32;
                let texture = (cfg.complexity * 40.0) as u8 + ((h3 >> 24) % 20) as u8;
                let tile = (0..h)
                    .flat_map(|dy| (0..w).map(move |dx| (dx, dy)))
                    .map(|(dx, dy)| {
                        let tex = if texture > 0 {
                            (hash64((dx as u64) << 32 | dy as u64 | (i as u64) << 48)
                                % (texture as u64 * 2 + 1)) as i32
                                - texture as i32
                        } else {
                            0
                        };
                        (luma + tex).clamp(0, 255) as u8
                    })
                    .collect();
                MovingRect {
                    x0: (h1 % cfg.width as u64) as f64,
                    y0: (h2 % cfg.height as u64) as f64,
                    w,
                    vx,
                    vy,
                    tile,
                }
            })
            .collect();
        SyntheticSource { cfg, objects }
    }

    /// Scene configuration.
    pub fn config(&self) -> &SourceConfig {
        &self.cfg
    }

    /// Generate display-order frame `index`.
    pub fn frame(&self, index: u16) -> Frame {
        let cfg = &self.cfg;
        let (width, height) = (cfg.width, cfg.height);
        let mut f = Frame::new(width, height);
        let t = index as f64;

        // Background motion is a full-pel pan (real cameras pan; full-pel
        // makes the pan exactly trackable by the full-pel motion search,
        // as real MPEG encoders achieve with half-pel refinement).
        let pan_x = (t * cfg.motion).round() as i64;
        let pan_y = (t * cfg.motion * 0.5).round() as i64;

        // Layer 1 + 2: panning gradient background with scene-attached
        // detail texture (texture rides on the background so inter
        // pictures predict it; every I picture pays its full coefficient
        // price — the classic I >> P > B coefficient ordering). The
        // gradient is a sine of the scene column plus a cosine of the
        // scene row, so each is taken once per column and once per row.
        let amp = (cfg.complexity * 24.0) as i64;
        let col_sin: Vec<f64> = (0..width)
            .map(|x| ((x as i64 + pan_x) as f64 * 0.05).sin())
            .collect();
        for (y, row) in f.y.data.chunks_exact_mut(width).enumerate() {
            let sy = y as i64 + pan_y; // scene coordinates
            let row_cos = (sy as f64 * 0.04).cos();
            for (x, (out, &s)) in row.iter_mut().zip(&col_sin).enumerate() {
                let mut v = 90.0 + 50.0 * (s + row_cos);
                if amp > 0 {
                    let sx = x as i64 + pan_x;
                    let h = hash64(cfg.seed ^ ((sy as u64) << 24) ^ sx as u64);
                    v += (h % (2 * amp as u64 + 1)) as f64 - amp as f64;
                }
                *out = v.clamp(0.0, 255.0) as u8;
            }
        }

        // Layer 3: independently moving textured rectangles (their own
        // velocities defeat the background vector, creating the mixed
        // residual load of real scenes), wrapping at the frame edges.
        // An object is narrower and shorter than the frame, so each of
        // its rows lands as at most two spans.
        for o in &self.objects {
            let ox = (o.x0 + o.vx * t).rem_euclid(width as f64) as usize % width;
            let oy = (o.y0 + o.vy * t).rem_euclid(height as f64) as usize;
            let head = o.w.min(width - ox);
            for (dy, src) in o.tile.chunks_exact(o.w).enumerate() {
                let row = &mut f.y.data[(oy + dy) % height * width..][..width];
                row[ox..ox + head].copy_from_slice(&src[..head]);
                row[..o.w - head].copy_from_slice(&src[head..]);
            }
        }

        // Chroma: slow large-scale color wash (half resolution); U varies
        // along rows only and V down columns only.
        let cw = width / 2;
        let u_row: Vec<u8> = (0..cw)
            .map(|x| (128.0 + 30.0 * ((x as f64 * 0.08 + t * 0.1).sin())).clamp(0.0, 255.0) as u8)
            .collect();
        for (y, (u, v)) in
            f.u.data
                .chunks_exact_mut(cw)
                .zip(f.v.data.chunks_exact_mut(cw))
                .enumerate()
        {
            u.copy_from_slice(&u_row);
            v.fill((128.0 + 30.0 * ((y as f64 * 0.06 - t * 0.08).cos())).clamp(0.0, 255.0) as u8);
        }
        f
    }

    /// Generate the first `n` frames.
    pub fn frames(&self, n: u16) -> Vec<Frame> {
        (0..n).map(|i| self.frame(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_deterministic() {
        let s1 = SyntheticSource::new(SourceConfig::default());
        let s2 = SyntheticSource::new(SourceConfig::default());
        assert_eq!(s1.frame(5), s2.frame(5));
        assert_eq!(s1.frame(0), s2.frame(0));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticSource::new(SourceConfig {
            seed: 1,
            ..Default::default()
        });
        let b = SyntheticSource::new(SourceConfig {
            seed: 2,
            ..Default::default()
        });
        assert_ne!(a.frame(0), b.frame(0));
    }

    #[test]
    fn consecutive_frames_are_similar_but_not_identical() {
        let s = SyntheticSource::new(SourceConfig {
            complexity: 0.3,
            motion: 1.5,
            ..Default::default()
        });
        let f0 = s.frame(0);
        let f1 = s.frame(1);
        assert_ne!(f0, f1);
        // Temporal correlation: PSNR between adjacent frames should beat
        // PSNR between distant frames.
        let near = f0.psnr_y(&f1);
        let far = f0.psnr_y(&s.frame(30));
        assert!(near > far, "near {near:.1} dB vs far {far:.1} dB");
    }

    #[test]
    fn complexity_increases_detail_energy() {
        let flat = SyntheticSource::new(SourceConfig {
            complexity: 0.0,
            ..Default::default()
        })
        .frame(0);
        let busy = SyntheticSource::new(SourceConfig {
            complexity: 1.0,
            ..Default::default()
        })
        .frame(0);
        // High-frequency energy proxy: sum of absolute horizontal gradients.
        let energy = |f: &Frame| -> u64 {
            let mut e = 0u64;
            for y in 0..f.height {
                for x in 1..f.width {
                    e += (f.y.get(x, y) as i64 - f.y.get(x - 1, y) as i64).unsigned_abs();
                }
            }
            e
        };
        assert!(
            energy(&busy) > energy(&flat) * 2,
            "busy {} vs flat {}",
            energy(&busy),
            energy(&flat)
        );
    }

    #[test]
    fn dimensions_respected() {
        let s = SyntheticSource::new(SourceConfig {
            width: 128,
            height: 96,
            ..Default::default()
        });
        let f = s.frame(0);
        assert_eq!((f.width, f.height), (128, 96));
        assert_eq!(f.u.width, 64);
    }
}

/// The generator against its former per-pixel form, and pinned frame
/// hashes over the configurations the experiments and their edges use.
#[cfg(test)]
mod exactness {
    use super::*;
    use eclipse_sim::snapshot::fnv1a_64;

    /// The generator as it was written first: one `sin` and one `cos`
    /// per luma pixel, one per chroma sample, and every object texel
    /// hashed per frame. Kept as the oracle of [`SyntheticSource::frame`].
    fn frame_per_pixel(src: &SyntheticSource, index: u16) -> Frame {
        let cfg = &src.cfg;
        // (x0, y0, w, h, vx, vy, luma, texture) of each object.
        let objects: Vec<_> = (0..src.objects.len())
            .map(|i| {
                let h1 = hash64(cfg.seed ^ (i as u64 * 0x1234_5678_9ABC));
                let h2 = hash64(h1);
                let h3 = hash64(h2);
                let vx = cfg.motion * (((h3 % 200) as f64 / 100.0) - 1.0);
                let vy = cfg.motion * ((((h3 >> 8) % 200) as f64 / 100.0) - 1.0);
                let (vx, vy) = if i % 2 == 0 {
                    (vx.round(), vy.round())
                } else {
                    (vx, vy)
                };
                (
                    (h1 % cfg.width as u64) as f64,
                    (h2 % cfg.height as u64) as f64,
                    8 + (h1 >> 32) as usize % (cfg.width / 6).max(8),
                    8 + (h2 >> 32) as usize % (cfg.height / 6).max(8),
                    vx,
                    vy,
                    60 + ((h3 >> 16) % 150) as u8,
                    (cfg.complexity * 40.0) as u8 + ((h3 >> 24) % 20) as u8,
                )
            })
            .collect();
        let mut f = Frame::new(cfg.width, cfg.height);
        let t = index as f64;
        let pan_x = (t * cfg.motion).round() as i64;
        let pan_y = (t * cfg.motion * 0.5).round() as i64;
        let amp = (cfg.complexity * 24.0) as i64;
        for y in 0..cfg.height {
            for x in 0..cfg.width {
                let sx = x as i64 + pan_x;
                let sy = y as i64 + pan_y;
                let mut v = 90.0 + 50.0 * ((sx as f64 * 0.05).sin() + (sy as f64 * 0.04).cos());
                if amp > 0 {
                    let h = hash64(cfg.seed ^ ((sy as u64) << 24) ^ sx as u64);
                    v += (h % (2 * amp as u64 + 1)) as f64 - amp as f64;
                }
                f.y.set(x, y, v.clamp(0.0, 255.0) as u8);
            }
        }
        for (oi, &(x0, y0, w, h, vx, vy, luma, texture)) in objects.iter().enumerate() {
            let ox = (x0 + vx * t).rem_euclid(cfg.width as f64) as usize;
            let oy = (y0 + vy * t).rem_euclid(cfg.height as f64) as usize;
            for dy in 0..h {
                for dx in 0..w {
                    let x = (ox + dx) % cfg.width;
                    let y = (oy + dy) % cfg.height;
                    let tex = if texture > 0 {
                        (hash64((dx as u64) << 32 | dy as u64 | (oi as u64) << 48)
                            % (texture as u64 * 2 + 1)) as i32
                            - texture as i32
                    } else {
                        0
                    };
                    f.y.set(x, y, (luma as i32 + tex).clamp(0, 255) as u8);
                }
            }
        }
        for y in 0..cfg.height / 2 {
            for x in 0..cfg.width / 2 {
                let u = 128.0 + 30.0 * ((x as f64 * 0.08 + t * 0.1).sin());
                let v = 128.0 + 30.0 * ((y as f64 * 0.06 - t * 0.08).cos());
                f.u.set(x, y, u.clamp(0.0, 255.0) as u8);
                f.v.set(x, y, v.clamp(0.0, 255.0) as u8);
            }
        }
        f
    }

    /// The QCIF and tiny experiment streams, a flat scene with no noise
    /// and no texture, and a fast textured scene whose objects wrap both
    /// frame edges; with each one's frame count.
    fn configs() -> [(SourceConfig, u16); 4] {
        let qcif = SourceConfig {
            width: 176,
            height: 144,
            complexity: 0.5,
            motion: 2.0,
            seed: 0xEC11,
        };
        [
            (qcif, 15),
            (
                SourceConfig {
                    width: 64,
                    height: 48,
                    ..qcif
                },
                8,
            ),
            (
                SourceConfig {
                    complexity: 0.0,
                    ..qcif
                },
                6,
            ),
            (
                SourceConfig {
                    width: 96,
                    height: 64,
                    complexity: 1.0,
                    motion: 7.5,
                    seed: 3,
                },
                24,
            ),
        ]
    }

    fn hash(frames: &[Frame]) -> u64 {
        let mut bytes = Vec::new();
        for f in frames {
            for p in [&f.y, &f.u, &f.v] {
                bytes.extend_from_slice(&p.data);
            }
        }
        fnv1a_64(&bytes)
    }

    /// The frame hashes of the per-pixel generator, taken before the
    /// separable one replaced it.
    #[test]
    fn frames_are_pinned() {
        let hashes = configs().map(|(cfg, n)| hash(&SyntheticSource::new(cfg).frames(n)));
        assert_eq!(
            hashes,
            [
                0xae79_f675_49a6_06b8,
                0x6c4e_2c33_871f_6cd4,
                0x193d_a22a_4008_903a,
                0xbc03_2130_c206_c708,
            ]
        );
    }

    /// Frame by frame, the generator equals the per-pixel oracle.
    #[test]
    fn frames_match_the_per_pixel_generator() {
        for (cfg, n) in configs() {
            let src = SyntheticSource::new(cfg);
            for i in 0..n {
                assert_eq!(src.frame(i), frame_per_pixel(&src, i), "{cfg:?} frame {i}");
            }
        }
    }

    /// The fast scene's objects cross both the right and the bottom edge,
    /// so the pins cover rows and tiles that wrap.
    #[test]
    fn fast_scene_wraps_both_edges() {
        let (cfg, n) = configs()[3];
        let src = SyntheticSource::new(cfg);
        let (mut wraps_x, mut wraps_y) = (false, false);
        for o in &src.objects {
            for t in (0..n).map(f64::from) {
                let ox = (o.x0 + o.vx * t).rem_euclid(cfg.width as f64) as usize;
                let oy = (o.y0 + o.vy * t).rem_euclid(cfg.height as f64) as usize;
                wraps_x |= ox + o.w > cfg.width;
                wraps_y |= oy + o.tile.len() / o.w > cfg.height;
            }
        }
        assert!(wraps_x && wraps_y);
    }
}
