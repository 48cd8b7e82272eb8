//! 8-bit RGB image buffers.

use crate::colormap::{round_u8, Colormap};
use crate::error::{ImageError, Result};

/// An 8-bit RGB image, rows top-to-bottom, pixels left-to-right,
/// channels interleaved (`R G B R G B …`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgbImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Interleaved channel data of length `3 * width * height`.
    pub data: Vec<u8>,
}

impl RgbImage {
    /// Create an image from existing interleaved data.
    pub fn new(width: usize, height: usize, data: Vec<u8>) -> Result<Self> {
        let expected = 3 * width * height;
        if data.len() != expected {
            return Err(ImageError::DimensionMismatch { expected, got: data.len() });
        }
        Ok(RgbImage { width, height, data })
    }

    /// Solid-color image.
    pub fn filled(width: usize, height: usize, rgb: [u8; 3]) -> Self {
        let mut data = Vec::with_capacity(3 * width * height);
        for _ in 0..width * height {
            data.extend_from_slice(&rgb);
        }
        RgbImage { width, height, data }
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics when the coordinate is out of bounds.
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        let i = 3 * (y * self.width + x);
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Set pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics when the coordinate is out of bounds.
    pub fn set(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        let i = 3 * (y * self.width + x);
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Render a scalar field through a colormap: values are normalized from
    /// `[vmin, vmax]` to `[0, 1]` (clamped) and mapped to colors — the
    /// paper's visualization step ("apply a colormap in order to create an
    /// image").
    ///
    /// Each value goes through the operations of [`Colormap::map`], so
    /// the image equals `map` of each normalized value, byte for byte; the
    /// field is mapped in lane loops over blocks of 64 values.
    pub fn from_scalar_field(
        width: usize,
        height: usize,
        field: &[f32],
        vmin: f32,
        vmax: f32,
        cmap: &Colormap,
    ) -> Self {
        assert_eq!(field.len(), width * height, "field length must match dimensions");
        let data = colormap_field(field, vmin, vmax, cmap);
        RgbImage { width, height, data }
    }

    /// Mean absolute per-channel difference to another image of the same
    /// size — a cheap distortion metric for codec tests.
    pub fn mean_abs_diff(&self, other: &RgbImage) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "images must have identical dimensions"
        );
        let total: u64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as i32 - b as i32).unsigned_abs() as u64)
            .sum();
        total as f64 / self.data.len() as f64
    }
}

/// Values [`colormap_field_body`] maps per block, one lane each.
const LANES: usize = 64;

/// The interleaved pixels of [`RgbImage::from_scalar_field`].
///
/// Each block of [`LANES`] values runs as lane loops, with the operations
/// [`Colormap::map`] applies to one value. Every lane starts on the first
/// segment and takes the segment starting at each interior stop below its
/// `t`, so it ends on the segment whose end `map` counts its way to; the
/// stop colors ride packed one per word. A loop each then takes the
/// fraction, the three lerps into one packed color, the end-stop selection
/// and the byte stores. The ragged last block runs the same loops and
/// stores only its own pixels.
///
/// On two 256² vorticity tiles of the 512 × 256 lattice (direct calls, min
/// of 40 timings, 2-core x86-64 Xeon guest) the AVX2 build takes 0.24–0.29
/// ms against 0.59–0.62 ms for the per-pixel [`Colormap::map`] loop this
/// replaced, and the baseline build 0.44–0.47 against 0.55–0.59 ms. Taking
/// each lane's segment by index instead (the count of stops below `t`, then
/// a fetch of its constants) was 37 % slower in the AVX2 build and 6 % in
/// the baseline one: neither build gathers in vectors, so the fetch runs
/// one lane at a time. The AVX-512 build takes a direct call on a 256²
/// synthetic field from 0.223 (AVX2) to 0.169 ms.
#[inline(always)]
fn colormap_field_body(field: &[f32], vmin: f32, vmax: f32, cmap: &Colormap) -> Vec<u8> {
    let span = if vmax > vmin { vmax - vmin } else { 1.0 };
    let stops: Vec<(f32, u32)> =
        cmap.stops().iter().map(|&(s, [r, g, b])| (s, u32::from_le_bytes([r, g, b, 0]))).collect();
    let (first, last) = (stops[0], stops[stops.len() - 1]);
    let mut data = vec![0u8; 3 * field.len()];
    let mut t = [0f32; LANES];
    for (px, values) in data.chunks_mut(3 * LANES).zip(field.chunks(LANES)) {
        for (t, &v) in t.iter_mut().zip(values) {
            let v = ((v - vmin) / span).clamp(0.0, 1.0);
            *t = if v.is_nan() { 0.0 } else { v };
        }
        let ((s0, a), (s1, b)) = (stops[0], stops[1]);
        let (mut t0, mut t1, mut c0, mut c1) = ([s0; LANES], [s1; LANES], [a; LANES], [b; LANES]);
        for w in stops[1..].windows(2) {
            let ((s0, a), (s1, b)) = (w[0], w[1]);
            for i in 0..LANES {
                let here = s0 < t[i];
                t0[i] = if here { s0 } else { t0[i] };
                t1[i] = if here { s1 } else { t1[i] };
                c0[i] = if here { a } else { c0[i] };
                c1[i] = if here { b } else { c1[i] };
            }
        }
        let mut f = [0f32; LANES];
        for (((f, &t), &t0), &t1) in f.iter_mut().zip(&t).zip(&t0).zip(&t1) {
            *f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
        }
        let mut rgb = [0u32; LANES];
        for (((rgb, &f), &c0), &c1) in rgb.iter_mut().zip(&f).zip(&c0).zip(&c1) {
            for ch in 0..3 {
                let (c0, c1) = (channel(c0, ch), channel(c1, ch));
                *rgb |= u32::from(round_u8(c0 + f * (c1 - c0))) << (8 * ch);
            }
        }
        for (rgb, &t) in rgb.iter_mut().zip(&t) {
            let end = if t <= first.0 { first.1 } else { last.1 };
            *rgb = if t <= first.0 || t >= last.0 { end } else { *rgb };
        }
        for (px, rgb) in px.chunks_exact_mut(3).zip(&rgb) {
            px.copy_from_slice(&rgb.to_le_bytes()[..3]);
        }
    }
    data
}

/// Channel `ch` of a packed color, as the `f32` that [`Colormap::map`]
/// converts the byte to.
#[inline(always)]
fn channel(rgb: u32, ch: usize) -> f32 {
    ((rgb >> (8 * ch)) & 0xff) as f32
}

avx2_dispatch! {
    /// [`colormap_field_body`], the AVX-512 or AVX2 build where the CPU has it.
    fn colormap_field(field: &[f32], vmin: f32, vmax: f32, cmap: &Colormap) -> Vec<u8>
        = colormap_field_body, colormap_field_avx2, colormap_field_avx512;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = RgbImage::filled(4, 3, [10, 20, 30]);
        assert_eq!(img.get(3, 2), [10, 20, 30]);
        img.set(1, 1, [1, 2, 3]);
        assert_eq!(img.get(1, 1), [1, 2, 3]);
        assert_eq!(img.get(1, 0), [10, 20, 30]);
    }

    /// Every wrapper of `colormap_field` this CPU runs, each called
    /// directly, against the baseline build, byte for byte, over values
    /// inside and outside the range, NaN and a ragged last block.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn colormap_builds_agree_to_the_byte() {
        type Colormapper = unsafe fn(&[f32], f32, f32, &Colormap) -> Vec<u8>;
        let wrappers: [(&str, Colormapper); 2] =
            [("avx2", colormap_field_avx2), ("avx512", colormap_field_avx512)];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let field: Vec<f32> = (0..256 * 256 + 37)
            .map(|i| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                match i % 101 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    _ => 0.2 * ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.1,
                }
            })
            .collect();
        for cmap in [Colormap::blue_white_red(), Colormap::tooth(), Colormap::grayscale()] {
            for (vmin, vmax) in [(-0.08, 0.08), (-0.1, 0.05), (0.0, 0.0)] {
                let baseline = colormap_field_body(&field, vmin, vmax, &cmap);
                for (build, wrapper) in wrappers.into_iter().filter(|&(b, _)| crate::cpu_has(b)) {
                    assert_eq!(
                        // SAFETY: the CPU has the wrapper's features, checked by `cpu_has`.
                        unsafe { wrapper(&field, vmin, vmax, &cmap) },
                        baseline,
                        "{build}: {cmap:?} over [{vmin}, {vmax}]"
                    );
                }
            }
        }
    }

    #[test]
    fn new_rejects_wrong_length() {
        assert!(matches!(
            RgbImage::new(2, 2, vec![0; 11]),
            Err(ImageError::DimensionMismatch { expected: 12, got: 11 })
        ));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        RgbImage::filled(2, 2, [0; 3]).get(2, 0);
    }

    #[test]
    fn scalar_field_clamps_and_maps_extremes() {
        let cmap = Colormap::blue_white_red();
        let img = RgbImage::from_scalar_field(3, 1, &[-10.0, 0.0, 10.0], -1.0, 1.0, &cmap);
        assert_eq!(img.get(0, 0), cmap.map(0.0)); // clamped low -> blue end
        assert_eq!(img.get(1, 0), cmap.map(0.5)); // middle -> white
        assert_eq!(img.get(2, 0), cmap.map(1.0)); // clamped high -> red end
    }

    #[test]
    fn scalar_field_equals_colormap_map_per_pixel() {
        let unsorted_with_duplicate = Colormap::from_stops(vec![
            (0.7, [10, 250, 3]),
            (0.2, [200, 17, 90]),
            (0.7, [255, 128, 0]),
            (1.0, [1, 2, 3]),
            (0.0, [40, 40, 40]),
        ]);
        let maps = [
            Colormap::blue_white_red(),
            Colormap::grayscale(),
            Colormap::tooth(),
            unsorted_with_duplicate,
        ];
        // `Colormap::map`'s sweep of `t`: every 2^-20 step over
        // [-0.01, 1.01], a stride through all f32 bit patterns, the specials.
        // Over [0, 1] a value normalizes to itself.
        let dense = (0..).map(|i| -0.01 + i as f64 / (1 << 20) as f64).take_while(|&t| t <= 1.01);
        let strided = (0..=u32::MAX).step_by(4093).map(f32::from_bits);
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 4.0,
            f32::from_bits(1),
            0.0,
            -0.0,
        ];
        // Every stop position and its neighbours, where the segment changes.
        let stops = [0.2f32, 0.35, 0.5, 0.65, 0.7, 0.85]
            .into_iter()
            .flat_map(|t| [t, f32::from_bits(t.to_bits() - 1), f32::from_bits(t.to_bits() + 1)]);
        let sweep = dense.map(|t| t as f32).chain(strided).chain(specials).chain(stops);
        let field: Vec<f32> = sweep.collect();
        // Every value of the sweep in one field, and for the frame path's map
        // moved into its range; then every length up to two blocks and a
        // half, for other ranges too, over a spread of the sweep moved into
        // the range.
        let to = |(lo, hi): (f32, f32), t: &[f32]| -> Vec<f32> {
            t.iter().map(|&t| lo + (hi - lo) * t).collect()
        };
        let frame = to((-0.08, 0.08), &field);
        let spread: Vec<f32> = field.iter().step_by(9973).copied().collect();
        let ranges = [(0.0, 1.0), (-0.08, 0.08), (3.0, 3.0)];
        let moved = ranges.map(|range| to(range, &spread));
        for cmap in &maps {
            let mut runs = vec![(&field[..], (0.0, 1.0))];
            if *cmap == Colormap::blue_white_red() {
                runs.push((&frame[..], (-0.08, 0.08)));
            }
            for (values, &range) in moved.iter().zip(&ranges) {
                runs.extend((0..=160).map(|n| (&values[..n], range)));
            }
            for (values, (vmin, vmax)) in runs {
                let span = if vmax > vmin { vmax - vmin } else { 1.0 };
                let n = values.len();
                let img = RgbImage::from_scalar_field(n, 1, values, vmin, vmax, cmap);
                for (px, &v) in img.data.chunks_exact(3).zip(values) {
                    let want = cmap.map(((v - vmin) / span).clamp(0.0, 1.0));
                    assert_eq!(px, want, "v = {v:e}, [{vmin}, {vmax}], n = {n}");
                }
            }
        }
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let img = RgbImage::filled(8, 8, [5, 6, 7]);
        assert_eq!(img.mean_abs_diff(&img.clone()), 0.0);
        let other = RgbImage::filled(8, 8, [6, 6, 7]);
        let d = img.mean_abs_diff(&other);
        assert!((d - 1.0 / 3.0).abs() < 1e-12);
    }
}
