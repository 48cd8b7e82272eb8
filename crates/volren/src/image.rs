//! Premultiplied float RGBA accumulation images.

use jimage::RgbImage;

/// A float RGBA image with premultiplied alpha, used as the accumulation
/// target of front-to-back ray casting and brick compositing.
#[derive(Debug, Clone, PartialEq)]
pub struct RgbaImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Interleaved premultiplied `[r, g, b, a]`, row-major.
    pub data: Vec<f32>,
}

impl RgbaImage {
    /// Fully transparent image.
    pub fn transparent(width: usize, height: usize) -> Self {
        RgbaImage { width, height, data: vec![0.0; 4 * width * height] }
    }

    /// Pixel accessor.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn get(&self, x: usize, y: usize) -> [f32; 4] {
        assert!(x < self.width && y < self.height);
        let i = 4 * (y * self.width + x);
        [self.data[i], self.data[i + 1], self.data[i + 2], self.data[i + 3]]
    }

    /// Composite the premultiplied pixels `src` *under* the
    /// already-accumulated content of `self` (front-to-back `over`):
    /// `dst += (1 - dst.a) * src`.
    ///
    /// `self` holds everything in front of `src`; both must be equal size.
    pub fn under(&mut self, src: &[f32]) {
        assert_eq!(self.data.len(), src.len(), "size mismatch");
        for (d, s) in self.data.chunks_exact_mut(4).zip(src.chunks_exact(4)) {
            let transmittance = 1.0 - d[3];
            for c in 0..4 {
                d[c] += transmittance * s[c];
            }
        }
    }

    /// Accumulate one classified sample at a pixel (front-to-back).
    #[inline]
    pub fn shade(&mut self, x: usize, y: usize, rgb: [f32; 3], alpha: f32) {
        let i = 4 * (y * self.width + x);
        let t = 1.0 - self.data[i + 3];
        if t <= 0.0 {
            return;
        }
        self.data[i] += t * alpha * rgb[0];
        self.data[i + 1] += t * alpha * rgb[1];
        self.data[i + 2] += t * alpha * rgb[2];
        self.data[i + 3] += t * alpha;
    }

    /// Flatten onto an opaque background into an 8-bit RGB image.
    pub fn to_rgb(&self, background: [u8; 3]) -> RgbImage {
        let mut out = Vec::with_capacity(3 * self.width * self.height);
        for px in self.data.chunks_exact(4) {
            let t = 1.0 - px[3];
            for c in 0..3 {
                let v = px[c] + t * (background[c] as f32 / 255.0);
                out.push((v * 255.0).round().clamp(0.0, 255.0) as u8);
            }
        }
        RgbImage::new(self.width, self.height, out).expect("dimensions match by construction")
    }

    /// Maximum accumulated alpha over all pixels.
    pub fn max_alpha(&self) -> f32 {
        self.data.chunks_exact(4).map(|p| p[3]).fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shade_accumulates_front_to_back() {
        let mut img = RgbaImage::transparent(1, 1);
        img.shade(0, 0, [1.0, 0.0, 0.0], 0.5);
        img.shade(0, 0, [0.0, 1.0, 0.0], 1.0);
        let px = img.get(0, 0);
        // Front red at 0.5 alpha, then opaque green behind: 0.5 red + 0.5 green.
        assert!((px[0] - 0.5).abs() < 1e-6);
        assert!((px[1] - 0.5).abs() < 1e-6);
        assert!((px[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn under_matches_incremental_shading() {
        // Shading samples a,b,c in order == shading a, then `under` of (b,c).
        let samples =
            [([0.9f32, 0.1, 0.2], 0.3f32), ([0.2, 0.8, 0.1], 0.6), ([0.1, 0.2, 0.9], 0.8)];
        let mut reference = RgbaImage::transparent(1, 1);
        for (rgb, a) in samples {
            reference.shade(0, 0, rgb, a);
        }
        let mut front = RgbaImage::transparent(1, 1);
        front.shade(0, 0, samples[0].0, samples[0].1);
        let mut back = RgbaImage::transparent(1, 1);
        back.shade(0, 0, samples[1].0, samples[1].1);
        back.shade(0, 0, samples[2].0, samples[2].1);
        front.under(&back.data);
        for c in 0..4 {
            assert!((front.get(0, 0)[c] - reference.get(0, 0)[c]).abs() < 1e-6);
        }
    }

    #[test]
    fn saturated_pixel_stops_accumulating() {
        let mut img = RgbaImage::transparent(1, 1);
        img.shade(0, 0, [1.0, 1.0, 1.0], 1.0);
        let before = img.get(0, 0);
        img.shade(0, 0, [1.0, 1.0, 1.0], 1.0);
        assert_eq!(before, img.get(0, 0));
    }

    #[test]
    fn to_rgb_blends_background() {
        let mut img = RgbaImage::transparent(1, 1);
        img.shade(0, 0, [1.0, 0.0, 0.0], 0.5);
        let rgb = img.to_rgb([0, 0, 255]);
        let px = rgb.get(0, 0);
        assert_eq!(px[0], 128); // 0.5 red
        assert_eq!(px[2], 128); // 0.5 of blue background
    }

    #[test]
    fn transparent_image_shows_background() {
        let img = RgbaImage::transparent(2, 2);
        let rgb = img.to_rgb([10, 20, 30]);
        assert_eq!(rgb.get(1, 1), [10, 20, 30]);
        assert_eq!(img.max_alpha(), 0.0);
    }
}
