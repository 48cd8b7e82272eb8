//! Scalar-to-color maps.

use crate::trunc_clamped;

/// A piecewise-linear colormap over `t ∈ [0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Colormap {
    /// Control points: `(t, rgb)`, strictly increasing in `t`, covering 0..1.
    stops: Vec<(f32, [u8; 3])>,
}

impl Colormap {
    /// Build a colormap from control points. Points are sorted by `t`;
    /// the first and last stop are used for out-of-range values.
    ///
    /// # Panics
    /// Panics if fewer than two stops are given.
    pub fn from_stops(mut stops: Vec<(f32, [u8; 3])>) -> Self {
        assert!(stops.len() >= 2, "a colormap needs at least two stops");
        stops.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("stop positions must be finite"));
        Colormap { stops }
    }

    /// The paper's **blue-white-red** diverging map used for vorticity
    /// ("rendered using a blue-white-red colormap"): negative rotation blue,
    /// zero white, positive red.
    pub fn blue_white_red() -> Self {
        Colormap::from_stops(vec![(0.0, [0, 0, 255]), (0.5, [255, 255, 255]), (1.0, [255, 0, 0])])
    }

    /// Linear grayscale ramp.
    pub fn grayscale() -> Self {
        Colormap::from_stops(vec![(0.0, [0, 0, 0]), (1.0, [255, 255, 255])])
    }

    /// Warm bone/amber transfer ramp approximating the primate-tooth
    /// rendering of the paper's Figure 2 (dark transparent background through
    /// amber dentine to bright enamel).
    pub fn tooth() -> Self {
        Colormap::from_stops(vec![
            (0.0, [0, 0, 0]),
            (0.35, [96, 48, 24]),
            (0.65, [208, 144, 64]),
            (0.85, [240, 212, 160]),
            (1.0, [255, 252, 240]),
        ])
    }

    /// Map a normalized scalar to a color (clamping outside `[0, 1]`).
    ///
    /// The segment is picked without a data-dependent branch: the stops are
    /// sorted, so `hi` (the first stop at or above `t`) is one plus the count
    /// of interior stops below `t`. The end colors are selected after the
    /// interpolation, whose value is then discarded.
    #[inline]
    pub fn map(&self, t: f32) -> [u8; 3] {
        let t = if t.is_nan() { 0.0 } else { t };
        let n = self.stops.len();
        let hi = 1 + self.stops[1..n - 1].iter().filter(|&&(s, _)| s < t).count();
        self.color(t, hi)
    }

    /// The stops, sorted by `t`.
    pub(crate) fn stops(&self) -> &[(f32, [u8; 3])] {
        &self.stops
    }

    /// The color of a non-NaN `t` whose segment ends at stop `hi`.
    #[inline(always)]
    fn color(&self, t: f32, hi: usize) -> [u8; 3] {
        let (first, last) = (self.stops[0], self.stops[self.stops.len() - 1]);
        let (t0, c0) = self.stops[hi - 1];
        let (t1, c1) = self.stops[hi];
        let f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
        let mid: [u8; 3] =
            std::array::from_fn(|ch| round_u8(c0[ch] as f32 + f * (c1[ch] as f32 - c0[ch] as f32)));
        if t <= first.0 {
            first.1
        } else if t >= last.0 {
            last.1
        } else {
            mid
        }
    }
}

/// `v.round().clamp(0.0, 255.0) as u8`, bit for bit, without the `roundf`
/// call: `v + 0.5` is exact in `f64` whenever the sum reaches 1, so
/// [`trunc_clamped`] floors it, and it saturates where the clamp did (NaN
/// gives 0).
#[inline(always)]
pub(crate) fn round_u8(v: f32) -> u8 {
    trunc_clamped(f64::from(v) + 0.5, 0, 255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blue_white_red_endpoints_and_center() {
        let c = Colormap::blue_white_red();
        assert_eq!(c.map(0.0), [0, 0, 255]);
        assert_eq!(c.map(0.5), [255, 255, 255]);
        assert_eq!(c.map(1.0), [255, 0, 0]);
    }

    #[test]
    fn interpolation_is_linear() {
        let c = Colormap::blue_white_red();
        assert_eq!(c.map(0.25), [128, 128, 255]);
        assert_eq!(c.map(0.75), [255, 128, 128]);
    }

    #[test]
    fn clamps_out_of_range_and_nan() {
        let c = Colormap::grayscale();
        assert_eq!(c.map(-3.0), [0, 0, 0]);
        assert_eq!(c.map(42.0), [255, 255, 255]);
        assert_eq!(c.map(f32::NAN), [0, 0, 0]);
    }

    #[test]
    fn unsorted_stops_are_sorted() {
        let c = Colormap::from_stops(vec![(1.0, [255, 0, 0]), (0.0, [0, 0, 0])]);
        assert_eq!(c.map(0.0), [0, 0, 0]);
        assert_eq!(c.map(1.0), [255, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn single_stop_panics() {
        Colormap::from_stops(vec![(0.0, [0, 0, 0])]);
    }

    /// `map` as it was before the branch-free segment pick: a linear search
    /// for the first stop at or above `t`, early returns for the ends, and
    /// `f32::round`.
    fn reference_map(stops: &[(f32, [u8; 3])], t: f32) -> [u8; 3] {
        let t = if t.is_nan() { 0.0 } else { t };
        let first = stops.first().expect("nonempty");
        let last = stops.last().expect("nonempty");
        if t <= first.0 {
            return first.1;
        }
        if t >= last.0 {
            return last.1;
        }
        let hi = stops.iter().position(|&(s, _)| s >= t).expect("t within range");
        let (t0, c0) = stops[hi - 1];
        let (t1, c1) = stops[hi];
        let f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
        let mut out = [0u8; 3];
        for ch in 0..3 {
            let v = c0[ch] as f32 + f * (c1[ch] as f32 - c0[ch] as f32);
            out[ch] = v.round().clamp(0.0, 255.0) as u8;
        }
        out
    }

    #[test]
    fn map_equals_the_reference_formula_bit_for_bit() {
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
        // Every 2^-20 step over [-0.01, 1.01], then a stride through all f32
        // bit patterns, then the specials.
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
        let ts: Vec<f32> = dense.map(|t| t as f32).chain(strided).chain(specials).collect();
        for cmap in &maps {
            for &t in &ts {
                assert_eq!(
                    cmap.map(t),
                    reference_map(&cmap.stops, t),
                    "t = {t:e} ({:#x})",
                    t.to_bits()
                );
            }
        }
    }

    #[test]
    fn round_u8_equals_round_then_clamp() {
        let ties = (0..=256).flat_map(|k| [k as f32 + 0.5, -(k as f32) - 0.5]);
        let near_half = [0.5f32, 255.5]
            .into_iter()
            .flat_map(|v| [f32::from_bits(v.to_bits() - 1), f32::from_bits(v.to_bits() + 1)]);
        let strided = (0..=u32::MAX).step_by(257).map(f32::from_bits);
        for v in
            ties.chain(near_half).chain(strided).chain([f32::NAN, f32::INFINITY, f32::NEG_INFINITY])
        {
            assert_eq!(round_u8(v), v.round().clamp(0.0, 255.0) as u8, "v = {v:e}");
        }
    }

    #[test]
    fn tooth_map_is_monotonically_brightening() {
        let c = Colormap::tooth();
        let lum =
            |rgb: [u8; 3]| 0.299 * rgb[0] as f32 + 0.587 * rgb[1] as f32 + 0.114 * rgb[2] as f32;
        let mut prev = -1.0;
        for i in 0..=20 {
            let l = lum(c.map(i as f32 / 20.0));
            assert!(l >= prev, "luminance must not decrease");
            prev = l;
        }
    }
}
