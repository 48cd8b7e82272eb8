//! # jimage — image buffers, colormaps, and a baseline JPEG codec
//!
//! The paper's second use case renders 2-D CFD fields through a
//! blue-white-red colormap and stores the frames "as a compressed JPEG
//! image" instead of raw floats, reporting ≥ 99.38 % output-size reduction
//! (Table IV). This crate supplies that substrate from scratch:
//!
//! * [`RgbImage`] — 8-bit RGB buffers,
//! * [`Colormap`] — the paper's blue-white-red diverging map plus grayscale
//!   and a warm "tooth" transfer ramp for volume rendering,
//! * [`pnm`] — PPM for loss-free debugging output,
//! * [`jpeg`] — a baseline JFIF **encoder and decoder** (sequential DCT,
//!   Huffman, 4:4:4 or 4:2:0 chroma subsampling) with the standard Annex-K
//!   quantization/Huffman tables and IJG-style quality scaling.
//!
//! ```
//! use jimage::{Colormap, RgbImage, jpeg};
//! // Render a small field through the paper's colormap and compress it.
//! let field: Vec<f32> = (0..64 * 64).map(|i| (i % 64) as f32 / 63.0 - 0.5).collect();
//! let img = RgbImage::from_scalar_field(64, 64, &field, -0.5, 0.5, &Colormap::blue_white_red());
//! let bytes = jpeg::encode(&img, 75).unwrap();
//! let back = jpeg::decode(&bytes).unwrap();
//! assert_eq!((back.width, back.height), (64, 64));
//! assert!(bytes.len() < 64 * 64 * 3 / 4); // at least 4x smaller than raw RGB
//! ```

#![warn(missing_docs)]

/// Defines `$name`, which runs `$body` compiled for AVX2 (through the
/// `#[target_feature]` wrapper `$avx2`) when the CPU has it, and the
/// baseline build of `$body` otherwise. `$body` and everything it calls on
/// the hot path are `#[inline(always)]`, so each build is its own copy of
/// the one source. Rust neither contracts `a * b + c` into an FMA nor
/// reassociates, so the two builds agree to the bit; only `avx2` is
/// enabled, not `fma`.
///
/// The wrapper is an `unsafe fn` rather than a safe `#[target_feature]` fn
/// so the crate keeps building on Rust 1.85.
macro_rules! avx2_dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            = $body:ident, $avx2:ident;
    ) => {
        /// # Safety
        /// The CPU must have AVX2.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU has AVX2, checked just above.
                return unsafe { $avx2($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}

/// `(v as i32).clamp(lo, hi)`, bit for bit for every `v`: NaN gives 0, and
/// the clamp comes before a truncating convert instead of after the
/// saturating `as`. LLVM does not vectorise the saturating cast: behind it,
/// the quantiser's loop ran one scalar `cvttsd2si` per coefficient, where
/// this form converts four lanes per `cvttpd2dq` in the AVX2 build and two
/// in the baseline one. The crate's float-to-integer conversions all go
/// through here.
#[inline(always)]
fn trunc_clamped(v: f64, lo: i32, hi: i32) -> i32 {
    let v = if v.is_nan() { 0.0 } else { v };
    let v = if v < f64::from(lo) { f64::from(lo) } else { v };
    let v = if v > f64::from(hi) { f64::from(hi) } else { v };
    // SAFETY: `v` is not NaN and lies in `lo..=hi`, so it is finite and its
    // truncation is an `i32`.
    unsafe { v.to_int_unchecked() }
}

mod colormap;
mod error;
pub mod jpeg;
pub mod pnm;
mod rgb;

pub use colormap::Colormap;
pub use error::{ImageError, Result};
pub use rgb::RgbImage;
