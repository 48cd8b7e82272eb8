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

/// Defines `$name`, which runs `$body` compiled for AVX-512 (through the
/// `#[target_feature]` wrapper `$avx512`, where one is named) or AVX2
/// (`$avx2`), the widest the CPU has, and the baseline build of `$body`
/// otherwise. `$body` and everything it calls on the hot path are
/// `#[inline(always)]`, so each build is its own copy of the one source.
/// Rust neither contracts `a * b + c` into an FMA nor reassociates, so the
/// builds agree to the bit; `fma` is never enabled. A kernel names an
/// `$avx512` wrapper only where that build beats its AVX2 build by direct
/// call. The AVX-512 target features need Rust 1.89.
macro_rules! avx2_dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            = $body:ident, $avx2:ident $(, $avx512:ident)?;
    ) => {
        avx2_dispatch!(@wrapper "avx2", $avx2, $body, ($($arg: $ty),*) $(-> $ret)?);
        avx2_dispatch!(@avx512 [$($avx512)?], $body, ($($arg: $ty),*) $(-> $ret)?);

        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                avx2_dispatch!(@call [$($avx512)?] ($($arg),*));
                if is_x86_feature_detected!("avx2") {
                    // SAFETY: the CPU has AVX2, checked just above.
                    return unsafe { $avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
    (@wrapper $features:literal, $wrapper:ident, $body:ident,
        ($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {
        /// # Safety
        #[doc = concat!("The CPU must have `", $features, "`.")]
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        unsafe fn $wrapper($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }
    };
    (@avx512 [], $($rest:tt)*) => {};
    (@avx512 [$avx512:ident], $body:ident, $($sig:tt)*) => {
        avx2_dispatch!(@wrapper "avx512f,avx512bw,avx512dq,avx512vl", $avx512, $body, $($sig)*);
    };
    (@call [] $args:tt) => {};
    (@call [$avx512:ident] ($($arg:ident),*)) => {
        if $crate::has_avx512() {
            // SAFETY: the CPU has AVX-512 F, BW, DQ and VL, checked just above.
            return unsafe { $avx512($($arg),*) };
        }
    };
}

/// Whether the CPU has the AVX-512 subsets that an `$avx512` build of
/// `avx2_dispatch!` enables.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
}

/// Whether the CPU has the features of the wrapper for `build`.
#[cfg(all(test, target_arch = "x86_64"))]
fn cpu_has(build: &str) -> bool {
    match build {
        "avx2" => is_x86_feature_detected!("avx2"),
        "avx512" => has_avx512(),
        _ => unreachable!("no {build} build"),
    }
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
