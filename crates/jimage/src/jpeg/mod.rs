//! Baseline JFIF JPEG codec (sequential DCT, Huffman entropy coding).
//!
//! The encoder implements the standard pipeline — YCbCr conversion,
//! optional 4:2:0 chroma subsampling, 8×8 FDCT, quality-scaled Annex-K
//! quantization, zigzag run-length + canonical Huffman coding, byte
//! stuffing — and the decoder reverses it, reading the quantization and
//! Huffman tables from the stream itself.
//!
//! This is the compression substrate behind the paper's Table IV: rendered
//! CFD frames are stored as JPEG instead of raw floats, cutting output size
//! by ≥ 99.38 %.

mod bits;
mod dct;
mod decoder;
mod encoder;
mod tables;

pub use decoder::decode;
pub use encoder::encode_with;

pub use dct::{fdct_8x8, idct_8x8};

/// Chroma subsampling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Subsampling {
    /// Full-resolution chroma (one Y, Cb, Cr block per MCU).
    S444,
    /// 2×2-subsampled chroma (four Y blocks per MCU) — the common default
    /// and the better match for the paper's compression ratios.
    #[default]
    S420,
}

/// Encode an RGB image as a baseline JPEG at `quality` (1–100) with 4:2:0
/// chroma subsampling.
pub fn encode(img: &crate::RgbImage, quality: u8) -> crate::Result<Vec<u8>> {
    encode_with(img, quality, Subsampling::S420)
}
