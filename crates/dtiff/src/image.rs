//! In-memory grayscale image representation.

use crate::error::{Result, TiffError};

/// Byte order of an encoded TIFF file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endian {
    /// `II` — little-endian (Intel), the common case.
    Little,
    /// `MM` — big-endian (Motorola).
    Big,
}

/// Sample kind of a grayscale image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PixelKind {
    /// 8-bit unsigned (the mouse-brain data set of the paper).
    U8,
    /// 16-bit unsigned.
    U16,
    /// 32-bit unsigned (the primate-tooth and synthetic benchmark sets).
    U32,
    /// 32-bit IEEE float.
    F32,
}

impl PixelKind {
    /// Bytes per sample.
    pub fn sample_bytes(self) -> usize {
        match self {
            PixelKind::U8 => 1,
            PixelKind::U16 => 2,
            PixelKind::U32 | PixelKind::F32 => 4,
        }
    }

    /// TIFF `BitsPerSample` value.
    pub fn bits(self) -> u16 {
        (self.sample_bytes() * 8) as u16
    }

    /// TIFF `SampleFormat` value (1 = unsigned int, 3 = IEEE float).
    pub fn sample_format(self) -> u16 {
        match self {
            PixelKind::F32 => 3,
            _ => 1,
        }
    }
}

/// Pixel storage, one variant per supported sample kind.
#[derive(Debug, Clone, PartialEq)]
pub enum PixelData {
    /// 8-bit unsigned samples.
    U8(Vec<u8>),
    /// 16-bit unsigned samples.
    U16(Vec<u16>),
    /// 32-bit unsigned samples.
    U32(Vec<u32>),
    /// 32-bit float samples.
    F32(Vec<f32>),
}

impl PixelData {
    /// Sample kind of this storage.
    pub fn kind(&self) -> PixelKind {
        match self {
            PixelData::U8(_) => PixelKind::U8,
            PixelData::U16(_) => PixelKind::U16,
            PixelData::U32(_) => PixelKind::U32,
            PixelData::F32(_) => PixelKind::F32,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        match self {
            PixelData::U8(v) => v.len(),
            PixelData::U16(v) => v.len(),
            PixelData::U32(v) => v.len(),
            PixelData::F32(v) => v.len(),
        }
    }

    /// Whether the storage holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sample at `idx` widened/converted to `f64` (for tests and rendering).
    pub fn get_f64(&self, idx: usize) -> f64 {
        match self {
            PixelData::U8(v) => v[idx] as f64,
            PixelData::U16(v) => v[idx] as f64,
            PixelData::U32(v) => v[idx] as f64,
            PixelData::F32(v) => v[idx] as f64,
        }
    }

    /// Serialize samples in the given byte order, row-major.
    pub(crate) fn to_bytes(&self, endian: Endian) -> Vec<u8> {
        macro_rules! ser {
            ($v:expr) => {{
                let mut out = Vec::with_capacity($v.len() * std::mem::size_of_val(&$v[0]));
                for s in $v {
                    match endian {
                        Endian::Little => out.extend_from_slice(&s.to_le_bytes()),
                        Endian::Big => out.extend_from_slice(&s.to_be_bytes()),
                    }
                }
                out
            }};
        }
        match self {
            PixelData::U8(v) => v.clone(),
            PixelData::U16(v) if v.is_empty() => Vec::new(),
            PixelData::U32(v) if v.is_empty() => Vec::new(),
            PixelData::F32(v) if v.is_empty() => Vec::new(),
            PixelData::U16(v) => ser!(v),
            PixelData::U32(v) => ser!(v),
            PixelData::F32(v) => ser!(v),
        }
    }
}

/// A single grayscale image (one slice of a volume stack).
#[derive(Debug, Clone, PartialEq)]
pub struct TiffImage {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Row-major samples, top row first.
    pub data: PixelData,
}

impl TiffImage {
    /// Create an image, checking that the buffer matches the dimensions.
    pub fn new(width: u32, height: u32, data: PixelData) -> Result<Self> {
        let expected = width as usize * height as usize;
        if data.len() != expected {
            return Err(TiffError::DimensionMismatch { expected, got: data.len() });
        }
        Ok(TiffImage { width, height, data })
    }

    /// Sample kind.
    pub fn kind(&self) -> PixelKind {
        self.data.kind()
    }

    /// Bytes of one row.
    pub fn row_bytes(&self) -> usize {
        self.width as usize * self.kind().sample_bytes()
    }
}
