//! Baseline TIFF decoding.

use crate::error::{Result, TiffError};
use crate::image::{Endian, PixelData, PixelKind, TiffImage};
use crate::writer::{
    TAG_BITS_PER_SAMPLE, TAG_COMPRESSION, TAG_IMAGE_LENGTH, TAG_IMAGE_WIDTH, TAG_PHOTOMETRIC,
    TAG_ROWS_PER_STRIP, TAG_SAMPLES_PER_PIXEL, TAG_SAMPLE_FORMAT, TAG_STRIP_BYTE_COUNTS,
    TAG_STRIP_OFFSETS, TYPE_LONG, TYPE_SHORT,
};

struct Cursor<'a> {
    data: &'a [u8],
    endian: Endian,
}

impl<'a> Cursor<'a> {
    fn u16_at(&self, pos: usize) -> Result<u16> {
        let b: [u8; 2] = self
            .data
            .get(pos..pos + 2)
            .ok_or(TiffError::Truncated { context: "u16" })?
            .try_into()
            .unwrap();
        Ok(match self.endian {
            Endian::Little => u16::from_le_bytes(b),
            Endian::Big => u16::from_be_bytes(b),
        })
    }

    fn u32_at(&self, pos: usize) -> Result<u32> {
        let b: [u8; 4] = self
            .data
            .get(pos..pos + 4)
            .ok_or(TiffError::Truncated { context: "u32" })?
            .try_into()
            .unwrap();
        Ok(match self.endian {
            Endian::Little => u32::from_le_bytes(b),
            Endian::Big => u32::from_be_bytes(b),
        })
    }
}

/// One parsed IFD entry.
#[derive(Debug, Clone, Copy)]
struct RawEntry {
    typ: u16,
    count: u32,
    /// Byte position of the 4-byte value/offset field.
    value_pos: usize,
}

impl RawEntry {
    /// Read element `i` of this entry's value array as u32 (SHORT or LONG).
    fn element(&self, cur: &Cursor<'_>, i: usize) -> Result<u32> {
        let elem_size = match self.typ {
            TYPE_SHORT => 2,
            TYPE_LONG => 4,
            t => return Err(TiffError::Unsupported(format!("tag value type {t}"))),
        };
        if i >= self.count as usize {
            return Err(TiffError::Malformed(format!(
                "tag element {i} out of count {}",
                self.count
            )));
        }
        let inline = elem_size * self.count as usize <= 4;
        let base = if inline { self.value_pos } else { cur.u32_at(self.value_pos)? as usize };
        let pos = base + i * elem_size;
        match self.typ {
            TYPE_SHORT => cur.u16_at(pos).map(u32::from),
            _ => cur.u32_at(pos),
        }
    }

    fn scalar(&self, cur: &Cursor<'_>) -> Result<u32> {
        self.element(cur, 0)
    }
}

impl TiffImage {
    /// Decode the first page of a baseline grayscale TIFF (either byte
    /// order). Later pages, if any, are never visited.
    ///
    /// Decoding walks **all** strips of the image — the whole-image cost
    /// the paper's loading analysis depends on — and converts samples to
    /// native byte order.
    pub fn decode(bytes: &[u8]) -> Result<TiffImage> {
        Page::first(bytes)?.decode()
    }
}

/// Validate magic and return (endian, first IFD offset).
fn parse_header(bytes: &[u8]) -> Result<(Endian, usize)> {
    let endian = match bytes.get(0..2) {
        Some(b"II") => Endian::Little,
        Some(b"MM") => Endian::Big,
        Some(_) => return Err(TiffError::BadMagic),
        None => return Err(TiffError::Truncated { context: "header" }),
    };
    if bytes.len() < 8 {
        return Err(TiffError::Truncated { context: "header" });
    }
    let cur = Cursor { data: bytes, endian };
    if cur.u16_at(2)? != 42 {
        return Err(TiffError::BadMagic);
    }
    Ok((endian, cur.u32_at(4)? as usize))
}

/// One page of a TIFF file: its IFD parsed and validated, its samples not
/// yet touched. A caller that must refuse a wrong-sized image can do so from
/// [`Page::width`] / [`Page::height`] before paying for the decode.
pub struct Page<'a> {
    cur: Cursor<'a>,
    width: u32,
    height: u32,
    kind: PixelKind,
    offsets: RawEntry,
    counts: RawEntry,
}

impl<'a> Page<'a> {
    /// Parse the first page's IFD.
    pub fn first(bytes: &'a [u8]) -> Result<Page<'a>> {
        let (endian, ifd) = parse_header(bytes)?;
        Page::at(Cursor { data: bytes, endian }, ifd)
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Sample kind.
    pub fn kind(&self) -> PixelKind {
        self.kind
    }

    /// Parse and validate the IFD at `ifd`: the one place a page's tags are
    /// read.
    fn at(cur: Cursor<'a>, ifd: usize) -> Result<Page<'a>> {
        let n_entries = cur.u16_at(ifd)? as usize;
        if n_entries == 0 {
            return Err(TiffError::Malformed("empty IFD".into()));
        }

        let find = |tag_wanted: u16| -> Result<Option<RawEntry>> {
            for i in 0..n_entries {
                let pos = ifd + 2 + i * 12;
                if cur.u16_at(pos)? == tag_wanted {
                    return Ok(Some(RawEntry {
                        typ: cur.u16_at(pos + 2)?,
                        count: cur.u32_at(pos + 4)?,
                        value_pos: pos + 8,
                    }));
                }
            }
            Ok(None)
        };
        let required = |tag: u16, name: &str| -> Result<RawEntry> {
            find(tag)?.ok_or_else(|| TiffError::Malformed(format!("missing tag {name}")))
        };

        let width = required(TAG_IMAGE_WIDTH, "ImageWidth")?.scalar(&cur)?;
        let height = required(TAG_IMAGE_LENGTH, "ImageLength")?.scalar(&cur)?;
        if width == 0 || height == 0 {
            return Err(TiffError::Malformed("zero image dimension".into()));
        }

        if let Some(e) = find(TAG_COMPRESSION)? {
            let c = e.scalar(&cur)?;
            if c != 1 {
                return Err(TiffError::Unsupported(format!("compression {c}")));
            }
        }
        if let Some(e) = find(TAG_SAMPLES_PER_PIXEL)? {
            let spp = e.scalar(&cur)?;
            if spp != 1 {
                return Err(TiffError::Unsupported(format!("{spp} samples per pixel")));
            }
        }
        if let Some(e) = find(TAG_PHOTOMETRIC)? {
            let p = e.scalar(&cur)?;
            if p > 1 {
                return Err(TiffError::Unsupported(format!("photometric interpretation {p}")));
            }
        }
        let bits = match find(TAG_BITS_PER_SAMPLE)? {
            Some(e) => e.scalar(&cur)?,
            None => 1, // TIFF default is bilevel; we reject it below.
        };
        let format = match find(TAG_SAMPLE_FORMAT)? {
            Some(e) => e.scalar(&cur)?,
            None => 1,
        };
        let kind = match (bits, format) {
            (8, 1) => PixelKind::U8,
            (16, 1) => PixelKind::U16,
            (32, 1) => PixelKind::U32,
            (32, 3) => PixelKind::F32,
            (b, f) => {
                return Err(TiffError::Unsupported(format!(
                    "{b} bits/sample with sample format {f}"
                )))
            }
        };
        // Uncompressed strips hold their samples byte for byte, so dimensions
        // needing more bytes than the file has are not backed by it. Refused
        // here, before any buffer is sized from them.
        let pixels = width as usize * height as usize;
        if pixels.checked_mul(kind.sample_bytes()).is_none_or(|b| b > cur.data.len()) {
            return Err(TiffError::Truncated { context: "pixel data" });
        }

        let offsets = required(TAG_STRIP_OFFSETS, "StripOffsets")?;
        let counts = required(TAG_STRIP_BYTE_COUNTS, "StripByteCounts")?;
        if offsets.count != counts.count {
            return Err(TiffError::Malformed(format!(
                "{} strip offsets but {} byte counts",
                offsets.count, counts.count
            )));
        }
        if find(TAG_ROWS_PER_STRIP)?.map(|e| e.scalar(&cur)).transpose()? == Some(0) {
            return Err(TiffError::Malformed("RowsPerStrip is zero".into()));
        }
        // The IFD ends in the next page's offset. Later pages are never
        // read, but an IFD cut short is a truncated file.
        cur.u32_at(ifd + 2 + n_entries * 12)?;
        Ok(Page { cur, width, height, kind, offsets, counts })
    }

    fn pixels(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The one strip walker. Every strip of the page is bounds-checked, in
    /// file order — also the strips past the image's last row. `sink` gets
    /// each strip's bytes, whole samples only, clipped to what the
    /// dimensions still need.
    fn for_each_strip(&self, mut sink: impl FnMut(&[u8])) -> Result<()> {
        let sample = self.kind.sample_bytes();
        let expected_bytes = self.pixels() * sample;
        let mut missing = expected_bytes;
        for s in 0..self.offsets.count as usize {
            let off = self.offsets.element(&self.cur, s)? as usize;
            let len = self.counts.element(&self.cur, s)? as usize;
            let strip = self
                .cur
                .data
                .get(off..off + len)
                .ok_or(TiffError::Truncated { context: "strip data" })?;
            let take = strip.len().min(missing);
            if take % sample != 0 {
                return Err(TiffError::Malformed(format!("strip {s} ends inside a sample")));
            }
            sink(&strip[..take]);
            missing -= take;
        }
        if missing > 0 {
            return Err(TiffError::Malformed(format!(
                "strips supply {} bytes, dimensions imply {expected_bytes}",
                expected_bytes - missing
            )));
        }
        Ok(())
    }

    /// Walk the strips once and store every sample in `out` (one slot per
    /// pixel): `W` file bytes → `le` or `be`, chosen once for the page.
    fn samples_into<const W: usize, T>(
        &self,
        out: &mut [T],
        le: impl Fn([u8; W]) -> T,
        be: impl Fn([u8; W]) -> T,
    ) -> Result<()> {
        debug_assert_eq!((W, out.len()), (self.kind.sample_bytes(), self.pixels()));
        let mut rest = out;
        match self.cur.endian {
            Endian::Little => self.for_each_strip(|b| convert(b, &mut rest, &le)),
            Endian::Big => self.for_each_strip(|b| convert(b, &mut rest, &be)),
        }
    }

    /// Decode this page: all strips, samples converted to native byte order.
    pub fn decode(&self) -> Result<TiffImage> {
        let n = self.pixels();
        macro_rules! native {
            ($t:ty, $variant:ident) => {{
                let mut v = vec![<$t>::default(); n];
                self.samples_into(&mut v, <$t>::from_le_bytes, <$t>::from_be_bytes)?;
                PixelData::$variant(v)
            }};
        }
        let data = match self.kind {
            PixelKind::U8 => native!(u8, U8),
            PixelKind::U16 => native!(u16, U16),
            PixelKind::U32 => native!(u32, U32),
            PixelKind::F32 => native!(f32, F32),
        };
        TiffImage::new(self.width, self.height, data)
    }

    /// Decode this page's 16-bit samples into `out`, in native byte order:
    /// every strip walked and bounds-checked as [`Page::decode`] does, and
    /// no conversion — from a little-endian file on a little-endian host the
    /// samples are a byte copy. `out` must hold exactly `width × height`
    /// samples ([`TiffError::DimensionMismatch`] otherwise), and a page of
    /// any other sample kind is [`TiffError::Unsupported`]; either refusal
    /// writes nothing. [`crate::extend_normalized_u16`] widens the samples.
    pub fn decode_u16_into(&self, out: &mut [u16]) -> Result<()> {
        if self.kind != PixelKind::U16 {
            return Err(TiffError::Unsupported(format!(
                "{:?} samples where 16-bit ones are wanted",
                self.kind
            )));
        }
        if out.len() != self.pixels() {
            return Err(TiffError::DimensionMismatch { expected: self.pixels(), got: out.len() });
        }
        self.samples_into(out, u16::from_le_bytes, u16::from_be_bytes)
    }
}

/// Convert the whole `W`-byte samples of `src` through `f` into the front of
/// `*dst`, and advance `*dst` past them.
fn convert<const W: usize, T>(src: &[u8], dst: &mut &mut [T], f: impl Fn([u8; W]) -> T) {
    let (head, tail) = std::mem::take(dst).split_at_mut(src.len() / W);
    for (o, c) in head.iter_mut().zip(src.chunks_exact(W)) {
        *o = f(c.try_into().expect("chunks_exact yields W bytes"));
    }
    *dst = tail;
}
