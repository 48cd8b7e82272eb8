//! Baseline TIFF encoding.

use crate::error::Result;
use crate::image::{Endian, TiffImage};

// Tag ids (TIFF 6.0 baseline).
pub(crate) const TAG_IMAGE_WIDTH: u16 = 256;
pub(crate) const TAG_IMAGE_LENGTH: u16 = 257;
pub(crate) const TAG_BITS_PER_SAMPLE: u16 = 258;
pub(crate) const TAG_COMPRESSION: u16 = 259;
pub(crate) const TAG_PHOTOMETRIC: u16 = 262;
pub(crate) const TAG_STRIP_OFFSETS: u16 = 273;
pub(crate) const TAG_SAMPLES_PER_PIXEL: u16 = 277;
pub(crate) const TAG_ROWS_PER_STRIP: u16 = 278;
pub(crate) const TAG_STRIP_BYTE_COUNTS: u16 = 279;
pub(crate) const TAG_SAMPLE_FORMAT: u16 = 339;

pub(crate) const TYPE_SHORT: u16 = 3;
pub(crate) const TYPE_LONG: u16 = 4;

/// Target strip payload size; TIFF 6.0 recommends ~8 KiB strips, modern
/// writers use larger. 64 KiB keeps multi-strip behaviour exercised on
/// realistically sized slices.
const STRIP_TARGET_BYTES: usize = 64 * 1024;

struct Out {
    buf: Vec<u8>,
    endian: Endian,
}

impl Out {
    fn u16(&mut self, v: u16) {
        match self.endian {
            Endian::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
            Endian::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
        }
    }
    fn u32(&mut self, v: u32) {
        match self.endian {
            Endian::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
            Endian::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
        }
    }
}

struct Entry {
    tag: u16,
    typ: u16,
    count: u32,
    /// Either an inline value or an offset patched later.
    value: u32,
}

impl TiffImage {
    /// Encode as a single-page baseline TIFF in the requested byte order,
    /// uncompressed: header, strips, IFD, out-of-line strip tables.
    pub fn encode(&self, endian: Endian) -> Result<Vec<u8>> {
        let mut out = Out { buf: Vec::with_capacity(self.data.len() * 4 + 256), endian };
        match endian {
            Endian::Little => out.buf.extend_from_slice(b"II"),
            Endian::Big => out.buf.extend_from_slice(b"MM"),
        }
        out.u16(42);
        out.u32(0); // first IFD offset; patched once the strips are placed

        let rows_per_strip =
            (STRIP_TARGET_BYTES / self.row_bytes().max(1)).clamp(1, self.height.max(1) as usize);
        let n_strips = (self.height as usize).div_ceil(rows_per_strip).max(1);

        let pixel_bytes = self.data.to_bytes(out.endian);
        let strip_bytes = rows_per_strip * self.row_bytes();

        // Strips.
        let mut strip_offsets = Vec::with_capacity(n_strips);
        let mut strip_counts = Vec::with_capacity(n_strips);
        for s in 0..n_strips {
            let start = s * strip_bytes;
            let end = ((s + 1) * strip_bytes).min(pixel_bytes.len());
            strip_offsets.push(out.buf.len() as u32);
            strip_counts.push((end - start) as u32);
            out.buf.extend_from_slice(&pixel_bytes[start..end]);
        }

        // IFD position must be word-aligned.
        if out.buf.len() % 2 == 1 {
            out.buf.push(0);
        }
        let ifd_offset = out.buf.len() as u32;
        let ptr = match endian {
            Endian::Little => ifd_offset.to_le_bytes(),
            Endian::Big => ifd_offset.to_be_bytes(),
        };
        out.buf[4..8].copy_from_slice(&ptr);

        let strips_inline = n_strips == 1;
        let entries = vec![
            Entry { tag: TAG_IMAGE_WIDTH, typ: TYPE_LONG, count: 1, value: self.width },
            Entry { tag: TAG_IMAGE_LENGTH, typ: TYPE_LONG, count: 1, value: self.height },
            Entry {
                tag: TAG_BITS_PER_SAMPLE,
                typ: TYPE_SHORT,
                count: 1,
                value: self.kind().bits() as u32,
            },
            Entry { tag: TAG_COMPRESSION, typ: TYPE_SHORT, count: 1, value: 1 },
            Entry { tag: TAG_PHOTOMETRIC, typ: TYPE_SHORT, count: 1, value: 1 },
            Entry {
                tag: TAG_STRIP_OFFSETS,
                typ: TYPE_LONG,
                count: n_strips as u32,
                value: if strips_inline { strip_offsets[0] } else { 0 },
            },
            Entry { tag: TAG_SAMPLES_PER_PIXEL, typ: TYPE_SHORT, count: 1, value: 1 },
            Entry {
                tag: TAG_ROWS_PER_STRIP,
                typ: TYPE_LONG,
                count: 1,
                value: rows_per_strip as u32,
            },
            Entry {
                tag: TAG_STRIP_BYTE_COUNTS,
                typ: TYPE_LONG,
                count: n_strips as u32,
                value: if strips_inline { strip_counts[0] } else { 0 },
            },
            Entry {
                tag: TAG_SAMPLE_FORMAT,
                typ: TYPE_SHORT,
                count: 1,
                value: self.kind().sample_format() as u32,
            },
        ];

        // IFD: entry count, 12 bytes per entry, next-IFD pointer (0).
        out.u16(entries.len() as u16);
        // Out-of-line arrays land right after the IFD.
        let after_ifd = ifd_offset as usize + 2 + entries.len() * 12 + 4;
        let offsets_table_pos = after_ifd as u32;
        let counts_table_pos = offsets_table_pos + 4 * n_strips as u32;
        for e in &entries {
            out.u16(e.tag);
            out.u16(e.typ);
            out.u32(e.count);
            let v = match e.tag {
                TAG_STRIP_OFFSETS if !strips_inline => offsets_table_pos,
                TAG_STRIP_BYTE_COUNTS if !strips_inline => counts_table_pos,
                _ => e.value,
            };
            // SHORT values sit in the upper/lower half of the 4-byte field
            // depending on endianness; writing as two u16s handles both.
            if e.typ == TYPE_SHORT && e.count == 1 {
                out.u16(v as u16);
                out.u16(0);
            } else {
                out.u32(v);
            }
        }
        out.u32(0); // no next IFD

        if !strips_inline {
            for &o in &strip_offsets {
                out.u32(o);
            }
            for &c in &strip_counts {
                out.u32(c);
            }
        }

        Ok(out.buf)
    }
}
