//! Entropy-coded bit I/O with JPEG byte stuffing.

use crate::error::{ImageError, Result};

/// MSB-first bit writer that stuffs a `0x00` after every `0xFF` data byte,
/// as the JPEG entropy-coded segment requires.
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    /// Start writing into an existing buffer (headers already emitted).
    pub fn new(out: Vec<u8>) -> Self {
        BitWriter { out, acc: 0, nbits: 0 }
    }

    /// Append the `len` low bits of `value`, MSB first.
    #[inline(always)]
    pub fn put(&mut self, value: u32, len: u8) {
        debug_assert!(len <= 24, "put supports at most 24 bits at a time");
        debug_assert!(len as u32 == 32 || value >> len == 0, "value wider than len");
        self.acc = (self.acc << len) | value;
        self.nbits += len as u32;
        while self.nbits >= 8 {
            self.nbits -= 8;
            let byte = (self.acc >> self.nbits) as u8;
            self.out.push(byte);
            if byte == 0xFF {
                self.out.push(0x00);
            }
        }
        self.acc &= (1 << self.nbits) - 1;
    }

    /// Pad the final partial byte with 1-bits (per T.81) and return the
    /// buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits as u8;
            self.put((1u32 << pad) - 1, pad);
        }
        self.out
    }
}

/// MSB-first bit reader over an entropy-coded segment, removing byte
/// stuffing and stopping at any marker.
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read starting at `pos` within `data` (just after an SOS header).
    pub fn new(data: &'a [u8], pos: usize) -> Self {
        BitReader { data, pos, acc: 0, nbits: 0 }
    }

    fn refill(&mut self) -> Result<()> {
        let &b = self
            .data
            .get(self.pos)
            .ok_or_else(|| ImageError::Malformed("entropy data ran out".into()))?;
        if b == 0xFF {
            match self.data.get(self.pos + 1) {
                Some(0x00) => {
                    self.pos += 2; // stuffed FF
                }
                _ => {
                    return Err(ImageError::Malformed(
                        "marker encountered inside entropy data".into(),
                    ))
                }
            }
        } else {
            self.pos += 1;
        }
        self.acc = (self.acc << 8) | b as u32;
        self.nbits += 8;
        Ok(())
    }

    /// Read one bit.
    pub fn bit(&mut self) -> Result<u32> {
        if self.nbits == 0 {
            self.refill()?;
        }
        self.nbits -= 1;
        Ok((self.acc >> self.nbits) & 1)
    }

    /// Read `len` bits MSB-first.
    pub fn bits(&mut self, len: u8) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..len {
            v = (v << 1) | self.bit()?;
        }
        Ok(v)
    }

    /// Decode the JPEG `EXTEND` of a `len`-bit magnitude into a signed value.
    pub fn receive_extend(&mut self, len: u8) -> Result<i32> {
        if len == 0 {
            return Ok(0);
        }
        let v = self.bits(len)? as i32;
        Ok(if v < (1 << (len - 1)) { v - (1 << len) + 1 } else { v })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = BitWriter::new(Vec::new());
        w.put(0b101, 3);
        w.put(0b0011, 4);
        w.put(0xABCD, 16);
        w.put(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes, 0);
        assert_eq!(r.bits(3).unwrap(), 0b101);
        assert_eq!(r.bits(4).unwrap(), 0b0011);
        assert_eq!(r.bits(16).unwrap(), 0xABCD);
        assert_eq!(r.bit().unwrap(), 1);
    }

    #[test]
    fn ff_bytes_are_stuffed_and_unstuffed() {
        let mut w = BitWriter::new(Vec::new());
        w.put(0xFF, 8);
        w.put(0xFF, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xFF, 0x00, 0xFF, 0x00]);
        let mut r = BitReader::new(&bytes, 0);
        assert_eq!(r.bits(8).unwrap(), 0xFF);
        assert_eq!(r.bits(8).unwrap(), 0xFF);
    }

    #[test]
    fn padding_fills_with_ones() {
        let mut w = BitWriter::new(Vec::new());
        w.put(0, 1);
        assert_eq!(w.finish(), vec![0b0111_1111]);
    }

    #[test]
    fn reader_stops_at_markers() {
        let data = [0x12, 0xFF, 0xD9]; // EOI after one byte
        let mut r = BitReader::new(&data, 0);
        assert_eq!(r.bits(8).unwrap(), 0x12);
        assert!(r.bit().is_err());
    }

    #[test]
    fn receive_extend_signs() {
        // Category 3: raw 0..3 map to -7..-4, raw 4..7 map to 4..7.
        let mut w = BitWriter::new(Vec::new());
        w.put(0b000, 3);
        w.put(0b111, 3);
        w.put(0b100, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes, 0);
        assert_eq!(r.receive_extend(3).unwrap(), -7);
        assert_eq!(r.receive_extend(3).unwrap(), 7);
        assert_eq!(r.receive_extend(3).unwrap(), 4);
        // Category 0 consumes nothing.
        assert_eq!(r.receive_extend(0).unwrap(), 0);
    }
}
