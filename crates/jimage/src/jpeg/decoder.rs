//! Baseline sequential JPEG decoder.

use super::bits::BitReader;
use super::dct::idct_8x8;
use super::tables::ZIGZAG;
use crate::error::{ImageError, Result};
use crate::rgb::RgbImage;

/// Huffman decoding table in the canonical mincode/maxcode/valptr form.
struct HuffDecoder {
    mincode: [i32; 17],
    maxcode: [i32; 17],
    valptr: [usize; 17],
    values: Vec<u8>,
}

impl HuffDecoder {
    fn new(bits: &[u8; 16], values: Vec<u8>) -> Self {
        let mut mincode = [0i32; 17];
        let mut maxcode = [-1i32; 17];
        let mut valptr = [0usize; 17];
        let mut code = 0i32;
        let mut k = 0usize;
        for len in 1..=16usize {
            let n = bits[len - 1] as usize;
            if n > 0 {
                valptr[len] = k;
                mincode[len] = code;
                code += n as i32;
                maxcode[len] = code - 1;
                k += n;
            }
            code <<= 1;
        }
        HuffDecoder { mincode, maxcode, valptr, values }
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u8> {
        let mut code = 0i32;
        for len in 1..=16usize {
            code = (code << 1) | r.bit()? as i32;
            if self.maxcode[len] >= 0 && code <= self.maxcode[len] && code >= self.mincode[len] {
                let idx = self.valptr[len] + (code - self.mincode[len]) as usize;
                return self
                    .values
                    .get(idx)
                    .copied()
                    .ok_or_else(|| ImageError::Malformed("huffman value index".into()));
            }
        }
        Err(ImageError::Malformed("invalid huffman code (>16 bits)".into()))
    }
}

#[derive(Clone, Copy)]
struct Component {
    id: u8,
    h: usize,
    v: usize,
    tq: usize,
    dc_table: usize,
    ac_table: usize,
}

/// Parsed decoder state.
struct Decoder {
    width: usize,
    height: usize,
    comps: Vec<Component>,
    quant: [Option<[u16; 64]>; 4],
    dc: [Option<HuffDecoder>; 4],
    ac: [Option<HuffDecoder>; 4],
    restart_interval: usize,
}

fn be16(data: &[u8], pos: usize) -> Result<usize> {
    data.get(pos..pos + 2)
        .map(|b| ((b[0] as usize) << 8) | b[1] as usize)
        .ok_or_else(|| ImageError::Malformed("truncated segment".into()))
}

/// Payload of a marker segment whose 2-byte length field sits at `pos`.
fn segment(data: &[u8], pos: usize, len: usize) -> Result<&[u8]> {
    if len < 2 {
        return Err(ImageError::Malformed("segment length < 2".into()));
    }
    data.get(pos + 2..pos + len)
        .ok_or_else(|| ImageError::Malformed("truncated segment payload".into()))
}

/// Decode a baseline JFIF JPEG (three-component YCbCr, sampling factors
/// 1-2). Any other component count is [`ImageError::Unsupported`].
pub fn decode(bytes: &[u8]) -> Result<RgbImage> {
    if bytes.len() < 4 || bytes[0] != 0xFF || bytes[1] != 0xD8 {
        return Err(ImageError::Malformed("missing SOI marker".into()));
    }
    let mut d = Decoder {
        width: 0,
        height: 0,
        comps: Vec::new(),
        quant: [None; 4],
        dc: [None, None, None, None],
        ac: [None, None, None, None],
        restart_interval: 0,
    };
    let mut pos = 2usize;
    loop {
        // Find the next marker.
        while bytes.get(pos) == Some(&0xFF) && bytes.get(pos + 1) == Some(&0xFF) {
            pos += 1;
        }
        let marker = match (bytes.get(pos), bytes.get(pos + 1)) {
            (Some(&0xFF), Some(&m)) => m,
            _ => return Err(ImageError::Malformed("expected marker".into())),
        };
        pos += 2;
        match marker {
            0xD9 => return Err(ImageError::Malformed("EOI before scan data".into())),
            0x01 | 0xD0..=0xD7 => continue, // standalone markers
            0xC0 => {
                let len = be16(bytes, pos)?;
                parse_sof0(&mut d, segment(bytes, pos, len)?)?;
                pos += len;
            }
            0xC1 | 0xC2 | 0xC3 | 0xC5..=0xC7 | 0xC9..=0xCB | 0xCD..=0xCF => {
                return Err(ImageError::Unsupported(format!(
                    "non-baseline SOF marker 0xFF{marker:02X}"
                )));
            }
            0xC4 => {
                let len = be16(bytes, pos)?;
                parse_dht(&mut d, segment(bytes, pos, len)?)?;
                pos += len;
            }
            0xDB => {
                let len = be16(bytes, pos)?;
                parse_dqt(&mut d, segment(bytes, pos, len)?)?;
                pos += len;
            }
            0xDD => {
                let len = be16(bytes, pos)?;
                d.restart_interval = be16(bytes, pos + 2)?;
                if d.restart_interval != 0 {
                    return Err(ImageError::Unsupported("restart intervals".into()));
                }
                pos += len;
            }
            0xDA => {
                let len = be16(bytes, pos)?;
                parse_sos(&mut d, segment(bytes, pos, len)?)?;
                return decode_scan(&d, bytes, pos + len);
            }
            _ => {
                // APPn, COM, anything else with a length: skip.
                let len = be16(bytes, pos)?;
                pos += len;
            }
        }
    }
}

fn parse_sof0(d: &mut Decoder, seg: &[u8]) -> Result<()> {
    if seg.len() < 6 {
        return Err(ImageError::Malformed("short SOF0".into()));
    }
    if seg[0] != 8 {
        return Err(ImageError::Unsupported(format!("{}-bit precision", seg[0])));
    }
    d.height = ((seg[1] as usize) << 8) | seg[2] as usize;
    d.width = ((seg[3] as usize) << 8) | seg[4] as usize;
    if d.width == 0 || d.height == 0 {
        return Err(ImageError::Malformed("zero dimension in SOF0".into()));
    }
    let n = seg[5] as usize;
    if n != 3 {
        return Err(ImageError::Unsupported(format!("{n}-component scan")));
    }
    if seg.len() < 6 + 3 * n {
        return Err(ImageError::Malformed("short SOF0 component list".into()));
    }
    d.comps = (0..n)
        .map(|i| {
            let b = &seg[6 + 3 * i..9 + 3 * i];
            Component {
                id: b[0],
                h: (b[1] >> 4) as usize,
                v: (b[1] & 0xF) as usize,
                tq: b[2] as usize,
                dc_table: 0,
                ac_table: 0,
            }
        })
        .collect();
    for c in &d.comps {
        if !(1..=2).contains(&c.h) || !(1..=2).contains(&c.v) || c.tq > 3 {
            return Err(ImageError::Unsupported(format!(
                "sampling {}x{} / quant table {}",
                c.h, c.v, c.tq
            )));
        }
    }
    Ok(())
}

fn parse_dqt(d: &mut Decoder, mut seg: &[u8]) -> Result<()> {
    while !seg.is_empty() {
        let pq = seg[0] >> 4;
        let tq = (seg[0] & 0xF) as usize;
        if pq != 0 {
            return Err(ImageError::Unsupported("16-bit quantization tables".into()));
        }
        if tq > 3 || seg.len() < 65 {
            return Err(ImageError::Malformed("bad DQT".into()));
        }
        let mut table = [0u16; 64];
        for (zz, &q) in seg[1..65].iter().enumerate() {
            table[ZIGZAG[zz]] = q as u16;
        }
        d.quant[tq] = Some(table);
        seg = &seg[65..];
    }
    Ok(())
}

fn parse_dht(d: &mut Decoder, mut seg: &[u8]) -> Result<()> {
    while !seg.is_empty() {
        if seg.len() < 17 {
            return Err(ImageError::Malformed("short DHT".into()));
        }
        let class = seg[0] >> 4;
        let id = (seg[0] & 0xF) as usize;
        if class > 1 || id > 3 {
            return Err(ImageError::Malformed("bad DHT class/id".into()));
        }
        let mut bits = [0u8; 16];
        bits.copy_from_slice(&seg[1..17]);
        let n: usize = bits.iter().map(|&b| b as usize).sum();
        if seg.len() < 17 + n {
            return Err(ImageError::Malformed("short DHT values".into()));
        }
        let values = seg[17..17 + n].to_vec();
        let table = HuffDecoder::new(&bits, values);
        if class == 0 {
            d.dc[id] = Some(table);
        } else {
            d.ac[id] = Some(table);
        }
        seg = &seg[17 + n..];
    }
    Ok(())
}

fn parse_sos(d: &mut Decoder, seg: &[u8]) -> Result<()> {
    if seg.is_empty() || seg[0] as usize != d.comps.len() {
        return Err(ImageError::Malformed("SOS component count mismatch".into()));
    }
    let n = seg[0] as usize;
    if seg.len() < 1 + 2 * n + 3 {
        return Err(ImageError::Malformed("short SOS".into()));
    }
    for i in 0..n {
        let cid = seg[1 + 2 * i];
        let tables = seg[2 + 2 * i];
        let comp = d
            .comps
            .iter_mut()
            .find(|c| c.id == cid)
            .ok_or_else(|| ImageError::Malformed(format!("SOS references component {cid}")))?;
        comp.dc_table = (tables >> 4) as usize;
        comp.ac_table = (tables & 0xF) as usize;
    }
    Ok(())
}

fn decode_scan(d: &Decoder, bytes: &[u8], pos: usize) -> Result<RgbImage> {
    let hmax = d.comps.iter().map(|c| c.h).max().expect("components parsed");
    let vmax = d.comps.iter().map(|c| c.v).max().expect("components parsed");
    let mcux = d.width.div_ceil(8 * hmax);
    let mcuy = d.height.div_ceil(8 * vmax);

    // Per-component pixel planes at their native (subsampled) resolution.
    let mut planes: Vec<Vec<u8>> =
        d.comps.iter().map(|c| vec![0u8; (mcux * c.h * 8) * (mcuy * c.v * 8)]).collect();
    let mut dc_pred = vec![0i32; d.comps.len()];
    let mut r = BitReader::new(bytes, pos);

    for my in 0..mcuy {
        for mx in 0..mcux {
            for (ci, comp) in d.comps.iter().enumerate() {
                let quant = d.quant[comp.tq]
                    .as_ref()
                    .ok_or_else(|| ImageError::Malformed("missing quant table".into()))?;
                let dc_tab = d.dc[comp.dc_table]
                    .as_ref()
                    .ok_or_else(|| ImageError::Malformed("missing DC table".into()))?;
                let ac_tab = d.ac[comp.ac_table]
                    .as_ref()
                    .ok_or_else(|| ImageError::Malformed("missing AC table".into()))?;
                for bv in 0..comp.v {
                    for bh in 0..comp.h {
                        let block = decode_block(&mut r, dc_tab, ac_tab, quant, &mut dc_pred[ci])?;
                        // Deposit into the component plane.
                        let plane_w = mcux * comp.h * 8;
                        let px = (mx * comp.h + bh) * 8;
                        let py = (my * comp.v + bv) * 8;
                        let plane = &mut planes[ci];
                        for y in 0..8 {
                            for x in 0..8 {
                                plane[(py + y) * plane_w + px + x] = block[y * 8 + x];
                            }
                        }
                    }
                }
            }
        }
    }

    // Upsample to full padded resolution and convert to RGB.
    let mut out = vec![0u8; 3 * d.width * d.height];
    let sample = |ci: usize, x: usize, y: usize| -> f32 {
        let c = &d.comps[ci];
        let plane_w = mcux * c.h * 8;
        let sx = x * c.h / hmax;
        let sy = y * c.v / vmax;
        planes[ci][sy * plane_w + sx] as f32
    };
    for y in 0..d.height {
        for x in 0..d.width {
            let yv = sample(0, x, y);
            let cb = sample(1, x, y) - 128.0;
            let cr = sample(2, x, y) - 128.0;
            let r8 = yv + 1.402 * cr;
            let g8 = yv - 0.344_136 * cb - 0.714_136 * cr;
            let b8 = yv + 1.772 * cb;
            let i = 3 * (y * d.width + x);
            out[i] = r8.round().clamp(0.0, 255.0) as u8;
            out[i + 1] = g8.round().clamp(0.0, 255.0) as u8;
            out[i + 2] = b8.round().clamp(0.0, 255.0) as u8;
        }
    }
    RgbImage::new(d.width, d.height, out)
}

fn decode_block(
    r: &mut BitReader<'_>,
    dc_tab: &HuffDecoder,
    ac_tab: &HuffDecoder,
    quant: &[u16; 64],
    dc_pred: &mut i32,
) -> Result<[u8; 64]> {
    let mut coef = [0f32; 64];
    // DC.
    let cat = dc_tab.decode(r)?;
    if cat > 11 {
        return Err(ImageError::Malformed(format!("DC category {cat}")));
    }
    let diff = r.receive_extend(cat)?;
    *dc_pred += diff;
    coef[0] = (*dc_pred * quant[0] as i32) as f32;
    // AC.
    let mut k = 1usize;
    while k < 64 {
        let rs = ac_tab.decode(r)?;
        let run = (rs >> 4) as usize;
        let size = rs & 0xF;
        if size == 0 {
            if run == 15 {
                k += 16; // ZRL
                continue;
            }
            break; // EOB
        }
        k += run;
        if k >= 64 {
            return Err(ImageError::Malformed("AC run past end of block".into()));
        }
        let v = r.receive_extend(size)?;
        let nat = ZIGZAG[k];
        coef[nat] = (v * quant[nat] as i32) as f32;
        k += 1;
    }
    idct_8x8(&mut coef);
    let mut out = [0u8; 64];
    for (o, &c) in out.iter_mut().zip(coef.iter()) {
        *o = (c + 128.0).round().clamp(0.0, 255.0) as u8;
    }
    Ok(out)
}
