//! Baseline sequential JPEG encoder.

use super::bits::BitWriter;
use super::dct::fdct_8x8;
use super::tables::{
    build_codes, scale_quant_table, HuffSpec, AC_CHROMA, AC_LUMA, BASE_CHROMA_QUANT,
    BASE_LUMA_QUANT, DC_CHROMA, DC_LUMA, ZIGZAG,
};
use super::Subsampling;
use crate::error::{ImageError, Result};
use crate::rgb::RgbImage;
use crate::trunc_clamped;

/// Rows of one padded component plane, level-shifted to be centered on
/// zero: one MCU row of it, `data.len() / w` rows of `w` values.
struct Band {
    w: usize,
    data: Vec<f32>,
}

impl Band {
    fn new(w: usize, rows: usize) -> Self {
        Band { w, data: vec![0f32; w * rows] }
    }

    fn rows(&self) -> usize {
        self.data.len() / self.w
    }

    #[inline(always)]
    fn block(&self, bx: usize, by: usize) -> [f32; 64] {
        let mut out = [0f32; 64];
        for y in 0..8 {
            let row = (by * 8 + y) * self.w + bx * 8;
            out[y * 8..y * 8 + 8].copy_from_slice(&self.data[row..row + 8]);
        }
        out
    }
}

/// Fill the Y, Cb and Cr bands of one MCU row: band row `j` comes from
/// source row `y0 + j`, or from row `h − 1` where that lies below the image.
/// [`ycbcr_row`] converts a source row of `w` pixels (`src` holds `h` rows)
/// into the first `w` values of each band's row; the rest of the row repeats
/// its last value.
#[inline(always)]
fn fill_bands(bands: &mut [Band; 3], src: &[u8], (w, h): (usize, usize), y0: usize) {
    let stride = src.len() / h;
    let w1 = bands[0].w;
    for j in 0..bands[0].rows() {
        let sy = (y0 + j).min(h - 1);
        let mut out = bands.each_mut().map(|b| &mut b.data[j * w1..(j + 1) * w1]);
        ycbcr_row(&src[sy * stride..(sy + 1) * stride], out.each_mut().map(|row| &mut row[..w]));
        for row in out {
            let edge = row[w - 1];
            row[w..].fill(edge);
        }
    }
}

/// JFIF's RGB → YCbCr, Y level-shifted, over one row of pixels.
#[inline(always)]
fn ycbcr_row(src: &[u8], [y, cb, cr]: [&mut [f32]; 3]) {
    let px = src.chunks_exact(3).zip(y.iter_mut().zip(cb.iter_mut()).zip(cr.iter_mut()));
    for (p, ((y, cb), cr)) in px {
        let (r, g, b) = (p[0] as f32, p[1] as f32, p[2] as f32);
        *y = 0.299 * r + 0.587 * g + 0.114 * b - 128.0;
        *cb = -0.168_736 * r - 0.331_264 * g + 0.5 * b;
        *cr = 0.5 * r - 0.418_688 * g - 0.081_312 * b;
    }
}

/// 2×2 box filter of a 4:2:0 chroma band, summed `0 + a0 + a1 + b0 + b1`.
#[inline(always)]
fn downsample(src: &Band, out: &mut Band) {
    let (w1, cw) = (src.w, out.w);
    for (out, pair) in out.data.chunks_exact_mut(cw).zip(src.data.chunks_exact(2 * w1)) {
        let (a, b) = pair.split_at(w1);
        for ((o, a), b) in out.iter_mut().zip(a.chunks_exact(2)).zip(b.chunks_exact(2)) {
            *o = (0.0 + a[0] + a[1] + b[0] + b[1]) / 4.0;
        }
    }
}

/// The Y, Cb and Cr bands of one MCU row of an RGB image, allocated once
/// per image and rebuilt for each MCU row. The image is padded by edge
/// replication to MCU multiples; for 4:2:0 chroma is then box-filtered down.
///
/// Each source row's pixels are zipped with the three band rows, and the
/// 4:2:0 box filter runs over row pairs, keeping the `0 + a0 + a1 + b0 + b1`
/// summation order. Measured on a 2-core x86-64 Xeon guest, together with
/// the quantiser's [`round_half_away`] (which replaced a `roundf` call per
/// coefficient), `jpeg/encode_512x512_q/75` went from 4.8–7.9 ms (one
/// bounds-asserted `img.get` per padded pixel) to 3.1–4.6 ms, and a traced
/// `lbm_frames` run's `jimage.encode_ms` from 1.8–2.0 to 1.0–1.1 ms, with
/// whole-frame planes (≈ 900 KiB per 256² frame, 81 minor faults per call).
/// The bands (56 KiB at 256 wide, no faults) and the lane-parallel
/// [`fdct_8x8`] took `jimage.encode_ms` from 1.09–1.23 to 0.98–1.04 ms (3
/// alternating pairs). The AVX2 build of [`encode_with`] took it from
/// 0.87–1.02 to 0.71–0.80 ms (6 runs each, alternating); it reaches the
/// work only because the plane build, the block fetch, the DCT, the
/// quantiser and the bit writer are all `#[inline(always)]` into it.
struct McuRow {
    full: [Band; 3],
    /// The 4:2:0 chroma bands: half as wide, 8 rows.
    half: Option<[Band; 2]>,
}

impl McuRow {
    fn new(w1: usize, sub: Subsampling) -> Self {
        let (rows, half) = match sub {
            Subsampling::S444 => (8, None),
            Subsampling::S420 => (16, Some(std::array::from_fn(|_| Band::new(w1 / 2, 8)))),
        };
        McuRow { full: std::array::from_fn(|_| Band::new(w1, rows)), half }
    }

    /// Build MCU row `my` of `img` and return its Y, Cb and Cr bands.
    #[inline(always)]
    fn build(&mut self, img: &RgbImage, my: usize) -> [&Band; 3] {
        let y0 = my * self.full[0].rows();
        fill_bands(&mut self.full, &img.data, (img.width, img.height), y0);
        let [y, cb, cr] = &self.full;
        match &mut self.half {
            None => [y, cb, cr],
            Some([half_cb, half_cr]) => {
                downsample(cb, half_cb);
                downsample(cr, half_cr);
                [y, half_cb, half_cr]
            }
        }
    }
}

/// Check the dimensions a baseline frame header can carry, then the buffer
/// length they imply at 3 bytes per pixel.
fn check_frame(img: &RgbImage) -> Result<()> {
    let (width, height) = (img.width, img.height);
    let max = u16::MAX as usize;
    if width == 0 || height == 0 || width > max || height > max {
        return Err(ImageError::Unsupported(format!(
            "JPEG dimensions must be 1..={max}, got {width}x{height}"
        )));
    }
    let expected = 3 * width * height;
    if img.data.len() != expected {
        return Err(ImageError::DimensionMismatch { expected, got: img.data.len() });
    }
    Ok(())
}

/// `r.round() as i32`, bit for bit, without the `roundf` call: `|r| + 0.5`
/// is exact in `f64` whenever the sum reaches 1, the sign is restored, and
/// [`trunc_clamped`] truncates toward zero and saturates as the cast did.
/// The quantiser's 64 calls per block then run as vector lanes: on two
/// colormapped 256² vorticity tiles (direct calls, 2-core x86-64 Xeon
/// guest), [`encode_with`]'s AVX2 build takes 0.28–0.31 ms against 0.40–0.42
/// ms with the saturating cast, and its baseline build 0.50–0.53 against
/// 0.57–0.61 ms.
#[inline(always)]
fn round_half_away(r: f32) -> i32 {
    let r = f64::from(r);
    trunc_clamped((r.abs() + 0.5).copysign(r), i32::MIN, i32::MAX)
}

/// Number of magnitude bits of `v` (JPEG "category"/SSSS).
fn category(v: i32) -> u8 {
    (32 - v.unsigned_abs().leading_zeros()) as u8
}

/// Low `cat` bits encoding `v` per the JPEG magnitude convention.
fn magnitude_bits(v: i32, cat: u8) -> u32 {
    if v >= 0 {
        v as u32
    } else {
        (v + (1 << cat) - 1) as u32
    }
}

/// One component's entropy coder, with a memo for flat blocks.
///
/// A block whose 64 samples have the same bits always quantises the same,
/// so the coder keeps the bits and DC of the last flat block whose AC
/// coefficients all quantised to zero; a flat block with those bits emits
/// that DC's difference and EOB, as the full path would, and skips
/// [`fdct_8x8`] and the quantiser. On 48 `lbm_frames`-shaped 256² tiles
/// (three barrier positions, steps 20–300), 93.8–95.1 % of the blocks are
/// flat after the band build, and the memo hits 99.8 % of them. A direct
/// call of [`encode_with`] (AVX2 build, 2-vCPU Xeon guest) on those tiles
/// went from 0.34 to 0.135 ms, and on an all-white frame from 0.27 to
/// 0.106 ms (medians of six interleaved rounds); the band build is the rest.
struct BlockEncoder {
    dc_codes: [(u16, u8); 256],
    ac_codes: [(u16, u8); 256],
    quant: [u16; 64],
    dc_pred: i32,
    /// The sample bits and quantised DC of the last flat block memoised.
    flat: Option<(u32, i32)>,
}

impl BlockEncoder {
    fn new(dc: &HuffSpec, ac: &HuffSpec, quant: [u16; 64]) -> Self {
        BlockEncoder {
            dc_codes: build_codes(&dc.bits, dc.values),
            ac_codes: build_codes(&ac.bits, ac.values),
            quant,
            dc_pred: 0,
            flat: None,
        }
    }

    #[inline(always)]
    fn encode(&mut self, mut block: [f32; 64], w: &mut BitWriter) {
        // Flat: all bits equal sample 0's. Eight lanes so the AVX2 build uses
        // `ymm` ops and one `vptest`; one fold over 64 compiled to extracts.
        let bits = block[0].to_bits();
        let mut lanes = [0u32; 8];
        for row in block.chunks_exact(8) {
            for (l, v) in lanes.iter_mut().zip(row) {
                *l |= v.to_bits() ^ bits;
            }
        }
        let flat = lanes == [0; 8];
        if let Some((_, dc)) = self.flat.filter(|&(memo, _)| flat && memo == bits) {
            self.put_dc(dc, w);
            let (code, len) = self.ac_codes[0x00]; // EOB
            w.put(code as u32, len);
            return;
        }
        fdct_8x8(&mut block);
        let mut q = [0i32; 64];
        for ((q, &f), &d) in q.iter_mut().zip(&block).zip(&self.quant) {
            *q = round_half_away(f / d as f32);
        }
        self.put_dc(q[0], w);
        // AC run-length coding over the zigzag scan.
        let mut run = 0u32;
        for &nat in &ZIGZAG[1..] {
            let v = q[nat];
            if v == 0 {
                run += 1;
                continue;
            }
            while run >= 16 {
                let (code, len) = self.ac_codes[0xF0]; // ZRL
                w.put(code as u32, len);
                run -= 16;
            }
            let cat = category(v);
            let symbol = ((run as u8) << 4) | cat;
            let (code, len) = self.ac_codes[symbol as usize];
            debug_assert!(len > 0, "missing AC code for symbol {symbol:#x}");
            w.put(code as u32, len);
            w.put(magnitude_bits(v, cat), cat);
            run = 0;
        }
        if run > 0 {
            let (code, len) = self.ac_codes[0x00]; // EOB
            w.put(code as u32, len);
        }
        if flat && run == 63 {
            self.flat = Some((bits, q[0]));
        }
    }

    /// The DC difference against the previous block's DC.
    #[inline(always)]
    fn put_dc(&mut self, dc: i32, w: &mut BitWriter) {
        let diff = dc - self.dc_pred;
        self.dc_pred = dc;
        let cat = category(diff);
        let (code, len) = self.dc_codes[cat as usize];
        w.put(code as u32, len);
        if cat > 0 {
            w.put(magnitude_bits(diff, cat), cat);
        }
    }
}

fn push_marker(out: &mut Vec<u8>, marker: u8, payload: &[u8]) {
    out.push(0xFF);
    out.push(marker);
    let len = (payload.len() + 2) as u16;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

fn dqt_payload(id: u8, quant: &[u16; 64]) -> Vec<u8> {
    let mut p = Vec::with_capacity(65);
    p.push(id); // 8-bit precision, table id
    for &nat in &ZIGZAG {
        p.push(quant[nat] as u8);
    }
    p
}

fn dht_payload(class_id: u8, spec: &HuffSpec) -> Vec<u8> {
    let mut p = Vec::with_capacity(17 + spec.values.len());
    p.push(class_id);
    p.extend_from_slice(&spec.bits);
    p.extend_from_slice(spec.values);
    p
}

/// [`encode_with`], inlined into each build.
#[inline(always)]
fn encode_with_body(img: &RgbImage, quality: u8, sub: Subsampling) -> Result<Vec<u8>> {
    check_frame(img)?;
    let lq = scale_quant_table(&BASE_LUMA_QUANT, quality);
    let cq = scale_quant_table(&BASE_CHROMA_QUANT, quality);
    let (hs, vs) = match sub {
        Subsampling::S444 => (1u8, 1u8),
        Subsampling::S420 => (2, 2),
    };

    let mut out = Vec::with_capacity(img.data.len() / 8 + 1024);
    out.extend_from_slice(&[0xFF, 0xD8]); // SOI
    push_marker(&mut out, 0xE0, &[b'J', b'F', b'I', b'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0]);
    push_marker(&mut out, 0xDB, &dqt_payload(0, &lq));
    push_marker(&mut out, 0xDB, &dqt_payload(1, &cq));
    let (w, h) = (img.width as u16, img.height as u16);
    push_marker(
        &mut out,
        0xC0, // SOF0: baseline DCT
        &[
            8,
            (h >> 8) as u8,
            h as u8,
            (w >> 8) as u8,
            w as u8,
            3,
            1,
            (hs << 4) | vs,
            0,
            2,
            0x11,
            1,
            3,
            0x11,
            1,
        ],
    );
    push_marker(&mut out, 0xC4, &dht_payload(0x00, &DC_LUMA));
    push_marker(&mut out, 0xC4, &dht_payload(0x10, &AC_LUMA));
    push_marker(&mut out, 0xC4, &dht_payload(0x01, &DC_CHROMA));
    push_marker(&mut out, 0xC4, &dht_payload(0x11, &AC_CHROMA));
    push_marker(&mut out, 0xDA, &[3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0]);

    let (hs, vs) = (hs as usize, vs as usize);
    let mcux = img.width.div_ceil(8 * hs);
    let mut bands = McuRow::new(mcux * 8 * hs, sub);
    let mut enc_y = BlockEncoder::new(&DC_LUMA, &AC_LUMA, lq);
    let mut enc_cb = BlockEncoder::new(&DC_CHROMA, &AC_CHROMA, cq);
    let mut enc_cr = BlockEncoder::new(&DC_CHROMA, &AC_CHROMA, cq);
    let mut w = BitWriter::new(out);
    for my in 0..img.height.div_ceil(8 * vs) {
        let [yb, cbb, crb] = bands.build(img, my);
        for mx in 0..mcux {
            for bv in 0..vs {
                for bh in 0..hs {
                    enc_y.encode(yb.block(mx * hs + bh, bv), &mut w);
                }
            }
            enc_cb.encode(cbb.block(mx, 0), &mut w);
            enc_cr.encode(crb.block(mx, 0), &mut w);
        }
    }
    let mut out = w.finish();
    out.extend_from_slice(&[0xFF, 0xD9]); // EOI
    Ok(out)
}

avx2_dispatch! {
    /// Encode an RGB image as a baseline JFIF JPEG at the given quality
    /// (1-100).
    pub fn encode_with(img: &RgbImage, quality: u8, sub: Subsampling) -> Result<Vec<u8>>
        = encode_with_body, encode_with_avx2;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole-frame planes as they were built before the row-slice
    /// loops: one `img.get` per padded pixel, then a per-output-pixel box
    /// filter.
    fn reference_planes(img: &RgbImage, sub: Subsampling) -> [Vec<f32>; 3] {
        let (hs, vs) = if sub == Subsampling::S444 { (1, 1) } else { (2, 2) };
        let w1 = img.width.div_ceil(8 * hs) * 8 * hs;
        let h1 = img.height.div_ceil(8 * vs) * 8 * vs;
        let mut planes = [vec![0f32; w1 * h1], vec![0f32; w1 * h1], vec![0f32; w1 * h1]];
        for yy in 0..h1 {
            for xx in 0..w1 {
                let [r, g, b] = img.get(xx.min(img.width - 1), yy.min(img.height - 1));
                let (r, g, b) = (r as f32, g as f32, b as f32);
                let i = yy * w1 + xx;
                planes[0][i] = 0.299 * r + 0.587 * g + 0.114 * b - 128.0;
                planes[1][i] = -0.168_736 * r - 0.331_264 * g + 0.5 * b;
                planes[2][i] = 0.5 * r - 0.418_688 * g - 0.081_312 * b;
            }
        }
        let (cw, ch) = (w1 / hs, h1 / vs);
        for plane in &mut planes[1..] {
            let mut out = vec![0f32; cw * ch];
            for oy in 0..ch {
                for ox in 0..cw {
                    let mut acc = 0f32;
                    for dy in 0..vs {
                        for dx in 0..hs {
                            acc += plane[(oy * vs + dy) * w1 + ox * hs + dx];
                        }
                    }
                    out[oy * cw + ox] = acc / (hs * vs) as f32;
                }
            }
            *plane = out;
        }
        planes
    }

    fn random_bytes(state: &mut u64, n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| {
                *state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (*state >> 56) as u8
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn planes_equal_the_scalar_reference_bit_for_bit() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for (w, h) in [(1, 1), (7, 3), (16, 16), (17, 33), (70, 36), (64, 9), (256, 256)] {
            let img = RgbImage::new(w, h, random_bytes(&mut state, 3 * w * h)).unwrap();
            for sub in [Subsampling::S420, Subsampling::S444] {
                let mcu = if sub == Subsampling::S444 { 8 } else { 16 };
                let mut bands = McuRow::new(w.div_ceil(mcu) * mcu, sub);
                let mut planes = [Vec::new(), Vec::new(), Vec::new()];
                for my in 0..h.div_ceil(mcu) {
                    for (plane, band) in planes.iter_mut().zip(bands.build(&img, my)) {
                        plane.extend_from_slice(&band.data);
                    }
                }
                let reference = reference_planes(&img, sub);
                for ((plane, want), name) in planes.iter().zip(&reference).zip(["Y", "Cb", "Cr"]) {
                    assert_eq!(bits(plane), bits(want), "{name} of {w}x{h} {sub:?}");
                }
            }
        }
    }

    /// The encoder's AVX2 build, where this CPU runs it, called directly,
    /// against the baseline build, byte for byte, on a colormapped vortex
    /// field and on an image whose channels are three bytes of each field
    /// value's bits.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn encoder_builds_agree_to_the_byte() {
        if !crate::cpu_has("avx2") {
            return;
        }
        let cmap = crate::Colormap::blue_white_red();
        for (w, h) in [(70, 36), (256, 256)] {
            let field: Vec<f32> = (0..w * h)
                .map(|i| {
                    let (x, y) = ((i % w) as f32, (i / w) as f32);
                    0.08 * (x * 0.21).sin() * (y * 0.13).cos()
                        + 0.01 * ((i * 7919 % 97) as f32 / 97.0)
                })
                .collect();
            let colormapped = RgbImage::from_scalar_field(w, h, &field, -0.08, 0.08, &cmap);
            let mixed = field.iter().flat_map(|v| {
                let [a, b, c, _] = v.to_bits().to_le_bytes();
                [a, b, c]
            });
            let mixed = RgbImage::new(w, h, mixed.collect()).unwrap();
            for (img, name) in [(&colormapped, "colormapped"), (&mixed, "mixed")] {
                for sub in [Subsampling::S420, Subsampling::S444] {
                    for quality in [75, 100] {
                        assert_eq!(
                            // SAFETY: the CPU has AVX2, checked at the top.
                            unsafe { encode_with_avx2(img, quality, sub) }.unwrap(),
                            encode_with_body(img, quality, sub).unwrap(),
                            "{name} {w}x{h} {sub:?} q{quality}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn short_or_long_data_is_a_dimension_mismatch() {
        // Public fields let a caller build an image whose data does not
        // cover its dimensions; it used to encode the missing rows gray.
        let mut img = RgbImage::filled(32, 32, [200, 10, 10]);
        img.data.truncate(3 * 32 * 16);
        for sub in [Subsampling::S420, Subsampling::S444] {
            assert!(matches!(
                encode_with(&img, 75, sub),
                Err(ImageError::DimensionMismatch { expected: 3072, got: 1536 })
            ));
        }
        img.data.resize(3 * 32 * 33, 0);
        assert!(matches!(
            encode_with(&img, 75, Subsampling::S420),
            Err(ImageError::DimensionMismatch { expected: 3072, got: 3168 })
        ));
    }

    #[test]
    fn empty_or_oversized_dimensions_are_unsupported() {
        for (w, h) in [(0, 4), (4, 0), (0, 0), (65_536, 1), (1, 65_536)] {
            let img = RgbImage { width: w, height: h, data: vec![0; 3 * w * h] };
            assert!(
                matches!(encode_with(&img, 75, Subsampling::S420), Err(ImageError::Unsupported(_))),
                "{w}x{h}"
            );
        }
        // The largest allowed extent still encodes.
        let widest = RgbImage::filled(65_535, 1, [7, 7, 7]);
        assert!(encode_with(&widest, 75, Subsampling::S420).is_ok());
    }

    #[test]
    fn round_half_away_equals_f32_round() {
        // ±k.5 ties, their neighbours, integers beyond ±2^23 where f32 has
        // no fraction bits, the i32 saturation edges, then a stride through
        // all f32 bit patterns and the specials.
        let ties = (0..=4096).map(|k| k as f32 + 0.5);
        let beyond = (0..64).map(|k| 8_388_608.0 + 3.0 * k as f32);
        let edges = [2_147_483_520.0f32, 2_147_483_648.0, 4e9, 0.5, 1.5, 2.5];
        let signed = ties.chain(beyond).chain(edges).flat_map(|v| {
            let (below, above) = (f32::from_bits(v.to_bits() - 1), f32::from_bits(v.to_bits() + 1));
            [v, -v, below, -below, above, -above]
        });
        let strided = (0..=u32::MAX).step_by(257).map(f32::from_bits);
        let specials = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        for r in signed.chain(strided).chain(specials) {
            assert_eq!(round_half_away(r), r.round() as i32, "r = {r:e}");
        }
    }

    #[test]
    fn category_matches_bit_length() {
        assert_eq!(category(0), 0);
        assert_eq!(category(1), 1);
        assert_eq!(category(-1), 1);
        assert_eq!(category(255), 8);
        assert_eq!(category(-256), 9);
        assert_eq!(category(1023), 10);
    }

    #[test]
    fn magnitude_bits_convention() {
        // v = 5 (cat 3) -> 101; v = -5 -> 010 (one's complement of 5).
        assert_eq!(magnitude_bits(5, 3), 0b101);
        assert_eq!(magnitude_bits(-5, 3), 0b010);
        assert_eq!(magnitude_bits(-1, 1), 0);
        assert_eq!(magnitude_bits(1, 1), 1);
    }

    #[test]
    fn stream_is_framed_by_soi_and_eoi() {
        let img = RgbImage::filled(10, 10, [128, 64, 32]);
        let bytes = encode_with(&img, 75, Subsampling::S420).unwrap();
        assert_eq!(&bytes[0..2], &[0xFF, 0xD8]);
        assert_eq!(&bytes[bytes.len() - 2..], &[0xFF, 0xD9]);
    }

    #[test]
    fn flat_image_compresses_massively() {
        let img = RgbImage::filled(256, 256, [200, 100, 50]);
        let bytes = encode_with(&img, 75, Subsampling::S420).unwrap();
        // 192 KiB of raw RGB collapses to well under 2 KiB.
        assert!(bytes.len() < 2048, "{} bytes", bytes.len());
    }

    #[test]
    fn higher_quality_means_more_bytes() {
        let mut img = RgbImage::filled(64, 64, [0, 0, 0]);
        for y in 0..64 {
            for x in 0..64 {
                img.set(x, y, [((x * y) % 256) as u8, (x * 4) as u8, (y * 4) as u8]);
            }
        }
        let q10 = encode_with(&img, 10, Subsampling::S420).unwrap().len();
        let q50 = encode_with(&img, 50, Subsampling::S420).unwrap().len();
        let q95 = encode_with(&img, 95, Subsampling::S420).unwrap().len();
        assert!(q10 < q50 && q50 < q95, "{q10} {q50} {q95}");
    }

    #[test]
    fn s444_carries_more_chroma_than_s420() {
        let mut img = RgbImage::filled(64, 64, [0, 0, 0]);
        for y in 0..64 {
            for x in 0..64 {
                img.set(x, y, [(x * 4) as u8, 0, (y * 4) as u8]);
            }
        }
        let s420 = encode_with(&img, 75, Subsampling::S420).unwrap().len();
        let s444 = encode_with(&img, 75, Subsampling::S444).unwrap().len();
        assert!(s444 > s420, "{s444} vs {s420}");
    }
}
