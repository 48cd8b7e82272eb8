//! 8×8 forward and inverse DCT (orthonormal, matching T.81's definition).

use std::sync::OnceLock;

/// Orthonormal 1-D DCT-II basis: `M[u][n] = c(u) · cos((2n+1)uπ/16)` with
/// `c(0) = 1/√8`, `c(u>0) = 1/2`. The 2-D transform `M·f·Mᵀ` then equals the
/// JPEG FDCT `¼·C(u)C(v)·ΣΣ…` exactly.
fn basis() -> &'static [[f32; 8]; 8] {
    static M: OnceLock<[[f32; 8]; 8]> = OnceLock::new();
    M.get_or_init(|| {
        let mut m = [[0f32; 8]; 8];
        for (u, row) in m.iter_mut().enumerate() {
            let c = if u == 0 { (1.0f64 / 8.0).sqrt() } else { 0.5 };
            for (n, v) in row.iter_mut().enumerate() {
                *v = (c * ((2 * n + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos())
                    as f32;
            }
        }
        m
    })
}

/// `Mᵀ`: column `x` of the basis as a row, so the forward row pass reads
/// the eight `M[u][x]` of one `x` contiguously.
fn basis_t() -> &'static [[f32; 8]; 8] {
    static MT: OnceLock<[[f32; 8]; 8]> = OnceLock::new();
    MT.get_or_init(|| std::array::from_fn(|x| std::array::from_fn(|u| basis()[u][x])))
}

/// Forward DCT of an 8×8 block, in place (row-major).
///
/// Each pass keeps eight accumulators side by side, one per output of a
/// row, and adds one input term to all eight at a time, so the compiler
/// vectorises across them. Every output still sums its terms in input order
/// from 0.0, as a loop over that output alone would, so the coefficients are
/// bit-identical to it. It is `#[inline(always)]` so the JPEG encoder's AVX2
/// build gets its own copy, eight f32 lanes wide, one row per add.
#[inline(always)]
pub fn fdct_8x8(block: &mut [f32; 64]) {
    let (m, mt) = (basis(), basis_t());
    let mut tmp = [0f32; 64];
    // Rows: tmp = f · Mᵀ  (transform along x).
    for (row, out) in block.chunks_exact(8).zip(tmp.chunks_exact_mut(8)) {
        let mut acc = [0f32; 8];
        for (&b, mt) in row.iter().zip(mt) {
            for (acc, &c) in acc.iter_mut().zip(mt) {
                *acc += b * c;
            }
        }
        out.copy_from_slice(&acc);
    }
    // Columns: out = M · tmp (transform along y).
    for (out, m) in block.chunks_exact_mut(8).zip(m) {
        let mut acc = [0f32; 8];
        for (row, &c) in tmp.chunks_exact(8).zip(m) {
            for (acc, &t) in acc.iter_mut().zip(row) {
                *acc += t * c;
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// Inverse DCT of an 8×8 block, in place (row-major).
pub fn idct_8x8(block: &mut [f32; 64]) {
    let m = basis();
    let mut tmp = [0f32; 64];
    // Columns: tmp = Mᵀ · F.
    for y in 0..8 {
        for u in 0..8 {
            let mut acc = 0f32;
            for v in 0..8 {
                acc += m[v][y] * block[v * 8 + u];
            }
            tmp[y * 8 + u] = acc;
        }
    }
    // Rows: out = tmp · M.
    for y in 0..8 {
        for x in 0..8 {
            let mut acc = 0f32;
            for u in 0..8 {
                acc += tmp[y * 8 + u] * m[u][x];
            }
            block[y * 8 + x] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `fdct_8x8` as it was before the loop interchange: one output at a
    /// time, its terms summed in input order.
    fn reference_fdct(block: &mut [f32; 64]) {
        let m = basis();
        let mut tmp = [0f32; 64];
        for y in 0..8 {
            for u in 0..8 {
                let mut acc = 0f32;
                for x in 0..8 {
                    acc += block[y * 8 + x] * m[u][x];
                }
                tmp[y * 8 + u] = acc;
            }
        }
        for v in 0..8 {
            for u in 0..8 {
                let mut acc = 0f32;
                for y in 0..8 {
                    acc += tmp[y * 8 + u] * m[v][y];
                }
                block[v * 8 + u] = acc;
            }
        }
    }

    #[test]
    fn fdct_equals_the_one_output_at_a_time_loop_bit_for_bit() {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1442695040888963407);
            (state >> 40) as u32
        };
        // Uniform in [lo, hi), and occasionally a signed zero.
        let mut block = |lo: f32, hi: f32| -> [f32; 64] {
            std::array::from_fn(|_| match next() % 16 {
                0 => 0.0,
                1 => -0.0,
                _ => lo + (hi - lo) * (next() as f32 / (1u32 << 24) as f32),
            })
        };
        let mut blocks: Vec<[f32; 64]> = Vec::new();
        for _ in 0..2000 {
            blocks.push(block(-128.0, 127.0)); // level-shifted Y
            blocks.push(block(-127.5, 127.5)); // Cb, Cr
        }
        // Exact plane values: the JFIF formulas over random pixels.
        for _ in 0..2000 {
            let px: [[f32; 3]; 64] =
                std::array::from_fn(|_| std::array::from_fn(|_| (next() % 256) as f32));
            blocks.push(px.map(|[r, g, b]| 0.299 * r + 0.587 * g + 0.114 * b - 128.0));
            blocks.push(px.map(|[r, g, b]| -0.168_736 * r - 0.331_264 * g + 0.5 * b));
            blocks.push(px.map(|[r, g, b]| 0.5 * r - 0.418_688 * g - 0.081_312 * b));
        }
        blocks.extend([[0.0; 64], [-0.0; 64], [-128.0; 64], [127.0; 64]]);
        for (i, b) in blocks.iter().enumerate() {
            let (mut got, mut want) = (*b, *b);
            fdct_8x8(&mut got);
            reference_fdct(&mut want);
            assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits), "block {i}: {b:?}");
        }
    }

    #[test]
    fn constant_block_concentrates_in_dc() {
        let mut b = [100f32; 64];
        fdct_8x8(&mut b);
        // DC of a constant 100 block: 8 * 100 = 800 (orthonormal scaling).
        assert!((b[0] - 800.0).abs() < 1e-3, "dc = {}", b[0]);
        for (i, &v) in b.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-3, "ac[{i}] = {v}");
        }
    }

    #[test]
    fn fdct_idct_roundtrip() {
        let mut b = [0f32; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = ((i * 37 + 11) % 255) as f32 - 128.0;
        }
        let orig = b;
        fdct_8x8(&mut b);
        idct_8x8(&mut b);
        for (a, o) in b.iter().zip(orig.iter()) {
            assert!((a - o).abs() < 1e-2, "{a} vs {o}");
        }
    }

    #[test]
    fn transform_is_orthonormal() {
        // Parseval: energy preserved.
        let mut b = [0f32; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as f32).sin() * 100.0;
        }
        let e0: f32 = b.iter().map(|v| v * v).sum();
        fdct_8x8(&mut b);
        let e1: f32 = b.iter().map(|v| v * v).sum();
        assert!((e0 - e1).abs() / e0 < 1e-4);
    }

    #[test]
    fn horizontal_cosine_maps_to_single_coefficient() {
        // f(x,y) = cos((2x+1)·3π/16) should produce only coefficient (u=3,v=0).
        let mut b = [0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                b[y * 8 + x] = ((2 * x + 1) as f32 * 3.0 * std::f32::consts::PI / 16.0).cos();
            }
        }
        fdct_8x8(&mut b);
        for v in 0..8 {
            for u in 0..8 {
                let c = b[v * 8 + u];
                if (u, v) == (3, 0) {
                    assert!(c.abs() > 1.0);
                } else {
                    assert!(c.abs() < 1e-3, "({u},{v}) = {c}");
                }
            }
        }
    }
}
