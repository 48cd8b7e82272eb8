//! The JPEG encoder's bytes, pinned on layouts made of flat blocks: a
//! digest of every stream, both subsamplings at qualities 1, 50, 75 and
//! 100. The encoder reuses the quantised DC of the last flat block with the
//! same sample bits, so these layouts make that memo hit, miss and re-learn:
//! palette mosaics in runs, in periods 2 and 3 and in a seeded random order;
//! flat tiles with sample 0 or 63 off by one; neighbouring tiles one channel
//! step apart; and odd sizes, whose edge-replicated padding is flat. A memo
//! keyed on anything less than the sample's bits has to change a digest.

use jimage::jpeg::{encode_with, Subsampling};
use jimage::RgbImage;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a over the length and bytes of each encoding of `img`.
fn digest(img: &RgbImage) -> u64 {
    let mut h = FNV_OFFSET;
    for sub in [Subsampling::S420, Subsampling::S444] {
        for quality in [1, 50, 75, 100] {
            let bytes = encode_with(img, quality, sub).unwrap();
            h = fnv1a(h, &(bytes.len() as u64).to_le_bytes());
            h = fnv1a(h, &bytes);
        }
    }
    h
}

/// A `w × h` image of `tile × tile` squares, square `i` (row-major over
/// the squares, partial ones included) filled with `color(i)`.
fn tiled(w: usize, h: usize, tile: usize, color: impl Fn(usize) -> [u8; 3]) -> RgbImage {
    let mut img = RgbImage::filled(w, h, [0; 3]);
    let across = w.div_ceil(tile);
    for y in 0..h {
        for x in 0..w {
            img.set(x, y, color(y / tile * across + x / tile));
        }
    }
    img
}

const PALETTE: [[u8; 3]; 4] = [[255, 255, 255], [0, 0, 255], [255, 0, 0], [128, 130, 126]];

/// `n` palette indices (0–3) drawn from a seeded LCG.
fn random_order(n: usize, mut seed: u64) -> Vec<usize> {
    (0..n)
        .map(|_| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 62) as usize
        })
        .collect()
}

/// Asserts each `(name, image, digest)`, reporting every mismatch at once.
fn check(cases: &[(String, RgbImage, u64)]) {
    let wrong: Vec<String> = cases
        .iter()
        .map(|(name, img, want)| (name, digest(img), want))
        .filter(|(_, got, want)| got != *want)
        .map(|(name, got, _)| format!("{name}: {got:#x}"))
        .collect();
    assert!(wrong.is_empty(), "digests changed:\n{}", wrong.join("\n"));
}

#[test]
fn palette_mosaics_in_runs_periods_and_random_order() {
    let random = random_order(12 * 8, 7);
    let orders: [(&str, &dyn Fn(usize) -> usize); 4] = [
        ("runs of 5", &|i| i / 5 % 4),
        ("period 2", &|i| i % 2),
        ("period 3", &|i| i % 3),
        ("random", &|i| random[i]),
    ];
    let want = [
        [
            0xa8e1_858d_b580_bb21,
            0xcb99_7bd9_24e2_721d,
            0xdbb5_5a59_580d_8b8b,
            0xfc39_e76d_872e_ab1d,
        ],
        [
            0x3c3a_24d1_ebc4_1a8c,
            0x4ac0_31e6_8f3e_fa62,
            0x65b7_b602_ea21_dafe,
            0xa906_24af_280a_8b5f,
        ],
    ];
    let mut cases = Vec::new();
    for (tile, want) in [8, 16].into_iter().zip(want) {
        for ((name, order), want) in orders.iter().zip(want) {
            let img = tiled(96, 64, tile, |i| PALETTE[order(i)]);
            cases.push((format!("{name}, tile {tile}"), img, want));
        }
    }
    check(&cases);
}

#[test]
fn flat_tiles_with_sample_0_or_63_off_by_one() {
    // 8×8 tiles in pairs of one colour per pair, 24 colours; the second
    // tile of each pair has one sample raised by 1 in every channel, which
    // moves the luma DC across a rounding edge for some of the colours. The
    // AC coefficients stay zero, so both raised images encode alike.
    let base = |k: usize| [40 + 7 * k as u8, 90 + 3 * k as u8, 160 - 5 * k as u8];
    let unraised = tiled(64, 48, 8, |i| base(i / 2));
    let mut cases = vec![("unraised".to_string(), unraised, 0x996a_ef83_6b1e_7429)];
    for (name, (dx, dy)) in [("sample 0", (0, 0)), ("sample 63", (7, 7))] {
        let mut img = tiled(64, 48, 8, |i| base(i / 2));
        for t in (1..48).step_by(2) {
            let (x, y) = (t % 8 * 8 + dx, t / 8 * 8 + dy);
            img.set(x, y, img.get(x, y).map(|c| c + 1));
        }
        cases.push((name.to_string(), img, 0xb941_80f2_e730_d322));
    }
    check(&cases);
}

#[test]
fn neighbouring_tiles_one_channel_step_apart() {
    let base = [100u8, 150, 200];
    let step = |i: usize| {
        let mut c = base;
        c[i % 3] += (i / 3 % 2) as u8;
        c
    };
    let red = |i: usize| [base[0] + (i % 2) as u8, base[1], base[2]];
    let cases = [
        ("tile 8".to_string(), tiled(96, 64, 8, step), 0xb194_00af_16bf_12f4),
        ("tile 16".to_string(), tiled(96, 64, 16, step), 0x9ef7_ede3_89f1_916e),
        ("alternating +1 red".to_string(), tiled(96, 64, 8, red), 0xbf1f_c235_c1c0_5d78),
    ];
    check(&cases);
}

#[test]
fn odd_sizes_pad_to_flat_blocks() {
    let sizes = [
        ((1usize, 1usize), [0x837c_b970_292c_e364, 0x7d4b_0e5f_18d4_34fb]),
        ((9, 8), [0xa9c4_d28d_610d_288a, 0xdf29_1113_554f_b115]),
        ((17, 33), [0xf0c1_948c_d033_ce2b, 0x1bf8_7ce4_7e9a_65e2]),
        ((70, 36), [0x0407_dfaa_91ac_6456, 0x78e4_faa0_89cd_6761]),
    ];
    let mut cases = Vec::new();
    for ((w, h), [flat, mosaic]) in sizes {
        let random = random_order(w.div_ceil(8) * h.div_ceil(8), (w * h) as u64);
        cases.push((format!("flat {w}x{h}"), RgbImage::filled(w, h, [30, 60, 90]), flat));
        let img = tiled(w, h, 8, |i| PALETTE[random[i]]);
        cases.push((format!("random mosaic {w}x{h}"), img, mosaic));
    }
    check(&cases);
}
