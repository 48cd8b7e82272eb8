//! JPEG codec integration tests: our decoder validates our encoder across
//! content types, sizes, qualities, and subsampling modes, plus robustness
//! against corrupted streams.

use jimage::jpeg::{self, Subsampling};
use jimage::{Colormap, ImageError, RgbImage};

/// Smooth synthetic "CFD frame": two interacting sinusoidal vortices through
/// the paper's blue-white-red colormap.
fn vortex_frame(w: usize, h: usize) -> RgbImage {
    let cmap = Colormap::blue_white_red();
    let field: Vec<f32> = (0..w * h)
        .map(|i| {
            let x = (i % w) as f32 / w as f32;
            let y = (i / w) as f32 / h as f32;
            ((x * 12.0).sin() * (y * 8.0).cos()) * (1.0 - y)
        })
        .collect();
    RgbImage::from_scalar_field(w, h, &field, -1.0, 1.0, &cmap)
}

/// Noisy high-frequency content (worst case for DCT coding).
fn noise_frame(w: usize, h: usize) -> RgbImage {
    let mut state = 0x243F6A8885A308D3u64;
    let mut data = Vec::with_capacity(3 * w * h);
    for _ in 0..3 * w * h {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        data.push((state >> 56) as u8);
    }
    RgbImage::new(w, h, data).unwrap()
}

#[test]
fn smooth_frame_roundtrips_with_low_distortion() {
    let img = vortex_frame(160, 120);
    for sub in [Subsampling::S444, Subsampling::S420] {
        let bytes = jpeg::encode_with(&img, 90, sub).unwrap();
        let back = jpeg::decode(&bytes).unwrap();
        assert_eq!((back.width, back.height), (160, 120));
        let mad = img.mean_abs_diff(&back);
        assert!(mad < 4.0, "mean abs diff {mad} too high for {sub:?}");
    }
}

#[test]
fn compression_ratio_on_colormapped_field_is_high() {
    // The Table IV effect: a smooth colormapped field compresses far below
    // its raw size at quality 75.
    let img = vortex_frame(512, 256);
    let raw = img.data.len();
    let bytes = jpeg::encode(&img, 75).unwrap();
    let ratio = raw as f64 / bytes.len() as f64;
    assert!(ratio > 20.0, "only {ratio:.1}x compression");
}

#[test]
fn noise_still_roundtrips_within_quantization_error() {
    let img = noise_frame(64, 64);
    let bytes = jpeg::encode_with(&img, 95, Subsampling::S444).unwrap();
    let back = jpeg::decode(&bytes).unwrap();
    // Noise is badly approximated but must stay bounded and well-formed.
    let mad = img.mean_abs_diff(&back);
    assert!(mad < 40.0, "mean abs diff {mad}");
}

#[test]
fn odd_dimensions_are_padded_and_cropped_correctly() {
    for (w, h) in [(1usize, 1usize), (7, 5), (17, 9), (8, 8), (16, 16), (15, 31), (33, 1)] {
        for sub in [Subsampling::S444, Subsampling::S420] {
            let img = vortex_frame(w, h);
            let bytes = jpeg::encode_with(&img, 85, sub).unwrap();
            let back = jpeg::decode(&bytes).unwrap();
            assert_eq!((back.width, back.height), (w, h), "{w}x{h} {sub:?}");
        }
    }
}

#[test]
fn solid_color_is_reproduced_almost_exactly() {
    for rgb in [[255, 0, 0], [0, 255, 0], [12, 200, 100], [128, 128, 128]] {
        let img = RgbImage::filled(32, 32, rgb);
        let bytes = jpeg::encode(&img, 90).unwrap();
        let back = jpeg::decode(&bytes).unwrap();
        let mad = img.mean_abs_diff(&back);
        assert!(mad < 3.0, "solid {rgb:?}: mad {mad}");
    }
}

#[test]
fn quality_controls_distortion_monotonically() {
    let img = vortex_frame(128, 128);
    let mut prev_mad = f64::INFINITY;
    for q in [20u8, 50, 80, 95] {
        let back = jpeg::decode(&jpeg::encode(&img, q).unwrap()).unwrap();
        let mad = img.mean_abs_diff(&back);
        assert!(mad <= prev_mad + 0.5, "q{q}: {mad} vs {prev_mad}");
        prev_mad = mad;
    }
    assert!(prev_mad < 3.0);
}

#[test]
fn decoder_rejects_corruption() {
    assert!(matches!(jpeg::decode(b"not a jpeg"), Err(ImageError::Malformed(_))));
    assert!(jpeg::decode(&[0xFF, 0xD8, 0xFF, 0xD9]).is_err()); // SOI+EOI only

    let good = jpeg::encode(&vortex_frame(32, 32), 75).unwrap();
    // Truncations at various points must error, not panic.
    for cut in [3, 10, 50, good.len() / 2, good.len() - 3] {
        assert!(jpeg::decode(&good[..cut]).is_err(), "cut at {cut}");
    }
}

/// A well-formed baseline stream of one 8x8 block in a single (grayscale)
/// component: every table holds one 1-bit code for symbol 0, so the scan is
/// DC category 0 then EOB, `00` padded with ones.
fn one_component_jpeg() -> Vec<u8> {
    let mut b = vec![0xFF, 0xD8];
    b.extend([0xFF, 0xDB, 0x00, 0x43, 0x00]); // DQT 0: all ones
    b.extend([1u8; 64]);
    b.extend([0xFF, 0xC0, 0x00, 0x0B, 8, 0, 8, 0, 8, 1, 1, 0x11, 0]); // SOF0, 8x8, 1 component
    for class_id in [0x00, 0x10] {
        b.extend([0xFF, 0xC4, 0x00, 0x14, class_id, 1]); // DHT: one code of length 1
        b.extend([0u8; 15]);
        b.push(0);
    }
    b.extend([0xFF, 0xDA, 0x00, 0x08, 1, 1, 0x00, 0, 63, 0]); // SOS
    b.extend([0x3F, 0xFF, 0xD9]);
    b
}

#[test]
fn decoder_rejects_progressive_and_one_component_frames() {
    let mut bytes = jpeg::encode(&vortex_frame(16, 16), 75).unwrap();
    // Rewrite SOF0 (FFC0) into SOF2 (FFC2 — progressive).
    for i in 0..bytes.len() - 1 {
        if bytes[i] == 0xFF && bytes[i + 1] == 0xC0 {
            bytes[i + 1] = 0xC2;
            break;
        }
    }
    assert!(matches!(jpeg::decode(&bytes), Err(ImageError::Unsupported(_))));
    // Only three-component YCbCr frames decode.
    match jpeg::decode(&one_component_jpeg()) {
        Err(ImageError::Unsupported(m)) => assert_eq!(m, "1-component scan"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn chroma_subsampling_shrinks_files() {
    let img = vortex_frame(256, 256);
    let s444 = jpeg::encode_with(&img, 75, Subsampling::S444).unwrap().len();
    let s420 = jpeg::encode_with(&img, 75, Subsampling::S420).unwrap().len();
    assert!(s420 < s444, "{s420} vs {s444}");
}

#[test]
fn decoded_colors_match_colormap_semantics() {
    // A frame that is strongly blue on the left, red on the right: the
    // decoded image must preserve that structure.
    let w = 64;
    let field: Vec<f32> = (0..w * w).map(|i| if (i % w) < w / 2 { -1.0f32 } else { 1.0 }).collect();
    let img = RgbImage::from_scalar_field(w, w, &field, -1.0, 1.0, &Colormap::blue_white_red());
    let back = jpeg::decode(&jpeg::encode(&img, 90).unwrap()).unwrap();
    let left = back.get(8, 32);
    let right = back.get(56, 32);
    assert!(left[2] > 180 && left[0] < 100, "left {left:?} should be blue");
    assert!(right[0] > 180 && right[2] < 100, "right {right:?} should be red");
}
