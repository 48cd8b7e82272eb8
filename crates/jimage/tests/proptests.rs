//! Property tests for the JPEG codec: arbitrary sizes, qualities and
//! content must roundtrip without panics and with bounded distortion.

use jimage::jpeg::{self, Subsampling};
use jimage::RgbImage;
use proptest::prelude::*;

fn arb_image(w: usize, h: usize, seed: u64, smooth: bool) -> RgbImage {
    let mut s = seed | 1;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 56) as u8
    };
    let data: Vec<u8> = if smooth {
        (0..h)
            .flat_map(|y| (0..w).map(move |x| (x, y)))
            .flat_map(|(x, y)| {
                let v = ((x * 255) / w.max(1)) as u8;
                let u = ((y * 255) / h.max(1)) as u8;
                [v, u, v ^ u]
            })
            .collect()
    } else {
        (0..3 * w * h).map(|_| next()).collect()
    };
    RgbImage::new(w, h, data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_size_quality_subsampling_roundtrips(
        w in 1usize..70,
        h in 1usize..70,
        quality in 1u8..=100,
        seed in any::<u64>(),
        smooth in any::<bool>(),
        s420 in any::<bool>(),
    ) {
        let img = arb_image(w, h, seed, smooth);
        let sub = if s420 { Subsampling::S420 } else { Subsampling::S444 };
        let bytes = jpeg::encode_with(&img, quality, sub).unwrap();
        let back = jpeg::decode(&bytes).unwrap();
        prop_assert_eq!((back.width, back.height), (w, h));
        // Distortion is bounded by construction: 8-bit channels.
        let mad = img.mean_abs_diff(&back);
        prop_assert!(mad <= 128.0, "mad {}", mad);
        // High quality on smooth content must be tight.
        if smooth && quality >= 90 && w >= 16 && h >= 16 {
            prop_assert!(mad < 8.0, "q{} smooth mad {}", quality, mad);
        }
    }

    #[test]
    fn corrupted_streams_never_panic(
        seed in any::<u64>(),
        flip_at_ppm in 0.0f64..1.0,
        flip_bits in any::<u8>(),
    ) {
        let img = arb_image(24, 24, seed, true);
        let mut bytes = jpeg::encode(&img, 75).unwrap();
        let idx = 2 + ((bytes.len() - 4) as f64 * flip_at_ppm) as usize;
        bytes[idx] ^= flip_bits | 1;
        // Either decodes to *something* well-formed or errors — no panic.
        if let Ok(img) = jpeg::decode(&bytes) {
            prop_assert!(img.width > 0 && img.height > 0);
        }
    }

    #[test]
    fn ppm_roundtrips_any_content(
        w in 1usize..64,
        h in 1usize..64,
        seed in any::<u64>(),
    ) {
        let img = arb_image(w, h, seed, false);
        let enc = jimage::pnm::encode_ppm(&img);
        prop_assert_eq!(jimage::pnm::decode_ppm(&enc).unwrap(), img);
    }
}
