//! Property tests: arbitrary images roundtrip in either byte order, and
//! truncated files never panic the decoder.

use dtiff::{Endian, PixelData, TiffImage};
use proptest::prelude::*;

fn arb_pixels(n: usize, seed: u64, kind: u8) -> PixelData {
    let mut s = seed | 1;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 33
    };
    match kind % 4 {
        0 => PixelData::U8((0..n).map(|_| next() as u8).collect()),
        1 => PixelData::U16((0..n).map(|_| next() as u16).collect()),
        2 => PixelData::U32((0..n).map(|_| next() as u32).collect()),
        _ => PixelData::F32((0..n).map(|_| (next() as f32) / 1e6).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_image_roundtrips_in_either_byte_order(
        w in 1u32..80,
        h in 1u32..80,
        seed in any::<u64>(),
        kind in any::<u8>(),
        big_endian in any::<bool>(),
    ) {
        let img = TiffImage::new(w, h, arb_pixels((w * h) as usize, seed, kind)).unwrap();
        let endian = if big_endian { Endian::Big } else { Endian::Little };
        let bytes = img.encode(endian).unwrap();
        let back = TiffImage::decode(&bytes).unwrap();
        prop_assert_eq!(back, img);
    }

    #[test]
    fn truncated_files_never_panic(
        w in 1u32..32,
        h in 1u32..32,
        seed in any::<u64>(),
        cut_ppm in 0.0f64..1.0,
    ) {
        let img = TiffImage::new(w, h, arb_pixels((w * h) as usize, seed, 1)).unwrap();
        let bytes = img.encode(Endian::Little).unwrap();
        let cut = ((bytes.len() as f64) * cut_ppm) as usize;
        // Any prefix must either decode (if it happens to be complete) or
        // return an error — never panic.
        let _ = TiffImage::decode(&bytes[..cut]);
    }
}
