//! TIFF codec tests: roundtrips, cross-endian decode, multi-strip handling,
//! outside-input rejection, and stack I/O.

use dtiff::{Endian, Page, PixelData, PixelKind, TiffError, TiffImage};

fn gradient_u8(w: u32, h: u32) -> TiffImage {
    let data: Vec<u8> = (0..w as usize * h as usize).map(|i| (i % 251) as u8).collect();
    TiffImage::new(w, h, PixelData::U8(data)).unwrap()
}

fn gradient_u32(w: u32, h: u32) -> TiffImage {
    let data: Vec<u32> =
        (0..w as usize * h as usize).map(|i| (i as u32).wrapping_mul(2654435761)).collect();
    TiffImage::new(w, h, PixelData::U32(data)).unwrap()
}

#[test]
fn roundtrip_all_kinds_little_endian() {
    let n = 13 * 7;
    let images = [
        TiffImage::new(13, 7, PixelData::U8((0..n).map(|i| i as u8).collect())).unwrap(),
        TiffImage::new(13, 7, PixelData::U16((0..n).map(|i| i as u16 * 257).collect())).unwrap(),
        TiffImage::new(13, 7, PixelData::U32((0..n).map(|i| i as u32 * 65537).collect())).unwrap(),
        TiffImage::new(13, 7, PixelData::F32((0..n).map(|i| i as f32 * 0.25 - 3.0).collect()))
            .unwrap(),
    ];
    for img in images {
        let bytes = img.encode(Endian::Little).unwrap();
        let back = TiffImage::decode(&bytes).unwrap();
        assert_eq!(back, img);
    }
}

#[test]
fn roundtrip_big_endian() {
    let img = gradient_u32(31, 17);
    let bytes = img.encode(Endian::Big).unwrap();
    assert_eq!(&bytes[0..2], b"MM");
    let back = TiffImage::decode(&bytes).unwrap();
    assert_eq!(back, img);
}

#[test]
fn little_and_big_endian_decode_to_identical_pixels() {
    let img = TiffImage::new(5, 4, PixelData::U16((0..20).map(|i| 1000 + i).collect())).unwrap();
    let le = TiffImage::decode(&img.encode(Endian::Little).unwrap()).unwrap();
    let be = TiffImage::decode(&img.encode(Endian::Big).unwrap()).unwrap();
    assert_eq!(le, be);
}

#[test]
fn single_pixel_image() {
    let img = TiffImage::new(1, 1, PixelData::U8(vec![200])).unwrap();
    let back = TiffImage::decode(&img.encode(Endian::Little).unwrap()).unwrap();
    assert_eq!(back, img);
}

#[test]
fn large_image_uses_multiple_strips_and_roundtrips() {
    // 512x512 u32 = 1 MiB of pixels => ~16 strips at the 64 KiB target.
    let img = gradient_u32(512, 512);
    let bytes = img.encode(Endian::Little).unwrap();
    let back = TiffImage::decode(&bytes).unwrap();
    assert_eq!(back, img);
}

#[test]
fn tall_thin_and_wide_flat_images() {
    for (w, h) in [(1u32, 1000u32), (1000, 1), (3, 333)] {
        let img = gradient_u8(w, h);
        let back = TiffImage::decode(&img.encode(Endian::Little).unwrap()).unwrap();
        assert_eq!(back, img);
    }
}

#[test]
fn wide_row_larger_than_strip_target() {
    // One row of 128 Ki u32 pixels = 512 KiB > 64 KiB strip target: the
    // writer must fall back to one row per strip.
    let img = gradient_u32(131072, 3);
    let back = TiffImage::decode(&img.encode(Endian::Little).unwrap()).unwrap();
    assert_eq!(back, img);
}

#[test]
fn dimension_mismatch_rejected_at_construction() {
    assert!(matches!(
        TiffImage::new(4, 4, PixelData::U8(vec![0; 15])),
        Err(TiffError::DimensionMismatch { expected: 16, got: 15 })
    ));
}

#[test]
fn rejects_garbage_and_truncation() {
    assert!(matches!(TiffImage::decode(b"PNG..."), Err(TiffError::BadMagic)));
    assert!(matches!(TiffImage::decode(b"II"), Err(TiffError::Truncated { .. })));
    // Valid magic, nonsense version.
    assert!(matches!(TiffImage::decode(b"II\x2b\x00\x08\x00\x00\x00"), Err(TiffError::BadMagic)));

    let good = gradient_u8(64, 64).encode(Endian::Little).unwrap();
    // Truncate mid-pixel-data (strips start right after the 8-byte header).
    assert!(TiffImage::decode(&good[..good.len() / 2]).is_err());
}

#[test]
fn rejects_unsupported_compression() {
    // LZW (5) and run-length scheme 32773: only uncompressed strips are read.
    for scheme in [5u32, 32773] {
        let mut bytes = gradient_u8(8, 8).encode(Endian::Little).unwrap();
        patch_tag(&mut bytes, 259, scheme);
        match TiffImage::decode(&bytes) {
            Err(TiffError::Unsupported(m)) => assert_eq!(m, format!("compression {scheme}")),
            other => panic!("compression {scheme}: {other:?}"),
        }
    }
}

#[test]
fn rejects_rgb_photometric() {
    let mut bytes = gradient_u8(8, 8).encode(Endian::Little).unwrap();
    let ifd = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let n = u16::from_le_bytes(bytes[ifd..ifd + 2].try_into().unwrap()) as usize;
    for i in 0..n {
        let pos = ifd + 2 + i * 12;
        let tag = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap());
        if tag == 262 {
            bytes[pos + 8] = 2; // RGB
        }
    }
    assert!(matches!(TiffImage::decode(&bytes), Err(TiffError::Unsupported(_))));
}

#[test]
fn pixel_kind_metadata() {
    assert_eq!(PixelKind::U8.bits(), 8);
    assert_eq!(PixelKind::U32.bits(), 32);
    assert_eq!(PixelKind::F32.sample_format(), 3);
    assert_eq!(PixelKind::U16.sample_format(), 1);
    assert_eq!(gradient_u32(4, 4).row_bytes(), 16);
}

#[test]
fn stack_write_read_roundtrip() {
    let dir = std::env::temp_dir().join(format!("dtiff_stack_{}", std::process::id()));
    let slices: Vec<TiffImage> = (0..5u32)
        .map(|z| {
            TiffImage::new(16, 8, PixelData::U16((0..128).map(|i| (z * 1000 + i) as u16).collect()))
                .unwrap()
        })
        .collect();
    dtiff::write_stack(&dir, &slices, Endian::Little).unwrap();
    for (z, expect) in slices.iter().enumerate() {
        let got = dtiff::read_stack_slice(&dir, z).unwrap();
        assert_eq!(&got, expect);
    }
    assert!(dtiff::read_stack_slice(&dir, 99).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stack_paths_are_sorted_and_padded() {
    let dir = std::path::Path::new("/data");
    let paths = dtiff::stack_paths(dir, 3);
    assert_eq!(paths[0].to_str().unwrap(), "/data/slice_00000.tif");
    assert_eq!(paths[2].to_str().unwrap(), "/data/slice_00002.tif");
    let mut sorted = paths.clone();
    sorted.sort();
    assert_eq!(sorted, paths);
}

/// The normalization oracle, written out independently of the codec: the
/// typed decode, widened per index and divided by the full scale.
fn normalized_reference(img: &TiffImage) -> Vec<f32> {
    (0..img.data.len()).map(|i| (img.data.get_f64(i) / 65535.0) as f32).collect()
}

/// Both decodes of the 16-bit `bytes` agree with `img`, and the loader's
/// two steps — the raw decode, then [`dtiff::extend_normalized_u16`] — with
/// the oracle, bit for bit.
fn assert_u16_decode_matches(img: &TiffImage, bytes: &[u8], what: &str) {
    assert_eq!(&TiffImage::decode(bytes).unwrap(), img, "{what}: typed decode");
    let page = Page::first(bytes).unwrap();
    assert_eq!((page.width(), page.height()), (img.width, img.height), "{what}: dimensions");
    let mut samples = vec![0u16; img.data.len()];
    page.decode_u16_into(&mut samples).unwrap();
    assert_eq!(PixelData::U16(samples.clone()), img.data, "{what}: raw decode");
    let mut out = Vec::new();
    dtiff::extend_normalized_u16(&mut out, &samples);
    let want = normalized_reference(img);
    assert!(
        out.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()) && out.len() == want.len(),
        "{what}: normalized samples differ from (get_f64 / 65535) as f32"
    );
}

#[test]
fn u16_decode_and_normalize_are_bit_identical_for_every_value() {
    let img = TiffImage::new(256, 256, PixelData::U16((0..=u16::MAX).collect())).unwrap();
    for endian in [Endian::Little, Endian::Big] {
        assert_u16_decode_matches(&img, &img.encode(endian).unwrap(), &format!("{endian:?}"));
    }
}

#[test]
fn u16_decode_handles_ragged_strips_and_refuses_other_kinds() {
    // 300 u16 columns are 600 B a row, so 109 rows fill a 64 KiB strip and
    // 131 rows make strips of 109 and 22: the last one is short.
    let (w, h) = (300u32, 131u32);
    let n = (w * h) as usize;
    let mix = |i: usize| (i as u32).wrapping_mul(2654435761);
    let img = TiffImage::new(w, h, PixelData::U16((0..n).map(|i| (mix(i) >> 16) as u16).collect()))
        .unwrap();
    for endian in [Endian::Little, Endian::Big] {
        let what = format!("ragged {endian:?}");
        assert_u16_decode_matches(&img, &img.encode(endian).unwrap(), &what);
    }
    let others = [
        TiffImage::new(w, h, PixelData::U8((0..n).map(|i| (mix(i) >> 24) as u8).collect())),
        TiffImage::new(w, h, PixelData::U32((0..n).map(mix).collect())),
        TiffImage::new(w, h, PixelData::F32((0..n).map(|i| mix(i) as f32 / 3e9).collect())),
    ];
    for img in others {
        let img = img.unwrap();
        let bytes = img.encode(Endian::Little).unwrap();
        let mut out = vec![7u16; n];
        match Page::first(&bytes).unwrap().decode_u16_into(&mut out) {
            Err(TiffError::Unsupported(m)) => {
                assert_eq!(m, format!("{:?} samples where 16-bit ones are wanted", img.kind()))
            }
            other => panic!("{:?}: {other:?}", img.kind()),
        }
        assert!(out.iter().all(|&v| v == 7), "{:?}: a refusal wrote samples", img.kind());
    }
}

/// Byte position of `tag`'s entry in the little-endian IFD at `ifd`.
fn entry_pos(bytes: &[u8], ifd: usize, tag: u16) -> usize {
    let n = u16::from_le_bytes(bytes[ifd..ifd + 2].try_into().unwrap()) as usize;
    (0..n)
        .map(|i| ifd + 2 + i * 12)
        .find(|&pos| u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) == tag)
        .expect("tag present")
}

/// Offset of the first IFD of a little-endian file.
fn first_ifd(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize
}

/// Overwrite the 4-byte value field of `tag` in the first IFD of a
/// little-endian file (for a one-strip image the strip's offset and byte
/// count sit inline there).
fn patch_tag(bytes: &mut [u8], tag: u16, value: u32) {
    let pos = entry_pos(bytes, first_ifd(bytes), tag) + 8;
    bytes[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn both_decodes_reject_bad_strips_with_the_same_structured_errors() {
    const STRIP_BYTE_COUNTS: u16 = 279;
    let img = TiffImage::new(16, 8, PixelData::U16((0..128).collect())).unwrap();
    let good = img.encode(Endian::Little).unwrap();
    let mut out = vec![0u16; 128];
    let mut both = |bytes: &[u8]| {
        let typed = TiffImage::decode(bytes).unwrap_err();
        (typed, Page::first(bytes).unwrap().decode_u16_into(&mut out).unwrap_err())
    };

    // A strip that runs past the end of the file.
    let mut truncated = good.clone();
    patch_tag(&mut truncated, STRIP_BYTE_COUNTS, good.len() as u32);
    assert!(matches!(
        both(&truncated),
        (
            TiffError::Truncated { context: "strip data" },
            TiffError::Truncated { context: "strip data" }
        )
    ));

    // Strips that supply fewer bytes than the dimensions imply.
    let mut short = good.clone();
    patch_tag(&mut short, STRIP_BYTE_COUNTS, 254);
    let (a, b) = both(&short);
    for e in [a, b] {
        assert!(
            matches!(&e, TiffError::Malformed(m) if m == "strips supply 254 bytes, dimensions imply 256"),
            "{e}"
        );
    }

    // A strip that stops in the middle of a sample.
    let mut split = good.clone();
    patch_tag(&mut split, STRIP_BYTE_COUNTS, 255);
    let (a, b) = both(&split);
    assert!(matches!((a, b), (TiffError::Malformed(_), TiffError::Malformed(_))));

    // An output buffer of the wrong length converts nothing.
    let mut wrong = vec![7u16; 127];
    assert!(matches!(
        Page::first(&good).unwrap().decode_u16_into(&mut wrong),
        Err(TiffError::DimensionMismatch { expected: 128, got: 127 })
    ));
    assert!(wrong.iter().all(|&v| v == 7));
}

#[test]
fn pages_expose_dimensions_before_any_sample_is_decoded() {
    let img = gradient_u8(4, 6);
    let mut bytes = img.encode(Endian::Little).unwrap();
    // Wreck the strip data: the IFD still parses.
    bytes[8..32].fill(0xFF);
    let page = Page::first(&bytes).unwrap();
    assert_eq!((page.width(), page.height(), page.kind()), (4, 6, PixelKind::U8));
    // Dimensions no file of this size can back are refused before anything
    // is allocated for them.
    let mut huge = gradient_u8(8, 8).encode(Endian::Little).unwrap();
    patch_tag(&mut huge, 256, u32::MAX);
    patch_tag(&mut huge, 257, u32::MAX);
    assert!(matches!(Page::first(&huge), Err(TiffError::Truncated { context: "pixel data" })));
}

/// A two-page file decodes as its first page, and the chain is never
/// walked: the second page's next-IFD pointer aims back at the first, a
/// cycle a chain walker would have to detect.
#[test]
fn two_page_file_decodes_as_its_first_page() {
    let (first, second) = (gradient_u8(4, 6), gradient_u32(9, 2));
    let mut bytes = first.encode(Endian::Little).unwrap();
    if bytes.len() % 2 == 1 {
        bytes.push(0);
    }
    // Append the second file without its 8-byte header; its offsets shift.
    let shift = bytes.len() - 8;
    let tail = second.encode(Endian::Little).unwrap();
    bytes.extend_from_slice(&tail[8..]);
    let (one, two) = (first_ifd(&bytes), first_ifd(&tail) + shift);
    let strip = entry_pos(&bytes, two, 273) + 8; // StripOffsets, one strip: inline
    let moved = u32::from_le_bytes(bytes[strip..strip + 4].try_into().unwrap()) + shift as u32;
    bytes[strip..strip + 4].copy_from_slice(&moved.to_le_bytes());
    let next = |ifd: usize, bytes: &[u8]| {
        ifd + 2 + 12 * u16::from_le_bytes(bytes[ifd..ifd + 2].try_into().unwrap()) as usize
    };
    let (next_one, next_two) = (next(one, &bytes), next(two, &bytes));
    bytes[next_one..next_one + 4].copy_from_slice(&(two as u32).to_le_bytes());
    bytes[next_two..next_two + 4].copy_from_slice(&(one as u32).to_le_bytes());

    assert_eq!(TiffImage::decode(&bytes).unwrap(), first);
    let page = Page::first(&bytes).unwrap();
    assert_eq!((page.width(), page.height(), page.kind()), (4, 6, PixelKind::U8));
    // The appended page is well formed: a file that starts at its IFD
    // decodes to `second`.
    bytes[4..8].copy_from_slice(&(two as u32).to_le_bytes());
    assert_eq!(TiffImage::decode(&bytes).unwrap(), second);
}
