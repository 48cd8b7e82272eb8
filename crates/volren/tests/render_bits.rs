//! `render_brick`'s image, pinned to the bit: a digest of every channel's
//! `to_bits` on a 48³ phantom and on a seeded noise volume. A rewrite of
//! the ray caster (say, x-innermost, or classification by table) has to
//! reproduce both digests, not just come close.

use volren::{phantom_tooth, render_brick, RgbaImage, TransferFunction};

/// FNV-1a over the image's dimensions and the bits of every channel.
fn digest(image: &RgbaImage) -> u64 {
    let words = [image.width as u32, image.height as u32];
    let bits = words.into_iter().chain(image.data.iter().map(|v| v.to_bits()));
    bits.flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Samples in `[0, 1)` from a 64-bit LCG, x fastest.
fn noise(len: usize, mut seed: u64) -> Vec<f32> {
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 40) as f32 / (1u64 << 24) as f32
    };
    (0..len).map(|_| next()).collect()
}

#[test]
fn phantom_render_is_bit_identical() {
    let dims = [48, 48, 48];
    let image = render_brick(&phantom_tooth(dims), dims, [0, 0, 0], &TransferFunction::tooth());
    assert_eq!(digest(&image.image), 0xfebb_f8be_7d93_e96f, "{:#x}", digest(&image.image));
}

#[test]
fn noise_render_is_bit_identical() {
    let dims = [40, 24, 32];
    let vol = noise(dims.iter().product(), 7);
    let image = render_brick(&vol, dims, [8, 16, 4], &TransferFunction::tooth());
    assert_eq!((image.x0, image.y0, image.z0), (8, 16, 4));
    assert_eq!(digest(&image.image), 0xeae6_df09_a97c_9ed2, "{:#x}", digest(&image.image));
}
