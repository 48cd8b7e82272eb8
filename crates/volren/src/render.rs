//! Ray casting and brick compositing.

use crate::image::RgbaImage;
use crate::transfer::TransferFunction;

/// A rendered brick: the partial image of one sub-box of the volume, plus
/// where it sits in image space and along the viewing axis.
#[derive(Debug, Clone)]
pub struct BrickImage {
    /// Image-space x of the brick footprint (volume x).
    pub x0: usize,
    /// Image-space y of the brick footprint (volume y).
    pub y0: usize,
    /// Brick start along the viewing axis (volume z); compositing order key.
    pub z0: usize,
    /// Partial image covering exactly the brick footprint.
    pub image: RgbaImage,
}

/// Ray-cast one brick (orthographic along +z, viewer at −z, voxel-center
/// sampling). `data` holds the brick's voxels x-fastest with extents `dims`;
/// `offset` places the brick in the global volume.
pub fn render_brick(
    data: &[f32],
    dims: [usize; 3],
    offset: [usize; 3],
    tf: &TransferFunction,
) -> BrickImage {
    assert_eq!(data.len(), dims[0] * dims[1] * dims[2], "brick buffer does not match dims");
    let [nx, ny, nz] = dims;
    let mut image = RgbaImage::transparent(nx, ny);
    for y in 0..ny {
        for x in 0..nx {
            // Front-to-back along z within the brick.
            for z in 0..nz {
                let (rgb, alpha) = tf.classify(data[x + nx * (y + ny * z)]);
                if alpha > 0.0 {
                    image.shade(x, y, rgb, alpha);
                }
            }
        }
    }
    BrickImage { x0: offset[0], y0: offset[1], z0: offset[2], image }
}

/// Render a whole volume in one pass — the serial reference image.
pub fn render_volume(data: &[f32], dims: [usize; 3], tf: &TransferFunction) -> RgbaImage {
    render_brick(data, dims, [0, 0, 0], tf).image
}

/// Composite brick images into the full picture of a `width × height`
/// viewport. Bricks are ordered front-to-back (ascending `z0`) per
/// footprint; the result equals [`render_volume`] when the bricks tile the
/// volume.
pub fn composite(width: usize, height: usize, mut bricks: Vec<BrickImage>) -> RgbaImage {
    bricks.sort_by_key(|b| b.z0);
    let mut out = RgbaImage::transparent(width, height);
    for brick in &bricks {
        let bw = brick.image.width;
        let bh = brick.image.height;
        assert!(
            brick.x0 + bw <= width && brick.y0 + bh <= height,
            "brick footprint escapes the viewport"
        );
        for y in 0..bh {
            for x in 0..bw {
                let src = brick.image.get(x, y);
                let i = 4 * ((brick.y0 + y) * width + brick.x0 + x);
                let t = 1.0 - out.data[i + 3];
                if t <= 0.0 {
                    continue;
                }
                for (c, &v) in src.iter().enumerate() {
                    out.data[i + c] += t * v;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phantom::phantom_tooth;
    use crate::transfer::TransferFunction;

    fn max_pixel_diff(a: &RgbaImage, b: &RgbaImage) -> f32 {
        a.data.iter().zip(&b.data).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    #[test]
    fn single_brick_composite_is_identity() {
        let dims = [16, 12, 8];
        let vol = phantom_tooth(dims);
        let tf = TransferFunction::tooth();
        let reference = render_volume(&vol, dims, &tf);
        let brick = render_brick(&vol, dims, [0, 0, 0], &tf);
        let composed = composite(16, 12, vec![brick]);
        assert_eq!(max_pixel_diff(&reference, &composed), 0.0);
    }

    #[test]
    fn z_split_bricks_reproduce_reference() {
        // Split the volume into two z-halves; compositing must match the
        // one-pass render (same per-pixel over ordering, grouping tolerance).
        let dims = [16, 16, 16];
        let vol = phantom_tooth(dims);
        let tf = TransferFunction::tooth();
        let reference = render_volume(&vol, dims, &tf);

        let half = 16 * 16 * 8;
        let front = render_brick(&vol[..half], [16, 16, 8], [0, 0, 0], &tf);
        let back = render_brick(&vol[half..], [16, 16, 8], [0, 0, 8], &tf);
        // Deliberately submit out of order to test sorting.
        let composed = composite(16, 16, vec![back, front]);
        assert!(max_pixel_diff(&reference, &composed) < 1e-5);
    }

    #[test]
    fn xy_split_bricks_tile_footprints() {
        let dims = [16, 16, 4];
        let vol = phantom_tooth(dims);
        let tf = TransferFunction::tooth();
        let reference = render_volume(&vol, dims, &tf);
        // Extract the left and right x-halves into separate brick buffers.
        let extract = |x0: usize| -> Vec<f32> {
            let mut out = Vec::with_capacity(8 * 16 * 4);
            for z in 0..4 {
                for y in 0..16 {
                    for x in 0..8 {
                        out.push(vol[(x0 + x) + 16 * (y + 16 * z)]);
                    }
                }
            }
            out
        };
        let left = render_brick(&extract(0), [8, 16, 4], [0, 0, 0], &tf);
        let right = render_brick(&extract(8), [8, 16, 4], [8, 0, 0], &tf);
        let composed = composite(16, 16, vec![left, right]);
        assert!(max_pixel_diff(&reference, &composed) < 1e-6);
    }

    #[test]
    fn tooth_render_is_nonempty_and_centered() {
        let dims = [32, 32, 32];
        let vol = phantom_tooth(dims);
        let tf = TransferFunction::tooth();
        let img = render_volume(&vol, dims, &tf);
        assert!(img.max_alpha() > 0.5, "render produced nothing");
        // Center pixel hits the tooth; corner pixel is air.
        assert!(img.get(16, 16)[3] > 0.3);
        assert!(img.get(0, 0)[3] < 0.2);
    }

    #[test]
    #[should_panic]
    fn escaping_brick_panics() {
        let tf = TransferFunction::tooth();
        let brick = render_brick(&vec![0.5; 8 * 8 * 2], [8, 8, 2], [4, 0, 0], &tf);
        let _ = composite(8, 8, vec![brick]);
    }
}
