//! Distributed compositing: combine per-rank brick images over a
//! communicator, as the paper's multi-GPU renderer does after each rank
//! draws its brick — one DDR redistribution, then the `over` fold.

use crate::image::RgbaImage;
use crate::render::BrickImage;
use ddr_core::{Block, DataKind, Descriptor, Result, ValidationPolicy};
use minimpi::Comm;

/// Collective: composite every rank's brick image into the final
/// `width × height` picture at rank 0. Returns `Some(image)` on rank 0,
/// `None` elsewhere.
///
/// The brick images are chunks of one `f32` domain of `4·width × height ×
/// layers` premultiplied channels: a brick's layer is its slot among the
/// distinct `z0`s, found with one allgather, so the bricks of each layer
/// must tile the viewport. One DDR plan moves the whole stack to rank 0
/// (every other rank needs nothing), which folds the layers front to back
/// with [`RgbaImage::under`]: the same `over` operations in the same order
/// as [`crate::composite`] (a saturated pixel adds zero where `composite`
/// skips it), so the same image to the bit.
pub fn composite_gather(
    comm: &Comm,
    width: usize,
    height: usize,
    brick: &BrickImage,
) -> Result<Option<RgbaImage>> {
    let mut zs = comm.allgather(&[brick.z0])?.concat();
    zs.sort_unstable();
    zs.dedup();
    let layer = zs.partition_point(|&z| z < brick.z0);
    let img = &brick.image;
    let chunk = Block::d3([4 * brick.x0, brick.y0, layer], [4 * img.width, img.height, 1])?;
    let stack = Block::d3([0, 0, 0], [4 * width, height, zs.len()])?;
    let needs: &[Block] = if comm.rank() == 0 { &[stack] } else { &[] };
    let desc = Descriptor::for_type::<f32>(comm.size(), DataKind::D3)?;
    let plan = desc.setup_multi_mapping(comm, &[chunk], needs, ValidationPolicy::Strict)?;
    let mut layers = vec![Vec::new(); needs.len()];
    plan.reorganize_needs(comm, &[&img.data], &mut layers)?;
    Ok(layers.pop().map(|layers| {
        let mut out = RgbaImage::transparent(width, height);
        layers.chunks_exact(4 * width * height).for_each(|layer| out.under(layer));
        out
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phantom::phantom_tooth;
    use crate::render::{composite, render_brick};
    use crate::transfer::TransferFunction;
    use ddr_core::decompose::{brick, near_cubic_grid};
    use minimpi::Universe;

    /// Seeded uniform noise in `[0, 1)`: a volume with no smooth structure.
    fn noise(dims: [usize; 3], mut seed: u64) -> Vec<f32> {
        let len = dims.iter().product();
        (0..len)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (seed >> 40) as f32 / (1u64 << 24) as f32
            })
            .collect()
    }

    /// The distributed composite equals the serial [`composite`] of the same
    /// bricks to the bit, on the phantom and on noise, over `near_cubic_grid`
    /// bricks at 1 to 8 ranks.
    #[test]
    fn distributed_composite_is_bit_identical_to_serial() {
        let dims = [24, 20, 18];
        let tf = TransferFunction::tooth();
        let domain = Block::d3([0, 0, 0], dims).unwrap();
        for (name, vol) in [("phantom", phantom_tooth(dims)), ("noise", noise(dims, 7))] {
            for n in [1, 2, 3, 4, 6, 8] {
                let (vol, tf) = (&vol, &tf);
                let out = Universe::run(n, |comm| {
                    let b = brick(&domain, near_cubic_grid(n), comm.rank()).unwrap();
                    let data: Vec<f32> =
                        b.coords().map(|c| vol[c[0] + dims[0] * (c[1] + dims[1] * c[2])]).collect();
                    let mine = render_brick(&data, b.dims, b.offset, tf);
                    let image = composite_gather(comm, dims[0], dims[1], &mine).unwrap();
                    (mine, image)
                });
                let serial = composite(dims[0], dims[1], out.iter().map(|o| o.0.clone()).collect());
                let bits =
                    |img: &RgbaImage| img.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                for (r, (_, image)) in out.iter().enumerate() {
                    assert_eq!(image.is_some(), r == 0, "{name}, {n} ranks, rank {r}");
                }
                let image = out[0].1.as_ref().unwrap();
                assert!(image.max_alpha() > 0.1, "{name}: nothing was rendered");
                assert!(bits(image) == bits(&serial), "{name}, {n} ranks: not bit-identical");
            }
        }
    }
}
