//! Standard domain decompositions used by the paper's two use cases.
//!
//! * slab ("slice") decompositions along one axis — the LBM simulation's
//!   producer layout and the TIFF reader's per-image assignment,
//! * brick decompositions into an `nx × ny × nz` grid of boxes "as close to
//!   cubes as possible" — the distributed volume renderer's consumer layout,
//! * near-square 2-D grids — the in-transit analysis application's layout,
//! * round-robin vs consecutive assignment of a 1-D series of items (TIFF
//!   images) to ranks — the two redistribution techniques of Table II/III.

use crate::block::Block;
use crate::error::Result;

/// Balanced split of `extent` into `parts`: the first `extent % parts` parts
/// get one extra element. Returns `(offset, len)` of part `idx`.
pub fn split_axis(extent: usize, parts: usize, idx: usize) -> (usize, usize) {
    assert!(parts > 0 && idx < parts, "split_axis: idx {idx} out of {parts} parts");
    let base = extent / parts;
    let extra = extent % parts;
    let len = base + usize::from(idx < extra);
    let offset = idx * base + idx.min(extra);
    (offset, len)
}

/// Slab decomposition of a domain along `axis`: rank `i` of `parts` gets one
/// contiguous slab. Slabs cover the domain exactly.
pub fn slab(domain: &Block, axis: usize, parts: usize, idx: usize) -> Result<Block> {
    let (off, len) = split_axis(domain.dims[axis], parts, idx);
    let mut offset = domain.offset;
    let mut dims = domain.dims;
    offset[axis] += off;
    dims[axis] = len;
    Block::new(domain.ndims, offset, dims)
}

/// Grid ("brick") decomposition: the domain is split into
/// `counts[0] × counts[1] × counts[2]` boxes; `idx` enumerates bricks with
/// axis 0 fastest. Bricks cover the domain exactly.
pub fn brick(domain: &Block, counts: [usize; 3], idx: usize) -> Result<Block> {
    let total = counts[0] * counts[1] * counts[2];
    assert!(idx < total, "brick index {idx} out of {total}");
    let ix = idx % counts[0];
    let iy = (idx / counts[0]) % counts[1];
    let iz = idx / (counts[0] * counts[1]);
    let mut offset = domain.offset;
    let mut dims = domain.dims;
    for (axis, i) in [(0, ix), (1, iy), (2, iz)] {
        let (off, len) = split_axis(domain.dims[axis], counts[axis], i);
        offset[axis] = domain.offset[axis] + off;
        dims[axis] = len;
    }
    Block::new(domain.ndims, offset, dims)
}

/// Factor `n` into a 2-D grid `(cols, rows)` with `cols >= rows` and the
/// aspect ratio as close to square as possible — the paper's "grid that was
/// as close to square as possible (given the total number of analysis
/// ranks)".
pub fn near_square_grid(n: usize) -> (usize, usize) {
    assert!(n > 0);
    let mut best = (n, 1);
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            best = (n / r, r);
        }
        r += 1;
    }
    best
}

/// Factor `n` into a 3-D grid with extents as equal as possible (minimizing
/// the max/min ratio) — "equally sized boxes that are as close to cubes as
/// possible" for distributed volume rendering.
pub fn near_cubic_grid(n: usize) -> [usize; 3] {
    assert!(n > 0);
    let mut best = [n, 1, 1];
    let mut best_score = n as f64;
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let m = n / a;
            let mut b = a;
            while b * b <= m {
                if m.is_multiple_of(b) {
                    let c = m / b;
                    let score = c as f64 / a as f64; // c >= b >= a
                    if score < best_score {
                        best_score = score;
                        best = [a, b, c];
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// Round-robin assignment of `n_items` 1-D items (e.g. TIFF images along the
/// z axis of a volume) to `nprocs` ranks: rank `r` owns items
/// `r, r + nprocs, r + 2·nprocs, …`, **each as a separate chunk** — the
/// paper's "round-robin assignment requires each image to be a separate
/// chunk to redistribute with DDR".
///
/// `item_block(i)` maps an item index to its block of the domain.
pub fn round_robin_items(
    n_items: usize,
    nprocs: usize,
    rank: usize,
    item_block: impl Fn(usize) -> Result<Block>,
) -> Result<Vec<Block>> {
    (rank..n_items).step_by(nprocs.max(1)).map(item_block).collect()
}

/// Consecutive assignment of `n_items` items to `nprocs` ranks: rank `r`
/// owns one contiguous run of items, **groupable into a single chunk** —
/// the paper's "consecutive images can be grouped together into a single
/// chunk to redistribute with DDR".
///
/// Returns the (first_item, n_items) range for `rank`.
pub fn consecutive_items(n_items: usize, nprocs: usize, rank: usize) -> (usize, usize) {
    split_axis(n_items, nprocs, rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_axis_balanced_with_remainder() {
        // 10 into 3: 4, 3, 3.
        assert_eq!(split_axis(10, 3, 0), (0, 4));
        assert_eq!(split_axis(10, 3, 1), (4, 3));
        assert_eq!(split_axis(10, 3, 2), (7, 3));
        // Exact division.
        assert_eq!(split_axis(8, 4, 3), (6, 2));
    }

    #[test]
    fn split_axis_covers_exactly() {
        for extent in [1usize, 7, 100, 4096] {
            for parts in [1usize, 3, 27, 64] {
                let mut covered = 0;
                for i in 0..parts {
                    let (off, len) = split_axis(extent, parts, i);
                    assert_eq!(off, covered);
                    covered += len;
                }
                assert_eq!(covered, extent);
            }
        }
    }

    #[test]
    fn slabs_tile_domain() {
        let domain = Block::d2([0, 0], [100, 37]).unwrap();
        let slabs: Vec<Block> = (0..5).map(|i| slab(&domain, 1, 5, i).unwrap()).collect();
        let total: u64 = slabs.iter().map(|b| b.count()).sum();
        assert_eq!(total, domain.count());
        for w in slabs.windows(2) {
            assert!(w[0].intersect(&w[1]).is_none());
        }
    }

    #[test]
    fn bricks_tile_domain_exactly() {
        let domain = Block::d3([0, 0, 0], [10, 7, 5]).unwrap();
        let counts = [3, 2, 2];
        let bricks: Vec<Block> = (0..12).map(|i| brick(&domain, counts, i).unwrap()).collect();
        let total: u64 = bricks.iter().map(|b| b.count()).sum();
        assert_eq!(total, domain.count());
        for (i, a) in bricks.iter().enumerate() {
            for b in &bricks[i + 1..] {
                assert!(a.intersect(b).is_none(), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn near_square_grids() {
        assert_eq!(near_square_grid(32), (8, 4));
        assert_eq!(near_square_grid(36), (6, 6));
        assert_eq!(near_square_grid(7), (7, 1));
        assert_eq!(near_square_grid(1), (1, 1));
        assert_eq!(near_square_grid(12), (4, 3));
    }

    #[test]
    fn near_cubic_grids() {
        assert_eq!(near_cubic_grid(27), [3, 3, 3]);
        assert_eq!(near_cubic_grid(64), [4, 4, 4]);
        assert_eq!(near_cubic_grid(216), [6, 6, 6]);
        assert_eq!(near_cubic_grid(12), [2, 2, 3]);
        assert_eq!(near_cubic_grid(1), [1, 1, 1]);
    }

    #[test]
    fn round_robin_assignment() {
        let blocks = round_robin_items(10, 4, 1, |i| Block::d1(i * 5, 5)).unwrap();
        // Rank 1 of 4 with 10 items: items 1, 5, 9.
        assert_eq!(
            blocks,
            vec![Block::d1(5, 5).unwrap(), Block::d1(25, 5).unwrap(), Block::d1(45, 5).unwrap()]
        );
    }

    #[test]
    fn consecutive_assignment_matches_split() {
        assert_eq!(consecutive_items(4096, 27, 0), (0, 152));
        assert_eq!(consecutive_items(4096, 27, 26), (4096 - 151, 151));
        let covered: usize = (0..27).map(|r| consecutive_items(4096, 27, r).1).sum();
        assert_eq!(covered, 4096);
    }
}
