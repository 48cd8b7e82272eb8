//! Exhaustive small-scope oracle for the facts a [`Plan`] derives once: the
//! tiling flag and the `alltoallw` part lists. Every layout in scope is
//! enumerated, and each plan is held to brute force:
//!
//! - `tiled` is true exactly when every cell of the needed block is covered
//!   by exactly one owned chunk, counted on a cell-owner array;
//! - each peer's part lists equal the round-ordered concatenation of
//!   `rounds[r].sends` / `rounds[r].recvs` filtered by peer, every send
//!   naming its round's chunk.
//!
//! Scope: every partition of a 1-D domain of length ≤ 8 among ≤ 3 ranks with
//! ≤ 2 chunks each (`Strict` owners), every pair of possibly overlapping
//! chunk lists on a 1-D domain of length ≤ 4 among ≤ 2 ranks (`Skip`
//! owners), and guillotine tilings of a 4×4 and a 2×2×3 domain. Needs range
//! over every block of the domain grown by two cells (1-D) or one cell per
//! axis (2-D, 3-D), so they also overhang it (`Relaxed`).

use crate::{compute_local_plan, Block, DataKind, Descriptor, Layout, Transfer};
use minimpi::Datatype;

/// Check the derived facts of `rank`'s plan for `layouts`.
fn check(layouts: &[Layout], rank: usize, desc: &Descriptor) {
    let plan = compute_local_plan(rank, layouts, desc).unwrap();
    let case = || format!("rank {rank} of {layouts:?}");
    assert_eq!(plan.tiled, [covered_once(layouts, &layouts[rank].need)], "tiled: {}", case());
    let n = plan.nprocs;
    assert_eq!((plan.parts.sends.len(), plan.parts.recvs.len()), (n, n), "{}", case());
    for p in 0..n {
        let (mut sends, mut recvs) = (Vec::new(), Vec::new());
        for (r, round) in plan.rounds.iter().enumerate() {
            let subarray = |t: &Transfer| Datatype::Subarray(t.subarray);
            sends.extend(round.sends.iter().filter(|t| t.peer == p).map(|t| (r, subarray(t))));
            recvs.extend(round.recvs.iter().filter(|t| t.peer == p).map(|t| (t.need, subarray(t))));
        }
        assert_eq!(plan.parts.sends[p], sends, "peer {p} sends: {}", case());
        assert_eq!(plan.parts.recvs[p], recvs, "peer {p} recvs: {}", case());
    }
}

/// Brute force: every cell of `need` lies in exactly one chunk of the
/// layouts, counted on a cell-owner array.
fn covered_once(layouts: &[Layout], need: &Block) -> bool {
    let mut owners = vec![0u32; need.count() as usize];
    let chunks = layouts.iter().flat_map(|l| &l.owned);
    for region in chunks.filter_map(|c| c.intersect(need)) {
        for cell in region.coords() {
            owners[need.linear_index(cell).unwrap()] += 1;
        }
    }
    owners.iter().all(|&n| n == 1)
}

/// Every block whose extent along each axis is an interval of
/// `0..dims[axis] + grow`: the domain's blocks and ones overhanging it.
fn needs(ndims: usize, dims: [usize; 3], grow: usize) -> Vec<Block> {
    let intervals = |axis: usize| -> Vec<(usize, usize)> {
        let end = if axis < ndims { dims[axis] + grow } else { 1 };
        (0..end).flat_map(|a| (a + 1..=end).map(move |b| (a, b - a))).collect()
    };
    let mut out = Vec::new();
    for &(x, w) in &intervals(0) {
        for &(y, h) in &intervals(1) {
            for &(z, d) in &intervals(2) {
                out.push(Block::new(ndims, [x, y, z], [w, h, d]).unwrap());
            }
        }
    }
    out
}

/// Each rank in turn needs each block of `needs`; the others need the whole
/// domain, so every rank's sends reach every peer it overlaps.
fn check_all_needs(owned: &[Vec<Block>], domain: &Block, needs: &[Block], desc: &Descriptor) {
    let mut layouts: Vec<Layout> =
        owned.iter().map(|o| Layout { owned: o.clone(), need: *domain }).collect();
    for rank in 0..owned.len() {
        for &need in needs {
            layouts[rank].need = need;
            check(&layouts, rank, desc);
        }
        layouts[rank].need = *domain;
    }
}

fn kind(ndims: usize) -> DataKind {
    [DataKind::D1, DataKind::D2, DataKind::D3][ndims - 1]
}

/// Every way to deal `pieces` to `nprocs` ranks, at most two each, in
/// either order within a rank.
fn deal(pieces: &[Block], nprocs: usize, f: &mut impl FnMut(&[Vec<Block>])) {
    let m = pieces.len();
    if m > 2 * nprocs {
        return;
    }
    for code in 0..nprocs.pow(m as u32) {
        let mut owned = vec![Vec::new(); nprocs];
        let mut c = code;
        for piece in pieces {
            owned[c % nprocs].push(*piece);
            c /= nprocs;
        }
        if owned.iter().any(|o| o.len() > 2) {
            continue;
        }
        let pairs: Vec<usize> = (0..nprocs).filter(|&r| owned[r].len() == 2).collect();
        for swaps in 0..1usize << pairs.len() {
            let mut order = owned.clone();
            for (i, &r) in pairs.iter().enumerate() {
                if swaps >> i & 1 == 1 {
                    order[r].swap(0, 1);
                }
            }
            f(&order);
        }
    }
}

/// Every tiling of `b` into at most `pieces` blocks by guillotine cuts, each
/// once, its blocks in offset order.
fn guillotine(b: Block, pieces: usize) -> Vec<Vec<Block>> {
    let mut all = cuts(b, pieces);
    for tiling in &mut all {
        tiling.sort_by_key(|p| (p.offset, p.dims));
    }
    all.sort_by_key(|t| t.iter().map(|p| (p.offset, p.dims)).collect::<Vec<_>>());
    all.dedup();
    all
}

/// Every way to cut `b` into at most `pieces` blocks by guillotine cuts;
/// two cut orders may give one tiling.
fn cuts(b: Block, pieces: usize) -> Vec<Vec<Block>> {
    let mut out = vec![vec![b]];
    if pieces < 2 {
        return out;
    }
    for axis in 0..b.ndims {
        for cut in 1..b.dims[axis] {
            let (mut lo, mut hi) = (b, b);
            lo.dims[axis] = cut;
            hi.offset[axis] += cut;
            hi.dims[axis] -= cut;
            for k in 1..pieces {
                for left in cuts(lo, k) {
                    for right in cuts(hi, pieces - k) {
                        out.push([left.clone(), right].concat());
                    }
                }
            }
        }
    }
    out
}

/// Every partition of a 1-D domain of length ≤ 8 among ≤ 3 ranks, ≤ 2
/// chunks each: 8.2 million plans, about 20 s in release on one core. An
/// unoptimised build stops at length 6 (0.65 million), so the debug
/// workspace run stays short; CI's `proptest` job runs the full scope.
#[test]
fn partitions_of_a_line() {
    let longest = if cfg!(debug_assertions) { 6 } else { 8 };
    for len in 1..=longest {
        let domain = Block::d1(0, len).unwrap();
        let needs = needs(1, [len, 1, 1], 2);
        for nprocs in 1..=3 {
            let desc = Descriptor::new(nprocs, DataKind::D1, 4).unwrap();
            for cuts in 0..1usize << (len - 1) {
                let mut pieces = Vec::new();
                let mut start = 0;
                for end in (1..=len).filter(|&e| e == len || cuts >> (e - 1) & 1 == 1) {
                    pieces.push(Block::d1(start, end - start).unwrap());
                    start = end;
                }
                deal(&pieces, nprocs, &mut |owned| {
                    check_all_needs(owned, &domain, &needs, &desc);
                });
            }
        }
    }
}

/// Chunks that overlap or leave holes, as `Skip` admits: every list of at
/// most two intervals per rank, on a line of length ≤ 4 among ≤ 2 ranks.
#[test]
fn overlapping_chunks_on_a_line() {
    for len in 1..=4 {
        let domain = Block::d1(0, len).unwrap();
        let needs = needs(1, [len, 1, 1], 2);
        let intervals: Vec<Block> = (0..len)
            .flat_map(|a| (a + 1..=len).map(move |b| Block::d1(a, b - a).unwrap()))
            .collect();
        let lists: Vec<Vec<Block>> = std::iter::once(Vec::new())
            .chain(intervals.iter().map(|&i| vec![i]))
            .chain(intervals.iter().flat_map(|&i| intervals.iter().map(move |&j| vec![i, j])))
            .collect();
        for nprocs in 1..=2 {
            let desc = Descriptor::new(nprocs, DataKind::D1, 4).unwrap();
            for code in 0..lists.len().pow(nprocs as u32) {
                let owned: Vec<Vec<Block>> = (0..nprocs)
                    .map(|r| lists[code / lists.len().pow(r as u32) % lists.len()].clone())
                    .collect();
                check_all_needs(&owned, &domain, &needs, &desc);
            }
        }
    }
}

/// Guillotine tilings of a 4×4 square into ≤ 3 pieces among 2 and 3 ranks,
/// and of a 2×2×3 box into ≤ 3 pieces among 2 ranks: 1.7 million plans,
/// about 3 s in release. An unoptimised build deals the square to 2 ranks
/// only.
#[test]
fn guillotine_tilings_in_two_and_three_dimensions() {
    let most = if cfg!(debug_assertions) { 2 } else { 3 };
    let cases = [
        (Block::d2([0, 0], [4, 4]).unwrap(), 2..=most),
        (Block::d3([0, 0, 0], [2, 2, 3]).unwrap(), 2..=2),
    ];
    for (domain, ranks) in cases {
        let needs = needs(domain.ndims, domain.dims, 1);
        for nprocs in ranks {
            let desc = Descriptor::new(nprocs, kind(domain.ndims), 4).unwrap();
            for pieces in guillotine(domain, 3) {
                deal(&pieces, nprocs, &mut |owned| {
                    check_all_needs(owned, &domain, &needs, &desc);
                });
            }
        }
    }
}
