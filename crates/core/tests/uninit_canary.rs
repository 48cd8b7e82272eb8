//! Canary for reads of uninitialized memory, which AddressSanitizer cannot
//! see. `Plan::reorganize` writes a tiled need straight into the caller's
//! `Vec`'s spare capacity: the loan claims and the self-copy are the only
//! writers, and the length is set after the exchange. Every allocation of
//! this test binary is poisoned with `0xA5` bytes, so an element the
//! exchange failed to write reads `0xA5A5_A5A5_A5A5_A5A5` — a value no
//! cell of these layouts holds, as every cell's value is its linear index
//! (below 2^32) — instead of whatever the allocator left there.

use ddr_core::decompose::{brick, near_cubic_grid, slab};
use ddr_core::{Block, DataKind, Descriptor, ValidationPolicy};
use minimpi::Universe;
use std::alloc::{GlobalAlloc, Layout, System};

const POISON: u8 = 0xA5;

/// The system allocator, with every fresh (non-zeroed) allocation filled
/// with [`POISON`]. `realloc` keeps the default, which allocates through
/// `alloc`, so a grown tail is poisoned too.
struct Poisoned;

// SAFETY: defers to `System` and writes only inside the block it returns.
unsafe impl GlobalAlloc for Poisoned {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed on unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            // SAFETY: `p` is a fresh block of `layout.size()` bytes.
            unsafe { p.write_bytes(POISON, layout.size()) };
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Poisoned = Poisoned;

/// A cell's value: its linear index in `domain`, x fastest.
fn value(domain: &Block, c: [usize; 3]) -> u64 {
    let [w, h, _] = domain.dims;
    (c[0] + w * (c[1] + h * c[2])) as u64
}

/// Each rank owns `owned(rank)` and needs `need(rank)` of `domain`; every
/// rank's need comes back into a `Vec` whose poisoned capacity exceeds the
/// need, and must equal the serial oracle.
fn check(
    n: usize,
    domain: Block,
    owned: impl Fn(usize) -> Vec<Block> + Sync,
    need: impl Fn(usize) -> Block + Sync,
) {
    let kind = if domain.ndims == 3 { DataKind::D3 } else { DataKind::D2 };
    let out = Universe::run(n, |comm| {
        let r = comm.rank();
        let (mine, want) = (owned(r), need(r));
        let desc = Descriptor::for_type::<u64>(n, kind).unwrap();
        let plan = desc.setup_data_mapping(comm, &mine, want).unwrap();
        let chunk = |b: &Block| b.coords().map(|c| value(&domain, c)).collect::<Vec<u64>>();
        let chunks: Vec<Vec<u64>> = mine.iter().map(chunk).collect();
        let mut got = Vec::with_capacity(want.count() as usize + 7);
        plan.reorganize(comm, &chunks, &mut got).unwrap();
        (want, got)
    });
    for (r, (want, got)) in out.iter().enumerate() {
        let oracle: Vec<u64> = want.coords().map(|c| value(&domain, c)).collect();
        let unwritten = got.iter().filter(|&&v| v >> 32 != 0).count();
        assert_eq!(unwritten, 0, "rank {r}: {unwritten} elements were never written");
        assert_eq!(got, &oracle, "rank {r}");
    }
}

/// The stack loader's shape: z-planes dealt round-robin, each rank needing
/// its brick — many rounds, every one of them received from every rank,
/// the self-copy included.
#[test]
fn planes_into_bricks_write_every_element() {
    for n in [2, 3] {
        let domain = Block::d3([0, 0, 0], [12, 8, 9]).unwrap();
        let planes = |r: usize| -> Vec<Block> {
            (r..9).step_by(n).map(|z| Block::d3([0, 0, z], [12, 8, 1]).unwrap()).collect()
        };
        check(n, domain, planes, |r| brick(&domain, near_cubic_grid(n), r).unwrap());
    }
}

/// A 2-D transpose: column slabs in, row slabs out, two chunks per rank.
#[test]
fn column_slabs_into_row_slabs_write_every_element() {
    let (n, domain) = (3, Block::d2([0, 0], [30, 18]).unwrap());
    let cols = |r: usize| {
        vec![slab(&domain, 0, 2 * n, r).unwrap(), slab(&domain, 0, 2 * n, r + n).unwrap()]
    };
    check(n, domain, cols, |r| slab(&domain, 1, n, r).unwrap());
}

/// Row slabs with periodic one-row halos, and a fourth need inside the
/// rank's own slab, overlapping its first: four needs filled by one
/// exchange, each through its own buffer's spare capacity.
#[test]
fn slab_halos_and_an_overlapping_need_write_every_element() {
    let (n, domain) = (3, Block::d2([0, 0], [10, 12]).unwrap());
    let out = Universe::run(n, |comm| {
        let mine = slab(&domain, 1, n, comm.rank()).unwrap();
        let (y0, y1) = (mine.offset[1], mine.offset[1] + mine.dims[1]);
        let row = |y: usize| Block::d2([0, y % 12], [10, 1]).unwrap();
        let needs = [mine, row(y0 + 11), row(y1), Block::d2([3, y0 + 1], [4, 2]).unwrap()];
        let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
        let strict = ValidationPolicy::Strict;
        let plan = desc.setup_multi_mapping(comm, &[mine], &needs, strict).unwrap();
        let chunk: Vec<u64> = mine.coords().map(|c| value(&domain, c)).collect();
        let mut got: Vec<Vec<u64>> =
            needs.iter().map(|b| Vec::with_capacity(b.count() as usize + 7)).collect();
        plan.reorganize_needs(comm, &[chunk], &mut got).unwrap();
        (needs, got)
    });
    for (r, (needs, got)) in out.iter().enumerate() {
        for (k, (want, got)) in needs.iter().zip(got).enumerate() {
            let oracle: Vec<u64> = want.coords().map(|c| value(&domain, c)).collect();
            let unwritten = got.iter().filter(|&&v| v >> 32 != 0).count();
            assert_eq!(unwritten, 0, "rank {r} need {k}: {unwritten} elements were never written");
            assert_eq!(got, &oracle, "rank {r} need {k}");
        }
    }
}
