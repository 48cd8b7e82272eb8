//! Canary for reads of uninitialized memory, which AddressSanitizer cannot
//! see. `Plan::reorganize_from` writes a tiled need straight into a fresh
//! `Vec`'s spare capacity: the loan claims and the self-copy are the only
//! writers, and the length is set after the exchange. Every allocation of
//! this test binary is poisoned with `0xA5` bytes, so an element the
//! exchange failed to write reads `0xA5A5_A5A5_A5A5_A5A5` — a value no
//! cell of these layouts holds, as every cell's value is its linear index
//! (below 2^32) — instead of whatever the allocator left there.

use ddr_core::decompose::{brick, near_cubic_grid, slab};
use ddr_core::{Block, DataKind, DdrError, Descriptor};
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
/// rank's need comes back from a produced-chunk run and must equal the
/// serial oracle.
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
        let got = plan
            .reorganize_from(comm, |round, chunk: &mut Vec<u64>| {
                *chunk = mine[round].coords().map(|c| value(&domain, c)).collect();
                Ok::<_, DdrError>(())
            })
            .unwrap();
        (want, got)
    });
    for (r, (want, got)) in out.iter().enumerate() {
        let unwritten = got.iter().filter(|&&v| v >> 32 != 0).count();
        assert_eq!(unwritten, 0, "rank {r}: {unwritten} elements were never written");
        let oracle: Vec<u64> = want.coords().map(|c| value(&domain, c)).collect();
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
