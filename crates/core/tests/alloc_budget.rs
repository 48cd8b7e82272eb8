//! Allocation budget of a held `reorganize`. A plan carries its exchange's
//! part lists, so a call allocates a fixed set of tables — the chunks, the
//! per-peer slices of the plan's lists, the loans — whatever the number of
//! rounds it carries. Every allocation of this test binary is counted on
//! the thread that makes it, so each rank counts its own.

use ddr_core::{compute_local_plan, Block, DataKind, Descriptor, Layout};
use minimpi::Universe;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; its allocations are not
    // a rank's.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: defers every call to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's arguments are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Held `reorganize` calls each rank makes and counts.
const CALLS: u64 = 32;

/// Allocations each of 2 ranks makes in 32 held `reorganize` calls of a
/// plan with `rounds` rounds: rank `r` owns every second 64-byte strip of a line, as
/// in a round-robin deal, and needs its half of the line.
fn allocs_per_call(rounds: usize) -> Vec<u64> {
    const STRIP: usize = 16;
    let len = 2 * rounds * STRIP;
    let layouts: Vec<Layout> = (0..2)
        .map(|r| Layout {
            owned: (0..rounds).map(|k| Block::d1((2 * k + r) * STRIP, STRIP).unwrap()).collect(),
            need: Block::d1(r * len / 2, len / 2).unwrap(),
        })
        .collect();
    let desc = Descriptor::for_type::<u32>(2, DataKind::D1).unwrap();
    Universe::run(2, |comm| {
        let me = &layouts[comm.rank()];
        let plan = compute_local_plan(comm.rank(), &layouts, &desc).unwrap();
        assert_eq!(plan.num_rounds(), rounds);
        let chunks: Vec<Vec<u32>> = me
            .owned
            .iter()
            .map(|b| (b.offset[0]..b.offset[0] + STRIP).map(|x| x as u32).collect())
            .collect();
        let refs: Vec<&[u32]> = chunks.iter().map(Vec::as_slice).collect();
        let mut need = Vec::new();
        // Warm up: mailboxes and wait queues reach their steady size.
        for _ in 0..8 {
            plan.reorganize(comm, &refs, &mut need).unwrap();
        }
        let before = allocs();
        for _ in 0..CALLS {
            plan.reorganize(comm, &refs, &mut need).unwrap();
        }
        let total = allocs() - before;
        assert_eq!(need.len(), len / 2);
        let start = me.need.offset[0] as u32;
        assert!(need.iter().zip(start..).all(|(&got, want)| got == want), "wrong bytes");
        total
    })
}

/// A held `reorganize` of 64 rounds allocates exactly as often as one of 8:
/// nothing per round, so no per-call part list.
#[test]
fn held_reorganize_allocates_the_same_for_8_and_64_rounds() {
    let (eight, sixty_four) = (allocs_per_call(8), allocs_per_call(64));
    assert_eq!(eight, sixty_four, "allocations in 32 calls on each rank, 8 vs 64 rounds");
}

/// A held `reorganize` allocates at most 5 times per rank per call: a loan
/// borrows the plan's part list instead of copying it, and a mailbox queues
/// it with its key in one FIFO instead of a fresh per-key queue.
#[test]
fn held_reorganize_allocates_at_most_5_times_per_call() {
    let total = allocs_per_call(8);
    assert!(
        total.iter().all(|&n| n <= 5 * CALLS),
        "allocations in {CALLS} calls per rank: {total:?}"
    );
}
