//! Memory footprint of the stack loader: besides the brick it returns,
//! `load_stack` holds a slab's worth of samples, however deep the stack.
//!
//! A counting global allocator tracks, per thread, the bytes live in blocks
//! of at least [`COUNTED`] bytes and their peak, so the guard reads each
//! rank thread's own buffers, not the process RSS (which the benchmark's
//! `peak_rss_mb` reads).

use ddr_bench::loader::{load_stack, write_phantom_stack};
use ddr_bench::tiffcase::Method;
use minimpi::Universe;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Size from which a block is counted. The exchange's small handles can be
/// freed by the peer's thread, whichever lets go last, which would move a
/// thread's count by a few bytes a slab; every buffer of the loader is
/// larger.
const COUNTED: usize = 1 << 10;

/// Add a block of `size` bytes to (`sign` 1) or take it from (`sign` -1)
/// this thread's live count.
fn count(size: usize, sign: isize) {
    if size < COUNTED {
        return;
    }
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + sign * size as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout.size(), -1);
        count(new_size, 1);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout.size(), -1);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most bytes each rank thread of a 2-rank round-robin load of `vol`
/// held at once beyond what it held before the call, less its brick.
fn peak_besides_brick(vol: [usize; 3]) -> Vec<isize> {
    let dir = std::env::temp_dir().join(format!("ddr_footprint_{}_{}", vol[2], std::process::id()));
    write_phantom_stack(&dir, vol).unwrap();
    let d = dir.clone();
    let peaks = Universe::run(2, move |comm| {
        let before = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(before));
        let (_, brick, _) = load_stack(comm, &d, vol, Method::RoundRobin).unwrap();
        PEAK.with(Cell::get) - before - (brick.capacity() * 4) as isize
    });
    std::fs::remove_dir_all(&dir).unwrap();
    peaks
}

#[test]
fn round_robin_holds_one_slab_besides_the_brick_at_any_depth() {
    let (x, y) = (64, 32);
    let peaks: Vec<Vec<isize>> = [32, 64, 128].map(|z| peak_besides_brick([x, y, z])).into();
    for rank in 0..2 {
        let at: Vec<isize> = peaks.iter().map(|p| p[rank]).collect();
        assert!(at.iter().all(|&p| p == at[0]), "rank {rank}: at depth 32, 64, 128: {at:?}");
    }
    // One slab is a rank's 2 images and its part of the 4-plane slab, 16-bit
    // samples; the file buffer and the plan stay below another slab.
    let slab = 2 * x * y * 2 + x / 2 * y * 4 * 2;
    assert!(peaks.iter().flatten().all(|&p| p < 2 * slab as isize), "{peaks:?} against {slab} B");
}
