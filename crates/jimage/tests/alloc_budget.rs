//! Allocation budget of use case 2's image path: after a warm call,
//! `RgbImage::from_scalar_field` makes one large allocation, its image, and
//! `jpeg::encode` of a 256² frame makes none — no whole-frame temporary.
//!
//! A counting global allocator records, per thread, how many allocations
//! reach [`LARGE`], so tests running in parallel do not see each other's.

use jimage::jpeg::{self, Subsampling};
use jimage::{Colormap, RgbImage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Size from which an allocation counts as large: well below glibc's mmap
/// threshold, so a per-call temporary that size would show.
const LARGE: usize = 64 << 10;

thread_local! {
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if bytes >= LARGE {
        let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of at least [`LARGE`] bytes this thread makes while running `f`.
fn large_allocations(f: impl FnOnce()) -> usize {
    let before = LARGE_ALLOCS.with(Cell::get);
    f();
    LARGE_ALLOCS.with(Cell::get) - before
}

const SIDE: usize = 256;

/// A vortex-street-like field over `[-0.08, 0.08]`, the frame path's range.
fn field() -> Vec<f32> {
    (0..SIDE * SIDE)
        .map(|i| {
            let (x, y) = ((i % SIDE) as f32, (i / SIDE) as f32);
            0.08 * (x / 9.0).sin() * (y / 13.0).cos()
        })
        .collect()
}

fn frame(field: &[f32]) -> RgbImage {
    RgbImage::from_scalar_field(SIDE, SIDE, field, -0.08, 0.08, &Colormap::blue_white_red())
}

#[test]
fn colormap_allocates_one_large_buffer_its_image() {
    let field = field();
    let warm = frame(&field);
    let mut img = None;
    assert_eq!(large_allocations(|| img = Some(frame(&field))), 1, "large allocations");
    assert_eq!(img, Some(warm));
}

#[test]
fn encoding_a_256_square_frame_allocates_nothing_large() {
    let img = frame(&field());
    for sub in [Subsampling::S420, Subsampling::S444] {
        let warm = jpeg::encode_with(&img, 75, sub).unwrap();
        let mut bytes = Vec::new();
        let large = large_allocations(|| bytes = jpeg::encode_with(&img, 75, sub).unwrap());
        assert_eq!(bytes, warm);
        assert_eq!(large, 0, "large allocations encoding a {SIDE}x{SIDE} frame, {sub:?}");
    }
}
