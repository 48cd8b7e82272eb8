//! Memory footprint of a slab: `Lattice::new` holds one set of nine
//! distribution planes, a time step allocates nothing, and `vorticity`
//! allocates nothing large besides the field it returns — also where
//! `DistributedLbm::vorticity` runs the next step's collide.
//!
//! A counting global allocator records the bytes each thread asks for, and
//! how many of its allocations reach [`LARGE`], so the guards read the
//! solver's own allocations, not the process RSS.

use ddr_lbm::{barrier_line, Config, DistributedLbm, Edge, Lattice};
use minimpi::Universe;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Size from which an allocation counts as large: well below glibc's mmap
/// threshold, so a per-call temporary that size would show.
const LARGE: usize = 64 << 10;

fn count(bytes: usize) {
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
    if bytes >= LARGE {
        let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

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

/// Bytes this thread allocates while running `f`.
fn allocated(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// Allocations of at least [`LARGE`] bytes this thread makes while running `f`.
fn large_allocations(f: impl FnOnce()) -> usize {
    let before = LARGE_ALLOCS.with(Cell::get);
    f();
    LARGE_ALLOCS.with(Cell::get) - before
}

#[test]
fn one_distribution_buffer_and_no_allocation_per_step() {
    let (nx, ny) = (64, 32);
    let cfg = Config::wind_tunnel(nx, ny);
    let barrier = barrier_line(16, 8, 24);
    // A middle slab whose ghost rows both cross the barrier.
    let (y0, rows) = (10, 12);
    let mut lat = None;
    let built = allocated(|| lat = Some(Lattice::new(cfg, y0, rows, &barrier)));
    let two_buffers = 2 * 9 * nx * (rows + 2) * 8;
    assert!(
        built < two_buffers,
        "Lattice::new allocated {built} B, two buffers are {two_buffers} B"
    );

    let mut lat = lat.unwrap();
    let halo = Lattice::new(cfg, y0 + rows, 1, &barrier).edge_row(Edge::Below);
    for step in 0..10 {
        let bytes = allocated(|| {
            lat.collide();
            lat.set_ghost_boundary(Edge::Below);
            lat.set_ghost(Edge::Above, &halo);
            lat.stream();
        });
        assert_eq!(bytes, 0, "collide, set_ghost*, stream allocated at step {step}");
    }

    let mut serial = Lattice::new(cfg, 0, ny, &barrier);
    for step in 0..10 {
        assert_eq!(allocated(|| serial.step_serial()), 0, "step_serial allocated at step {step}");
    }
}

#[test]
fn vorticity_allocates_one_large_buffer_its_field() {
    let (nx, rows) = (512, 128);
    let cfg = Config::wind_tunnel(nx, 3 * rows);
    let mut lat = Lattice::new(cfg, rows, rows, &barrier_line(100, 100, 300));
    let halo = Lattice::new(cfg, 2 * rows, 1, &barrier_line(100, 100, 300)).velocity_row(0);
    lat.collide();
    lat.set_ghost_boundary(Edge::Below);
    lat.set_ghost_boundary(Edge::Above);
    lat.stream();
    let warm = lat.vorticity(None, Some(&halo));
    let mut field = Vec::new();
    let large = large_allocations(|| field = lat.vorticity(None, Some(&halo)));
    assert_eq!(field, warm);
    assert_eq!(large, 1, "vorticity of a {nx}x{rows} slab: large allocations, its field included");
}

#[test]
fn distributed_vorticity_allocates_its_field_and_the_next_step_nothing_large() {
    let (nx, rows) = (512, 128);
    let cfg = Config::wind_tunnel(nx, 2 * rows);
    let per_frame = Universe::run(2, |comm| {
        // The barrier crosses the edge between the two slabs.
        let mut sim = DistributedLbm::new(cfg, comm, &*barrier_line(100, 100, 200));
        (0..4)
            .map(|_| {
                let step = large_allocations(|| sim.step(comm).unwrap());
                let mut field = Vec::new();
                let vorticity = large_allocations(|| field = sim.vorticity(comm).unwrap());
                assert_eq!(field.len(), nx * rows);
                (step, vorticity)
            })
            .collect::<Vec<_>>()
    });
    for (rank, frames) in per_frame.iter().enumerate() {
        // From the second frame on, the step runs after a vorticity that
        // collided ahead.
        for (frame, &(step, vorticity)) in frames.iter().enumerate() {
            assert_eq!(
                vorticity, 1,
                "rank {rank}, frame {frame}: vorticity's large allocations, its field included"
            );
            assert_eq!(
                step, 0,
                "rank {rank}, frame {frame}: large allocations of the step after a vorticity"
            );
        }
    }
}
