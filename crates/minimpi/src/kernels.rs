//! The run loop behind every selection copy.
//!
//! The datatype engine describes every selection as a [`RunShape`]: a
//! stream of contiguous byte runs ([`crate::Subarray::byte_runs`]) derived
//! once at construction. `datatype::copy_selection` moves every selection
//! byte — `pack_into`, `unpack`, `copy_to`, self-sends and the zero-copy
//! claim — by one of two paths:
//!
//! 1. **One side is a single run** (a packed buffer is one, described by
//!    [`RunShape::contiguous`]): [`copy_runs`] walks the other side's runs
//!    in one loop. A 64-byte run is one `[u8; 64]` load and store, which
//!    `rounds_small_2d`'s 16-column `f32` halves reach; every other width is
//!    one `copy_nonoverlapping` of the run, which `bulk_transpose_2d` (4-KiB
//!    runs), `tiff_stack_load` (256 B) and `lbm_frames` (1 KiB) reach.
//!    When both sides are single runs (`quickstart`, `ghost_exchange`) the
//!    loop runs once.
//! 2. **Both sides are strided**: the lockstep walk in `datatype`, one
//!    pointer copy per stretch contiguous in both. No workload or example
//!    reaches it; it is the general case, held by the proptests.
//!
//! Both run on the calling thread: a rank moves its own bytes. A destination
//! is a `&mut [MaybeUninit<u8>]` that is only stored to, so one loop fills an
//! initialized receive buffer and a fresh allocation nobody zeroed.

use std::mem::MaybeUninit;

/// The derived run structure of a subarray selection, computed once at
/// [`crate::Subarray::new`] time and cached on the datatype, so iterating or
/// copying a selection never re-derives the dimension merge.
///
/// The selection consists of `nruns` contiguous runs of `run_bytes` bytes;
/// run `(i0, i1)` (with `i0 < dims[0].0`, `i1 < dims[1].0`, `i0` varying
/// fastest) starts at `base + i0 * dims[0].1 + i1 * dims[1].1`. Fully
/// covered leading dimensions were merged into `run_bytes` during
/// derivation, so a fused (fully contiguous) selection has `nruns == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunShape {
    /// Bytes per contiguous run.
    pub run_bytes: usize,
    /// Byte offset of the first run.
    pub base: usize,
    /// Non-merged dimensions as `(count, byte stride)`; `dims[0]` is the
    /// faster-varying one. `(1, 0)` for absent dimensions.
    pub dims: [(usize, usize); 2],
    /// Total number of runs (`dims[0].0 * dims[1].0`, 0 when empty).
    pub nruns: usize,
}

impl RunShape {
    /// The empty selection: no runs, no bytes.
    pub const EMPTY: RunShape = RunShape { run_bytes: 0, base: 0, dims: [(0, 0); 2], nruns: 0 };

    /// A single contiguous stretch of `len` bytes at `offset`.
    pub fn contiguous(offset: usize, len: usize) -> RunShape {
        RunShape { run_bytes: len, base: offset, dims: [(1, 0); 2], nruns: usize::from(len > 0) }
    }

    /// Derive the fused run structure of a subarray selection. `sizes`,
    /// `subsizes` and `starts` must already be normalized (trailing unused
    /// dimensions set to extent 1 / start 0) and validated in-bounds.
    pub fn derive(
        sizes: &[usize; 3],
        subsizes: &[usize; 3],
        starts: &[usize; 3],
        elem_size: usize,
    ) -> RunShape {
        if subsizes.iter().product::<usize>() == 0 {
            return RunShape::EMPTY;
        }
        // Longest prefix of dimensions the rectangle covers completely:
        // those merge into the contiguous run (their start is necessarily
        // 0). This is the fusion rule: a 2-D slab with contiguous rows
        // (subsizes[0] == sizes[0]) collapses its row loop into run length.
        let ndims = sizes.len();
        let mut p = 0;
        while p < ndims && subsizes[p] == sizes[p] {
            p += 1;
        }
        let stride = |d: usize| -> usize { sizes[..d].iter().product::<usize>() };
        let mut run_elems: usize = sizes[..p].iter().product();
        let mut base_elems = 0usize;
        if p < ndims {
            run_elems *= subsizes[p];
            base_elems += starts[p] * stride(p);
        }
        // At most two dimensions remain to iterate; dims[0] is the inner
        // (faster-varying) one.
        let mut dims = [(1usize, 0usize); 2];
        for (slot, d) in ((p + 1)..ndims).enumerate() {
            dims[slot] = (subsizes[d], stride(d) * elem_size);
            base_elems += starts[d] * stride(d);
        }
        RunShape {
            run_bytes: run_elems * elem_size,
            base: base_elems * elem_size,
            dims,
            nruns: dims[0].0 * dims[1].0,
        }
    }

    /// Total bytes the selection packs to.
    pub fn total_bytes(&self) -> usize {
        self.run_bytes * self.nruns
    }

    /// One-past-the-end byte offset of the highest-addressed run (0 for an
    /// empty selection) — the bound the kernels assert before raw copies.
    fn max_end(&self) -> usize {
        if self.nruns == 0 {
            return 0;
        }
        self.base
            + (self.dims[0].0 - 1) * self.dims[0].1
            + (self.dims[1].0 - 1) * self.dims[1].1
            + self.run_bytes
    }
}

/// The one run width with a fixed-width move, one `[u8; 64]` load and store:
/// 1 024 such runs into 1-KiB-strided rows take 3.8 µs against 7.6 µs as
/// runtime-length copies (EXPERIMENTS.md, "One selection copy").
pub(crate) const LANE: usize = 64;

/// Copy the selection `from` of `src` into the selection `to` of `dst`,
/// where one of the two is a single run (or empty) and both pack to the
/// same length: one loop over the other side's runs. Returns the walked
/// side, whose run count and width name the route it took. It only stores
/// into `dst`, so `dst` may be uninitialized.
pub(crate) fn copy_runs(
    src: &[u8],
    from: &RunShape,
    dst: &mut [MaybeUninit<u8>],
    to: &RunShape,
) -> RunShape {
    assert!(from.nruns <= 1 || to.nruns <= 1, "both sides are strided");
    assert_eq!(from.total_bytes(), to.total_bytes(), "selections differ in packed length");
    assert!(from.max_end() <= src.len(), "run shape exceeds source buffer");
    assert!(to.max_end() <= dst.len(), "run shape exceeds destination buffer");
    let runs = if to.nruns <= 1 { *from } else { *to };
    if runs.nruns == 0 {
        return runs;
    }
    // The single-run side as the walked side's runs, laid end to end.
    let ([(n0, _), (n1, _)], w) = (runs.dims, runs.run_bytes);
    let packed = |base| RunShape { base, dims: [(n0, w), (n1, n0 * w)], ..runs };
    let (a, b) = if to.nruns <= 1 { (runs, packed(to.base)) } else { (packed(from.base), runs) };
    let (src, dst) = (src.as_ptr(), dst.as_mut_ptr().cast::<u8>());
    // Every run pair the walk visits is `w` bytes on each side, in bounds by
    // the `max_end` asserts, and the sides (one borrowed shared, the other
    // exclusively) cannot overlap.
    if w == LANE {
        // SAFETY: as above, with `w == LANE`.
        each_run(&a, &b, |s, d| unsafe {
            dst.add(d)
                .cast::<[u8; LANE]>()
                .write_unaligned(src.add(s).cast::<[u8; LANE]>().read_unaligned())
        });
    } else {
        // SAFETY: as above.
        each_run(&a, &b, |s, d| unsafe {
            std::ptr::copy_nonoverlapping(src.add(s), dst.add(d), w)
        });
    }
    runs
}

/// Call `mv` on the byte offsets of run `i` of `a` and of `b`, for every `i`
/// in order: two shapes with the same run counts, walked in lockstep.
#[inline(always)]
fn each_run(a: &RunShape, b: &RunShape, mv: impl Fn(usize, usize)) {
    let ([(n0, a0), (n1, a1)], [(_, b0), (_, b1)]) = (a.dims, b.dims);
    for i1 in 0..n1 {
        for i0 in 0..n0 {
            mv(a.base + i0 * a0 + i1 * a1, b.base + i0 * b0 + i1 * b1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_2d(base: usize, run: usize, n0: usize, s0: usize, n1: usize, s1: usize) -> RunShape {
        RunShape { run_bytes: run, base, dims: [(n0, s0), (n1, s1)], nruns: n0 * n1 }
    }

    /// Where byte `p` of `shape`'s packed image lives in the full buffer,
    /// from its coordinates: run `p / w`, `i0` fastest, and byte `p % w` in it.
    fn coordinate(shape: &RunShape, p: usize) -> usize {
        let (w, [(n0, s0), (_, s1)]) = (shape.run_bytes, shape.dims);
        let run = p / w;
        shape.base + (run % n0) * s0 + (run / n0) * s1 + p % w
    }

    /// `len` fresh bytes, filled by `fill` through `MaybeUninit` storage.
    /// The caller's `fill` must store every one of them.
    fn fresh(len: usize, fill: impl FnOnce(&mut [MaybeUninit<u8>])) -> Vec<u8> {
        let mut v = Vec::<u8>::with_capacity(len);
        fill(&mut v.spare_capacity_mut()[..len]);
        // SAFETY: every caller's `fill` stores all `len` bytes.
        unsafe { v.set_len(len) };
        v
    }

    /// The 64-byte loop and a runtime width (24 bytes), in both directions:
    /// a gather into a fresh packed buffer, and two interleaved scatters that
    /// tile a fresh allocation. Each byte equals the coordinate walk's, and
    /// under Miri a byte read before it was written, or never written, is
    /// an error.
    #[test]
    fn both_widths_gather_and_scatter_like_a_coordinate_walk() {
        for run in [LANE, 24] {
            let src: Vec<u8> = (0..8 * run * 8).map(|i| (i % 251) as u8).collect();
            let strided = shape_2d(run + 5, run, 3, 2 * run + 1, 4, 7 * run + 3);
            let total = strided.total_bytes();
            let packed = RunShape::contiguous(0, total);
            let gathered = fresh(total, |dst| {
                copy_runs(&src, &strided, dst, &packed);
            });
            let want: Vec<u8> = (0..total).map(|p| src[coordinate(&strided, p)]).collect();
            assert_eq!(gathered, want, "gather, run width {run}");

            // Even and odd runs of a 2-run-wide grid cover every byte.
            let (n0, n1) = (3, 2);
            let even = shape_2d(0, run, n0, 2 * run, n1, 2 * run * n0);
            let odd = RunShape { base: run, ..even };
            let half = even.total_bytes();
            let image: Vec<u8> = (0..2 * half).map(|i| (i % 239) as u8).collect();
            let scattered = fresh(2 * half, |dst| {
                copy_runs(&image, &RunShape::contiguous(0, half), dst, &even);
                copy_runs(&image, &RunShape::contiguous(half, half), dst, &odd);
            });
            for p in 0..half {
                assert_eq!(scattered[coordinate(&even, p)], image[p], "scatter, run width {run}");
                assert_eq!(scattered[coordinate(&odd, p)], image[half + p], "run width {run}");
            }
        }
    }

    /// Both sides single runs: the loop runs once and returns the one run.
    #[test]
    fn single_run_to_single_run_is_one_copy() {
        let src: Vec<u8> = (0..64).collect();
        let out = fresh(16, |dst| {
            let runs =
                copy_runs(&src, &RunShape::contiguous(8, 16), dst, &RunShape::contiguous(0, 16));
            assert_eq!(runs.nruns, 1);
        });
        assert_eq!(out, &src[8..24]);
    }

    #[test]
    fn empty_and_zero_width_shapes_are_noops() {
        let src = [0u8; 16];
        let mut dst = [MaybeUninit::new(9u8); 16];
        assert_eq!(copy_runs(&src, &RunShape::EMPTY, &mut dst, &RunShape::EMPTY).nruns, 0);
        let zero = RunShape::contiguous(4, 0);
        assert_eq!(copy_runs(&src, &zero, &mut dst, &RunShape::EMPTY).nruns, 0);
        // SAFETY: created initialized.
        assert!(dst.iter().all(|b| unsafe { b.assume_init() } == 9));
    }
}
