//! Specialized pack/unpack kernels for subarray selections.
//!
//! The datatype engine describes every selection as a stream of contiguous
//! byte runs ([`crate::Subarray::byte_runs`]). This module moves those runs
//! for a subarray's `pack` (gather into a packed buffer) and `unpack`
//! (scatter a packed buffer back into a selection). The selection-to-
//! selection copy behind `copy_to`, self-sends and the zero-copy claim comes
//! here too whenever one side of it is a single run: that side *is* a packed
//! image, so the copy is the other side's gather or scatter
//! (`datatype::copy_selection`). Only a copy strided on both sides walks the
//! two run streams in lockstep instead, one `copy_from_slice` per stretch.
//!
//! Three tiers, chosen per call from the [`RunShape`] cached on the
//! datatype at construction time:
//!
//! 1. **Fused**: a selection whose runs merged into a single contiguous
//!    stretch (full-array selections, 2-D slabs with contiguous rows) is one
//!    `memcpy` — no per-run loop at all.
//! 2. **Lanes**: strided interior selections whose run width is one of the
//!    eight lane widths copy through a fixed-width lane loop (`[u8; N]`
//!    reads/writes), which the compiler vectorizes.
//! 3. **Per-run loop**: every other width is one `copy_nonoverlapping` per
//!    run.
//!
//! All three run on the calling thread at every size: a rank moves its own
//! bytes with its own core. The exchange counts each copy against its tier
//! in the copying rank's `pack.*` counters (`datatype::copy_selection`).
//!
//! Every destination is a `&mut [MaybeUninit<u8>]`, and a kernel only
//! stores through it: the same code fills an initialized receive buffer
//! (viewed as `MaybeUninit`, which is sound because only initialized bytes
//! are stored) and a fresh allocation nobody zeroed.

use crate::datatype::ByteRuns;
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
    /// Total number of runs (`dims[0].0 * dims[1].0`, or 0 for an empty
    /// selection).
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

/// Run widths that go through the lane loops. Covers the element sizes the
/// DDR stack actually moves (u8..f64 and small multiples — a strided column
/// of f32 is a 4-byte lane, a pair of f64 a 16-byte one).
///
/// The tier is measured, not assumed: routing these widths through the
/// scalar per-run loop instead cost 2–3× on the one-element-wide (ghost
/// column) shapes of `crates/bench/benches/pack.rs` —
/// `unpack_column_major_1x1024` 10.0 → 31.4 µs, `unpack_inner_stride_1elem`
/// 4.1 → 9.3 µs, `pencil_1x1x128` 0.11 → 0.32 µs — while non-lane widths
/// (`thin_columns_32x512`, 128-byte runs) did not slow down.
pub(crate) const fn is_lane_width(n: usize) -> bool {
    matches!(n, 1 | 2 | 4 | 8 | 12 | 16 | 32 | 64)
}

/// Gather the selection out of `src`, appending to `out`.
pub(crate) fn pack_runs(src: &[u8], shape: &RunShape, out: &mut Vec<u8>) {
    let (start, total) = (out.len(), shape.total_bytes());
    out.reserve(total);
    pack_runs_to(src, shape, &mut out.spare_capacity_mut()[..total]);
    // SAFETY: pack_runs_to initialized all `total` bytes past `start`,
    // inside the capacity reserved above.
    unsafe { out.set_len(start + total) };
}

/// The gather kernel: store the selection's packed image into `dst`, which
/// must be exactly the selection's packed length — a packed buffer, or the
/// single-run destination of a selection-to-selection copy.
pub(crate) fn pack_runs_to(src: &[u8], shape: &RunShape, dst: &mut [MaybeUninit<u8>]) {
    let total = shape.total_bytes();
    assert_eq!(dst.len(), total, "destination is not the selection's packed length");
    if total == 0 {
        return;
    }
    assert!(shape.max_end() <= src.len(), "run shape exceeds source buffer");
    let (src, dst) = (src.as_ptr(), dst.as_mut_ptr().cast::<u8>());
    // SAFETY: `dst` holds exactly `total` bytes and the fused copy, lane and
    // scalar loops write runs at consecutive cursor positions covering
    // exactly [0, total); source offsets are bounded by the `max_end`
    // assert.
    unsafe {
        match shape.run_bytes {
            n if shape.nruns == 1 => std::ptr::copy_nonoverlapping(src.add(shape.base), dst, n),
            1 => gather_lanes::<1>(src, shape, dst),
            2 => gather_lanes::<2>(src, shape, dst),
            4 => gather_lanes::<4>(src, shape, dst),
            8 => gather_lanes::<8>(src, shape, dst),
            12 => gather_lanes::<12>(src, shape, dst),
            16 => gather_lanes::<16>(src, shape, dst),
            32 => gather_lanes::<32>(src, shape, dst),
            64 => gather_lanes::<64>(src, shape, dst),
            n => {
                let mut cur = dst;
                for (off, _) in ByteRuns::from_shape(shape) {
                    std::ptr::copy_nonoverlapping(src.add(off), cur, n);
                    cur = cur.add(n);
                }
            }
        }
    }
}

/// The scatter kernel: store `packed` (exactly the selection's packed
/// bytes) into the selection's runs of `dst`. It only stores, so `dst` may
/// be uninitialized: the bytes of the selection are initialized afterwards
/// and every other byte is left as it was.
pub(crate) fn unpack_runs(packed: &[u8], shape: &RunShape, dst: &mut [MaybeUninit<u8>]) {
    let total = shape.total_bytes();
    assert_eq!(packed.len(), total, "source is not the selection's packed length");
    if total == 0 {
        return;
    }
    assert!(shape.max_end() <= dst.len(), "run shape exceeds destination buffer");
    let (srcp, dstp) = (packed.as_ptr(), dst.as_mut_ptr().cast::<u8>());
    // SAFETY: destination runs are in-bounds by the `max_end` assert;
    // source cursor positions cover exactly `packed`.
    unsafe {
        match shape.run_bytes {
            n if shape.nruns == 1 => std::ptr::copy_nonoverlapping(srcp, dstp.add(shape.base), n),
            1 => scatter_lanes::<1>(srcp, shape, dstp),
            2 => scatter_lanes::<2>(srcp, shape, dstp),
            4 => scatter_lanes::<4>(srcp, shape, dstp),
            8 => scatter_lanes::<8>(srcp, shape, dstp),
            12 => scatter_lanes::<12>(srcp, shape, dstp),
            16 => scatter_lanes::<16>(srcp, shape, dstp),
            32 => scatter_lanes::<32>(srcp, shape, dstp),
            64 => scatter_lanes::<64>(srcp, shape, dstp),
            n => {
                let mut cur = srcp;
                for (off, _) in ByteRuns::from_shape(shape) {
                    std::ptr::copy_nonoverlapping(cur, dstp.add(off), n);
                    cur = cur.add(n);
                }
            }
        }
    }
}

/// Strided gather with a compile-time run width: one `[u8; N]` load/store
/// per run, which the compiler turns into vector moves for the power-of-two
/// widths and keeps branch-free for the rest.
///
/// # Safety
/// `N == shape.run_bytes`, every source run is in-bounds of the `src`
/// allocation (asserted via `max_end` by the caller), and `dst` has space
/// for `shape.nruns * N` bytes.
unsafe fn gather_lanes<const N: usize>(src: *const u8, shape: &RunShape, mut dst: *mut u8) {
    let (n0, s0) = shape.dims[0];
    let (n1, s1) = shape.dims[1];
    for i1 in 0..n1 {
        let mut row = src.add(shape.base + i1 * s1);
        for _ in 0..n0 {
            (dst as *mut [u8; N]).write_unaligned((row as *const [u8; N]).read_unaligned());
            dst = dst.add(N);
            row = row.add(s0);
        }
    }
}

/// Strided scatter with a compile-time run width — the inverse of
/// [`gather_lanes`].
///
/// # Safety
/// Same contract as [`gather_lanes`] with `src`/`dst` roles swapped: `src`
/// holds `shape.nruns * N` packed bytes, every destination run is in-bounds
/// of the `dst` allocation.
unsafe fn scatter_lanes<const N: usize>(mut src: *const u8, shape: &RunShape, dst: *mut u8) {
    let (n0, s0) = shape.dims[0];
    let (n1, s1) = shape.dims[1];
    for i1 in 0..n1 {
        let mut row = dst.add(shape.base + i1 * s1);
        for _ in 0..n0 {
            (row as *mut [u8; N]).write_unaligned((src as *const [u8; N]).read_unaligned());
            src = src.add(N);
            row = row.add(s0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_2d(base: usize, run: usize, n0: usize, s0: usize, n1: usize, s1: usize) -> RunShape {
        RunShape { run_bytes: run, base, dims: [(n0, s0), (n1, s1)], nruns: n0 * n1 }
    }

    /// Reference gather: straight byte loop over the run iterator.
    fn reference_pack(src: &[u8], shape: &RunShape) -> Vec<u8> {
        let mut out = Vec::new();
        for (off, len) in ByteRuns::from_shape(shape) {
            out.extend_from_slice(&src[off..off + len]);
        }
        out
    }

    #[test]
    fn lane_and_scalar_gathers_match_reference() {
        let src: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        // Every lane width plus scalar widths, strided and offset.
        for run in [1usize, 2, 3, 4, 5, 8, 12, 16, 24, 32, 64] {
            let shape = shape_2d(7, run, 5, run + 3, 4, 5 * (run + 3) + 11);
            assert!(shape.max_end() <= src.len());
            let mut out = vec![0xAB; 3];
            pack_runs(&src, &shape, &mut out);
            assert_eq!(&out[..3], &[0xAB; 3]);
            assert_eq!(&out[3..], reference_pack(&src, &shape).as_slice(), "run width {run}");
        }
    }

    #[test]
    fn scatter_is_inverse_of_gather() {
        let src: Vec<u8> = (0..4096).map(|i| (i % 239) as u8).collect();
        for run in [1usize, 2, 4, 7, 8, 12, 16, 64] {
            let shape = shape_2d(13, run, 6, run + 2, 3, 6 * (run + 2) + 9);
            let packed = reference_pack(&src, &shape);
            let mut dst = vec![MaybeUninit::new(0u8); src.len()];
            unpack_runs(&packed, &shape, &mut dst);
            // Re-gathering the scattered bytes restores the packed image.
            assert_eq!(reference_pack(&init(&dst), &shape), packed, "run width {run}");
        }
    }

    /// Bytes that were created initialized.
    fn init(bytes: &[MaybeUninit<u8>]) -> Vec<u8> {
        // SAFETY: every caller builds `bytes` from `MaybeUninit::new`.
        bytes.iter().map(|b| unsafe { b.assume_init() }).collect()
    }

    /// The scatter only stores: two interleaved selections that tile a fresh
    /// allocation leave every byte initialized, through each tier — fused,
    /// lanes (4-byte runs) and the per-run loop (5-byte runs). Under Miri a
    /// byte the scatter read, or failed to write, is an error.
    #[test]
    fn scatter_into_uninit_storage_through_every_tier() {
        for run in [4usize, 5] {
            let (n0, n1) = (3, 2);
            let total = 2 * run * n0 * n1;
            let even = shape_2d(0, run, n0, 2 * run, n1, 2 * run * n0);
            let odd = RunShape { base: run, ..even };
            let mut dst = Vec::<u8>::with_capacity(total);
            let spare = &mut dst.spare_capacity_mut()[..total];
            unpack_runs(&vec![1u8; total / 2], &even, spare);
            unpack_runs(&vec![2u8; total / 2], &odd, spare);
            // SAFETY: the two selections tile [0, total) and each was
            // scattered in full.
            unsafe { dst.set_len(total) };
            let want = (0..total).map(|i| if (i / run) % 2 == 0 { 1 } else { 2 });
            assert!(dst.iter().copied().eq(want), "run width {run}");
        }
        let packed: Vec<u8> = (0..32).collect();
        let mut dst = Vec::<u8>::with_capacity(32);
        unpack_runs(&packed, &RunShape::contiguous(0, 32), &mut dst.spare_capacity_mut()[..32]);
        // SAFETY: the fused selection is the whole allocation.
        unsafe { dst.set_len(32) };
        assert_eq!(dst, packed);
    }

    #[test]
    fn fused_single_run_packs_its_stretch() {
        let src: Vec<u8> = (0..64).collect();
        let mut out = Vec::new();
        pack_runs(&src, &RunShape::contiguous(8, 16), &mut out);
        assert_eq!(out, &src[8..24]);
    }

    #[test]
    fn empty_and_zero_width_shapes_are_noops() {
        let src = [0u8; 16];
        let mut out = Vec::new();
        pack_runs(&src, &RunShape::EMPTY, &mut out);
        pack_runs(&src, &RunShape::contiguous(4, 0), &mut out);
        assert!(out.is_empty());
        let mut dst = [MaybeUninit::new(9u8); 16];
        unpack_runs(&[], &RunShape::EMPTY, &mut dst);
        assert_eq!(init(&dst), [9u8; 16]);
    }
}
