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
//! bytes with its own core.
//!
//! Sender-side envelope checksums fold *during* the gather
//! ([`pack_runs_hashed`]): the 4-lane hash is split-point independent
//! (`integrity.rs`), so hashing run-by-run while the bytes are cache-hot is
//! bit-identical to re-hashing the packed payload afterwards — the second
//! pass the old path paid.
//!
//! While a trace is recording ([`ddrtrace::enabled`]) every kernel call
//! bumps a process-global counter for its tier, published as `pack.*`
//! metrics in the ddr-trace report; an untraced run leaves them alone, so
//! rank threads never contend on them.

use crate::datatype::ByteRuns;
use crate::integrity::Checksum;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Per-kernel dispatch counters, process-global (the kernels have no world
/// handle). Exported as `pack.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackCounters {
    /// Selections moved as a single fused memcpy (runs merged to one).
    pub fused_runs: u64,
    /// Bytes moved through the fixed-width lane gather/scatter loops.
    pub vector_bytes: u64,
    /// Bytes moved through the scalar per-run loop (non-lane run widths).
    pub scalar_bytes: u64,
}

static FUSED_RUNS: AtomicU64 = AtomicU64::new(0);
static VECTOR_BYTES: AtomicU64 = AtomicU64::new(0);
static SCALAR_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-global kernel counters (monotone totals).
pub fn snapshot() -> PackCounters {
    PackCounters {
        fused_runs: FUSED_RUNS.load(Ordering::Relaxed),
        vector_bytes: VECTOR_BYTES.load(Ordering::Relaxed),
        scalar_bytes: SCALAR_BYTES.load(Ordering::Relaxed),
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
const fn is_lane_width(n: usize) -> bool {
    matches!(n, 1 | 2 | 4 | 8 | 12 | 16 | 32 | 64)
}

/// Count one kernel call of `shape` against its tier — only while a trace
/// is recording, the one time anything reads the counters.
fn count(shape: &RunShape) {
    if !ddrtrace::enabled() || shape.nruns == 0 {
        return;
    }
    if shape.nruns == 1 {
        FUSED_RUNS.fetch_add(1, Ordering::Relaxed);
    } else if is_lane_width(shape.run_bytes) {
        VECTOR_BYTES.fetch_add(shape.total_bytes() as u64, Ordering::Relaxed);
    } else {
        SCALAR_BYTES.fetch_add(shape.total_bytes() as u64, Ordering::Relaxed);
    }
}

/// Gather the selection out of `src`, appending to `out`.
pub(crate) fn pack_runs(src: &[u8], shape: &RunShape, out: &mut Vec<u8>) {
    let (start, total) = (out.len(), shape.total_bytes());
    out.reserve(total);
    pack_impl(src, shape, &mut out.spare_capacity_mut()[..total]);
    // SAFETY: pack_impl initialized all `total` bytes past `start`, inside
    // the capacity reserved above.
    unsafe { out.set_len(start + total) };
}

/// Gather the selection out of `src` into `dst`, which is exactly the
/// selection's packed length: the pack side of a selection-to-selection
/// copy into a single run.
pub(crate) fn pack_runs_to(src: &[u8], shape: &RunShape, dst: &mut [u8]) {
    // SAFETY: `[u8]` and `[MaybeUninit<u8>]` have the same layout, and
    // pack_impl only ever stores initialized bytes through it.
    pack_impl(src, shape, unsafe { &mut *(dst as *mut [u8] as *mut [MaybeUninit<u8>]) });
}

/// Gather the selection out of `src`, appending to `out`, folding the bytes
/// into `sum` during the copy (in packed order, so the result equals
/// hashing the packed payload).
pub(crate) fn pack_runs_hashed(
    src: &[u8],
    shape: &RunShape,
    out: &mut Vec<u8>,
    sum: &mut Checksum,
) {
    if shape.nruns == 1 {
        // Single pass: each 32-byte group is loaded once, stored to the
        // packed buffer, and folded into the hash lanes while still in
        // registers — a fused pack with checksumming costs one traversal of
        // the payload, not two.
        sum.update_copying(&src[shape.base..shape.base + shape.run_bytes], out);
        count(shape);
        return;
    }
    let start = out.len();
    pack_runs(src, shape, out);
    // The packed image was just written — folding it now reads L1-hot
    // bytes, which is what "checksum during pack" buys over the old second
    // pass at deposit time.
    sum.update(&out[start..]);
}

/// The gather kernel: store the selection's packed image into `dst`, which
/// must be exactly the selection's packed length.
fn pack_impl(src: &[u8], shape: &RunShape, dst: &mut [MaybeUninit<u8>]) {
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
    count(shape);
}

/// Scatter `packed` (exactly the selection's packed bytes) into `dst`.
pub(crate) fn unpack_runs(packed: &[u8], shape: &RunShape, dst: &mut [u8]) {
    unpack_impl(packed, shape, dst, None);
}

/// Scatter `packed` into `dst`, folding the packed bytes into `sum` in the
/// same traversal — the receive-side counterpart of [`pack_runs_hashed`],
/// used when envelope verification can be fused into the unpack (no
/// installed fault plan can corrupt).
pub(crate) fn unpack_runs_hashed(
    packed: &[u8],
    shape: &RunShape,
    dst: &mut [u8],
    sum: &mut Checksum,
) {
    unpack_impl(packed, shape, dst, Some(sum));
}

fn unpack_impl(packed: &[u8], shape: &RunShape, dst: &mut [u8], mut sum: Option<&mut Checksum>) {
    let total = shape.total_bytes();
    debug_assert_eq!(packed.len(), total);
    if total == 0 {
        return;
    }
    assert!(shape.max_end() <= dst.len(), "run shape exceeds destination buffer");
    if shape.nruns == 1 {
        let run = &mut dst[shape.base..shape.base + shape.run_bytes];
        match sum.as_deref_mut() {
            // Single pass: load each group once, store it to the selection
            // and fold it into the hash lanes while still in registers.
            Some(s) => s.update_copying_to(packed, run),
            None => run.copy_from_slice(packed),
        }
        count(shape);
        return;
    }
    // SAFETY: destination runs are in-bounds by the `max_end` assert;
    // source cursor positions cover exactly `packed`.
    unsafe {
        let srcp = packed.as_ptr();
        match shape.run_bytes {
            1 => scatter_lanes::<1>(srcp, shape, dst.as_mut_ptr()),
            2 => scatter_lanes::<2>(srcp, shape, dst.as_mut_ptr()),
            4 => scatter_lanes::<4>(srcp, shape, dst.as_mut_ptr()),
            8 => scatter_lanes::<8>(srcp, shape, dst.as_mut_ptr()),
            12 => scatter_lanes::<12>(srcp, shape, dst.as_mut_ptr()),
            16 => scatter_lanes::<16>(srcp, shape, dst.as_mut_ptr()),
            32 => scatter_lanes::<32>(srcp, shape, dst.as_mut_ptr()),
            64 => scatter_lanes::<64>(srcp, shape, dst.as_mut_ptr()),
            n => {
                let mut cur = srcp;
                for (off, _) in ByteRuns::from_shape(shape) {
                    std::ptr::copy_nonoverlapping(cur, dst.as_mut_ptr().add(off), n);
                    cur = cur.add(n);
                }
            }
        }
    }
    count(shape);
    if let Some(s) = sum {
        // The packed image was just read by the scatter — folding it now
        // hits L1-hot bytes instead of paying a separate cold pass.
        s.update(packed);
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
            let mut dst = vec![0u8; src.len()];
            unpack_runs(&packed, &shape, &mut dst);
            // Re-gathering the scattered bytes restores the packed image.
            assert_eq!(reference_pack(&dst, &shape), packed, "run width {run}");
        }
    }

    /// Inputs of the hashed-kernel tests, each with the buffer it selects
    /// from: strided lane and scalar widths, the fused single-run shape, and
    /// a strided selection whose packed image (128 KiB runs x 40 = 5 MiB) is
    /// not cache-resident, so the fold-after-loop checksum reads cold bytes.
    fn hashed_cases() -> Vec<(Vec<u8>, RunShape)> {
        let small: Vec<u8> = (0..2048).map(|i| (i % 241) as u8).collect();
        let mut cases: Vec<_> = [1usize, 4, 5, 8, 16]
            .map(|run| (small.clone(), shape_2d(3, run, 7, run + 1, 2, 7 * (run + 1) + 5)))
            .into();
        cases.push((small, RunShape::contiguous(11, 777)));
        let (run, n1) = (128 * 1024, 40);
        let big = (0..(run + 64) * n1 + 16).map(|i| (i % 247) as u8).collect();
        cases.push((big, shape_2d(16, run, 1, 0, n1, run + 64)));
        cases
    }

    #[test]
    fn hashed_pack_matches_one_shot_checksum() {
        use crate::integrity::checksum64;
        for (src, shape) in hashed_cases() {
            let mut out = Vec::new();
            let mut sum = Checksum::new(99);
            pack_runs_hashed(&src, &shape, &mut out, &mut sum);
            assert_eq!(out, reference_pack(&src, &shape), "shape {shape:?}");
            assert_eq!(sum.finish(), checksum64(99, &out), "shape {shape:?}");
        }
    }

    #[test]
    fn hashed_unpack_matches_one_shot_checksum() {
        use crate::integrity::checksum64;
        for (src, shape) in hashed_cases() {
            let packed = reference_pack(&src, &shape);
            let mut dst = vec![0u8; src.len()];
            let mut sum = Checksum::new(42);
            unpack_runs_hashed(&packed, &shape, &mut dst, &mut sum);
            assert_eq!(sum.finish(), checksum64(42, &packed), "shape {shape:?}");
            assert_eq!(reference_pack(&dst, &shape), packed, "shape {shape:?}");
        }
    }

    /// The counters record only while a trace does, so the recorder is on
    /// for the test's duration.
    #[test]
    fn fused_single_run_is_one_memcpy() {
        let src: Vec<u8> = (0..64).collect();
        let shape = RunShape::contiguous(8, 16);
        ddrtrace::capture::start();
        let before = snapshot().fused_runs;
        let mut out = Vec::new();
        pack_runs(&src, &shape, &mut out);
        let after = snapshot().fused_runs;
        ddrtrace::capture::stop();
        assert_eq!(out, &src[8..24]);
        assert_eq!(after, before + 1);
    }

    #[test]
    fn empty_and_zero_width_shapes_are_noops() {
        let src = [0u8; 16];
        let mut out = Vec::new();
        pack_runs(&src, &RunShape::EMPTY, &mut out);
        pack_runs(&src, &RunShape::contiguous(4, 0), &mut out);
        assert!(out.is_empty());
        let mut dst = [9u8; 16];
        unpack_runs(&[], &RunShape::EMPTY, &mut dst);
        assert_eq!(dst, [9u8; 16]);
    }
}
