//! MPI-style derived datatypes.
//!
//! The DDR paper's redistribution step relies on `MPI_Alltoallw` with
//! **subarray** datatypes: each rank describes, for every peer, a
//! multidimensional rectangular subset of a larger array to send from (or
//! receive into). This module implements that subset of MPI's datatype
//! machinery: a [`Subarray`] describes the rectangle, and [`Datatype`] is the
//! wire-facing enum used by [`crate::Comm::alltoallw`].
//!
//! Memory layout convention (matching the paper's `[i, j, k]` parameter
//! order): **coordinate 0 varies fastest**. For a 2-D array of size
//! `[sx, sy]`, element `(x, y)` lives at linear index `x + sx * y`; for 3-D
//! `[sx, sy, sz]`, element `(x, y, z)` lives at `x + sx * (y + sy * z)`.

use crate::counters::Counter;
use crate::error::{Error, Result};
use crate::kernels::{self, RunShape};
use crate::pod::as_uninit_mut;
use std::mem::MaybeUninit;

/// Maximum dimensionality supported (the paper supports 1-D, 2-D and 3-D).
pub const MAX_DIMS: usize = 3;

/// A rectangular subset of a multidimensional array, equivalent to the
/// datatype produced by `MPI_Type_create_subarray`.
///
/// Unused trailing dimensions must be set to size 1 (for `sizes` and
/// `subsizes`) and 0 (for `starts`); the convenience constructors do this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subarray {
    /// Number of meaningful dimensions (1..=3).
    pub ndims: usize,
    /// Full extents of the underlying array, fastest-varying first.
    pub sizes: [usize; MAX_DIMS],
    /// Extents of the selected rectangle.
    pub subsizes: [usize; MAX_DIMS],
    /// Offset of the rectangle inside the underlying array.
    pub starts: [usize; MAX_DIMS],
    /// Size in bytes of one array element.
    pub elem_size: usize,
    /// Fused run structure, derived once at construction so `byte_runs` and
    /// the selection copy never re-derive the dimension merge. Fully a
    /// function of the fields above (`PartialEq` stays consistent).
    shape: RunShape,
}

impl Subarray {
    /// Create a subarray datatype, validating that the rectangle lies inside
    /// the full array.
    pub fn new(
        ndims: usize,
        sizes: [usize; MAX_DIMS],
        subsizes: [usize; MAX_DIMS],
        starts: [usize; MAX_DIMS],
        elem_size: usize,
    ) -> Result<Self> {
        if ndims == 0 || ndims > MAX_DIMS {
            return Err(Error::DatatypeMismatch {
                detail: format!("ndims must be 1..=3, got {ndims}"),
            });
        }
        if elem_size == 0 {
            return Err(Error::DatatypeMismatch { detail: "elem_size must be > 0".into() });
        }
        let mut sizes = sizes;
        let mut subsizes = subsizes;
        let mut starts = starts;
        for d in ndims..MAX_DIMS {
            sizes[d] = 1;
            subsizes[d] = 1;
            starts[d] = 0;
        }
        for d in 0..ndims {
            if starts[d] + subsizes[d] > sizes[d] {
                return Err(Error::DatatypeMismatch {
                    detail: format!(
                        "dim {d}: start {} + subsize {} exceeds size {}",
                        starts[d], subsizes[d], sizes[d]
                    ),
                });
            }
        }
        let shape = RunShape::derive(&sizes, &subsizes, &starts, elem_size);
        Ok(Subarray { ndims, sizes, subsizes, starts, elem_size, shape })
    }

    /// Number of elements selected by the rectangle.
    pub fn count(&self) -> usize {
        self.subsizes[0] * self.subsizes[1] * self.subsizes[2]
    }

    /// Number of bytes the rectangle packs into.
    pub fn packed_len(&self) -> usize {
        self.count() * self.elem_size
    }

    /// Number of bytes the *full* underlying array occupies.
    pub fn full_len(&self) -> usize {
        self.sizes[0] * self.sizes[1] * self.sizes[2] * self.elem_size
    }

    fn check_buf(&self, buf_len: usize) -> Result<()> {
        if buf_len < self.full_len() {
            return Err(Error::DatatypeMismatch {
                detail: format!(
                    "buffer of {} bytes too small for array of {} bytes ({}x{}x{} elems of {}B)",
                    buf_len,
                    self.full_len(),
                    self.sizes[0],
                    self.sizes[1],
                    self.sizes[2],
                    self.elem_size
                ),
            });
        }
        Ok(())
    }

    /// Iterate the selection as maximal contiguous byte runs
    /// `(byte_offset, byte_len)`, in packed (row-major, coordinate 0
    /// fastest) order. Fully covered leading dimensions are merged into
    /// longer runs, so a full-array selection yields exactly one run. The
    /// run structure is cached at construction, so this is a field copy,
    /// not a re-derivation.
    pub fn byte_runs(&self) -> ByteRuns {
        ByteRuns::from_shape(&self.shape)
    }

    /// Pack the selected rectangle out of `src` (the full array, as bytes)
    /// and append it to `out`.
    pub fn pack_into(&self, src: &[u8], out: &mut Vec<u8>) -> Result<()> {
        Datatype::Subarray(*self).pack_into(src, out)
    }

    /// Pack the selected rectangle into a fresh buffer.
    pub fn pack(&self, src: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.packed_len());
        self.pack_into(src, &mut out)?;
        Ok(out)
    }

    /// Unpack `packed` bytes (as produced by [`Subarray::pack`]) into the
    /// selected rectangle of `dst` (the full array, as bytes).
    pub fn unpack(&self, packed: &[u8], dst: &mut [u8]) -> Result<()> {
        Datatype::Subarray(*self).unpack(packed, dst)
    }

    /// Copy the rectangle directly from `src` into the rectangle described by
    /// `dst_type` in `dst`, without an intermediate packed buffer, through
    /// the one selection copy (`copy_selection`).
    pub fn copy_to(&self, src: &[u8], dst_type: &Subarray, dst: &mut [u8]) -> Result<()> {
        if self.count() != dst_type.count() || self.elem_size != dst_type.elem_size {
            return Err(Error::DatatypeMismatch {
                detail: format!(
                    "self-copy shape mismatch: {} elems of {}B vs {} elems of {}B",
                    self.count(),
                    self.elem_size,
                    dst_type.count(),
                    dst_type.elem_size
                ),
            });
        }
        // SAFETY: copy_selection only stores initialized bytes into `dst`.
        let dst = unsafe { as_uninit_mut(dst) };
        copy_selection(src, &Datatype::Subarray(*self), dst, &Datatype::Subarray(*dst_type))
            .map(drop)
    }
}

/// Iterator over the maximal contiguous byte runs of a [`Subarray`]
/// selection, in packed order. See [`Subarray::byte_runs`].
#[derive(Debug, Clone)]
pub struct ByteRuns {
    run_bytes: usize,
    base: usize,
    /// Non-merged dimensions as `(count, byte stride)`; `dims[0]` is inner.
    dims: [(usize, usize); 2],
    idx: [usize; 2],
    left: usize,
}

impl ByteRuns {
    pub(crate) fn from_shape(s: &RunShape) -> ByteRuns {
        ByteRuns { run_bytes: s.run_bytes, base: s.base, dims: s.dims, idx: [0; 2], left: s.nruns }
    }
}

impl Iterator for ByteRuns {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.left == 0 {
            return None;
        }
        let off = self.base + self.idx[0] * self.dims[0].1 + self.idx[1] * self.dims[1].1;
        self.idx[0] += 1;
        if self.idx[0] == self.dims[0].0 {
            self.idx[0] = 0;
            self.idx[1] += 1;
        }
        self.left -= 1;
        Some((off, self.run_bytes))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for ByteRuns {}

/// Walk the runs of two selections of equal packed length in lockstep,
/// invoking `f(src_offset, dst_offset, len)` for every maximal stretch that
/// is contiguous in *both*: one callback per `copy_from_slice`, no staging
/// buffer anywhere.
fn for_each_run_pair(src_dt: &Datatype, dst_dt: &Datatype, mut f: impl FnMut(usize, usize, usize)) {
    let mut src_runs = src_dt.byte_runs();
    let mut dst_runs = dst_dt.byte_runs();
    let (mut so, mut sl) = (0usize, 0usize);
    let (mut doff, mut dl) = (0usize, 0usize);
    loop {
        if sl == 0 {
            match src_runs.next() {
                Some((o, l)) => (so, sl) = (o, l),
                None => return,
            }
            continue;
        }
        if dl == 0 {
            match dst_runs.next() {
                Some((o, l)) => (doff, dl) = (o, l),
                // Equal packed lengths: the destination cannot run dry first.
                None => unreachable!("run streams of equal packed length diverged"),
            }
            continue;
        }
        let n = sl.min(dl);
        f(so, doff, n);
        so += n;
        sl -= n;
        doff += n;
        dl -= n;
    }
}

/// Copy `src_dt`'s selection of `src` directly into `dst_dt`'s selection of
/// `dst`, on the calling thread. Both buffers are validated against their
/// datatypes up front, and the selections must pack to the same length.
/// The one code that moves selection bytes: `pack_into`, `unpack` and
/// `copy_to` (a packed buffer is a [`Datatype::Contiguous`] side), self-sends
/// and the zero-copy claim. It only stores into `dst`, so `dst` may be
/// uninitialized: on `Ok` every byte of `dst_dt`'s selection is initialized.
///
/// Two paths: a side that is a single run is a packed image already, so one
/// loop walks the other side's runs ([`kernels::copy_runs`]); a copy strided
/// on both sides walks the two run streams in lockstep, one pointer copy per
/// stretch contiguous in both.
///
/// Returns the `pack.*` counter of the route that moved the bytes and its
/// increment: one fused run when the walked side is a single run, else the
/// bytes moved by the 64-byte loop or by one pointer copy per run (the
/// lockstep walk is such a loop).
pub(crate) fn copy_selection(
    src: &[u8],
    src_dt: &Datatype,
    dst: &mut [MaybeUninit<u8>],
    dst_dt: &Datatype,
) -> Result<(Counter, u64)> {
    src_dt.check_bounds(src.len())?;
    dst_dt.check_bounds(dst.len())?;
    let (from, to) = (src_dt.shape(), dst_dt.shape());
    let len = from.total_bytes();
    if len != to.total_bytes() {
        return Err(Error::SizeMismatch { expected: to.total_bytes(), got: len });
    }
    if from.nruns > 1 && to.nruns > 1 {
        for_each_run_pair(src_dt, dst_dt, |s, d, n| {
            let (from, to) = (&src[s..s + n], &mut dst[d..d + n]);
            // SAFETY: both stretches are `n` bytes, bounds-checked by the
            // slicing above, and cannot overlap (one is borrowed shared, the
            // other exclusively).
            unsafe { std::ptr::copy_nonoverlapping(from.as_ptr(), to.as_mut_ptr().cast(), n) };
        });
        return Ok((Counter::PackScalarBytes, len as u64));
    }
    let walked = kernels::copy_runs(src, &from, dst, &to);
    Ok(match walked.nruns {
        0 | 1 => (Counter::PackFusedRuns, walked.nruns as u64),
        _ if walked.run_bytes == kernels::LANE => (Counter::PackVectorBytes, len as u64),
        _ => (Counter::PackScalarBytes, len as u64),
    })
}

/// Wire-facing datatype used by [`crate::Comm::alltoallw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datatype {
    /// No data exchanged with this peer.
    Empty,
    /// `len_bytes` contiguous bytes starting at the beginning of the buffer.
    Contiguous {
        /// Number of bytes.
        len_bytes: usize,
        /// Byte offset into the buffer.
        offset: usize,
    },
    /// A rectangular subset of a multidimensional array.
    Subarray(Subarray),
}

impl Datatype {
    /// Bytes this datatype packs to.
    pub fn packed_len(&self) -> usize {
        match self {
            Datatype::Empty => 0,
            Datatype::Contiguous { len_bytes, .. } => *len_bytes,
            Datatype::Subarray(s) => s.packed_len(),
        }
    }

    /// Bytes per element: a subarray's element size, `1` for raw bytes.
    pub(crate) fn elem_size(&self) -> u32 {
        match self {
            Datatype::Subarray(s) => s.elem_size as u32,
            _ => 1,
        }
    }

    /// Iterate this datatype's selection as contiguous `(offset, len)` byte
    /// runs in packed order (see [`Subarray::byte_runs`]).
    pub fn byte_runs(&self) -> ByteRuns {
        ByteRuns::from_shape(&self.shape())
    }

    /// The run structure of this datatype's selection.
    fn shape(&self) -> RunShape {
        match self {
            Datatype::Empty => RunShape::EMPTY,
            Datatype::Contiguous { len_bytes, offset } => RunShape::contiguous(*offset, *len_bytes),
            Datatype::Subarray(s) => s.shape,
        }
    }

    /// Validate that a buffer of `buf_len` bytes is large enough to hold this
    /// datatype's full underlying extent.
    pub(crate) fn check_bounds(&self, buf_len: usize) -> Result<()> {
        match self {
            Datatype::Empty => Ok(()),
            Datatype::Contiguous { len_bytes, offset } => match offset.checked_add(*len_bytes) {
                Some(end) if end <= buf_len => Ok(()),
                _ => Err(Error::DatatypeMismatch {
                    detail: format!(
                        "contiguous range of {len_bytes} bytes at {offset} exceeds buffer of \
                         {buf_len} bytes"
                    ),
                }),
            },
            Datatype::Subarray(s) => s.check_buf(buf_len),
        }
    }

    /// Pack this datatype's selection out of `src`, appending to `out`.
    pub fn pack_into(&self, src: &[u8], out: &mut Vec<u8>) -> Result<()> {
        // Checked before `reserve`, which a bogus length would abort.
        self.check_bounds(src.len())?;
        let (start, len) = (out.len(), self.packed_len());
        out.reserve(len);
        let packed = Datatype::Contiguous { len_bytes: len, offset: 0 };
        copy_selection(src, self, &mut out.spare_capacity_mut()[..len], &packed)?;
        // SAFETY: copy_selection returned `Ok`, so it initialized all `len`
        // bytes of the packed side, inside the capacity reserved above.
        unsafe { out.set_len(start + len) };
        Ok(())
    }

    /// Unpack `packed` into this datatype's selection of `dst`.
    pub fn unpack(&self, packed: &[u8], dst: &mut [u8]) -> Result<()> {
        let from = Datatype::Contiguous { len_bytes: packed.len(), offset: 0 };
        // SAFETY: copy_selection only stores initialized bytes into `dst`.
        copy_selection(packed, &from, unsafe { as_uninit_mut(dst) }, self).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convenience constructors for these tests.
    impl Subarray {
        /// 1-D convenience constructor.
        fn d1(size: usize, subsize: usize, start: usize, elem_size: usize) -> Result<Self> {
            Self::new(1, [size, 1, 1], [subsize, 1, 1], [start, 0, 0], elem_size)
        }

        /// 2-D convenience constructor (`x` fastest-varying).
        fn d2(
            sizes: [usize; 2],
            subsizes: [usize; 2],
            starts: [usize; 2],
            elem_size: usize,
        ) -> Result<Self> {
            Self::new(
                2,
                [sizes[0], sizes[1], 1],
                [subsizes[0], subsizes[1], 1],
                [starts[0], starts[1], 0],
                elem_size,
            )
        }

        /// 3-D convenience constructor (`x` fastest-varying).
        fn d3(
            sizes: [usize; 3],
            subsizes: [usize; 3],
            starts: [usize; 3],
            elem_size: usize,
        ) -> Result<Self> {
            Self::new(3, sizes, subsizes, starts, elem_size)
        }
    }

    fn arr2d(w: usize, h: usize) -> Vec<u8> {
        (0..w * h).map(|i| i as u8).collect()
    }

    #[test]
    fn pack_2d_interior_rect() {
        // 4x4 array, pack the central 2x2 (starts [1,1]).
        let a = arr2d(4, 4);
        let s = Subarray::d2([4, 4], [2, 2], [1, 1], 1).unwrap();
        assert_eq!(s.pack(&a).unwrap(), vec![5, 6, 9, 10]);
    }

    #[test]
    fn unpack_restores_exact_region() {
        let a = arr2d(4, 4);
        let s = Subarray::d2([4, 4], [2, 2], [1, 1], 1).unwrap();
        let packed = s.pack(&a).unwrap();
        let mut b = vec![0u8; 16];
        s.unpack(&packed, &mut b).unwrap();
        let expect: Vec<u8> =
            (0..16).map(|i| if [5, 6, 9, 10].contains(&i) { i as u8 } else { 0 }).collect();
        assert_eq!(b, expect);
    }

    #[test]
    fn pack_unpack_roundtrip_3d_multibyte_elems() {
        // 3x2x2 array of u32, pack a 2x1x2 corner.
        let w = 3;
        let h = 2;
        let d = 2;
        let vals: Vec<u32> = (0..(w * h * d) as u32).collect();
        let bytes = crate::pod::bytes_of(&vals);
        let s = Subarray::d3([3, 2, 2], [2, 1, 2], [1, 1, 0], 4).unwrap();
        let packed = s.pack(bytes).unwrap();
        // Selected elements: (x,y,z) with x in 1..3, y == 1, z in 0..2.
        // Linear index = x + 3*(y + 2*z).
        let expect: Vec<u32> = vec![1 + 3, 2 + 3, 1 + 3 * (1 + 2), 2 + 3 * (1 + 2)];
        let got: Vec<u32> = crate::pod::vec_from_bytes(&packed).unwrap();
        assert_eq!(got, expect);

        let mut dst = vec![0u32; w * h * d];
        s.unpack(&packed, crate::pod::bytes_of_mut(&mut dst)).unwrap();
        for (i, v) in dst.iter().enumerate() {
            if expect.contains(&(i as u32)) {
                assert_eq!(*v, i as u32);
            } else {
                assert_eq!(*v, 0);
            }
        }
    }

    #[test]
    fn full_array_pack_is_identity() {
        let a = arr2d(5, 3);
        let s = Subarray::d2([5, 3], [5, 3], [0, 0], 1).unwrap();
        assert_eq!(s.pack(&a).unwrap(), a);
    }

    #[test]
    fn rejects_out_of_bounds_rect() {
        assert!(Subarray::d2([4, 4], [2, 2], [3, 0], 1).is_err());
        assert!(Subarray::new(4, [1; 3], [1; 3], [0; 3], 1).is_err());
        assert!(Subarray::d1(4, 2, 0, 0).is_err());
    }

    #[test]
    fn zero_extent_rect_is_valid_and_empty() {
        let s = Subarray::d2([4, 4], [0, 2], [0, 0], 1).unwrap();
        assert_eq!(s.count(), 0);
        assert_eq!(s.packed_len(), 0);
        assert_eq!(s.byte_runs().count(), 0);
        let a = arr2d(4, 4);
        assert_eq!(s.pack(&a).unwrap(), Vec::<u8>::new());
        let mut b = a.clone();
        s.unpack(&[], &mut b).unwrap();
        assert_eq!(b, a);
        // A zero-extent rectangle may sit on the far edge.
        assert!(Subarray::d1(4, 0, 4, 1).is_ok());
        assert!(Subarray::d1(4, 0, 5, 1).is_err());
    }

    #[test]
    fn byte_runs_merge_fully_covered_dims() {
        // Full-array selection: one run.
        let s = Subarray::d3([4, 3, 2], [4, 3, 2], [0, 0, 0], 2).unwrap();
        assert_eq!(s.byte_runs().collect::<Vec<_>>(), vec![(0, 48)]);
        // Full rows, partial y: runs merge across y, split across z.
        let s = Subarray::d3([4, 3, 2], [4, 2, 2], [0, 1, 0], 1).unwrap();
        assert_eq!(s.byte_runs().collect::<Vec<_>>(), vec![(4, 8), (16, 8)]);
        // Partial x: one run per (y, z) row.
        let s = Subarray::d3([4, 3, 2], [2, 2, 1], [1, 0, 1], 1).unwrap();
        assert_eq!(s.byte_runs().collect::<Vec<_>>(), vec![(13, 2), (17, 2)]);
    }

    #[test]
    fn byte_runs_match_pack_order() {
        let a = arr2d(5, 4);
        let s = Subarray::d2([5, 4], [3, 2], [1, 1], 1).unwrap();
        let mut via_runs = Vec::new();
        for (off, len) in s.byte_runs() {
            via_runs.extend_from_slice(&a[off..off + len]);
        }
        assert_eq!(via_runs, s.pack(&a).unwrap());
    }

    #[test]
    fn rejects_short_buffers() {
        let s = Subarray::d2([4, 4], [2, 2], [1, 1], 1).unwrap();
        assert!(s.pack(&[0u8; 15]).is_err());
        let mut small = [0u8; 15];
        assert!(s.unpack(&[0u8; 4], &mut small).is_err());
        let mut ok = [0u8; 16];
        assert!(s.unpack(&[0u8; 3], &mut ok).is_err()); // wrong packed len
    }

    #[test]
    fn contiguous_datatype_roundtrip() {
        let src = [1u8, 2, 3, 4, 5, 6];
        let dt = Datatype::Contiguous { len_bytes: 3, offset: 2 };
        let mut out = Vec::new();
        dt.pack_into(&src, &mut out).unwrap();
        assert_eq!(out, vec![3, 4, 5]);
        let mut dst = [0u8; 6];
        dt.unpack(&out, &mut dst).unwrap();
        assert_eq!(dst, [0, 0, 3, 4, 5, 0]);
    }

    /// An offset and a length whose sum overflows fail as a mismatch, on
    /// both sides of the copy, instead of panicking.
    #[test]
    fn overflowing_contiguous_range_is_a_datatype_mismatch() {
        let dt = Datatype::Contiguous { len_bytes: usize::MAX, offset: 2 };
        let mismatch = |r: Result<()>| matches!(r, Err(Error::DatatypeMismatch { .. }));
        assert!(mismatch(dt.pack_into(&[0u8; 16], &mut Vec::new())));
        assert!(mismatch(dt.unpack(&[0u8; 4], &mut [0u8; 16])));
    }

    #[test]
    fn empty_datatype() {
        let dt = Datatype::Empty;
        assert_eq!(dt.packed_len(), 0);
        let mut out = Vec::new();
        dt.pack_into(&[], &mut out).unwrap();
        assert!(out.is_empty());
        assert!(dt.unpack(&[1], &mut []).is_err());
    }

    /// `copy_selection` only stores into its destination, on each route:
    /// the gather into a single run, the scatter out of one, and the
    /// lockstep walk of two strided sides. Each case fills a fresh
    /// allocation exactly, so under Miri a byte read before it was written,
    /// or never written, is an error.
    #[test]
    fn copy_selection_into_uninit_storage_on_every_route() {
        let src: Vec<u8> = (0..16).collect();
        let sub = |sizes, subsizes, starts| {
            Datatype::Subarray(Subarray::d2(sizes, subsizes, starts, 1).unwrap())
        };
        let whole = Datatype::Contiguous { len_bytes: 8, offset: 0 };
        // (source selection, destination selection) pairs that tile an
        // 8-byte (gather) or 16-byte (scatter, lockstep) destination.
        let routes = [
            ("gather", vec![(sub([4, 4], [2, 4], [1, 0]), whole)], 8),
            (
                "scatter",
                vec![
                    (Datatype::Contiguous { len_bytes: 8, offset: 0 }, sub([4, 4], [2, 4], [0, 0])),
                    (Datatype::Contiguous { len_bytes: 8, offset: 8 }, sub([4, 4], [2, 4], [2, 0])),
                ],
                16,
            ),
            (
                "lockstep",
                vec![
                    (sub([8, 2], [4, 2], [0, 0]), sub([4, 4], [2, 4], [0, 0])),
                    (sub([8, 2], [4, 2], [4, 0]), sub([4, 4], [2, 4], [2, 0])),
                ],
                16,
            ),
        ];
        for (route, pairs, len) in routes {
            let mut dst = Vec::<u8>::with_capacity(len);
            let spare = &mut dst.spare_capacity_mut()[..len];
            let mut staged = vec![0u8; len];
            for (from, to) in &pairs {
                copy_selection(&src, from, spare, to).unwrap();
                // The reference moves one byte at a time along the runs.
                let bytes = |dt: &Datatype| dt.byte_runs().flat_map(|(o, l)| o..o + l).collect();
                let (src_at, dst_at): (Vec<usize>, Vec<usize>) = (bytes(from), bytes(to));
                for (s, d) in src_at.into_iter().zip(dst_at) {
                    staged[d] = src[s];
                }
            }
            // SAFETY: the destination selections tile [0, len) and each
            // copy returned `Ok`, so every byte was stored.
            unsafe { dst.set_len(len) };
            assert_eq!(dst, staged, "{route}");
        }
    }

    #[test]
    fn copy_to_between_different_geometries() {
        // Pack a 4x1 row out of an 8-wide array, deposit as a 2x2 square.
        let src: Vec<u8> = (0..8).collect();
        let s_src = Subarray::d2([8, 1], [4, 1], [2, 0], 1).unwrap();
        let s_dst = Subarray::d2([4, 4], [2, 2], [0, 0], 1).unwrap();
        let mut dst = vec![0u8; 16];
        s_src.copy_to(&src, &s_dst, &mut dst).unwrap();
        assert_eq!(&dst[0..2], &[2, 3]);
        assert_eq!(&dst[4..6], &[4, 5]);
    }
}
