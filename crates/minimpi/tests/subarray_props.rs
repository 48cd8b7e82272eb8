//! Property tests of the [`Subarray`] datatype engine: `pack` / `unpack` /
//! `pack_into` / `copy_to` round-trips over random dims, strides and
//! offsets, including the zero-extent and full-extent edge rectangles the
//! zero-copy exchange depends on.

use minimpi::Subarray;
use proptest::prelude::*;

/// Cheap deterministic generator used to derive geometry from one seed.
fn mix(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *s >> 17
}

/// Derive a valid random subarray from `seed`. `edge` forces one of the
/// edge shapes: `1` = full-extent (the selection is the whole array),
/// `2` = zero-extent in one dimension (an empty selection, possibly sitting
/// on the far edge of the array), `3` = single-element inner stride (a
/// one-element-wide column: every packed run is `elem_size` bytes, the
/// pack kernels' worst case).
fn subarray_from_seed(seed: u64, edge: u64) -> Subarray {
    let mut s = seed | 1;
    let ndims = 1 + (mix(&mut s) % 3) as usize;
    let elem_size = [1usize, 2, 3, 4, 8][(mix(&mut s) % 5) as usize];
    let mut sizes = [1usize; 3];
    let mut subsizes = [1usize; 3];
    let mut starts = [0usize; 3];
    for d in 0..ndims {
        sizes[d] = 1 + (mix(&mut s) % 9) as usize;
        subsizes[d] = 1 + (mix(&mut s) % sizes[d] as u64) as usize;
        starts[d] = (mix(&mut s) % (sizes[d] - subsizes[d] + 1) as u64) as usize;
    }
    match edge {
        1 => {
            subsizes = sizes;
            starts = [0; 3];
        }
        2 => {
            let d = (mix(&mut s) % ndims as u64) as usize;
            subsizes[d] = 0;
            // A zero-extent rectangle may start anywhere up to the far edge.
            starts[d] = (mix(&mut s) % (sizes[d] + 1) as u64) as usize;
        }
        3 => {
            // Inner dimension strided at one element: run never merges with
            // its neighbor, so the gather walks elem_size-byte runs.
            sizes[0] = sizes[0].max(2);
            subsizes[0] = 1;
            starts[0] = (mix(&mut s) % sizes[0] as u64) as usize;
        }
        _ => {}
    }
    Subarray::new(ndims, sizes, subsizes, starts, elem_size).unwrap()
}

/// Distinct nonzero filler for each byte position.
/// A 1-D subarray of exactly `sa`'s elements, start to end.
fn flat_like(sa: &Subarray) -> Subarray {
    let n = sa.count();
    Subarray::new(1, [n, 1, 1], [n, 1, 1], [0; 3], sa.elem_size).unwrap()
}

fn filled(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251 + 1) as u8).collect()
}

/// Scalar reference pack, derived from nothing but element-coordinate
/// arithmetic — no `byte_runs`, no kernel layer. The element at subarray
/// coordinate `(x, y, z)` lives at array index
/// `(starts.0 + x) + sizes.0 * ((starts.1 + y) + sizes.1 * (starts.2 + z))`,
/// and packed order walks `x` fastest. This is the ground truth the fused /
/// vectorized / per-run kernels must reproduce byte for byte.
fn reference_pack(sa: &Subarray, src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(sa.packed_len());
    for z in 0..sa.subsizes[2] {
        for y in 0..sa.subsizes[1] {
            for x in 0..sa.subsizes[0] {
                let e = (sa.starts[0] + x)
                    + sa.sizes[0] * ((sa.starts[1] + y) + sa.sizes[1] * (sa.starts[2] + z));
                let off = e * sa.elem_size;
                out.extend_from_slice(&src[off..off + sa.elem_size]);
            }
        }
    }
    out
}

/// The kernel-vs-scalar-reference property, shared with the committed
/// regression corpus below: `pack`, `pack_into`, `unpack`, and `copy_to`
/// must all agree with [`reference_pack`]'s coordinate walk on either path
/// of the one selection copy: the run loop when one side is a single run,
/// the lockstep walk when both sides are strided.
fn check_against_reference(seed: u64, edge: u64) -> Result<(), TestCaseError> {
    let sa = subarray_from_seed(seed, edge);
    let src = filled(sa.full_len());
    let expect = reference_pack(&sa, &src);

    prop_assert_eq!(sa.pack(&src).unwrap(), expect.clone());

    let mut appended = vec![0xAAu8; 5];
    sa.pack_into(&src, &mut appended).unwrap();
    prop_assert_eq!(&appended[..5], &[0xAA; 5]);
    prop_assert_eq!(&appended[5..], expect.as_slice());

    // unpack must be the exact inverse scatter of the reference walk.
    let mut dst = vec![0u8; sa.full_len()];
    sa.unpack(&expect, &mut dst).unwrap();
    let mut expect_dst = vec![0u8; sa.full_len()];
    let mut cursor = 0;
    for z in 0..sa.subsizes[2] {
        for y in 0..sa.subsizes[1] {
            for x in 0..sa.subsizes[0] {
                let e = (sa.starts[0] + x)
                    + sa.sizes[0] * ((sa.starts[1] + y) + sa.sizes[1] * (sa.starts[2] + z));
                let off = e * sa.elem_size;
                expect_dst[off..off + sa.elem_size]
                    .copy_from_slice(&expect[cursor..cursor + sa.elem_size]);
                cursor += sa.elem_size;
            }
        }
    }
    prop_assert_eq!(dst, expect_dst);

    // copy_to into a flat destination is pack without the intermediate.
    if sa.count() > 0 {
        let flat = flat_like(&sa);
        let mut direct = vec![0u8; flat.full_len()];
        sa.copy_to(&src, &flat, &mut direct).unwrap();
        prop_assert_eq!(direct, expect);
    }
    Ok(())
}

/// The core round-trip property, shared with the committed regression
/// corpus below.
fn check_roundtrip(seed: u64, edge: u64) -> Result<(), TestCaseError> {
    let sa = subarray_from_seed(seed, edge);
    let src = filled(sa.full_len());

    // pack: length and content sanity.
    let packed = sa.pack(&src).unwrap();
    prop_assert_eq!(packed.len(), sa.packed_len());

    // pack_into appends exactly the packed bytes after existing content.
    let mut appended = vec![0xEEu8; 3];
    sa.pack_into(&src, &mut appended).unwrap();
    prop_assert_eq!(&appended[..3], &[0xEE; 3]);
    prop_assert_eq!(&appended[3..], packed.as_slice());

    // byte_runs: in-bounds, ascending, disjoint, and they cover exactly the
    // packed length.
    let runs: Vec<(usize, usize)> = sa.byte_runs().collect();
    let total: usize = runs.iter().map(|&(_, l)| l).sum();
    prop_assert_eq!(total, sa.packed_len());
    for w in runs.windows(2) {
        prop_assert!(w[0].0 + w[0].1 <= w[1].0, "runs overlap or regress: {:?}", w);
    }
    if let Some(&(off, len)) = runs.last() {
        prop_assert!(off + len <= sa.full_len());
    }

    // unpack into a zeroed array restores exactly the selection.
    let mut dst = vec![0u8; sa.full_len()];
    sa.unpack(&packed, &mut dst).unwrap();
    let mut selected = vec![false; sa.full_len()];
    for (off, len) in sa.byte_runs() {
        for sel in &mut selected[off..off + len] {
            *sel = true;
        }
    }
    for (i, (&got, &sel)) in dst.iter().zip(&selected).enumerate() {
        let want = if sel { src[i] } else { 0 };
        prop_assert_eq!(got, want, "byte {} (selected: {})", i, sel);
    }

    // Re-packing the unpacked array is the identity on the selection.
    prop_assert_eq!(sa.pack(&dst).unwrap(), packed.clone());

    // copy_to into a contiguous destination of the same element count must
    // equal pack (the degenerate zero-copy case).
    if sa.count() > 0 {
        let flat = flat_like(&sa);
        let mut direct = vec![0u8; flat.full_len()];
        sa.copy_to(&src, &flat, &mut direct).unwrap();
        prop_assert_eq!(direct, packed);
    }
    Ok(())
}

/// Run widths in bytes: 64, the one width the run loop moves as a fixed
/// `[u8; 64]`, and widths around it that it copies at their runtime length.
const RUN_WIDTHS: [usize; 14] = [1, 2, 3, 4, 5, 8, 12, 16, 24, 32, 40, 64, 65, 100];

/// A strided 2-D selection of `rows` runs of `width` elements of `elem`
/// bytes: every row is padded, so no two runs merge.
fn strided(s: &mut u64, width: usize, rows: usize, elem: usize) -> Subarray {
    let pad = 1 + (mix(s) % 3) as usize;
    let extra = (mix(s) % 3) as usize;
    let x0 = (mix(s) % (pad as u64 + 1)) as usize;
    let y0 = (mix(s) % (extra as u64 + 1)) as usize;
    Subarray::new(2, [width + pad, rows + extra, 1], [width, rows, 1], [x0, y0, 0], elem).unwrap()
}

/// A single-run selection of `count` elements of `elem` bytes, at a seeded
/// offset into a longer 1-D array.
fn single_run(s: &mut u64, count: usize, elem: usize) -> Subarray {
    let extra = (mix(s) % 5) as usize;
    let start = (mix(s) % (extra as u64 + 1)) as usize;
    Subarray::new(1, [count + extra, 1, 1], [count, 1, 1], [start, 0, 0], elem).unwrap()
}

/// `copy_to` must equal `pack` then `unpack` byte for byte — bytes outside
/// the destination selection included — on an equal-count pair whose runs
/// are `RUN_WIDTHS[width_class]` bytes wide. `route` picks the copy's route:
/// `0` a single-run source (the destination's scatter kernel), `1` a
/// single-run destination (the source's gather kernel), `2` both sides
/// strided (the lockstep run-pair walk, at equal or doubled run widths).
fn check_copy_matches_pack_unpack(
    seed: u64,
    width_class: usize,
    route: usize,
) -> Result<(), TestCaseError> {
    let mut s = seed | 1;
    let run_bytes = RUN_WIDTHS[width_class % RUN_WIDTHS.len()];
    let elem = [4, 2, 1].into_iter().find(|&e| run_bytes.is_multiple_of(e)).unwrap();
    let width = run_bytes / elem;
    let rows = 2 + (mix(&mut s) % 6) as usize;
    let strided_side = strided(&mut s, width, rows, elem);
    let (src_t, dst_t) = match route {
        0 => (single_run(&mut s, width * rows, elem), strided_side),
        1 => (strided_side, single_run(&mut s, width * rows, elem)),
        _ => {
            let doubled = rows.is_multiple_of(2) && rows >= 4 && mix(&mut s).is_multiple_of(2);
            let (w2, r2) = if doubled { (2 * width, rows / 2) } else { (width, rows) };
            (strided_side, strided(&mut s, w2, r2, elem))
        }
    };
    let src = filled(src_t.full_len());
    let mut direct = vec![0xEE; dst_t.full_len()];
    src_t.copy_to(&src, &dst_t, &mut direct).unwrap();
    let mut staged = vec![0xEE; dst_t.full_len()];
    dst_t.unpack(&src_t.pack(&src).unwrap(), &mut staged).unwrap();
    prop_assert_eq!(direct, staged, "{:?} -> {:?}", src_t, dst_t);
    Ok(())
}

/// Every run width on every route, a few geometries each.
#[test]
fn both_copy_routes_equal_pack_then_unpack_at_every_width() {
    for (width_class, width) in RUN_WIDTHS.iter().enumerate() {
        for route in 0..3 {
            for seed in 0..4 {
                if let Err(e) = check_copy_matches_pack_unpack(seed, width_class, route) {
                    panic!("width {width} route {route} seed {seed}: {e}");
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn copy_to_equals_pack_then_unpack(
        seed in any::<u64>(),
        width_class in 0usize..14,
        route in 0usize..3,
    ) {
        check_copy_matches_pack_unpack(seed, width_class, route)?;
    }

    #[test]
    fn pack_unpack_roundtrip_random_rects(seed in any::<u64>()) {
        check_roundtrip(seed, 0)?;
    }

    #[test]
    fn pack_unpack_roundtrip_full_extent(seed in any::<u64>()) {
        check_roundtrip(seed, 1)?;
    }

    #[test]
    fn pack_unpack_roundtrip_zero_extent(seed in any::<u64>()) {
        check_roundtrip(seed, 2)?;
    }

    #[test]
    fn kernels_match_scalar_reference_random(seed in any::<u64>()) {
        check_against_reference(seed, 0)?;
    }

    #[test]
    fn kernels_match_scalar_reference_full_extent(seed in any::<u64>()) {
        check_against_reference(seed, 1)?;
    }

    #[test]
    fn kernels_match_scalar_reference_zero_extent(seed in any::<u64>()) {
        check_against_reference(seed, 2)?;
    }

    #[test]
    fn kernels_match_scalar_reference_single_elem_stride(seed in any::<u64>()) {
        check_against_reference(seed, 3)?;
    }

    #[test]
    fn single_elem_stride_roundtrips(seed in any::<u64>()) {
        check_roundtrip(seed, 3)?;
    }

    #[test]
    fn copy_to_reshapes_losslessly(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        // Two independent geometries with the same element count and size:
        // shipping a into b's shape and re-flattening is the identity.
        let a = subarray_from_seed(seed_a, 0);
        let mut b = subarray_from_seed(seed_b, 0);
        let mut tries = seed_b;
        while b.count() != a.count() || b.elem_size != a.elem_size {
            tries = tries.wrapping_add(0x9e3779b97f4a7c15);
            b = subarray_from_seed(tries, 0);
            if b.count() != a.count() || b.elem_size != a.elem_size {
                // Equal-count random pairs are rare; fall back to a flat
                // destination, which is always constructible.
                b = flat_like(&a);
            }
        }
        let src = filled(a.full_len());
        let mut mid = vec![0u8; b.full_len()];
        a.copy_to(&src, &b, &mut mid).unwrap();
        let mut back = vec![0u8; a.count() * a.elem_size];
        let flat = flat_like(&a);
        b.copy_to(&mid, &flat, &mut back).unwrap();
        prop_assert_eq!(back, a.pack(&src).unwrap());
    }

    #[test]
    fn full_extent_is_single_run(seed in any::<u64>()) {
        let sa = subarray_from_seed(seed, 1);
        let runs: Vec<_> = sa.byte_runs().collect();
        prop_assert_eq!(runs, vec![(0usize, sa.full_len())]);
    }

    #[test]
    fn zero_extent_packs_nothing_and_unpack_is_noop(seed in any::<u64>()) {
        let sa = subarray_from_seed(seed, 2);
        prop_assert_eq!(sa.packed_len(), 0);
        let src = filled(sa.full_len());
        prop_assert_eq!(sa.pack(&src).unwrap(), Vec::<u8>::new());
        let mut dst = src.clone();
        sa.unpack(&[], &mut dst).unwrap();
        prop_assert_eq!(dst, src);
    }
}

/// Seeds that once exposed bugs (or probe known-delicate geometry). The
/// vendored proptest shim has no failure-persistence files, so the corpus is
/// committed here and replayed on every run; append `(seed, edge)` pairs
/// from any future failure report.
const REGRESSION_CORPUS: &[(u64, u64)] = &[
    (0, 0),                     // degenerate all-zero seed
    (1, 2),                     // zero-extent on the smallest geometry
    (0xffff_ffff_ffff_ffff, 0), // all-ones seed
    (0x9e37_79b9_7f4a_7c15, 1), // golden-ratio seed, full extent
    (42, 2),                    // zero-extent rectangle at the far edge
    (7_777_777, 0),             // 3-D multi-byte-elem interior rectangle
    (3, 3),                     // 1-byte elements at single-element stride
    (0xdead_beef, 3),           // single-element stride, multi-byte elems
    (0x1234_5678_9abc_def0, 3), // 3-D single-element inner column
];

#[test]
fn regression_corpus_replays_clean() {
    for &(seed, edge) in REGRESSION_CORPUS {
        if let Err(e) = check_roundtrip(seed, edge) {
            panic!("regression corpus case (seed {seed:#x}, edge {edge}) failed: {e}");
        }
        if let Err(e) = check_against_reference(seed, edge) {
            panic!(
                "regression corpus case (seed {seed:#x}, edge {edge}) \
                 diverged from the scalar reference: {e}"
            );
        }
    }
}
