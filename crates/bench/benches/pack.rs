//! Subarray pack/unpack bandwidth — the per-byte cost under every DDR
//! transfer, across rectangle shapes (row-contiguous copies vs thin strided
//! columns).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use minimpi::Subarray;
use std::hint::black_box;

fn bench_pack_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("subarray_pack");
    let full = [512usize, 512, 1];
    let src: Vec<u8> = (0..full[0] * full[1] * 4).map(|i| i as u8).collect();
    // (label, subsizes): same byte volume, different row lengths.
    let cases = [
        ("wide_rows_512x32", [512usize, 32, 1]),
        ("square_128x128", [128, 128, 1]),
        ("thin_columns_32x512", [32, 512, 1]),
    ];
    for (label, sub) in cases {
        let s = Subarray::new(2, full, sub, [0, 0, 0], 4).unwrap();
        g.throughput(Throughput::Bytes(s.packed_len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(label), &s, |b, s| {
            let mut out = Vec::with_capacity(s.packed_len());
            b.iter(|| {
                out.clear();
                s.pack_into(black_box(&src), &mut out).unwrap();
                black_box(out.len())
            });
        });
    }
    g.finish();
}

fn bench_unpack(c: &mut Criterion) {
    let mut g = c.benchmark_group("subarray_unpack");
    let full = [512usize, 512, 1];
    let s = Subarray::new(2, full, [128, 128, 1], [64, 64, 0], 4).unwrap();
    let src = vec![0xA5u8; full[0] * full[1] * 4];
    let packed = s.pack(&src).unwrap();
    let mut dst = vec![0u8; full[0] * full[1] * 4];
    g.throughput(Throughput::Bytes(s.packed_len() as u64));
    g.bench_function("square_128x128", |b| {
        b.iter(|| {
            s.unpack(black_box(&packed), &mut dst).unwrap();
            black_box(dst[0])
        });
    });
    g.finish();
}

/// Pathological-stride shapes — the selection copy's worst cases, where
/// runs are too short to amortize the per-run copy that carries the whole
/// selection:
/// * column-major extraction: a single column of a wide row-major array, one
///   4-byte element per run, maximal stride;
/// * inner-dim stride of one element: every other element of each row, so no
///   two runs ever merge;
/// * 3-D pencil: a 1×1×N line through a cube, one element per plane.
fn bench_pack_pathological(c: &mut Criterion) {
    let mut g = c.benchmark_group("subarray_pack_pathological");
    let full2 = [1024usize, 1024, 1];
    let src2: Vec<u8> = (0..full2[0] * full2[1] * 4).map(|i| i as u8).collect();
    let column = Subarray::new(2, full2, [1, 1024, 1], [512, 0, 0], 4).unwrap();
    let full_strided = [1024usize, 512, 1];
    let strided = Subarray::new(2, full_strided, [1, 512, 1], [1, 0, 0], 4).unwrap();
    let full3 = [128usize, 128, 128];
    let src3 = vec![0x5Au8; full3[0] * full3[1] * full3[2] * 4];
    let pencil = Subarray::new(3, full3, [1, 1, 128], [64, 64, 0], 4).unwrap();
    let cases: [(&str, &Subarray, &[u8]); 3] = [
        ("column_major_1x1024_of_1024x1024", &column, &src2),
        (
            "inner_stride_1elem_of_1024x512",
            &strided,
            &src2[..full_strided[0] * full_strided[1] * 4],
        ),
        ("pencil_1x1x128_of_128x128x128", &pencil, &src3),
    ];
    for (label, s, src) in cases {
        g.throughput(Throughput::Bytes(s.packed_len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(label), s, |b, s| {
            let mut out = Vec::with_capacity(s.packed_len());
            b.iter(|| {
                out.clear();
                s.pack_into(black_box(src), &mut out).unwrap();
                black_box(out.len())
            });
        });
        // The inverse scatter over the same geometry.
        let packed = s.pack(src).unwrap();
        let mut dst = vec![0u8; src.len()];
        g.bench_function(format!("unpack_{label}"), |b| {
            b.iter(|| {
                s.unpack(black_box(&packed), &mut dst).unwrap();
                black_box(dst[0])
            });
        });
    }
    g.finish();
}

fn bench_pack_3d(c: &mut Criterion) {
    let mut g = c.benchmark_group("subarray_pack_3d");
    let full = [128usize, 128, 64];
    let src = vec![1u8; full[0] * full[1] * full[2] * 4];
    let s = Subarray::new(3, full, [64, 64, 32], [32, 32, 16], 4).unwrap();
    g.throughput(Throughput::Bytes(s.packed_len() as u64));
    g.bench_function("brick_64x64x32_of_128x128x64", |b| {
        let mut out = Vec::with_capacity(s.packed_len());
        b.iter(|| {
            out.clear();
            s.pack_into(black_box(&src), &mut out).unwrap();
            black_box(out.len())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_pack_shapes, bench_unpack, bench_pack_pathological, bench_pack_3d);
criterion_main!(benches);
