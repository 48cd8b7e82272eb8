//! Codec microbenchmarks: TIFF decode (the cost DDR's loader amortizes) and
//! JPEG encode (the in-transit analysis output path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dtiff::{extend_normalized_u16, Endian, Page, PixelData, TiffImage};
use jimage::{jpeg, Colormap, RgbImage};
use std::hint::black_box;

fn bench_tiff(c: &mut Criterion) {
    let mut g = c.benchmark_group("tiff");
    g.sample_size(20);
    let (w, h) = (1024u32, 512u32);
    let data: Vec<u32> =
        (0..(w * h) as usize).map(|i| (i as u32).wrapping_mul(2654435761)).collect();
    let img = TiffImage::new(w, h, PixelData::U32(data)).unwrap();
    let bytes = img.encode(Endian::Little).unwrap();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_1024x512_u32", |b| {
        b.iter(|| black_box(img.encode(Endian::Little).unwrap().len()));
    });
    g.bench_function("decode_1024x512_u32", |b| {
        b.iter(|| black_box(TiffImage::decode(black_box(&bytes)).unwrap().width));
    });

    // One slice of the `tiff_stack_load` stack: the typed decode, and the
    // loader's two steps — the raw 16-bit decode into a reused buffer, then
    // the normalize pass into a reused `f32` plane.
    let slice = TiffImage::new(256, 256, PixelData::U16((0..=u16::MAX).collect())).unwrap();
    let bytes = slice.encode(Endian::Little).unwrap();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("decode_256x256_u16", |b| {
        b.iter(|| black_box(TiffImage::decode(black_box(&bytes)).unwrap().width));
    });
    let mut samples = vec![0u16; 256 * 256];
    g.bench_function("decode_u16_into_256x256", |b| {
        b.iter(|| {
            Page::first(black_box(&bytes)).unwrap().decode_u16_into(&mut samples).unwrap();
            black_box(samples[0])
        });
    });
    let mut plane = Vec::with_capacity(256 * 256);
    g.bench_function("extend_normalized_256x256_u16", |b| {
        b.iter(|| {
            plane.clear();
            extend_normalized_u16(&mut plane, black_box(&samples));
            black_box(plane[0])
        });
    });
    g.finish();
}

fn bench_jpeg(c: &mut Criterion) {
    let mut g = c.benchmark_group("jpeg");
    g.sample_size(20);
    let (w, h) = (512usize, 512usize);
    let cmap = Colormap::blue_white_red();
    let field: Vec<f32> = (0..w * h)
        .map(|i| {
            let x = (i % w) as f32 / w as f32;
            let y = (i / w) as f32 / h as f32;
            (x * 14.0).sin() * (y * 10.0).cos()
        })
        .collect();
    let img = RgbImage::from_scalar_field(w, h, &field, -1.0, 1.0, &cmap);
    g.throughput(Throughput::Bytes((w * h * 3) as u64));
    for q in [50u8, 75, 95] {
        g.bench_with_input(BenchmarkId::new("encode_512x512_q", q), &q, |b, &q| {
            b.iter(|| black_box(jpeg::encode(black_box(&img), q).unwrap().len()));
        });
    }
    let bytes = jpeg::encode(&img, 75).unwrap();
    g.bench_function("decode_512x512_q75", |b| {
        b.iter(|| black_box(jpeg::decode(black_box(&bytes)).unwrap().width));
    });
    g.finish();
}

fn bench_colormap(c: &mut Criterion) {
    let mut g = c.benchmark_group("colormap");
    let field: Vec<f32> = (0..512 * 512).map(|i| (i as f32 * 0.001).sin()).collect();
    let cmap = Colormap::blue_white_red();
    g.throughput(Throughput::Elements(field.len() as u64));
    g.bench_function("map_512x512_field", |b| {
        b.iter(|| {
            black_box(RgbImage::from_scalar_field(512, 512, black_box(&field), -1.0, 1.0, &cmap))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_tiff, bench_jpeg, bench_colormap);
criterion_main!(benches);
