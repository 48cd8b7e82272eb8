//! Golden frames for use case 2's per-frame path: LBM step → vorticity →
//! colormap → JPEG, pinned to the bit.
//!
//! The digests below were captured on the parent of the commit that turned
//! the frame kernels (`Lattice::{stream, vorticity}`,
//! `RgbImage::from_scalar_field`, `Colormap::map` and the JPEG encoder's
//! plane build and quantiser) into slice loops, i.e. on the scalar reference
//! code. Those loops keep every floating-point operation in the same order
//! per element, so any reassociation, FMA or changed rounding in one of them
//! moves a digest and fails this test.

use ddr::lbm::{barrier_line, Config, DistributedLbm, Lattice};
use ddr::minimpi::Universe;
use jimage::jpeg::{self, Subsampling};
use jimage::{Colormap, RgbImage};

/// Not a multiple of the 16-pixel 4:2:0 MCU in either axis, so the JPEG
/// edge padding is covered.
const NX: usize = 70;
const NY: usize = 36;
const FRAMES: usize = 12;
const STEPS_PER_FRAME: usize = 10;
const VORT_RANGE: (f32, f32) = (-0.08, 0.08);

/// Line barrier crossing the 2- and 3-rank slab boundaries (rows 18, 12, 24).
fn barrier() -> Box<ddr::lbm::BarrierFn> {
    barrier_line(17, 10, 25)
}

/// 64-bit FNV-1a, chained across frames.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn f32_bytes(field: &[f32]) -> Vec<u8> {
    field.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
}

/// Digests of every frame's vorticity bits, RGB bytes, 4:2:0 JPEG and 4:4:4
/// JPEG, each chained over the frames. A colormapped frame has few distinct
/// colors, so `jpeg_mixed` also encodes an image whose channels are three
/// bytes of each vorticity value's bits. (Quantisation absorbs most one-ulp
/// changes in the planes, so the planes themselves are checked against the
/// scalar reference by the encoder's unit tests.)
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    vorticity: u64,
    rgb: u64,
    jpeg_420: u64,
    jpeg_444: u64,
    jpeg_mixed: u64,
}

fn serial_frames() -> (Digests, Vec<Vec<f32>>) {
    let cfg = Config::wind_tunnel(NX, NY);
    let mut lat = Lattice::new(cfg, 0, NY, &*barrier());
    let cmap = Colormap::blue_white_red();
    let mut d = Digests {
        vorticity: FNV_OFFSET,
        rgb: FNV_OFFSET,
        jpeg_420: FNV_OFFSET,
        jpeg_444: FNV_OFFSET,
        jpeg_mixed: FNV_OFFSET,
    };
    let mut fields = Vec::with_capacity(FRAMES);
    for _ in 0..FRAMES {
        for _ in 0..STEPS_PER_FRAME {
            lat.step_serial();
        }
        let field = lat.vorticity(None, None);
        let img = RgbImage::from_scalar_field(NX, NY, &field, VORT_RANGE.0, VORT_RANGE.1, &cmap);
        d.vorticity = fnv1a(d.vorticity, &f32_bytes(&field));
        d.rgb = fnv1a(d.rgb, &img.data);
        d.jpeg_420 = fnv1a(d.jpeg_420, &jpeg::encode(&img, 75).unwrap());
        d.jpeg_444 = fnv1a(d.jpeg_444, &jpeg::encode_with(&img, 75, Subsampling::S444).unwrap());
        let mixed = field.iter().flat_map(|v| {
            let [a, b, c, _] = v.to_bits().to_le_bytes();
            [a, b, c]
        });
        let mixed = RgbImage::new(NX, NY, mixed.collect()).unwrap();
        d.jpeg_mixed = fnv1a(d.jpeg_mixed, &jpeg::encode(&mixed, 75).unwrap());
        fields.push(field);
    }
    (d, fields)
}

/// The vorticity of every frame from a `nprocs`-rank `DistributedLbm`,
/// stitched back into full fields.
fn distributed_frames(nprocs: usize) -> Vec<Vec<f32>> {
    let cfg = Config::wind_tunnel(NX, NY);
    let per_rank = Universe::run(nprocs, |comm| {
        let mut sim = DistributedLbm::new(cfg, comm, &*barrier());
        let mut frames = Vec::with_capacity(FRAMES);
        for _ in 0..FRAMES {
            for _ in 0..STEPS_PER_FRAME {
                sim.step(comm).unwrap();
            }
            frames.push(sim.vorticity(comm).unwrap());
        }
        (sim.slab(), frames)
    });
    let mut fields = vec![vec![0f32; NX * NY]; FRAMES];
    for ((y0, rows), frames) in per_rank {
        for (field, tile) in fields.iter_mut().zip(frames) {
            field[y0 * NX..(y0 + rows) * NX].copy_from_slice(&tile);
        }
    }
    fields
}

#[test]
fn serial_frames_match_golden_digests() {
    let (got, fields) = serial_frames();
    // The pinned frames must show flow, not a uniform field: both senses of
    // rotation are shed behind the barrier by the last frame.
    let last = fields.last().unwrap();
    assert!(last.iter().any(|&v| v > 1e-3) && last.iter().any(|&v| v < -1e-3));
    let want = Digests {
        vorticity: 0xbfb7_ceca_fa51_af93,
        rgb: 0x262a_45d7_2c84_d4e7,
        jpeg_420: 0xcf53_644e_22d5_1ba9,
        jpeg_444: 0xcc0d_ee2a_c48c_c2c3,
        jpeg_mixed: 0x3df8_9752_a84f_41c5,
    };
    assert_eq!(got, want, "a frame kernel changed a bit of the frame path");
}

#[test]
fn distributed_vorticity_matches_serial_bitwise() {
    let (_, serial) = serial_frames();
    for nprocs in [2, 3] {
        let dist = distributed_frames(nprocs);
        for (k, (s, d)) in serial.iter().zip(&dist).enumerate() {
            let same = s.iter().zip(d).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "frame {k} differs from the serial solver at {nprocs} ranks");
        }
    }
}
