//! The parallel TIFF-stack loader: the paper's use case 1 as running code.
//!
//! Each rank ends up holding its near-cubic brick of the volume as
//! normalized `f32` voxels, ready for distributed volume rendering. Three
//! variants mirror Table II: the traditional everyone-reads-what-they-need
//! loader and the two DDR-backed loaders (round-robin and consecutive file
//! assignment).
//!
//! The DDR loaders move the files' 16-bit samples, not the `f32` voxels:
//! DDR never reads a value, so widening before the exchange would double
//! the bytes it moves. They walk the stack in z-slabs of
//! [`SLAB_IMAGES_PER_RANK`]` · P` planes, one held exchange per slab, and
//! widen each slab's samples into the brick as they arrive.

use crate::tiffcase::Method;
use ddr_core::decompose::{brick, consecutive_items, near_cubic_grid};
use ddr_core::{Block, DataKind, Descriptor, Plan, ValidationPolicy};
use dtiff::{extend_normalized_u16, PixelKind, TiffImage};
use minimpi::Comm;
use std::io::Read;
use std::path::Path;

/// Images each rank reads per slab of the DDR loaders' walk: a slab is
/// `SLAB_IMAGES_PER_RANK · P` planes deep.
///
/// Two keep what a rank receives per slab inside its L2, between the
/// exchange that writes it and the normalize pass that reads it: on the
/// `tiff_stack_load` workload (a 256 × 256 × 128 stack on 2 ranks, whose
/// bricks split x) a slab is 4 planes and a rank's part of it 128 × 256 × 4
/// samples, 256 KiB. Measured there (2 vCPUs, seed 1, `--seconds 16`, four
/// runs of each in rotation, medians of `op_ms_p50` and `peak_rss_mb`): one
/// image per rank 6.06 ms and 38.27 MB, two 5.68 ms and 39.07 MB, four
/// 5.87 ms and 39.96 MB, against 8.17 ms and 38.47 MB for the loader that
/// widened every sample before a whole-stack exchange.
pub const SLAB_IMAGES_PER_RANK: usize = 2;

/// Errors from the stack loader.
#[derive(Debug)]
pub enum LoadError {
    /// TIFF decode or file I/O failure.
    Tiff(dtiff::TiffError),
    /// Redistribution failure.
    Ddr(ddr_core::DdrError),
    /// A slice did not match the declared volume dimensions.
    Shape(String),
    /// A slice holds samples other than 16-bit ones, which the loader reads.
    SampleKind {
        /// The slice's z index.
        slice: usize,
        /// What it holds.
        kind: PixelKind,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Tiff(e) => write!(f, "tiff: {e}"),
            LoadError::Ddr(e) => write!(f, "ddr: {e}"),
            LoadError::Shape(s) => write!(f, "shape: {s}"),
            LoadError::SampleKind { slice, kind } => {
                write!(f, "slice {slice} holds {kind:?} samples, the loader reads U16")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<dtiff::TiffError> for LoadError {
    fn from(e: dtiff::TiffError) -> Self {
        LoadError::Tiff(e)
    }
}

impl From<ddr_core::DdrError> for LoadError {
    fn from(e: ddr_core::DdrError) -> Self {
        LoadError::Ddr(e)
    }
}

/// Read slice `z` into `file` and decode its 16-bit samples into `plane`
/// (one `vol[0] × vol[1]` image). `file` is scratch: callers pass the same
/// buffer for every slice. A slice of the wrong shape or sample kind is
/// refused from its IFD, before a sample is copied.
fn read_slice_into(
    dir: &Path,
    z: usize,
    vol: [usize; 3],
    file: &mut Vec<u8>,
    plane: &mut [u16],
) -> Result<(), LoadError> {
    file.clear();
    std::fs::File::open(dtiff::stack_slice_path(dir, z))
        .and_then(|mut f| f.read_to_end(file))
        .map_err(dtiff::TiffError::from)?;
    let page = dtiff::Page::first(file)?;
    if page.width() as usize != vol[0] || page.height() as usize != vol[1] {
        return Err(LoadError::Shape(format!(
            "slice {z} is {}x{}, volume says {}x{}",
            page.width(),
            page.height(),
            vol[0],
            vol[1]
        )));
    }
    if page.kind() != PixelKind::U16 {
        return Err(LoadError::SampleKind { slice: z, kind: page.kind() });
    }
    Ok(page.decode_u16_into(plane)?)
}

/// Statistics of one load, for the measured benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadStats {
    /// Whole images this rank read and decoded.
    pub images_read: usize,
    /// Bytes this rank shipped to other ranks (0 without DDR). DDR moves the
    /// files' 16-bit samples, so this is half the bytes of the `f32` voxels
    /// they become.
    pub bytes_sent: u64,
}

/// Load the TIFF stack in `dir` (dimensions `vol`, one 16-bit file per z
/// slice) so that this rank holds its brick of the `near_cubic_grid(comm.size())`
/// decomposition. Returns the brick, its voxels, and load statistics.
///
/// A slice of another shape or sample kind is an error naming it.
pub fn load_stack(
    comm: &Comm,
    dir: &Path,
    vol: [usize; 3],
    method: Method,
) -> Result<(Block, Vec<f32>, LoadStats), LoadError> {
    let domain = Block::d3([0, 0, 0], vol).expect("valid volume");
    let counts = near_cubic_grid(comm.size());
    let bricks: Vec<Block> =
        (0..comm.size()).map(|r| brick(&domain, counts, r).expect("brick within domain")).collect();
    let need = bricks[comm.rank()];
    let mut loader = Loader { dir, vol, file: Vec::new(), stats: LoadStats::default() };
    // Every voxel is appended once, in the brick's order, by the normalize
    // kernel's streaming stores: nothing zeroes or reads the brick first.
    let mut out = Vec::with_capacity(need.count() as usize);
    match method {
        Method::NoDdr => loader.no_ddr(need, &mut out)?,
        Method::RoundRobin | Method::Consecutive => {
            loader.slabs(comm, method, &bricks, &mut out)?
        }
    }
    Ok((need, out, loader.stats))
}

/// One load's reading state.
struct Loader<'a> {
    dir: &'a Path,
    vol: [usize; 3],
    /// The file bytes of the slice being read, reused for every slice.
    file: Vec<u8>,
    stats: LoadStats,
}

/// One rank's declaration for one slab, in the slab's own coordinates (z
/// from the slab's first plane): its owned chunks, and its brick's part of
/// the slab if the brick reaches into it.
type SlabLayout = (Vec<Block>, Option<Block>);

impl Loader<'_> {
    fn read(&mut self, z: usize, plane: &mut [u16]) -> Result<(), LoadError> {
        read_slice_into(self.dir, z, self.vol, &mut self.file, plane)?;
        self.stats.images_read += 1;
        Ok(())
    }

    /// Read every image the brick intersects and keep its rows of each (the
    /// cost the paper eliminates).
    fn no_ddr(&mut self, need: Block, out: &mut Vec<f32>) -> Result<(), LoadError> {
        let vol = self.vol;
        let mut slice = vec![0u16; vol[0] * vol[1]];
        let mut part = Vec::with_capacity(need.dims[0] * need.dims[1]);
        let rows = need.offset[1] * vol[0]..(need.offset[1] + need.dims[1]) * vol[0];
        for z in need.offset[2]..need.offset[2] + need.dims[2] {
            self.read(z, &mut slice)?;
            // The brick's rows, gathered so that one pass widens them: a
            // pass per row would end in an `sfence` per row.
            part.clear();
            for row in slice[rows.clone()].chunks_exact(vol[0]) {
                part.extend_from_slice(&row[need.offset[0]..][..need.dims[0]]);
            }
            extend_normalized_u16(out, &part);
        }
        Ok(())
    }

    /// Both DDR methods: walk the stack in slabs of
    /// [`SLAB_IMAGES_PER_RANK`]` · P` planes. Each slab's owned images go
    /// out in one held exchange of 16-bit samples, and what arrives — this
    /// rank's brick's part of the slab, contiguous in the brick — is widened
    /// onto the end of `out`.
    ///
    /// Every rank derives every rank's slab layout from the decomposition,
    /// so all of them set a plan up at the same slabs: once per call, and
    /// again only where a slab's layout differs from the one before (a
    /// brick's or a consecutive range's z boundary inside it, the tail
    /// slab). A rank whose brick misses a slab declares no needed block for
    /// it, and only sends.
    fn slabs(
        &mut self,
        comm: &Comm,
        method: Method,
        bricks: &[Block],
        out: &mut Vec<f32>,
    ) -> Result<(), LoadError> {
        let (nprocs, rank, vol) = (comm.size(), comm.rank(), self.vol);
        let plane = vol[0] * vol[1];
        let depth = SLAB_IMAGES_PER_RANK * nprocs;
        let desc = Descriptor::for_type::<u16>(nprocs, DataKind::D3)?;

        // Consecutive reads its whole range up front; round-robin reads each
        // slab's images when it reaches the slab, into one reused buffer.
        let (first, len) = consecutive_items(vol[2], nprocs, rank);
        let mut images = match method {
            Method::Consecutive => {
                let mut range = vec![0u16; len * plane];
                for (i, image) in range.chunks_exact_mut(plane).enumerate() {
                    self.read(first + i, image)?;
                }
                range
            }
            _ => vec![0u16; SLAB_IMAGES_PER_RANK * plane],
        };

        let mut plan: Option<(Vec<SlabLayout>, Plan)> = None;
        let mut arrived: Vec<u16> = Vec::new();
        for lo in (0..vol[2]).step_by(depth) {
            let hi = (lo + depth).min(vol[2]);
            let layouts: Vec<SlabLayout> =
                (0..nprocs).map(|r| slab_layout(method, vol, bricks, r, lo..hi)).collect();
            if plan.as_ref().is_none_or(|(built, _)| *built != layouts) {
                let (owned, need) = &layouts[rank];
                let p = desc.setup_multi_mapping(
                    comm,
                    owned,
                    need.as_slice(),
                    ValidationPolicy::Strict,
                )?;
                plan = Some((layouts, p));
            }
            let (layouts, p) = plan.as_ref().expect("set up above");
            let (owned, need) = &layouts[rank];

            let chunks: Vec<&[u16]> = match method {
                Method::Consecutive => owned
                    .iter()
                    .map(|b| {
                        let at = (lo + b.offset[2] - first) * plane;
                        &images[at..at + b.dims[2] * plane]
                    })
                    .collect(),
                _ => {
                    for (b, image) in owned.iter().zip(images.chunks_exact_mut(plane)) {
                        self.read(lo + b.offset[2], image)?;
                    }
                    images.chunks_exact(plane).take(owned.len()).collect()
                }
            };
            let needs: &mut [Vec<u16>] =
                if need.is_some() { std::slice::from_mut(&mut arrived) } else { &mut [] };
            p.reorganize_needs(comm, &chunks, needs)?;
            self.stats.bytes_sent += p.total_sent_bytes();
            if need.is_some() {
                extend_normalized_u16(out, &arrived);
            }
        }
        Ok(())
    }
}

/// Rank `r`'s [`SlabLayout`] for the slab of planes `zs`: round-robin owns
/// each of its images in the slab as a chunk of its own (a slab starts on a
/// multiple of P, so they are `zs.start + r`, `zs.start + r + P`, …),
/// consecutive the slab's share of its range as one chunk.
fn slab_layout(
    method: Method,
    vol: [usize; 3],
    bricks: &[Block],
    r: usize,
    zs: std::ops::Range<usize>,
) -> SlabLayout {
    let ok = "slab blocks are non-empty by construction";
    let planes = |a: usize, b: usize| Block::d3([0, 0, a - zs.start], [vol[0], vol[1], b - a]);
    let owned = match method {
        Method::Consecutive => {
            let (first, len) = consecutive_items(vol[2], bricks.len(), r);
            let (a, b) = (first.max(zs.start), (first + len).min(zs.end));
            (a < b).then(|| planes(a, b).expect(ok)).into_iter().collect()
        }
        _ => (zs.start + r..zs.end)
            .step_by(bricks.len())
            .map(|z| planes(z, z + 1).expect(ok))
            .collect(),
    };
    let b = bricks[r];
    let (a, e) = (b.offset[2].max(zs.start), (b.offset[2] + b.dims[2]).min(zs.end));
    let need = (a < e).then(|| {
        Block::d3([b.offset[0], b.offset[1], a - zs.start], [b.dims[0], b.dims[1], e - a])
            .expect(ok)
    });
    (owned, need)
}

fn phantom_slices(vol: [usize; 3]) -> Vec<TiffImage> {
    let data = volren::phantom_tooth(vol);
    let plane = vol[0] * vol[1];
    (0..vol[2])
        .map(|z| {
            let pixels: Vec<u16> =
                data[z * plane..(z + 1) * plane].iter().map(|&v| (v * 65535.0) as u16).collect();
            TiffImage::new(vol[0] as u32, vol[1] as u32, dtiff::PixelData::U16(pixels))
                .expect("plane matches dims")
        })
        .collect()
}

/// Generate a synthetic TIFF stack of the phantom volume (used by the
/// measured benchmark and the DVR example). Writes `vol[2]` slices of
/// `vol[0]×vol[1]` 16-bit grayscale, one file per slice.
pub fn write_phantom_stack(dir: &Path, vol: [usize; 3]) -> Result<(), LoadError> {
    dtiff::write_stack(dir, &phantom_slices(vol), dtiff::Endian::Little)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimpi::Universe;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ddr_loader_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn all_three_methods_agree_and_match_the_phantom() {
        // Odd extents: every axis a near-cubic grid below splits leaves a
        // remainder, so bricks are ragged.
        let vol = [25usize, 19, 13];
        let dir = tmpdir("agree");
        write_phantom_stack(&dir, vol).unwrap();
        // The phantom through the files' u16 quantisation, normalized as the
        // benchmark's oracle does it: bit for bit, not within a tolerance.
        let reference: Vec<u32> = volren::phantom_tooth(vol)
            .iter()
            .map(|&v| ((f64::from((v * 65535.0) as u16) / 65535.0) as f32).to_bits())
            .collect();

        // Each loader equals the reference, so the three agree with each other.
        for nprocs in [1usize, 3, 4, 5, 6, 8] {
            for method in [Method::NoDdr, Method::RoundRobin, Method::Consecutive] {
                let dir = dir.clone();
                let results =
                    Universe::run(nprocs, move |comm| load_stack(comm, &dir, vol, method).unwrap());
                // Stitch the bricks; NaN marks a voxel no brick delivered.
                let mut stitched = vec![f32::NAN.to_bits(); vol[0] * vol[1] * vol[2]];
                for (block, data, _) in &results {
                    for (v, c) in data.iter().zip(block.coords()) {
                        stitched[c[0] + vol[0] * (c[1] + vol[1] * c[2])] = v.to_bits();
                    }
                }
                if let Some(i) = (0..stitched.len()).find(|&i| stitched[i] != reference[i]) {
                    panic!(
                        "{method:?} at {nprocs}: voxel {i} is {} not {}",
                        f32::from_bits(stitched[i]),
                        f32::from_bits(reference[i])
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_slice_is_a_tiff_error_for_its_reader_and_a_structured_error_for_peers() {
        let vol = [16usize, 8, 12];
        let nprocs = 4;
        // Slice 5 is read by rank 1 under both assignments (round-robin: its
        // second of 1, 5, 9; consecutive: the last of 3..6), and every brick
        // of the 1x2x2 grid needs slice 5 or slice 9 from it.
        let (bad_z, reader) = (5, 1);
        let dir = tmpdir("corrupt");
        write_phantom_stack(&dir, vol).unwrap();
        std::fs::write(dtiff::stack_slice_path(&dir, bad_z), b"II*\0 not a TIFF past its magic")
            .unwrap();

        let watchdog = std::time::Duration::from_secs(20);
        for method in [Method::RoundRobin, Method::Consecutive] {
            let started = std::time::Instant::now();
            let dir = dir.clone();
            let results = Universe::builder()
                .timeout(watchdog)
                .run(nprocs, move |comm| load_stack(comm, &dir, vol, method).map(|_| ()));
            assert!(started.elapsed() < watchdog, "{method:?}: a rank sat out the watchdog");
            for (rank, result) in results.iter().enumerate() {
                match result {
                    Err(LoadError::Tiff(_)) if rank == reader => {}
                    Err(LoadError::Ddr(_)) if rank != reader => {}
                    other => panic!("{method:?}: rank {rank} got {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_sized_slice_is_a_shape_error() {
        let dir = tmpdir("shape");
        write_phantom_stack(&dir, [8, 4, 2]).unwrap();
        // Same pixel count, other shape: only the IFD's dimensions tell.
        let d = dir.clone();
        let got = Universe::run(1, move |comm| load_stack(comm, &d, [4, 8, 2], Method::NoDdr));
        match &got[0] {
            Err(LoadError::Shape(m)) => assert_eq!(m, "slice 0 is 8x4, volume says 4x8"),
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eight_bit_slices_are_refused_naming_the_slice_on_every_method() {
        let vol = [8usize, 4, 6];
        let dir = tmpdir("u8");
        let slices: Vec<TiffImage> = (0..vol[2])
            .map(|z| {
                let pixels = (0..vol[0] * vol[1]).map(|i| (i + z) as u8).collect();
                TiffImage::new(vol[0] as u32, vol[1] as u32, dtiff::PixelData::U8(pixels)).unwrap()
            })
            .collect();
        dtiff::write_stack(&dir, &slices, dtiff::Endian::Little).unwrap();
        // 2 ranks split x, so each brick spans every slice. The slice each
        // rank reads first: 0 for both without DDR, its own first image with.
        for (method, first) in
            [(Method::NoDdr, [0, 0]), (Method::RoundRobin, [0, 1]), (Method::Consecutive, [0, 3])]
        {
            let d = dir.clone();
            let got = Universe::run(2, move |comm| load_stack(comm, &d, vol, method).map(|_| ()));
            for (rank, result) in got.iter().enumerate() {
                match result {
                    Err(e @ LoadError::SampleKind { slice, kind: PixelKind::U8 })
                        if *slice == first[rank] =>
                    {
                        let want = format!("slice {slice} holds U8 samples, the loader reads U16");
                        assert_eq!(e.to_string(), want);
                    }
                    other => panic!("{method:?}: rank {rank} got {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ddr_reduces_images_read() {
        let vol = [16usize, 8, 12];
        let dir = tmpdir("reads");
        write_phantom_stack(&dir, vol).unwrap();
        let d2 = dir.clone();
        let no_ddr = Universe::run(8, move |comm| {
            load_stack(comm, &d2, vol, Method::NoDdr).unwrap().2.images_read
        });
        let d3 = dir.clone();
        let ddr = Universe::run(8, move |comm| {
            load_stack(comm, &d3, vol, Method::Consecutive).unwrap().2.images_read
        });
        // 8 ranks = 2x2x2 bricks: every image is read by 4 ranks without
        // DDR (6 images each) but only once with DDR (1.5 images each).
        assert_eq!(no_ddr.iter().sum::<usize>(), 4 * 12);
        assert_eq!(ddr.iter().sum::<usize>(), 12);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
