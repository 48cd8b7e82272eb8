//! The parallel TIFF-stack loader: the paper's use case 1 as running code.
//!
//! Each rank ends up holding its near-cubic brick of the volume as
//! normalized `f32` voxels, ready for distributed volume rendering. Three
//! variants mirror Table II: the traditional everyone-reads-what-they-need
//! loader and the two DDR-backed loaders (round-robin and consecutive file
//! assignment).

use crate::tiffcase::{image_block, Method};
use ddr_core::decompose::{brick, consecutive_items, near_cubic_grid};
use ddr_core::{Block, DataKind, Descriptor, Plan, Produce, ValidationPolicy};
use dtiff::TiffImage;
use minimpi::Comm;
use std::io::Read;
use std::path::Path;

/// Errors from the stack loader.
#[derive(Debug)]
pub enum LoadError {
    /// TIFF decode or file I/O failure.
    Tiff(dtiff::TiffError),
    /// Redistribution failure.
    Ddr(ddr_core::DdrError),
    /// A slice did not match the declared volume dimensions.
    Shape(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Tiff(e) => write!(f, "tiff: {e}"),
            LoadError::Ddr(e) => write!(f, "ddr: {e}"),
            LoadError::Shape(s) => write!(f, "shape: {s}"),
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

/// Read slice `z` into `file` and decode it, normalized to `[0, 1]`, into
/// `plane` (one `vol[0] × vol[1]` image). `file` is scratch: callers pass the
/// same buffer for every slice. A slice of the wrong shape is refused from
/// its IFD, before a sample is converted.
fn read_slice_into(
    dir: &Path,
    z: usize,
    vol: [usize; 3],
    file: &mut Vec<u8>,
    plane: &mut [f32],
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
    Ok(page.decode_normalized_into(plane)?)
}

/// Statistics of one load, for the measured benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadStats {
    /// Whole images this rank read and decoded.
    pub images_read: usize,
    /// Bytes this rank shipped to other ranks (0 without DDR).
    pub bytes_sent: u64,
}

/// Load the TIFF stack in `dir` (dimensions `vol`, one file per z slice) so
/// that this rank holds its brick of the `near_cubic_grid(comm.size())`
/// decomposition. Returns the brick, its voxels, and load statistics.
pub fn load_stack(
    comm: &Comm,
    dir: &Path,
    vol: [usize; 3],
    method: Method,
) -> Result<(Block, Vec<f32>, LoadStats), LoadError> {
    let nprocs = comm.size();
    let rank = comm.rank();
    let domain = Block::d3([0, 0, 0], vol).expect("valid volume");
    let counts = near_cubic_grid(nprocs);
    let need = brick(&domain, counts, rank).expect("brick within domain");
    let plane = vol[0] * vol[1];
    let mut stats = LoadStats::default();
    let mut file = Vec::new();

    let out = match method {
        Method::NoDdr => {
            // Read every image the brick intersects; throw away the rest of
            // each decoded image (the cost the paper eliminates). The brick's
            // rows arrive in ascending order, so each voxel is written once.
            let mut out = Vec::with_capacity(need.count() as usize);
            let mut slice = vec![0f32; plane];
            for z in need.offset[2]..need.offset[2] + need.dims[2] {
                read_slice_into(dir, z, vol, &mut file, &mut slice)?;
                stats.images_read += 1;
                for y in 0..need.dims[1] {
                    let src = (need.offset[1] + y) * vol[0] + need.offset[0];
                    out.extend_from_slice(&slice[src..src + need.dims[0]]);
                }
            }
            out
        }
        Method::RoundRobin => {
            // One image per round: round `r` decodes this rank's `r`-th
            // image into the one chunk buffer and ships it, so a rank holds
            // one decoded image at a time, not its whole share of the stack.
            let zs: Vec<usize> = (rank..vol[2]).step_by(nprocs).collect();
            let owned = zs.iter().map(|&z| image_block(vol, z)).collect::<Result<Vec<_>, _>>()?;
            let plan = mapping(comm, &owned, need, &mut stats)?;
            let mut out = Vec::new();
            let produce = Produce(|r, chunk: &mut Vec<f32>| {
                chunk.resize(plane, 0.0);
                read_slice_into(dir, zs[r], vol, &mut file, chunk)?;
                stats.images_read += 1;
                Ok::<(), LoadError>(())
            });
            plan.reorganize(comm, produce, &mut out)?;
            out
        }
        Method::Consecutive => {
            let (z0, len) = consecutive_items(vol[2], nprocs, rank);
            let mut data = vec![0f32; len * plane];
            for (i, slice) in data.chunks_exact_mut(plane).enumerate() {
                read_slice_into(dir, z0 + i, vol, &mut file, slice)?;
                stats.images_read += 1;
            }
            // A rank past the end of the stack owns no chunk at all.
            let chunk = (len > 0)
                .then(|| Block::d3([0, 0, z0], [vol[0], vol[1], len]).expect("valid chunk"));
            let plan = mapping(comm, chunk.as_slice(), need, &mut stats)?;
            let held: &[&[f32]] = if len > 0 { &[&data] } else { &[] };
            let mut out = Vec::new();
            plan.reorganize(comm, held, &mut out)?;
            out
        }
    };
    Ok((need, out, stats))
}

/// Build the redistribution plan from this rank's owned blocks to its brick.
fn mapping(
    comm: &Comm,
    owned: &[Block],
    need: Block,
    stats: &mut LoadStats,
) -> Result<Plan, LoadError> {
    let desc = Descriptor::for_type::<f32>(comm.size(), DataKind::D3)?;
    // Round-robin stacks can have thousands of chunks; their disjointness
    // holds by construction, so skip the O(n²) validation pass.
    let plan = desc.setup_data_mapping_with(comm, owned, need, ValidationPolicy::Skip)?;
    stats.bytes_sent = plan.total_sent_bytes();
    Ok(plan)
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
