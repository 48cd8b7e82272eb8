//! Image stacks on disk: a directory of numbered slices forming a volume,
//! as produced by the CT instruments in the paper's use case.

use crate::error::Result;
use crate::image::{Endian, TiffImage};
use std::path::{Path, PathBuf};

/// Path of slice `z` of the stack under `dir` (zero-padded).
pub fn stack_slice_path(dir: &Path, z: usize) -> PathBuf {
    dir.join(format!("slice_{z:05}.tif"))
}

/// Paths of an `n`-slice stack under `dir` (z ascending).
pub fn stack_paths(dir: &Path, n: usize) -> Vec<PathBuf> {
    (0..n).map(|z| stack_slice_path(dir, z)).collect()
}

/// Write a stack of slices to `dir` (created if missing). Slice `z` of the
/// volume becomes `slice_{z:05}.tif`.
pub fn write_stack(dir: &Path, slices: &[TiffImage], endian: Endian) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    for (path, img) in stack_paths(dir, slices.len()).iter().zip(slices) {
        std::fs::write(path, img.encode(endian)?)?;
    }
    Ok(())
}

/// Read and decode one slice of a stack — the whole file, as TIFF demands.
pub fn read_stack_slice(dir: &Path, z: usize) -> Result<TiffImage> {
    let bytes = std::fs::read(stack_slice_path(dir, z))?;
    TiffImage::decode(&bytes)
}
