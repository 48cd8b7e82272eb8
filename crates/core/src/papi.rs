//! Paper-style flat API.
//!
//! These free functions mirror the C signatures of the published DDR library
//! (Algorithm 1 of the paper) so that the pseudocode maps line-for-line onto
//! this crate. Idiomatic Rust callers should prefer [`crate::Descriptor`] /
//! [`crate::Plan`] directly; this module exists for fidelity and for porting
//! existing DDR call sites.
//!
//! ```
//! # use ddr_core::papi::*;
//! # use ddr_core::{DataKind, Block};
//! # use minimpi::Universe;
//! // Algorithm 1 from the paper, for the E1 example.
//! let results = Universe::run(4, |comm| {
//!     let rank = comm.rank();
//!     let desc = ddr_new_data_descriptor(4, DataKind::D2, 4).unwrap();
//!     let dims_own = [8, 1, 8, 1];
//!     let offsets_own = [0, rank, 0, rank + 4];
//!     let right = rank % 2;
//!     let bottom = rank / 2;
//!     let dims_need = [4, 4];
//!     let offsets_need = [4 * right, 4 * bottom];
//!     let plan = ddr_setup_data_mapping(
//!         comm, rank, 4, 2, &dims_own, &offsets_own, &dims_need, &offsets_need, &desc,
//!     ).unwrap();
//!     // Row y of the global grid holds values y*8..y*8+8 (x fastest).
//!     let row = |y: usize| (0..8).map(|x| (y * 8 + x) as f32).collect::<Vec<_>>();
//!     let own = [row(rank), row(rank + 4)];
//!     let own_refs: Vec<&[f32]> = own.iter().map(|v| v.as_slice()).collect();
//!     let mut need = Vec::new();
//!     ddr_reorganize_data(comm, 4, &own_refs, &mut need, &plan).unwrap();
//!     need
//! });
//! // Rank 0 ends up with the top-left quadrant.
//! assert_eq!(results[0][..4], [0.0, 1.0, 2.0, 3.0]);
//! assert_eq!(results[0][4..8], [8.0, 9.0, 10.0, 11.0]);
//! ```

use crate::block::Block;
use crate::descriptor::{DataKind, Descriptor};
use crate::error::{DdrError, Result};
use crate::exec::Element;
use crate::plan::Plan;
use minimpi::Comm;

/// `DDR_NewDataDescriptor`: describe the data being reorganized (§III-A).
///
/// Parameters follow the paper: process count, 1D/2D/3D data kind, and the
/// byte size of one element (the MPI datatype argument of the C API is
/// subsumed by `elem_size` plus the generic parameter of
/// [`ddr_reorganize_data`]).
pub fn ddr_new_data_descriptor(
    nprocs: usize,
    kind: DataKind,
    elem_size: usize,
) -> Result<Descriptor> {
    Descriptor::new(nprocs, kind, elem_size)
}

/// `DDR_SetupDataMapping`: declare owned and needed data (§III-B).
///
/// `dims_own` and `offsets_own` are flat arrays of `nchunks × ndims` values
/// ("the number of total elements in the sending dimensions and offsets
/// parameters must be equal to the number of chunks owned prior to
/// redistribution multiplied by the number of dimensions in the problem
/// type"); `dims_need`/`offsets_need` hold `ndims` values each.
#[allow(clippy::too_many_arguments)]
pub fn ddr_setup_data_mapping(
    comm: &Comm,
    rank: usize,
    nprocs: usize,
    nchunks: usize,
    dims_own: &[usize],
    offsets_own: &[usize],
    dims_need: &[usize],
    offsets_need: &[usize],
    desc: &Descriptor,
) -> Result<Plan> {
    let ndims = desc.kind().ndims();
    if nprocs != comm.size() {
        return Err(DdrError::ProcessCountMismatch { descriptor: nprocs, actual: comm.size() });
    }
    if rank != comm.rank() {
        return Err(DdrError::RankMismatch { plan: rank, actual: comm.rank() });
    }
    if dims_own.len() != nchunks * ndims || offsets_own.len() != nchunks * ndims {
        return Err(DdrError::InvalidBlock(format!(
            "owned dims/offsets must hold nchunks*ndims = {} values, got {} and {}",
            nchunks * ndims,
            dims_own.len(),
            offsets_own.len()
        )));
    }
    if dims_need.len() != ndims || offsets_need.len() != ndims {
        return Err(DdrError::InvalidBlock(format!(
            "need dims/offsets must hold ndims = {ndims} values, got {} and {}",
            dims_need.len(),
            offsets_need.len()
        )));
    }
    let block_from = |dims: &[usize], offsets: &[usize]| -> Result<Block> {
        let mut d = [1usize; 3];
        let mut o = [0usize; 3];
        d[..ndims].copy_from_slice(dims);
        o[..ndims].copy_from_slice(offsets);
        Block::new(ndims, o, d)
    };
    let owned: Vec<Block> = (0..nchunks)
        .map(|c| {
            block_from(
                &dims_own[c * ndims..(c + 1) * ndims],
                &offsets_own[c * ndims..(c + 1) * ndims],
            )
        })
        .collect::<Result<_>>()?;
    let need = block_from(dims_need, offsets_need)?;
    desc.setup_data_mapping(comm, &owned, need)
}

/// `DDR_ReorganizeData`: exchange the data between processes (§III-C) —
/// [`Plan::reorganize`], after checking `nprocs`.
pub fn ddr_reorganize_data<T: Element>(
    comm: &Comm,
    nprocs: usize,
    data_own: &[&[T]],
    data_need: &mut Vec<T>,
    plan: &Plan,
) -> Result<()> {
    if nprocs != comm.size() {
        return Err(DdrError::ProcessCountMismatch { descriptor: nprocs, actual: comm.size() });
    }
    plan.reorganize(comm, data_own, data_need)
}
