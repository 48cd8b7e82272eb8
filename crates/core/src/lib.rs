//! # ddr-core — Automated Dynamic Data Redistribution
//!
//! A Rust reproduction of the **DDR library** from T. Marrinan, J. A. Insley,
//! S. Rizzi, F. Tessier, M. E. Papka, *Automated Dynamic Data
//! Redistribution*, 2017: a distributed-memory library that moves
//! block-decomposed 1-D/2-D/3-D array data from the layout a producer used to
//! the layout a consumer needs, with three calls:
//!
//! 1. **Describe the data** — [`Descriptor::new`]
//!    (the paper's `DDR_NewDataDescriptor`, §III-A),
//! 2. **Set up the mapping** — [`Descriptor::setup_data_mapping`]
//!    (`DDR_SetupDataMapping`, §III-B): each rank declares the [`Block`]s it
//!    owns and the single block it needs; layouts are allgathered and every
//!    rank computes the geometric overlaps into a reusable [`Plan`],
//! 3. **Move the data** — [`Plan::reorganize`] (`DDR_ReorganizeData`,
//!    §III-C), from the chunks the caller holds into a `Vec` it reuses: the
//!    paper's rounds, whose count equals the maximum number of chunks owned
//!    by any rank, ride one `alltoallw` of subarray datatypes, each message
//!    a zero-copy loan.
//!
//! Ownership must be *mutually exclusive and complete* over the domain;
//! needed blocks may overlap between ranks and may leave parts of the domain
//! unconsumed — both checked by [`ValidationPolicy`].
//!
//! Beyond the paper's single needed block,
//! [`Descriptor::setup_multi_mapping`] takes zero or more per rank (the
//! paper's "more data patterns" future work), and
//! [`Plan::reorganize_needs`] fills them all in the same one exchange: a
//! receive part names its need, as a send part names its chunk.
//!
//! The plan is independent of the data, so when the application's data is
//! dynamic (a running simulation) the mapping is set up once and
//! [`Plan::reorganize`] is called every time step.
//!
//! ```
//! use ddr_core::{Block, DataKind, Descriptor};
//! use minimpi::Universe;
//!
//! // The paper's example E1: 4 ranks; each owns rows {r, r+4} of an 8x8
//! // grid and needs one 4x4 quadrant (Figure 1).
//! let quadrants = Universe::run(4, |comm| {
//!     let r = comm.rank();
//!     let desc = Descriptor::for_type::<f32>(4, DataKind::D2).unwrap();
//!     let owned = [
//!         Block::d2([0, r], [8, 1]).unwrap(),
//!         Block::d2([0, r + 4], [8, 1]).unwrap(),
//!     ];
//!     let need = Block::d2([4 * (r % 2), 4 * (r / 2)], [4, 4]).unwrap();
//!     let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
//!
//!     let row = |y: usize| (0..8).map(|x| (y * 8 + x) as f32).collect::<Vec<_>>();
//!     let data_own = [row(r), row(r + 4)];
//!     let refs: Vec<&[f32]> = data_own.iter().map(|v| v.as_slice()).collect();
//!     let mut data_need = Vec::new();
//!     plan.reorganize(comm, &refs, &mut data_need).unwrap();
//!     data_need
//! });
//! assert_eq!(quadrants[3][0], 8.0 * 4.0 + 4.0); // global (4,4) = 36
//! ```

#![warn(missing_docs)]

mod block;
pub mod decompose;
mod descriptor;
mod error;
mod exec;
mod layout;
mod mapping;
mod plan;
mod stats;
mod validate;

pub use block::{bounding_box, Block, MAX_DIMS};
pub use descriptor::{DataKind, Descriptor};
pub use error::{DdrError, Result};
pub use exec::Element;
pub use layout::Layout;
pub use mapping::compute_local_plan;
pub use plan::{Plan, RoundPlan, Transfer};
pub use stats::{GlobalStats, RedistStats};
pub use validate::{validate, Domain, ValidationPolicy};
