//! # ddr-netsim — analytic cluster cost models
//!
//! The paper evaluates DDR on Argonne's **Cooley** visualization cluster
//! (126 nodes, 12 cores/node, one FDR InfiniBand 56 Gbps link per node,
//! shared GPFS filesystem). Reproducing Table II and Figure 3 at paper scale
//! (a 128 GB TIFF stack on up to 216 ranks) is not possible on one machine,
//! so this crate provides first-order analytic models of the two resources
//! that drive those results:
//!
//! * [`FsModel`] — a shared parallel filesystem: per-client bandwidth with a
//!   contention term, aggregate cap, per-file open latency, and a CPU-side
//!   decode rate (TIFF decompression/extraction),
//! * [`NetModel`] — per-node NIC bandwidth with a volume-dependent
//!   contention factor plus a per-collective software overhead, evaluated
//!   over exact per-rank-pair byte matrices produced by `ddr-core`'s
//!   `GlobalStats` mapping; [`NetModel::redistribution_time`] sums a
//!   redistribution's rounds.
//!
//! Each resource has one model. The contention factor is the paper's own
//! explanation of its 27-rank result (one huge round saturating a node's
//! single link), so a model without it, such as ideal max-min fair sharing,
//! ranks the two DDR methods the wrong way round there.
//!
//! The models are deliberately simple (LogGP-flavored); their constants are
//! calibrated in [`ClusterSpec::cooley`] against the paper's published
//! measurements, and the calibration derivation is documented on that
//! function. The *exact* quantities (bytes per rank per round, number of
//! rounds — Table III) come from the real DDR mapping, not from a model.

#![warn(missing_docs)]

mod cluster;
mod fs;
mod net;

pub use cluster::{ClusterSpec, Placement};
pub use fs::FsModel;
pub use net::NetModel;
