//! # ddr — Automated Dynamic Data Redistribution (reproduction)
//!
//! Facade crate for the full reproduction stack of T. Marrinan et al.,
//! *Automated Dynamic Data Redistribution* (2017). The primary contribution
//! lives in [`core`] (the three-call DDR API); everything else is the
//! substrate the paper's evaluation runs on:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | `Descriptor` / `setup_data_mapping` / `reorganize` — the DDR library |
//! | [`minimpi`] | in-process MPI-like runtime (ranks, collectives, `alltoallw` + subarrays) |
//! | [`netsim`] | calibrated Cooley cluster cost model for paper-scale projection |
//! | [`dtiff`] | baseline TIFF codec (use case 1's image stacks) |
//! | [`jimage`] | colormaps, PPM, baseline JPEG codec (use case 2's output) |
//! | [`lbm`] | distributed D2Q9 Lattice-Boltzmann solver (use case 2's simulation) |
//! | [`volren`] | brick-decomposed CPU volume renderer (use case 1's consumer) |
//! | [`intransit`] | M-to-N streaming + DDR repartitioning between rank groups |
//! | [`trace`] | per-rank tracing/metrics plane (`DDR_TRACE`, Chrome/Perfetto JSON) |
//!
//! See `examples/quickstart.rs` for the paper's E1 walkthrough and
//! DESIGN.md / EXPERIMENTS.md for the experiment-by-experiment index.

pub use ddr_core as core;
pub use ddr_lbm as lbm;
pub use ddr_netsim as netsim;
pub use ddrtrace as trace;
pub use dtiff;
pub use intransit;
pub use jimage;
pub use minimpi;
pub use volren;
