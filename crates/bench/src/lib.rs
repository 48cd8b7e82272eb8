//! # ddr-bench — reproduction harnesses for the paper's tables and figures
//!
//! One binary per experiment (see DESIGN.md's experiment index):
//!
//! * `repro_table2` — TIFF load time, No-DDR vs DDR round-robin vs DDR
//!   consecutive (Table II), then the strong-scaling series (Figure 3).
//!   Paper-scale numbers come from the calibrated `ddr-netsim`
//!   Cooley model driven by **exact** byte counts from the real DDR mapping;
//!   laptop-scale numbers are measured end-to-end on a real TIFF stack.
//! * `repro_table3` — exact `MPI_Alltoallw` round counts and per-rank
//!   per-round data sizes (Table III), computed from the mapping alone.
//! * `repro_table4` — raw vs JPEG-processed output sizes of the LBM
//!   in-transit pipeline (Table IV): raw sizes analytically exact, JPEG
//!   sizes measured by running the simulation and encoder at each grid's
//!   aspect ratio and scaling.
//!
//! The library half hosts the shared workload code: the TIFF stack loader
//! in its three variants and the layout/statistics builders for the
//! paper-scale projection.

#![warn(missing_docs)]

pub mod loader;
pub mod table;
pub mod tiffcase;
