//! # ddr-lbm — distributed 2-D Lattice-Boltzmann fluid solver
//!
//! The paper's second use case runs "a simple Lattice Boltzmann method (LBM)
//! for computing fluid flows in a two-dimensional space": density and
//! velocity on a regular grid of floats, a barrier inside the domain forcing
//! turbulent flow, fixed edge cells, and a **slice decomposition** so each
//! rank exchanges halo rows with at most two neighbors per iteration.
//!
//! This crate implements that simulation with the standard **D2Q9 BGK**
//! model:
//!
//! * [`Config`] — grid size, relaxation, inflow velocity,
//! * [`barrier_line`] / [`barrier_none`] — the obstacle mask (the paper
//!   places a line barrier that sheds a vortex street),
//! * [`Lattice`] — one rank's slab (with ghost rows) supporting
//!   collide / halo-exchange / stream steps; a single lattice covering the
//!   whole domain is the serial reference,
//! * [`DistributedLbm`] — the slab-decomposed solver over a
//!   [`minimpi::Comm`], bit-identical to the serial solver,
//! * vorticity extraction ([`Lattice::vorticity`]) — the "variable of
//!   interest" rendered by the paper's analysis application;
//!   [`DistributedLbm::vorticity`] takes it in the same sweep as the next
//!   step's collide, so a step-then-frame loop sweeps each slab once.

#![warn(missing_docs)]

mod config;
mod d2q9;
mod dist;
mod lattice;

pub use config::{barrier_line, barrier_none, BarrierFn, Config};
pub use d2q9::{E, OPP, W};
pub use dist::{split_rows, DistributedLbm};
pub use lattice::{Edge, Lattice};
