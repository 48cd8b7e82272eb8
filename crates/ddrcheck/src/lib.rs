//! # ddrcheck — deterministic schedule exploration for minimpi programs
//!
//! The [`mod@explore`] module: a driver that sweeps minimpi scheduler seeds
//! over a closure and reports the first seed that makes it fail, with a
//! `DDR_SCHED_SEED` replay line.

#![warn(missing_docs)]

pub mod explore;

pub use explore::{explore, render_explore_report, ExploreFailure, ExploreReport};
