//! # intransit — M-to-N in-transit streaming with DDR repartitioning
//!
//! The paper's second use case streams intermediate data from a simulation
//! resource (M ranks) to a separate analysis resource (N ranks): "data is
//! sent from M simulation ranks to N analysis ranks. After receiving
//! intermediate data, the analysis resource leverages our library to
//! redistribute data from how it was laid out in the simulation application
//! to how it needs to be laid out for the application performing analysis"
//! (Figures 4 and 5).
//!
//! This crate provides that workflow inside one [`minimpi::Universe`]:
//!
//! * [`split_resources`] — partition the world into the two resources
//!   (disjoint sub-communicators, as two separate clusters would be),
//! * [`producer_targets`] / [`consumer_sources`] — the contiguous M→N
//!   fan-in of Figure 4 (non-uniform when `N ∤ M`),
//! * [`send_frame`] / [`recv_frames`] — framed transfer of 2-D `f32` slabs
//!   with step tagging,
//! * [`Repartitioner`] — DDR-backed reorganization on the analysis side:
//!   the mapping is computed once and reused every time step, the paper's
//!   "the mapping … remains constant" property.
//!
//! Reception blocks, as the paper's "receive the frames, then
//! `DDR_ReorganizeData`" does, and a broken stream fails structurally: a
//! dead producer is `PeerDead` on its consumer, a frame lost mid-stream is a
//! `CollectiveMismatch` naming the step (the next frame arrives in its
//! place, since per-source delivery is FIFO), and a lost last frame is the
//! watchdog's `Timeout`.
//!
//! A producer that outruns its analysis resource is held back by the
//! transport: each consumer's mailbox is a bounded queue per sender, so
//! [`send_frame`] parks once a pair is full (counted in
//! [`minimpi::Counter::CreditWaits`]).

#![warn(missing_docs)]

mod frame;
mod repartition;
mod resources;

pub use frame::{recv_frames, send_frame, Frame, FRAME_TAG};
pub use repartition::{analysis_block, Repartitioner};
pub use resources::{consumer_sources, producer_targets, split_resources, Role};
