//! # minimpi — an in-process MPI-like message-passing runtime
//!
//! `minimpi` provides the distributed-memory substrate for the DDR
//! reproduction. It models an MPI job as a set of **ranks**, each running on
//! its own OS thread inside a single process, communicating through typed
//! point-to-point messages and MPI-style collectives.
//!
//! The subset implemented here is exactly what the DDR library (Marrinan et
//! al., *Automated Dynamic Data Redistribution*, 2017) and its two evaluation
//! use cases require:
//!
//! * a [`Universe`] that launches `n` ranks and hands each a [`Comm`],
//! * reliable, ordered, tag-matched point-to-point messaging
//!   ([`Comm::send`], [`Comm::recv_vec`], byte-level variants),
//! * collectives: [`Comm::barrier`], [`Comm::allgather`], and crucially
//!   [`Comm::alltoallw`] with **subarray
//!   datatypes** ([`Datatype`], [`Subarray`]) — the operation the paper
//!   builds data redistribution on — and its multi-part form
//!   [`Comm::alltoallw_parts_uninit`], which carries several rounds'
//!   selections per peer in one message into uninitialized storage,
//! * communicator splitting ([`Comm::split`]) so disjoint rank groups (e.g. a
//!   simulation resource and an analysis resource) can run their own
//!   collectives, as in the paper's in-transit streaming use case.
//!
//! ## Semantics
//!
//! * Sends are **eager and buffered**: `send` never blocks on the receiver
//!   (as if every message fit MPI's eager threshold), and a rank's mailbox
//!   has no bound. Messages between a
//!   (communicator, sender, tag) triple and a receiver are delivered in FIFO
//!   order, matching MPI's non-overtaking guarantee.
//! * Receives block until a matching message arrives, with a configurable
//!   watchdog timeout (default 120 s, or `DDR_TIMEOUT_MS` /
//!   [`Universe::builder`]) so an accidental deadlock in a test fails with
//!   [`Error::Timeout`] instead of hanging the suite.
//! * Collectives are implemented over point-to-point messages in a private
//!   tag namespace keyed by a per-communicator sequence number, so user
//!   traffic can never be confused with collective traffic.
//!
//! ## Fault injection and liveness
//!
//! A deterministic [`FaultPlan`] can be installed via [`Universe::builder`]:
//! it kills ranks at exact communication-op counts and drops or delays
//! matched in-flight messages — identically on every run, because
//! faults trigger on counters, never on wall clock. A **liveness registry**
//! tracks dead ranks (fault-killed, panicked, or returned early); blocking
//! receives, sends and collectives aimed at a dead peer fail fast with
//! [`Error::PeerDead`] instead of burning the watchdog timeout. There is no
//! recovery: an `alltoallw` that loses a source still drains every other
//! one and settles its own loans, then returns the lost source's error, so
//! every survivor of a death fails naming the dead rank.
//!
//! ## What is checked, always
//!
//! There is no checking mode: every check rides data each message already
//! carries, and a universe runs no thread besides its rank threads.
//!
//! * **Collectives match by kind** — a collective's key tag holds its
//!   sequence number *and* which collective it is, so ranks that call
//!   different collectives at the same position never take each other's
//!   bytes; they wait, and end in [`Error::Timeout`] or [`Error::PeerDead`].
//! * **Element sizes agree** — a typed send stamps its element size on the
//!   envelope and a typed receive of another size fails with
//!   [`Error::DatatypeMismatch`]; an `alltoallw` loan's parts must match the
//!   receive parts in count, bytes and element size, or it is refused uncopied.
//!   Sizes conflict only when both sides are wider than one byte.
//! * **Every wait is bounded** — a receive cycle ends in [`Error::Timeout`]
//!   on each member, naming the peer it waited on.
//!
//! No collective takes a root, and every one posts a receive from a peer,
//! so no divergence is silent.
//!
//! Every blocking wait on the data path — a receive, or a lender waiting for
//! its exchange's loans to be copied — is one loop on the rank's own
//! mailbox: it checks, spins for about one wake-up's worth (20 µs), then
//! parks on its condvar. A settled loan, like a deposit or a death, is an
//! event on that mailbox. A universe with more ranks than cores never spins;
//! there is no setting.
//!
//! Every statistic lives in one counter table with a slot per rank:
//! [`Comm::counters`] returns the universe's sums, indexed by [`Counter`],
//! and a traced universe adds the same sums to its metrics registry.
//!
//! ## Example
//!
//! ```
//! use minimpi::Universe;
//!
//! let sums = Universe::run(4, |comm| {
//!     let all = comm.allgather(&[comm.rank() as u64 + 1]).unwrap();
//!     all.iter().map(|p| p[0]).sum::<u64>()
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

#![warn(missing_docs)]

mod collectives;
mod comm;
mod counters;
mod datatype;
mod env;
mod error;
mod fault;
mod kernels;
mod life;
mod mailbox;
mod pod;
mod universe;
mod wait;
mod zerocopy;

pub use comm::{Comm, Tag};
pub use counters::{Counter, Counts};
pub use datatype::{ByteRuns, Datatype, Subarray};
pub use error::{Error, Result};
pub use fault::FaultPlan;
pub use pod::{bytes_of, uninit_bytes_of_mut, Pod};
pub use universe::{Universe, UniverseBuilder};
