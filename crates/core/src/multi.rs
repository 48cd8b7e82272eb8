//! Generalized receive layouts: **multiple needed blocks per rank**.
//!
//! The published DDR library assumes "each process will require a single
//! continuous subsection of data after data redistribution" (§III-B) and
//! names "support for more data patterns, so application developers could
//! redistribute more complex structures" as future work (§V). This module
//! implements that extension: a rank may declare any number of needed
//! blocks (e.g. its own slab *plus* ghost/halo regions owned by neighbors).
//!
//! `MPI_Alltoallw` carries at most one datatype per rank pair, and one sender
//! may feed several of a receiver's blocks in the same round. A chunk ∩ need
//! is one rectangle, though, so a [`MultiPlan`] is a list of ordinary
//! [`Plan`]s: plan `k` fills every rank's `k`-th needed block, and is built,
//! checked and executed by the code every single-need plan goes through —
//! one [`Plan::reorganize`] per need. Every rank holds the global maximum
//! need count of plans so the collectives match across ranks (a rank with
//! fewer needs joins with a plan that only sends); `alltoallw` elides empty
//! pairs, so the messages on the wire are exactly the non-empty overlaps.

use crate::block::Block;
use crate::descriptor::Descriptor;
use crate::error::{DdrError, Result};
use crate::exec::Element;
use crate::plan::Plan;
use crate::validate::ValidationPolicy;
use minimpi::Comm;

/// A reusable generalized redistribution plan (multi-block receive side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiPlan {
    needs: Vec<Block>,
    /// Plan `k` fills every rank's `k`-th needed block: as many as the most
    /// needed blocks any rank declared.
    plans: Vec<Plan>,
    /// Kept beside `plans` because a mapping nobody needs anything from has
    /// no plan to read it from.
    num_rounds: usize,
}

impl MultiPlan {
    /// Number of logical communication rounds (max owned-chunk count over
    /// ranks); executing the plan takes, per need index, the one exchange of
    /// [`Plan::reorganize`].
    pub fn num_rounds(&self) -> usize {
        self.num_rounds
    }

    /// The needed blocks this plan delivers, in declaration order.
    pub fn needs(&self) -> &[Block] {
        &self.needs
    }

    /// Total bytes this rank ships to other ranks.
    pub fn total_sent_bytes(&self) -> u64 {
        self.plans.iter().map(Plan::total_sent_bytes).sum()
    }

    /// The ordinary plans this one runs for this rank's needs: plan `k`
    /// fills every rank's `k`-th needed block. A rank that declared fewer
    /// needs than a peer also joins that peer's further plans, but only
    /// sends in them; those are not handed out.
    pub fn plans(&self) -> &[Plan] {
        &self.plans[..self.needs.len()]
    }

    /// Collective: move data from owned-chunk buffers into the needed-block
    /// buffers (one per declared need, in order). Reusable across time steps.
    ///
    /// One [`Plan::reorganize`] per need index, each with its failure
    /// semantics. Every need's exchange runs even after an earlier one
    /// failed, so a rank never leaves its peers waiting on an exchange it
    /// skipped; the call returns the first error, with every need buffer
    /// left empty.
    pub fn reorganize<T: Element>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        needs: &mut [Vec<T>],
    ) -> Result<()> {
        if needs.len() != self.needs.len() {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "{} need buffers passed but {} blocks registered",
                    needs.len(),
                    self.needs.len()
                ),
            });
        }
        // A rank with fewer than `k + 1` needs still joins plan `k`: it may
        // send, and receives nothing.
        let (mut first, mut none) = (Ok(()), Vec::new());
        for (k, plan) in self.plans.iter().enumerate() {
            first = first.and(plan.reorganize(comm, owned, needs.get_mut(k).unwrap_or(&mut none)));
        }
        if first.is_err() {
            needs.iter_mut().for_each(Vec::clear);
        }
        first
    }
}

impl Descriptor {
    /// Collective: generalized mapping setup with multiple needed blocks per
    /// rank (the paper's "more data patterns" future-work extension).
    ///
    /// Ownership is validated like the base API; needed blocks may overlap
    /// freely (including with this rank's own needs), and under
    /// [`ValidationPolicy::Strict`] every one of them must lie inside the
    /// domain.
    pub fn setup_multi_mapping(
        &self,
        comm: &Comm,
        owned: &[Block],
        needs: &[Block],
        policy: ValidationPolicy,
    ) -> Result<MultiPlan> {
        let _setup = ddrtrace::span("redist", "setup_mapping");
        let all = self.declared(comm, owned, needs, policy)?;
        let _p = ddrtrace::span("redist", "compute_plan");
        let max_needs = all.needs.iter().map(Vec::len).max().unwrap_or(0);
        let plans =
            (0..max_needs).map(|k| all.plan(comm.rank(), k, self)).collect::<Result<_>>()?;
        let num_rounds = all.owned.iter().map(Vec::len).max().unwrap_or(0);
        Ok(MultiPlan { needs: needs.to_vec(), plans, num_rounds })
    }
}
