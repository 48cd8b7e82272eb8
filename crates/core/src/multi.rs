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
//! one exchange per need, in the one round loop behind
//! [`Plan::reorganize`]. Every rank holds the global maximum need count of
//! plans so the collectives match across ranks (a rank with fewer needs
//! joins with a plan that only sends); `alltoallw` elides empty pairs, so
//! the messages on the wire are exactly the non-empty overlaps.

use crate::block::Block;
use crate::descriptor::Descriptor;
use crate::error::{DdrError, Result};
use crate::exec::Run;
use crate::plan::Plan;
use crate::recover::PartialCompletion;
use crate::validate::ValidationPolicy;
use minimpi::{Comm, Pod};

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

    /// The ordinary plans this one runs: plan `k` fills every rank's `k`-th
    /// needed block.
    pub fn plans(&self) -> &[Plan] {
        &self.plans
    }

    /// Collective: move data from owned-chunk buffers into the needed-block
    /// buffers (one per declared need, in order). Reusable across time steps.
    ///
    /// Every buffer is checked before the first exchange. Failure semantics
    /// are [`Plan::reorganize`]'s: when a peer dies mid-exchange every
    /// remaining round of every need is still drained, and the call returns
    /// [`DdrError::Incomplete`] with one [`PartialCompletion`] whose round
    /// `r` sums round `r` of every need.
    pub fn reorganize<T: Pod>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        needs: &mut [&mut [T]],
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
        // send, and receives nothing into an empty buffer.
        for (k, plan) in self.plans.iter().enumerate() {
            plan.check_buffers(comm, owned, needs.get(k).map_or(&[][..], |b| b))?;
        }
        let runs = self
            .plans
            .iter()
            .enumerate()
            .map(|(k, plan)| {
                plan.run_held(comm, owned, needs.get_mut(k).map_or(&mut [][..], |b| b))
            })
            .collect::<Result<Vec<Run>>>()?;
        if runs.iter().all(|run| run.failures.is_empty()) {
            return Ok(());
        }
        let merged = self
            .plans
            .iter()
            .zip(&runs)
            .map(|(plan, run)| PartialCompletion::from_failures(plan, &run.failures))
            .reduce(|mut all, part| {
                all.merge(part);
                all
            })
            .expect("a lost receive belongs to a plan");
        Err(DdrError::Incomplete(Box::new(merged)))
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
