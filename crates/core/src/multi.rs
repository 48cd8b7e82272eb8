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
//! is one rectangle, though, so a generalized plan runs one `alltoallw` per
//! (round, need index): exchange `k` of a round fills every rank's `k`-th
//! needed block. Every rank walks the global maximum need count so the
//! collectives match across ranks; `alltoallw` elides empty pairs, so the
//! messages on the wire are exactly the non-empty overlaps.

use crate::block::Block;
use crate::descriptor::Descriptor;
use crate::error::{DdrError, Result};
use crate::layout::Layout;
use crate::validate::{validate, ValidationPolicy};
use minimpi::{bytes_of, bytes_of_mut, Comm, Datatype, Pod, Subarray};

/// A rank's declaration for generalized redistribution: owned chunks plus
/// *any number* of needed blocks (which may overlap other ranks' needs, and
/// may include this rank's own data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiLayout {
    /// Blocks owned before redistribution (mutually exclusive and complete
    /// across ranks, as in the base API).
    pub owned: Vec<Block>,
    /// Blocks needed afterwards; unconstrained between ranks.
    pub needs: Vec<Block>,
}

impl MultiLayout {
    fn encode(&self) -> Vec<u64> {
        let enc_block = |b: &Block, out: &mut Vec<u64>| {
            out.push(b.ndims as u64);
            out.extend(b.offset.iter().map(|&v| v as u64));
            out.extend(b.dims.iter().map(|&v| v as u64));
        };
        let mut out = Vec::with_capacity(2 + (self.owned.len() + self.needs.len()) * 7);
        out.push(self.owned.len() as u64);
        out.push(self.needs.len() as u64);
        for b in self.owned.iter().chain(self.needs.iter()) {
            enc_block(b, &mut out);
        }
        out
    }

    fn decode(data: &[u64]) -> Result<MultiLayout> {
        let fail = || DdrError::InvalidBlock("malformed multi-layout encoding".into());
        let mut it = data.iter().copied();
        let mut next = || it.next().ok_or_else(fail);
        let n_owned = next()? as usize;
        let n_needs = next()? as usize;
        let mut read_block = move || -> Result<Block> {
            let ndims = next()? as usize;
            let mut offset = [0usize; 3];
            let mut dims = [0usize; 3];
            for o in offset.iter_mut() {
                *o = next()? as usize;
            }
            for d in dims.iter_mut() {
                *d = next()? as usize;
            }
            Block::new(ndims, offset, dims)
        };
        let owned = (0..n_owned).map(|_| read_block()).collect::<Result<_>>()?;
        let needs = (0..n_needs).map(|_| read_block()).collect::<Result<_>>()?;
        Ok(MultiLayout { owned, needs })
    }
}

/// One directed transfer of a generalized plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiTransfer {
    /// Peer rank.
    pub peer: usize,
    /// Index of the needed block this transfer fills (receiver-side index).
    pub need_idx: usize,
    /// Transferred region in global coordinates.
    pub region: Block,
    /// Subarray within the local buffer: the round's owned chunk for sends,
    /// `needs[need_idx]` for receives.
    pub subarray: Subarray,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct MultiRound {
    /// Ordered by `(peer, peer's need_idx)`.
    sends: Vec<MultiTransfer>,
    /// Ordered by `(peer, local need_idx)`.
    recvs: Vec<MultiTransfer>,
}

/// A reusable generalized redistribution plan (multi-block receive side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiPlan {
    rank: usize,
    nprocs: usize,
    elem_size: usize,
    owned: Vec<Block>,
    needs: Vec<Block>,
    /// The most needed blocks any rank declared: exchanges per round.
    max_needs: usize,
    rounds: Vec<MultiRound>,
}

impl MultiPlan {
    /// Number of communication rounds (max owned-chunk count over ranks).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The needed blocks this plan delivers, in declaration order.
    pub fn needs(&self) -> &[Block] {
        &self.needs
    }

    /// Total bytes this rank ships to other ranks.
    pub fn total_sent_bytes(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| r.sends.iter())
            .filter(|t| t.peer != self.rank)
            .map(|t| t.subarray.packed_len() as u64)
            .sum()
    }

    /// Collective: move data from owned-chunk buffers into the needed-block
    /// buffers (one per declared need, in order). Reusable across time steps.
    pub fn reorganize<T: Pod>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        needs: &mut [&mut [T]],
    ) -> Result<()> {
        if comm.size() != self.nprocs || comm.rank() != self.rank {
            return Err(DdrError::ProcessCountMismatch {
                descriptor: self.nprocs,
                actual: comm.size(),
            });
        }
        if std::mem::size_of::<T>() != self.elem_size {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "element type is {} bytes but descriptor declared {}",
                    std::mem::size_of::<T>(),
                    self.elem_size
                ),
            });
        }
        if owned.len() != self.owned.len() || needs.len() != self.needs.len() {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "{} owned / {} need buffers passed, plan has {} / {}",
                    owned.len(),
                    needs.len(),
                    self.owned.len(),
                    self.needs.len()
                ),
            });
        }
        for (c, (buf, blk)) in owned.iter().zip(self.owned.iter()).enumerate() {
            if buf.len() as u64 != blk.count() {
                return Err(DdrError::BufferMismatch {
                    detail: format!("owned buffer {c} length mismatch"),
                });
            }
        }
        for (i, (buf, blk)) in needs.iter().zip(self.needs.iter()).enumerate() {
            if buf.len() as u64 != blk.count() {
                return Err(DdrError::BufferMismatch {
                    detail: format!("need buffer {i} length mismatch"),
                });
            }
        }

        let mut send_types = vec![Datatype::Empty; self.nprocs];
        let mut recv_types = vec![Datatype::Empty; self.nprocs];
        for (r, round) in self.rounds.iter().enumerate() {
            let send_buf: &[u8] = owned.get(r).map(|b| bytes_of(b)).unwrap_or(&[]);
            for k in 0..self.max_needs {
                send_types.fill(Datatype::Empty);
                recv_types.fill(Datatype::Empty);
                for t in round.sends.iter().filter(|t| t.need_idx == k) {
                    send_types[t.peer] = Datatype::Subarray(t.subarray);
                }
                for t in round.recvs.iter().filter(|t| t.need_idx == k) {
                    recv_types[t.peer] = Datatype::Subarray(t.subarray);
                }
                // A rank with fewer than `k + 1` needs still joins the
                // exchange: it may send, and receives nothing.
                let recv_buf: &mut [u8] = needs.get_mut(k).map_or(&mut [], |b| bytes_of_mut(b));
                comm.alltoallw(send_buf, &send_types, recv_buf, &recv_types)?;
            }
        }
        Ok(())
    }
}

/// Pure function: compute rank `rank`'s generalized plan from all layouts.
pub fn compute_multi_plan(
    rank: usize,
    layouts: &[MultiLayout],
    desc: &Descriptor,
) -> Result<MultiPlan> {
    let nprocs = layouts.len();
    if nprocs != desc.nprocs() || rank >= nprocs {
        return Err(DdrError::ProcessCountMismatch { descriptor: desc.nprocs(), actual: nprocs });
    }
    let elem_size = desc.elem_size();
    let ndims = desc.kind().ndims();
    for (r, l) in layouts.iter().enumerate() {
        for b in l.owned.iter().chain(l.needs.iter()) {
            if b.ndims != ndims {
                return Err(DdrError::InvalidBlock(format!(
                    "rank {r}: block has {} dims but descriptor declares {ndims}",
                    b.ndims
                )));
            }
        }
    }
    let me = &layouts[rank];
    let num_rounds = layouts.iter().map(|l| l.owned.len()).max().unwrap_or(0);
    let max_needs = layouts.iter().map(|l| l.needs.len()).max().unwrap_or(0);
    let mut rounds = Vec::with_capacity(num_rounds);
    for r in 0..num_rounds {
        let mut round = MultiRound::default();
        if let Some(chunk) = me.owned.get(r) {
            for (d, peer) in layouts.iter().enumerate() {
                for (ni, nb) in peer.needs.iter().enumerate() {
                    if let Some(region) = chunk.intersect(nb) {
                        round.sends.push(MultiTransfer {
                            peer: d,
                            need_idx: ni,
                            region,
                            subarray: chunk.subarray_for(&region, elem_size)?,
                        });
                    }
                }
            }
        }
        for (s, peer) in layouts.iter().enumerate() {
            if let Some(chunk) = peer.owned.get(r) {
                for (ni, nb) in me.needs.iter().enumerate() {
                    if let Some(region) = chunk.intersect(nb) {
                        round.recvs.push(MultiTransfer {
                            peer: s,
                            need_idx: ni,
                            region,
                            subarray: nb.subarray_for(&region, elem_size)?,
                        });
                    }
                }
            }
        }
        rounds.push(round);
    }
    Ok(MultiPlan {
        rank,
        nprocs,
        elem_size,
        owned: me.owned.clone(),
        needs: me.needs.clone(),
        max_needs,
        rounds,
    })
}

impl Descriptor {
    /// Collective: generalized mapping setup with multiple needed blocks per
    /// rank (the paper's "more data patterns" future-work extension).
    ///
    /// Ownership is validated like the base API; needed blocks are
    /// unconstrained (overlap freely, including with this rank's own needs).
    pub fn setup_multi_mapping(
        &self,
        comm: &Comm,
        owned: &[Block],
        needs: &[Block],
        policy: ValidationPolicy,
    ) -> Result<MultiPlan> {
        if comm.size() != self.nprocs() {
            return Err(DdrError::ProcessCountMismatch {
                descriptor: self.nprocs(),
                actual: comm.size(),
            });
        }
        let mine = MultiLayout { owned: owned.to_vec(), needs: needs.to_vec() };
        let encoded = mine.encode();
        let all = comm.allgather(&encoded)?;
        let layouts: Vec<MultiLayout> =
            all.iter().map(|e| MultiLayout::decode(e)).collect::<Result<_>>()?;
        // Reuse the single-need validator for the ownership contract by
        // substituting a trivially-valid need per rank (needs are free-form
        // here and checked only for dimensionality in plan computation).
        let ownership_view: Vec<Layout> = layouts
            .iter()
            .map(|l| Layout {
                owned: l.owned.clone(),
                need: *l.owned.first().or_else(|| l.needs.first()).unwrap_or(&Block {
                    ndims: self.kind().ndims(),
                    offset: [0; 3],
                    dims: [1; 3],
                }),
            })
            .collect();
        let relaxed = match policy {
            ValidationPolicy::Strict | ValidationPolicy::Relaxed => ValidationPolicy::Relaxed,
            ValidationPolicy::Degraded => ValidationPolicy::Degraded,
            ValidationPolicy::Skip => ValidationPolicy::Skip,
        };
        validate(&ownership_view, relaxed)?;
        compute_multi_plan(comm.rank(), &layouts, self)
    }
}

/// One mapping to rebuild during a single-epoch, multi-descriptor recovery:
/// the pre-failure descriptor plus what this rank still owns and now needs.
#[derive(Debug, Clone, Copy)]
pub struct RemapSpec<'a> {
    /// Descriptor the mapping was originally built with (its process count
    /// is replaced by the recovered communicator's size).
    pub desc: &'a Descriptor,
    /// Chunks this rank still holds (a replacement passes `&[]`).
    pub owned: &'a [Block],
    /// Blocks this rank must hold afterwards.
    pub needs: &'a [Block],
}

/// Rebuild several descriptors' mappings on one (already reconfigured)
/// communicator — every plan sees the identical membership and epoch.
///
/// Collective over `comm`; all ranks must pass specs in the same order.
/// Validation runs [`ValidationPolicy::Degraded`], as in single-descriptor
/// recovery. Survivors normally reach this through
/// [`recover_multi_mappings`]; respawned ranks call it directly with their
/// entry communicator.
pub fn remap_multi(comm: &Comm, specs: &[RemapSpec<'_>]) -> Result<Vec<MultiPlan>> {
    specs
        .iter()
        .map(|s| {
            let desc = Descriptor::new(comm.size(), s.desc.kind(), s.desc.elem_size())?;
            desc.setup_multi_mapping(comm, s.owned, s.needs, ValidationPolicy::Degraded)
        })
        .collect()
}

/// Multi-descriptor analogue of [`Descriptor::recover_mapping`]: survivors
/// agree on the failure **once** — a single
/// [`minimpi::Comm::reconfigure`], hence a single epoch bump — and every
/// descriptor's mapping is rebuilt on that same communicator. Running
/// per-descriptor recoveries instead would burn one membership epoch each
/// and could interleave with further failures, leaving descriptors mapped
/// over *different* member sets.
///
/// With respawn on (the default) the returned communicator has the
/// original size and the replacement ranks re-enter through the universe
/// closure, where they should call [`remap_multi`] with the same specs; with
/// respawn disabled this degrades to a shrinking recovery like the
/// single-descriptor path.
pub fn recover_multi_mappings(
    comm: &Comm,
    specs: &[RemapSpec<'_>],
) -> Result<(Comm, Vec<MultiPlan>)> {
    let recovered = comm.reconfigure().map_err(DdrError::Mpi)?;
    let plans = remap_multi(&recovered, specs)?;
    Ok((recovered, plans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::DataKind;

    #[test]
    fn multilayout_roundtrip() {
        let l = MultiLayout {
            owned: vec![Block::d2([0, 0], [4, 2]).unwrap()],
            needs: vec![Block::d2([0, 0], [2, 2]).unwrap(), Block::d2([2, 0], [2, 2]).unwrap()],
        };
        assert_eq!(MultiLayout::decode(&l.encode()).unwrap(), l);
        assert!(MultiLayout::decode(&l.encode()[..3]).is_err());
    }

    #[test]
    fn plan_orders_transfers_deterministically() {
        // Two ranks each owning half a 1-D domain; rank 0 needs three
        // blocks, two of which come from rank 1.
        let layouts = vec![
            MultiLayout {
                owned: vec![Block::d1(0, 8).unwrap()],
                needs: vec![
                    Block::d1(0, 2).unwrap(),
                    Block::d1(8, 2).unwrap(),
                    Block::d1(14, 2).unwrap(),
                ],
            },
            MultiLayout {
                owned: vec![Block::d1(8, 8).unwrap()],
                needs: vec![Block::d1(4, 8).unwrap()],
            },
        ];
        let desc = Descriptor::new(2, DataKind::D1, 8).unwrap();
        let p0 = compute_multi_plan(0, &layouts, &desc).unwrap();
        let p1 = compute_multi_plan(1, &layouts, &desc).unwrap();
        // Rank 1 sends to rank 0's needs 1 and 2, in that order.
        let s1: Vec<(usize, usize)> =
            p1.rounds[0].sends.iter().map(|t| (t.peer, t.need_idx)).collect();
        assert_eq!(s1, vec![(0, 1), (0, 2), (1, 0)]);
        // Rank 0 receives from itself (need 0) and rank 1 (needs 1, 2).
        let r0: Vec<(usize, usize)> =
            p0.rounds[0].recvs.iter().map(|t| (t.peer, t.need_idx)).collect();
        assert_eq!(r0, vec![(0, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn rejects_dimension_mismatch_and_bad_rank() {
        let layouts =
            vec![MultiLayout { owned: vec![Block::d2([0, 0], [2, 2]).unwrap()], needs: vec![] }];
        let desc = Descriptor::new(1, DataKind::D3, 4).unwrap();
        assert!(compute_multi_plan(0, &layouts, &desc).is_err());
        let desc1 = Descriptor::new(1, DataKind::D2, 4).unwrap();
        assert!(compute_multi_plan(5, &layouts, &desc1).is_err());
    }
}
