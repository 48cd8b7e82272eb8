//! Ownership validation: the paper's "mutually exclusive and complete"
//! requirement for sender-side chunks (§III-B).

use crate::block::{bounding_box, Block};
use crate::error::{DdrError, Result};

/// How strictly `setup_data_mapping` checks the declared layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationPolicy {
    /// Check that owned chunks are pairwise disjoint, that they cover the
    /// full (bounding-box) domain, and that every needed block of every rank
    /// lies inside the domain. This is the paper's stated contract.
    #[default]
    Strict,
    /// Check exclusivity and completeness of ownership but allow needed
    /// blocks to extend outside the domain (those elements are simply never
    /// written — useful for ghost-padded consumers).
    Relaxed,
    /// Skip validation entirely. For very large chunk counts where the
    /// caller guarantees the contract by construction.
    Skip,
}

/// Outcome of validation: the inferred global domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    /// Bounding box of all owned chunks — the "overall domain" the paper's
    /// offsets are relative to.
    pub bbox: Block,
    /// Total number of owned elements (equals `bbox.count()` when complete).
    pub owned_elems: u64,
}

/// Validate what every rank declared — `owned[r]` are rank `r`'s chunks,
/// `needs[r]` the blocks it receives into — according to `policy`, and infer
/// the global domain.
///
/// Exclusivity uses a sweep over the slowest-varying axis: blocks are sorted
/// by their start on that axis and only pairs whose intervals overlap on it
/// are compared, which is `O(n log n)` for slab-style decompositions (the
/// common case in the paper's use cases) and degrades gracefully otherwise.
pub fn validate(
    owned: &[&[Block]],
    needs: &[&[Block]],
    policy: ValidationPolicy,
) -> Result<Domain> {
    let all: Vec<(usize, usize, &Block)> = owned
        .iter()
        .enumerate()
        .flat_map(|(r, chunks)| chunks.iter().enumerate().map(move |(c, b)| (r, c, b)))
        .collect();
    if all.is_empty() {
        return Err(DdrError::InvalidBlock("no rank owns any data".into()));
    }
    let bbox =
        bounding_box(all.iter().map(|(_, _, b)| *b)).expect("non-empty set has a bounding box");
    let owned_elems: u64 = all.iter().map(|(_, _, b)| b.count()).sum();

    if matches!(policy, ValidationPolicy::Skip) {
        return Ok(Domain { bbox, owned_elems });
    }

    // Exclusivity: sweep on the axis with the most distinct start values,
    // which maximizes pruning.
    let sweep_axis = (0..3)
        .max_by_key(|&d| {
            let mut starts: Vec<usize> = all.iter().map(|(_, _, b)| b.offset[d]).collect();
            starts.sort_unstable();
            starts.dedup();
            starts.len()
        })
        .unwrap_or(2);
    let mut sorted: Vec<&(usize, usize, &Block)> = all.iter().collect();
    sorted.sort_unstable_by_key(|(_, _, b)| b.offset[sweep_axis]);
    // Active set of candidates whose sweep-axis interval may still overlap.
    let mut active: Vec<&(usize, usize, &Block)> = Vec::new();
    for entry in &sorted {
        let (r, c, b) = **entry;
        let start = b.offset[sweep_axis];
        active.retain(|(_, _, a)| a.offset[sweep_axis] + a.dims[sweep_axis] > start);
        for (ar, ac, ab) in &active {
            if ab.intersect(b).is_some() {
                return Err(DdrError::OwnershipOverlap {
                    rank_a: *ar,
                    chunk_a: *ac,
                    rank_b: r,
                    chunk_b: c,
                });
            }
        }
        active.push(entry);
    }

    // Completeness: disjoint blocks inside the bbox cover it iff the volumes
    // sum to the bbox volume.
    if owned_elems != bbox.count() {
        return Err(DdrError::OwnershipIncomplete { domain_elems: bbox.count(), owned_elems });
    }

    if matches!(policy, ValidationPolicy::Strict) {
        for (rank, blocks) in needs.iter().enumerate() {
            if blocks.iter().any(|b| !bbox.contains(b)) {
                return Err(DdrError::NeedOutsideDomain { rank });
            }
        }
    }
    Ok(Domain { bbox, owned_elems })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    fn layout(owned: Vec<Block>, need: Block) -> Layout {
        Layout { owned, need }
    }

    fn validate(layouts: &[Layout], policy: ValidationPolicy) -> Result<Domain> {
        let owned: Vec<&[Block]> = layouts.iter().map(|l| l.owned.as_slice()).collect();
        let needs: Vec<&[Block]> = layouts.iter().map(|l| std::slice::from_ref(&l.need)).collect();
        super::validate(&owned, &needs, policy)
    }

    fn quad_need(rank: usize) -> Block {
        let right = rank % 2;
        let bottom = rank / 2;
        Block::d2([4 * right, 4 * bottom], [4, 4]).unwrap()
    }

    /// The paper's example E1: 4 ranks each owning rows {rank, rank+4}.
    fn e1_layouts() -> Vec<Layout> {
        (0..4)
            .map(|r| {
                layout(
                    vec![
                        Block::d2([0, r], [8, 1]).unwrap(),
                        Block::d2([0, r + 4], [8, 1]).unwrap(),
                    ],
                    quad_need(r),
                )
            })
            .collect()
    }

    #[test]
    fn e1_is_valid_and_domain_is_8x8() {
        let d = validate(&e1_layouts(), ValidationPolicy::Strict).unwrap();
        assert_eq!(d.bbox, Block::d2([0, 0], [8, 8]).unwrap());
        assert_eq!(d.owned_elems, 64);
    }

    #[test]
    fn detects_overlapping_ownership() {
        let mut ls = e1_layouts();
        ls[1].owned[0] = Block::d2([0, 0], [8, 1]).unwrap(); // same as rank 0 chunk 0
        let err = validate(&ls, ValidationPolicy::Strict).unwrap_err();
        assert!(matches!(err, DdrError::OwnershipOverlap { .. }));
    }

    #[test]
    fn detects_partial_overlap_not_just_duplicates() {
        let ls = vec![
            layout(vec![Block::d1(0, 6).unwrap()], Block::d1(0, 4).unwrap()),
            layout(vec![Block::d1(4, 6).unwrap()], Block::d1(4, 4).unwrap()),
        ];
        assert!(matches!(
            validate(&ls, ValidationPolicy::Strict).unwrap_err(),
            DdrError::OwnershipOverlap { rank_a: 0, chunk_a: 0, rank_b: 1, chunk_b: 0 }
        ));
    }

    #[test]
    fn detects_incomplete_ownership() {
        let mut ls = e1_layouts();
        ls[2].owned.pop(); // drop one row — hole in the domain
        let err = validate(&ls, ValidationPolicy::Strict).unwrap_err();
        assert!(matches!(err, DdrError::OwnershipIncomplete { domain_elems: 64, owned_elems: 56 }));
    }

    #[test]
    fn strict_rejects_need_outside_domain() {
        let mut ls = e1_layouts();
        ls[3].need = Block::d2([6, 6], [4, 4]).unwrap(); // extends to 10x10
        assert!(matches!(
            validate(&ls, ValidationPolicy::Strict).unwrap_err(),
            DdrError::NeedOutsideDomain { rank: 3 }
        ));
        // Relaxed allows it.
        assert!(validate(&ls, ValidationPolicy::Relaxed).is_ok());
    }

    #[test]
    fn skip_accepts_anything_owned() {
        let ls = vec![
            layout(vec![Block::d1(0, 6).unwrap()], Block::d1(0, 4).unwrap()),
            layout(vec![Block::d1(4, 6).unwrap()], Block::d1(4, 4).unwrap()),
        ];
        assert!(validate(&ls, ValidationPolicy::Skip).is_ok());
    }

    #[test]
    fn no_owned_data_is_an_error() {
        let ls = vec![layout(vec![], Block::d1(0, 4).unwrap())];
        assert!(validate(&ls, ValidationPolicy::Skip).is_err());
    }

    #[test]
    fn overlapping_needs_are_allowed() {
        // Receiving side may overlap (paper §III-B).
        let mut ls = e1_layouts();
        ls[0].need = Block::d2([0, 0], [8, 8]).unwrap();
        ls[1].need = Block::d2([0, 0], [8, 8]).unwrap();
        assert!(validate(&ls, ValidationPolicy::Strict).is_ok());
    }

    #[test]
    fn validates_3d_brick_decomposition() {
        // 2x2x2 bricks of a 8x8x8 domain owned by 8 ranks as z-slabs.
        let ls: Vec<Layout> = (0..8)
            .map(|r| {
                layout(
                    vec![Block::d3([0, 0, r], [8, 8, 1]).unwrap()],
                    Block::d3([4 * (r % 2), 4 * ((r / 2) % 2), 4 * (r / 4)], [4, 4, 4]).unwrap(),
                )
            })
            .collect();
        let d = validate(&ls, ValidationPolicy::Strict).unwrap();
        assert_eq!(d.bbox, Block::d3([0, 0, 0], [8, 8, 8]).unwrap());
    }
}
