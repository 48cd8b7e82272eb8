//! Edge cases of layout and descriptor validation: zero-extent geometry,
//! overlapping ownership declared inside a live universe, and ranks that
//! disagree about the element size.

use ddr_core::{Block, DataKind, DdrError, Descriptor, ValidationPolicy};
use minimpi::Universe;

#[test]
fn zero_extent_blocks_never_construct() {
    // Every constructor rejects a zero extent on any axis, so zero-extent
    // geometry cannot enter a layout through the public API.
    assert!(matches!(Block::d1(0, 0).unwrap_err(), DdrError::InvalidBlock(_)));
    assert!(matches!(Block::d2([0, 0], [4, 0]).unwrap_err(), DdrError::InvalidBlock(_)));
    assert!(matches!(Block::d3([1, 2, 3], [4, 0, 4]).unwrap_err(), DdrError::InvalidBlock(_)));
    let err = Block::new(3, [0; 3], [8, 8, 0]).unwrap_err();
    assert_eq!(err.to_string(), "invalid block: dimension 2 has zero extent");
    // A zero-size element is equally unrepresentable.
    assert!(matches!(Descriptor::new(4, DataKind::D2, 0).unwrap_err(), DdrError::InvalidBlock(_)));
}

#[test]
fn zero_extent_smuggled_past_constructors_is_refused_by_setup_under_every_policy() {
    // `Block`'s fields are public, so a caller can zero an extent after
    // construction. The allgathered layouts are decoded through
    // `Block::new`, so every rank refuses it — even under `Skip`.
    for policy in [ValidationPolicy::Strict, ValidationPolicy::Relaxed, ValidationPolicy::Skip] {
        let results = Universe::run(2, move |comm| {
            let desc = Descriptor::for_type::<f32>(2, DataKind::D2).unwrap();
            let mut owned = Block::d2([0, comm.rank() * 4], [8, 4]).unwrap();
            if comm.rank() == 1 {
                owned.dims[1] = 0;
            }
            let need = Block::d2([0, 0], [8, 4]).unwrap();
            desc.setup_data_mapping_with(comm, &[owned], need, policy).err()
        });
        for (r, e) in results.iter().enumerate() {
            assert!(
                matches!(e, Some(DdrError::InvalidBlock(_))),
                "rank {r} under {policy:?}: expected InvalidBlock, got {e:?}"
            );
        }
    }
}

#[test]
fn overlapping_owned_fails_on_every_rank_under_every_checking_policy() {
    for policy in [ValidationPolicy::Strict, ValidationPolicy::Relaxed] {
        let results = Universe::run(3, move |comm| {
            let desc = Descriptor::for_type::<f32>(3, DataKind::D1).unwrap();
            // Rank r owns 8..14 when r == 1, else the clean slab [8r, 8r+8) —
            // rank 1's chunk bleeds two elements into rank 0's.
            let owned = if comm.rank() == 1 {
                [Block::d1(6, 8).unwrap()]
            } else {
                [Block::d1(comm.rank() * 8, 8).unwrap()]
            };
            let need = Block::d1(comm.rank() * 8, 8).unwrap();
            desc.setup_data_mapping_with(comm, &owned, need, policy).err()
        });
        for (r, e) in results.iter().enumerate() {
            match e {
                Some(DdrError::OwnershipOverlap { rank_a, rank_b, .. }) => {
                    assert_eq!((*rank_a, *rank_b), (0, 1), "rank {r} under {policy:?}");
                }
                other => panic!("rank {r} under {policy:?}: expected overlap, got {other:?}"),
            }
        }
    }
}

#[test]
fn producer_consumer_elem_size_disagreement_surfaces_as_an_error() {
    // Rank 1 believes the elements are f64 while rank 0 sends f32: setup
    // succeeds (layouts carry no element size) but the first exchange must
    // fail with a size error on some rank — never silently corrupt data.
    let results = Universe::run(2, |comm| {
        let r = comm.rank();
        let elem_size = if r == 1 { 8 } else { 4 };
        let desc = Descriptor::new(2, DataKind::D1, elem_size).unwrap();
        let owned = [Block::d1(r * 4, 4).unwrap()];
        let need = Block::d1((1 - r) * 4, 4).unwrap();
        let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
        let send = vec![0u8; 4 * elem_size];
        plan.reorganize(comm, &[&send], &mut Vec::new()).err()
    });
    assert!(
        results.iter().any(|e| e.is_some()),
        "mismatched element sizes must not pass silently: {results:?}"
    );
}
