//! End-to-end redistribution tests: real rank threads, real exchanges,
//! verified against a global reference array.

use ddr_core::{Block, DataKind, Descriptor, Layout, ValidationPolicy};
use minimpi::Universe;

/// Global reference value at a coordinate: unique per cell.
fn cell_value(c: [usize; 3]) -> u64 {
    (c[0] as u64) | ((c[1] as u64) << 20) | ((c[2] as u64) << 40)
}

/// Fill a local buffer for `block` from the global reference function.
fn fill(block: &Block) -> Vec<u64> {
    block.coords().map(cell_value).collect()
}

/// Run a full redistribution for the given per-rank layouts and check every
/// received element against the reference.
fn check_redistribution(kind: DataKind, layouts: &[Layout], policy: ValidationPolicy) {
    let n = layouts.len();
    Universe::run(n, move |comm| {
        let me = &layouts[comm.rank()];
        let desc = Descriptor::for_type::<u64>(n, kind).unwrap();
        let plan = desc.setup_data_mapping_with(comm, &me.owned, me.need, policy).unwrap();
        let owned_data: Vec<Vec<u64>> = me.owned.iter().map(fill).collect();
        let refs: Vec<&[u64]> = owned_data.iter().map(|v| v.as_slice()).collect();
        let mut need = Vec::new();
        plan.reorganize(comm, &refs, &mut need).unwrap();
        assert_eq!(need, fill(&me.need), "rank {}", comm.rank());
    });
}

/// The paper's E1 (Fig. 1): rows → quadrants on 4 ranks.
fn e1_layouts() -> Vec<Layout> {
    (0..4usize)
        .map(|rank| Layout {
            owned: vec![
                Block::d2([0, rank], [8, 1]).unwrap(),
                Block::d2([0, rank + 4], [8, 1]).unwrap(),
            ],
            need: Block::d2([4 * (rank % 2), 4 * (rank / 2)], [4, 4]).unwrap(),
        })
        .collect()
}

#[test]
fn e1_rows_to_quadrants() {
    check_redistribution(DataKind::D2, &e1_layouts(), ValidationPolicy::Strict);
}

#[test]
fn e1_table_1_parameter_values() {
    // Table I of the paper, expressed through the flat paper-style API.
    use ddr_core::papi::*;
    Universe::run(4, |comm| {
        let rank = comm.rank();
        let desc = ddr_new_data_descriptor(4, DataKind::D2, 4).unwrap();
        // P3 = 2 chunks, P4 = {[8,1],[8,1]}, P5 = {[0,rank],[0,rank+4]},
        // P6 = [4,4], P7 = [4*right, 4*bottom].
        let plan = ddr_setup_data_mapping(
            comm,
            rank,
            4,
            2,
            &[8, 1, 8, 1],
            &[0, rank, 0, rank + 4],
            &[4, 4],
            &[4 * (rank % 2), 4 * (rank / 2)],
            &desc,
        )
        .unwrap();
        assert_eq!(plan.num_rounds(), 2);
        let own0: Vec<f32> = (0..8).map(|x| (rank * 8 + x) as f32).collect();
        let own1: Vec<f32> = (0..8).map(|x| ((rank + 4) * 8 + x) as f32).collect();
        let mut need = Vec::new();
        ddr_reorganize_data(comm, 4, &[&own0, &own1], &mut need, &plan).unwrap();
        assert_eq!(need.len(), 16);
        // Verify the quadrant contents.
        let (right, bottom) = (rank % 2, rank / 2);
        for y in 0..4 {
            for x in 0..4 {
                let gx = 4 * right + x;
                let gy = 4 * bottom + y;
                assert_eq!(need[y * 4 + x], (gy * 8 + gx) as f32);
            }
        }
    });
}

#[test]
fn one_dimensional_reshard() {
    // 6 ranks own uneven contiguous 1-D pieces; needs are a rotated split.
    let bounds = [0usize, 5, 12, 20, 33, 41, 60];
    let layouts: Vec<Layout> = (0..6)
        .map(|r| Layout {
            owned: vec![Block::d1(bounds[r], bounds[r + 1] - bounds[r]).unwrap()],
            need: Block::d1(10 * ((r + 2) % 6), 10).unwrap(),
        })
        .collect();
    check_redistribution(DataKind::D1, &layouts, ValidationPolicy::Strict);
}

#[test]
fn slices_to_bricks_3d() {
    // The medical-imaging pattern: 8 ranks own z-slabs of a 16x12x8 volume,
    // need 2x2x2 bricks.
    use ddr_core::decompose::{brick, slab};
    let domain = Block::d3([0, 0, 0], [16, 12, 8]).unwrap();
    let layouts: Vec<Layout> = (0..8)
        .map(|r| Layout {
            owned: vec![slab(&domain, 2, 8, r).unwrap()],
            need: brick(&domain, [2, 2, 2], r).unwrap(),
        })
        .collect();
    check_redistribution(DataKind::D3, &layouts, ValidationPolicy::Strict);
}

#[test]
fn round_robin_chunks_to_bricks_3d() {
    // Round-robin z-planes (many chunks per rank, ragged counts) to bricks.
    use ddr_core::decompose::{brick, round_robin_items};
    let domain = Block::d3([0, 0, 0], [8, 8, 11]).unwrap();
    let layouts: Vec<Layout> = (0..4)
        .map(|r| Layout {
            owned: round_robin_items(11, 4, r, |z| Block::d3([0, 0, z], [8, 8, 1])).unwrap(),
            need: brick(&domain, [2, 2, 1], r).unwrap(),
        })
        .collect();
    // Ranks 0..3 own 3,3,3,2 chunks → 3 rounds with ragged participation.
    assert_eq!(layouts[3].owned.len(), 2);
    check_redistribution(DataKind::D3, &layouts, ValidationPolicy::Strict);
}

#[test]
fn overlapping_needs_duplicate_data() {
    // Two ranks need the same region (allowed; paper §III-B) and a third
    // gets a disjoint corner; parts of the domain are never received.
    let domain = Block::d2([0, 0], [12, 6]).unwrap();
    let layouts: Vec<Layout> = (0..3)
        .map(|r| Layout {
            owned: vec![ddr_core::decompose::slab(&domain, 1, 3, r).unwrap()],
            need: if r < 2 {
                Block::d2([2, 1], [6, 4]).unwrap()
            } else {
                Block::d2([10, 0], [2, 2]).unwrap()
            },
        })
        .collect();
    check_redistribution(DataKind::D2, &layouts, ValidationPolicy::Strict);
}

#[test]
fn lbm_slices_to_near_square_grid() {
    // Use case 2's shape: 12 producer slices redistributed to a 4x3 grid.
    use ddr_core::decompose::{brick, near_square_grid, slab};
    let domain = Block::d2([0, 0], [64, 48]).unwrap();
    let n = 12;
    let (gx, gy) = near_square_grid(n);
    let layouts: Vec<Layout> = (0..n)
        .map(|r| Layout {
            owned: vec![slab(&domain, 1, n, r).unwrap()],
            need: brick(&domain, [gx, gy, 1], r).unwrap(),
        })
        .collect();
    check_redistribution(DataKind::D2, &layouts, ValidationPolicy::Strict);
}

#[test]
fn dynamic_data_reuses_plan_across_timesteps() {
    // The in-transit property: one mapping, many reorganize calls with
    // changing data.
    let n = 4;
    let domain = Block::d2([0, 0], [16, 16]).unwrap();
    Universe::run(n, |comm| {
        let r = comm.rank();
        let owned = vec![ddr_core::decompose::slab(&domain, 1, n, r).unwrap()];
        let need = ddr_core::decompose::brick(&domain, [2, 2, 1], r).unwrap();
        let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
        let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
        let mut out = Vec::new();
        for step in 0..5u64 {
            let at = |c| cell_value(c) + step * 1_000_000_007;
            let data: Vec<u64> = owned[0].coords().map(at).collect();
            plan.reorganize(comm, &[&data], &mut out).unwrap();
            assert_eq!(out, need.coords().map(at).collect::<Vec<_>>());
        }
    });
}

#[test]
fn buffer_mismatches_are_rejected() {
    let n = 2;
    let domain = Block::d1(0, 8).unwrap();
    Universe::run(n, |comm| {
        let r = comm.rank();
        let owned = vec![ddr_core::decompose::slab(&domain, 0, n, r).unwrap()];
        let need = ddr_core::decompose::slab(&domain, 0, n, (r + 1) % n).unwrap();
        let desc = Descriptor::for_type::<u32>(n, DataKind::D1).unwrap();
        let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();

        // Wrong element type (u64 instead of u32).
        let bad_elems = vec![0u64; 4];
        assert!(matches!(
            plan.reorganize(comm, &[&bad_elems], &mut Vec::new()),
            Err(ddr_core::DdrError::BufferMismatch { .. })
        ));

        // Wrong owned buffer length.
        let short = vec![0u32; 3];
        let mut need_buf = Vec::new();
        assert!(matches!(
            plan.reorganize(comm, &[&short], &mut need_buf),
            Err(ddr_core::DdrError::BufferMismatch { .. })
        ));

        // Wrong chunk count, too many and none.
        let ok = vec![0u32; 4];
        assert!(matches!(
            plan.reorganize(comm, &[&ok, &ok], &mut need_buf),
            Err(ddr_core::DdrError::BufferMismatch { .. })
        ));
        let none: [&[u32]; 0] = [];
        assert!(matches!(
            plan.reorganize(comm, &none, &mut need_buf),
            Err(ddr_core::DdrError::BufferMismatch { .. })
        ));

        // Correct buffers still work afterwards (errors had no side effects
        // on the communicator state).
        plan.reorganize(comm, &[&ok], &mut need_buf).unwrap();
        assert_eq!(need_buf, [0; 4]);

        // Two chunks per rank, chunk 1 one element short: refused naming
        // its round, with the need buffer that came in full left empty.
        let owned = [Block::d1(4 * r, 2).unwrap(), Block::d1(4 * r + 2, 2).unwrap()];
        let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
        let chunks: Vec<Vec<u32>> =
            owned.iter().map(|b| b.coords().map(|c| c[0] as u32).collect()).collect();
        let short = &chunks[1][..1];
        let err = plan.reorganize(comm, &[&chunks[0][..], short], &mut need_buf).unwrap_err();
        assert!(
            matches!(&err, ddr_core::DdrError::BufferMismatch { detail } if detail.starts_with("round 1:")),
            "{err}"
        );
        assert_eq!(need_buf, []);
        plan.reorganize(comm, &chunks, &mut need_buf).unwrap();
        assert_eq!(need_buf, need.coords().map(|c| c[0] as u32).collect::<Vec<_>>());
    });
}

/// Layouts whose receives do not tile every need: a `Relaxed` need that
/// overhangs the domain, and a `Skip`-admitted owner overlap. The buffer is
/// zeroed first, so uncovered cells read 0.
#[test]
fn untiled_needs_read_zero_where_nothing_lands() {
    let d1 = |off, len| Block::d1(off, len).unwrap();
    let cases = [
        (
            ValidationPolicy::Relaxed,
            vec![
                Layout { owned: vec![d1(0, 8)], need: d1(4, 8) },
                Layout { owned: vec![d1(8, 8)], need: d1(10, 10) },
            ],
        ),
        (
            ValidationPolicy::Skip,
            vec![
                Layout { owned: vec![d1(0, 10)], need: d1(0, 16) },
                Layout { owned: vec![d1(6, 10), d1(20, 4)], need: d1(4, 24) },
            ],
        ),
    ];
    for (policy, layouts) in cases {
        let layouts = &layouts;
        let out = Universe::run(2, move |comm| {
            let me = &layouts[comm.rank()];
            let desc = Descriptor::for_type::<u64>(2, DataKind::D1).unwrap();
            let plan = desc.setup_data_mapping_with(comm, &me.owned, me.need, policy).unwrap();
            let owned_data: Vec<Vec<u64>> = me.owned.iter().map(fill).collect();
            let mut held = vec![u64::MAX; 3];
            plan.reorganize(comm, &owned_data, &mut held).unwrap();
            held
        });
        let mut holes = 0;
        for (rank, held) in out.iter().enumerate() {
            let need = layouts[rank].need;
            let covered = |x: usize| {
                layouts.iter().any(|l| l.owned.iter().any(|b| b.intersect(&d1(x, 1)).is_some()))
            };
            let xs = need.offset[0]..need.offset[0] + need.dims[0];
            holes += xs.clone().filter(|&x| !covered(x)).count();
            let want: Vec<u64> = xs.map(|x| if covered(x) { x as u64 } else { 0 }).collect();
            assert_eq!(held, &want, "{policy:?} rank {rank}");
        }
        assert!(holes > 0, "{policy:?}: the case has a hole");
    }
}

#[test]
fn invalid_ownership_fails_on_every_rank() {
    // All ranks see the same validation error from setup (collective check).
    let n = 3;
    Universe::run(n, |comm| {
        let r = comm.rank();
        // Overlapping slabs: every rank claims [0..6) of a 1-D domain.
        let owned = vec![Block::d1(0, 6).unwrap()];
        let need = Block::d1(r * 2, 2).unwrap();
        let desc = Descriptor::for_type::<u8>(n, DataKind::D1).unwrap();
        let err = desc.setup_data_mapping(comm, &owned, need).unwrap_err();
        assert!(matches!(err, ddr_core::DdrError::OwnershipOverlap { .. }));
    });
}

#[test]
fn single_rank_identity_redistribution() {
    let layouts = vec![Layout {
        owned: vec![Block::d2([0, 0], [5, 5]).unwrap()],
        need: Block::d2([1, 1], [3, 3]).unwrap(),
    }];
    check_redistribution(DataKind::D2, &layouts, ValidationPolicy::Strict);
}

#[test]
fn elem_sizes_from_1_to_16_bytes() {
    // Redistribute with u8 elements (1B) and [u64; 2] elements (16B).
    let n = 3;
    let domain = Block::d1(0, 30).unwrap();
    Universe::run(n, |comm| {
        let r = comm.rank();
        let owned = vec![ddr_core::decompose::slab(&domain, 0, n, r).unwrap()];
        let need = ddr_core::decompose::slab(&domain, 0, n, (r + 1) % n).unwrap();

        let desc = Descriptor::for_type::<u8>(n, DataKind::D1).unwrap();
        let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
        let data: Vec<u8> = owned[0].coords().map(|c| c[0] as u8).collect();
        let mut out = Vec::new();
        plan.reorganize(comm, &[&data], &mut out).unwrap();
        assert_eq!(out, need.coords().map(|c| c[0] as u8).collect::<Vec<_>>());

        let desc = Descriptor::for_type::<[u64; 2]>(n, DataKind::D1).unwrap();
        let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
        let data: Vec<[u64; 2]> =
            owned[0].coords().map(|c| [c[0] as u64, (c[0] * 2) as u64]).collect();
        let mut out = Vec::new();
        plan.reorganize(comm, &[&data], &mut out).unwrap();
        let want: Vec<[u64; 2]> = need.coords().map(|c| [c[0] as u64, (c[0] * 2) as u64]).collect();
        assert_eq!(out, want);
    });
}

#[test]
fn dense_and_neighbour_only_mappings_redistribute() {
    use ddr_core::decompose::{brick, slab};
    let n = 8;
    // Dense: slabs along z feeding x/y bricks -> every rank talks to all.
    let domain = Block::d3([0, 0, 0], [16, 16, 16]).unwrap();
    Universe::run(n, |comm| {
        let r = comm.rank();
        let owned = vec![slab(&domain, 2, n, r).unwrap()];
        let dense_need = brick(&domain, [4, 2, 1], r).unwrap();
        let desc = Descriptor::for_type::<u64>(n, DataKind::D3).unwrap();
        // Sparse: shift slabs by one -> at most 2 neighbors each.
        let sparse_need = slab(&domain, 2, n, (r + 1) % n).unwrap();
        for (need, max_neighbors) in [(dense_need, n - 1), (sparse_need, 2)] {
            let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
            let counts = comm.allgather(&[plan.neighbor_count() as u64]).unwrap();
            let widest = counts.iter().map(|p| p[0]).max().unwrap();
            assert_eq!(widest as usize, max_neighbors);
            let data: Vec<u64> = owned[0].coords().map(cell_value).collect();
            let mut out = Vec::new();
            plan.reorganize(comm, &[&data], &mut out).unwrap();
            assert_eq!(out, fill(&need));
        }
    });
}

#[test]
fn three_rounds_of_column_slabs_to_row_slabs() {
    // Rank r owns column slabs r, r+3, r+6 of nine and needs a row slab:
    // three back-to-back rounds, every one with cross-rank traffic.
    use ddr_core::decompose::slab;
    let domain = Block::d2([0, 0], [12, 12]).unwrap();
    let layouts: Vec<Layout> = (0..3)
        .map(|r| Layout {
            owned: (0..3).map(|k| slab(&domain, 1, 9, r + 3 * k).unwrap()).collect(),
            need: slab(&domain, 0, 3, r).unwrap(),
        })
        .collect();
    for _ in 0..16 {
        check_redistribution(DataKind::D2, &layouts, ValidationPolicy::Strict);
    }
}
