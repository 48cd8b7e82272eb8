//! End-to-end tests of the generalized multi-block receive extension:
//! ghost/halo layouts, scattered gathers, and reuse across steps.

use ddr_core::{Block, DataKind, DdrError, Descriptor, ValidationPolicy};
use minimpi::{Counter, Counts, FaultPlan, Universe, UniverseBuilder};
use std::time::{Duration, Instant};

fn cell_value(c: [usize; 3]) -> u64 {
    (c[0] as u64) | ((c[1] as u64) << 20) | ((c[2] as u64) << 40)
}

/// Row slabs of an `nx × ny` domain on `n` ranks; every rank needs its own
/// slab plus `halo`-row halos above and below — three needed blocks, the
/// classic ghost-zone pattern the single-need API cannot express. Returns the
/// universe's transport counters once every rank has checked its blocks.
fn ghost_halo_exchange(
    builder: UniverseBuilder,
    (nx, ny, n): (usize, usize, usize),
    halo: usize,
) -> Counts {
    let domain = Block::d2([0, 0], [nx, ny]).unwrap();
    let out = builder.run(n, |comm| {
        let r = comm.rank();
        let slab = ddr_core::decompose::slab(&domain, 1, n, r).unwrap();
        let owned = vec![slab];
        let mut needs = vec![slab];
        if slab.offset[1] > 0 {
            needs.push(Block::d2([0, slab.offset[1] - halo], [nx, halo]).unwrap());
        }
        if slab.offset[1] + slab.dims[1] < ny {
            needs.push(Block::d2([0, slab.offset[1] + slab.dims[1]], [nx, halo]).unwrap());
        }
        let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
        let plan =
            desc.setup_multi_mapping(comm, &owned, &needs, ValidationPolicy::Strict).unwrap();

        let data: Vec<u64> = owned[0].coords().map(cell_value).collect();
        let mut bufs = vec![Vec::new(); needs.len()];
        plan.reorganize(comm, &[&data], &mut bufs).unwrap();
        for (buf, blk) in bufs.iter().zip(&needs) {
            assert_eq!(buf, &blk.coords().map(cell_value).collect::<Vec<_>>(), "rank {r} {blk:?}");
        }
        comm.barrier().unwrap();
        comm.counters()
    });
    out[0]
}

#[test]
fn ghost_halo_exchange_via_multi_need() {
    ghost_halo_exchange(Universe::builder(), (16, 20, 4), 1);
}

#[test]
fn loan_sized_halos_ride_the_zero_copy_path() {
    // 16 rows × 1024 u64 = 128 KiB per halo: a multi-need plan's bytes move
    // through `alltoallw`, so they are lent, not packed.
    let transport = ghost_halo_exchange(Universe::builder(), (1024, 64, 2), 16);
    assert!(transport[Counter::ZerocopyMsgs] > 0, "{transport:?}");
}

#[test]
fn scattered_multi_block_gather() {
    // Rank 0 collects four scattered corners of a domain owned in slabs by
    // all ranks; other ranks need nothing.
    let (nx, ny, n) = (12usize, 12, 3usize);
    let domain = Block::d2([0, 0], [nx, ny]).unwrap();
    Universe::run(n, |comm| {
        let r = comm.rank();
        let owned = vec![ddr_core::decompose::slab(&domain, 1, n, r).unwrap()];
        let needs: Vec<Block> = if r == 0 {
            vec![
                Block::d2([0, 0], [3, 3]).unwrap(),
                Block::d2([9, 0], [3, 3]).unwrap(),
                Block::d2([0, 9], [3, 3]).unwrap(),
                Block::d2([9, 9], [3, 3]).unwrap(),
            ]
        } else {
            Vec::new()
        };
        let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
        let plan =
            desc.setup_multi_mapping(comm, &owned, &needs, ValidationPolicy::Strict).unwrap();
        let data: Vec<u64> = owned[0].coords().map(cell_value).collect();
        let mut bufs = vec![Vec::new(); needs.len()];
        plan.reorganize(comm, &[&data], &mut bufs).unwrap();
        for (buf, blk) in bufs.iter().zip(&needs) {
            assert_eq!(buf, &blk.coords().map(cell_value).collect::<Vec<_>>());
        }
    });
}

#[test]
fn multi_plan_reused_across_steps_with_ragged_chunks() {
    // Owned sides with different chunk counts (1 vs 3), needs spanning both,
    // reorganized 4 times with evolving data.
    let n = 2;
    Universe::run(n, |comm| {
        let r = comm.rank();
        let owned: Vec<Block> = if r == 0 {
            vec![Block::d1(0, 6).unwrap()]
        } else {
            vec![Block::d1(6, 2).unwrap(), Block::d1(8, 2).unwrap(), Block::d1(10, 2).unwrap()]
        };
        let needs = vec![Block::d1(r * 3, 3).unwrap(), Block::d1(6 + r * 3, 3).unwrap()];
        let desc = Descriptor::for_type::<u64>(n, DataKind::D1).unwrap();
        let plan =
            desc.setup_multi_mapping(comm, &owned, &needs, ValidationPolicy::Strict).unwrap();
        assert_eq!(plan.num_rounds(), 3);
        let mut bufs = vec![Vec::new(); needs.len()];
        for step in 0..4u64 {
            let data: Vec<Vec<u64>> = owned
                .iter()
                .map(|b| b.coords().map(|c| cell_value(c) + step * 7919).collect())
                .collect();
            let data_refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
            plan.reorganize(comm, &data_refs, &mut bufs).unwrap();
            for (buf, blk) in bufs.iter().zip(&needs) {
                let want: Vec<u64> = blk.coords().map(|c| cell_value(c) + step * 7919).collect();
                assert_eq!(buf, &want);
            }
        }
    });
}

#[test]
fn multi_buffer_mismatches_rejected() {
    Universe::run(2, |comm| {
        let r = comm.rank();
        let owned = vec![Block::d1(r * 4, 4).unwrap()];
        let needs = vec![Block::d1((1 - r) * 4, 4).unwrap()];
        let desc = Descriptor::for_type::<u32>(2, DataKind::D1).unwrap();
        let plan =
            desc.setup_multi_mapping(comm, &owned, &needs, ValidationPolicy::Strict).unwrap();
        let ok = vec![0u32; 4];
        // Wrong need buffer count.
        let mut bufs: Vec<Vec<u32>> = Vec::new();
        assert!(plan.reorganize(comm, &[&ok], &mut bufs).is_err());
        // Wrong owned buffer length.
        bufs.push(Vec::new());
        assert!(plan.reorganize(comm, &[&ok[..3]], &mut bufs).is_err());
        // Correct call still works afterwards.
        let data: Vec<u32> = (0..4).map(|i| (r * 4 + i) as u32).collect();
        plan.reorganize(comm, &[&data], &mut bufs).unwrap();
        assert_eq!(bufs[0], ((1 - r) as u32 * 4..(1 - r) as u32 * 4 + 4).collect::<Vec<_>>());
    });
}

/// `Strict` checks every declared need, not only ownership: the last rank's
/// lower halo lies one row past the domain edge.
#[test]
fn strict_rejects_a_halo_past_the_domain_edge_and_relaxed_leaves_it_zero() {
    let (nx, ny, n) = (8usize, 12, 3usize);
    let domain = Block::d2([0, 0], [nx, ny]).unwrap();
    Universe::run(n, |comm| {
        let r = comm.rank();
        let slab = ddr_core::decompose::slab(&domain, 1, n, r).unwrap();
        let needs = [slab, Block::d2([0, slab.offset[1] + slab.dims[1]], [nx, 1]).unwrap()];
        let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
        // Every rank learns of the bad need from the gathered layouts, so
        // none of them gets a plan to start an exchange with.
        let strict = desc.setup_multi_mapping(comm, &[slab], &needs, ValidationPolicy::Strict);
        assert!(
            matches!(strict, Err(DdrError::NeedOutsideDomain { rank }) if rank == n - 1),
            "rank {r}: {strict:?}"
        );
        let plan =
            desc.setup_multi_mapping(comm, &[slab], &needs, ValidationPolicy::Relaxed).unwrap();
        let data: Vec<u64> = slab.coords().map(cell_value).collect();
        let mut bufs = vec![Vec::new(); needs.len()];
        plan.reorganize(comm, &[&data], &mut bufs).unwrap();
        for (buf, blk) in bufs.iter().zip(&needs) {
            let want = |c: [usize; 3]| if c[1] < ny { cell_value(c) } else { 0 };
            assert_eq!(buf, &blk.coords().map(want).collect::<Vec<_>>(), "rank {r} {blk:?}");
        }
    });
}

/// An `nx × ny` domain in row slabs on `n` ranks, as `(nx, ny, n)`.
const HALO_DOMAIN: (usize, usize, usize) = (8, 12, 3);

/// *Periodic* one-row halos: every rank needs its slab, the row above it and
/// the row below it (wrapping), so each of ranks 0 and 2 is owed exactly one
/// row by rank 1.
fn periodic_halo_needs(r: usize) -> [Block; 3] {
    let (nx, ny, n) = HALO_DOMAIN;
    let slab = ddr_core::decompose::slab(&Block::d2([0, 0], [nx, ny]).unwrap(), 1, n, r).unwrap();
    let (y0, y1) = (slab.offset[1], slab.offset[1] + slab.dims[1]);
    let row = |y: usize| Block::d2([0, y % ny], [nx, 1]).unwrap();
    [slab, row(y0 + ny - 1), row(y1)]
}

/// Per rank: the op count after setup, what `reorganize` returned, and the
/// need buffers (0 where nothing landed).
type HaloOutcome = (u64, Result<(), DdrError>, Vec<Vec<u64>>);

fn periodic_halo_exchange(faults: FaultPlan) -> Vec<HaloOutcome> {
    let n = HALO_DOMAIN.2;
    Universe::builder().timeout(Duration::from_secs(30)).fault_plan(faults).run(n, move |comm| {
        let needs = periodic_halo_needs(comm.rank());
        let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
        let plan =
            desc.setup_multi_mapping(comm, &needs[..1], &needs, ValidationPolicy::Strict).unwrap();
        let ops = comm.op_count();
        let data: Vec<u64> = needs[0].coords().map(cell_value).collect();
        let mut bufs = vec![Vec::new(); needs.len()];
        let outcome = plan.reorganize(comm, &[&data], &mut bufs);
        (ops, outcome, bufs)
    })
}

/// A multi-need exchange fails the way `Plan::reorganize` does: every need's
/// rounds are drained and the survivors get one structured report.
#[test]
fn rank_killed_mid_halo_exchange_yields_partial_completion_on_every_survivor() {
    let victim = 1;
    let clean = periodic_halo_exchange(FaultPlan::new());
    assert!(clean.iter().all(|(_, outcome, _)| outcome.is_ok()));
    // The victim's first op inside `reorganize`: it dies before shipping
    // either of the halo rows it owes.
    let kill_at = clean[victim].0;
    let start = Instant::now();
    let out = periodic_halo_exchange(FaultPlan::new().kill_rank_at_op(victim, kill_at));
    assert!(start.elapsed() < Duration::from_secs(15), "survivors waited out the watchdog");

    let victim_slab = periodic_halo_needs(victim)[0];
    for (r, (_, outcome, bufs)) in out.iter().enumerate() {
        if r == victim {
            assert!(outcome.is_err(), "victim should not complete");
            continue;
        }
        let report = match outcome {
            Err(DdrError::Incomplete(report)) => report,
            other => panic!("rank {r}: expected Incomplete, got {other:?}"),
        };
        assert_eq!((report.rank, &report.dead_peers), (r, &vec![victim]));
        assert_eq!(report.missing_bytes(), (HALO_DOMAIN.0 * 8) as u64, "one halo row lost");
        // Everything the dead rank did not feed arrived, in every block,
        // and what it did not reads 0.
        for (buf, blk) in bufs.iter().zip(&periodic_halo_needs(r)) {
            let lost = victim_slab.intersect(blk).is_some();
            let want = |c| if lost { 0 } else { cell_value(c) };
            assert_eq!(buf, &blk.coords().map(want).collect::<Vec<_>>(), "rank {r} {blk:?}");
        }
    }
}

/// A rank that declared fewer needs than a peer is handed only its own
/// plans: every one of them has a needed block to read, and the peer's
/// extra need is still delivered.
#[test]
fn plans_are_this_ranks_own_even_when_a_peer_needs_more() {
    let out = Universe::run(2, |comm| {
        let r = comm.rank();
        let owned = [Block::d1(r * 4, 4).unwrap()];
        let needs: Vec<Block> = (0..2 - r).map(|k| Block::d1(k * 4, 4).unwrap()).collect();
        let desc = Descriptor::for_type::<u32>(2, DataKind::D1).unwrap();
        let plan =
            desc.setup_multi_mapping(comm, &owned, &needs, ValidationPolicy::Strict).unwrap();
        let read: Vec<Block> = plan.plans().iter().map(|p| *p.need()).collect();
        assert_eq!(read, needs, "rank {r}");
        let data: Vec<u32> = (r as u32 * 4..r as u32 * 4 + 4).collect();
        let mut bufs = vec![Vec::new(); needs.len()];
        plan.reorganize(comm, &[&data], &mut bufs).unwrap();
        bufs
    });
    assert_eq!(out[0], [vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
    assert_eq!(out[1], [vec![0, 1, 2, 3]]);
}

// ---------------------------------------------------------------------------
// Recovery of several descriptors over one shrink.
// ---------------------------------------------------------------------------

/// Two descriptors with different element types recover over ONE shrink:
/// each gets a fresh `setup_multi_mapping` under `Degraded` on the same
/// survivor communicator, so both are mapped over the same member set.
#[test]
fn two_descriptors_recover_over_one_shrink() {
    let n = 3usize;
    let d_a = Block::d1(0, 24).unwrap();
    let d_b = Block::d2([0, 0], [6, 6]).unwrap();
    let out = Universe::builder().timeout(Duration::from_secs(30)).run(n, move |comm| {
        if comm.rank() == 2 {
            return None; // departs; the others recover both descriptors
        }
        let owned_a = [ddr_core::decompose::slab(&d_a, 0, n, comm.rank()).unwrap()];
        let owned_b = [ddr_core::decompose::slab(&d_b, 1, n, comm.rank()).unwrap()];
        let rec = comm.shrink().unwrap();
        assert_eq!(rec.size(), 2);
        let desc_a = Descriptor::for_type::<u64>(rec.size(), DataKind::D1).unwrap();
        let desc_b = Descriptor::for_type::<u32>(rec.size(), DataKind::D2).unwrap();
        let degraded = ValidationPolicy::Degraded;
        let plan_a = desc_a.setup_multi_mapping(&rec, &owned_a, &owned_a, degraded).unwrap();
        let plan_b = desc_b.setup_multi_mapping(&rec, &owned_b, &owned_b, degraded).unwrap();

        // Both plans execute on the recovered communicator: each rank
        // still holds its own slab, so the remap is a pure local copy.
        let data_a: Vec<u64> = owned_a[0].coords().map(cell_value).collect();
        let mut got_a = [Vec::new()];
        plan_a.reorganize(&rec, &[&data_a], &mut got_a).unwrap();
        assert_eq!(got_a[0], data_a);

        let data_b: Vec<u32> = owned_b[0].coords().map(|c| cell_value(c) as u32).collect();
        let mut got_b = [Vec::new()];
        plan_b.reorganize(&rec, &[&data_b], &mut got_b).unwrap();
        assert_eq!(got_b[0], data_b);
        Some(plan_a.total_sent_bytes() + plan_b.total_sent_bytes())
    });
    assert_eq!(out, vec![Some(0), Some(0), None], "unchanged ranks move nothing");
}
