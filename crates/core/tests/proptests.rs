//! Property-based tests: random disjoint-and-complete partitions are
//! redistributed correctly to random (possibly overlapping) needs.

use ddr_core::decompose::{brick, near_cubic_grid, round_robin_items};
use ddr_core::{
    compute_local_plan, Block, DataKind, Descriptor, Layout, Plan, Transfer, ValidationPolicy,
};
use minimpi::{FaultPlan, Universe};
use proptest::prelude::*;

/// Recursively split `domain` into `n_parts` disjoint covering blocks using
/// the random bits in `seeds` (a k-d-tree-style partition).
fn random_partition(domain: Block, n_parts: usize, seeds: &[u64]) -> Vec<Block> {
    fn go(b: Block, n: usize, seeds: &[u64], depth: usize, out: &mut Vec<Block>) {
        if n == 1 {
            out.push(b);
            return;
        }
        let seed = seeds[depth % seeds.len()].wrapping_add(depth as u64 * 0x9e3779b9);
        // Pick a splittable axis, preferring the seeded choice.
        let mut axis = (seed % 3) as usize;
        let mut tries = 0;
        while b.dims[axis] < 2 && tries < 3 {
            axis = (axis + 1) % 3;
            tries += 1;
        }
        if b.dims[axis] < 2 {
            // Cannot split further; emit as-is (covers the n==1 contract by
            // merging surplus parts into one block).
            out.push(b);
            return;
        }
        let left_parts = 1 + (seed / 3) as usize % (n - 1);
        let right_parts = n - left_parts;
        // Split proportionally so each side can host its parts.
        let cut = ((b.dims[axis] as u64 * left_parts as u64) / n as u64)
            .clamp(1, b.dims[axis] as u64 - 1) as usize;
        let mut ldims = b.dims;
        ldims[axis] = cut;
        let left = Block { ndims: b.ndims, offset: b.offset, dims: ldims };
        let mut roff = b.offset;
        roff[axis] += cut;
        let mut rdims = b.dims;
        rdims[axis] = b.dims[axis] - cut;
        let right = Block { ndims: b.ndims, offset: roff, dims: rdims };
        go(left, left_parts, seeds, depth + 1, out);
        go(right, right_parts, seeds, depth * 2 + 2, out);
    }
    let mut out = Vec::new();
    go(domain, n_parts, seeds, 0, &mut out);
    out
}

/// Random sub-block of `domain` derived from a seed.
fn random_subblock(domain: &Block, seed: u64) -> Block {
    let mut offset = domain.offset;
    let mut dims = domain.dims;
    let mut s = seed;
    for d in 0..domain.ndims {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let len = 1 + (s >> 33) as usize % domain.dims[d];
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let off = (s >> 33) as usize % (domain.dims[d] - len + 1);
        offset[d] = domain.offset[d] + off;
        dims[d] = len;
    }
    Block::new(domain.ndims, offset, dims).unwrap()
}

fn cell_value(c: [usize; 3]) -> u64 {
    (c[0] as u64) | ((c[1] as u64) << 20) | ((c[2] as u64) << 40)
}

/// The structural properties of a schedule, asserted on every rank's plan
/// for a valid layout set: each plan is well-formed on its own, and every
/// pair of plans agrees on exactly what crosses between them.
fn assert_plan_invariants(layouts: &[Layout], desc: &Descriptor) {
    let nprocs = layouts.len();
    let plans: Vec<Plan> =
        (0..nprocs).map(|r| compute_local_plan(r, layouts, desc).unwrap()).collect();
    let max_chunks = layouts.iter().map(|l| l.owned.len()).max().unwrap();
    for plan in &plans {
        assert_eq!(plan.num_rounds(), max_chunks, "rank {}", plan.rank());
    }
    // The regions `list` exchanges with `peer`: exactly one when the pair does.
    let regions_with = |list: &[Transfer], peer: usize| -> Vec<Block> {
        list.iter().filter(|t| t.peer == peer).map(|t| t.region).collect()
    };
    for (rank, plan) in plans.iter().enumerate() {
        let mut received: Vec<Block> = Vec::new();
        for (r, round) in plan.rounds().iter().enumerate() {
            let at = format!("rank {rank} round {r}");
            let chunk = plan.owned().get(r);
            assert!(chunk.is_some() || round.sends.is_empty(), "{at}: sends without a chunk");
            for (transfers, holder) in [(&round.sends, chunk), (&round.recvs, Some(plan.need()))] {
                for (i, t) in transfers.iter().enumerate() {
                    assert!(t.peer < nprocs, "{at}: peer {} of {nprocs}", t.peer);
                    assert!(t.bytes() > 0, "{at}: empty transfer with {}", t.peer);
                    assert_eq!(t.subarray.elem_size, desc.elem_size(), "{at}");
                    assert_eq!(t.subarray.count() as u64, t.region.count(), "{at}");
                    assert!(holder.unwrap().contains(&t.region), "{at}: {:?} escapes", t.region);
                    // One datatype per pair per round.
                    assert!(transfers[..i].iter().all(|u| u.peer != t.peer), "{at}: peer twice");
                }
            }
            // The region a sender ships is the region its receiver expects.
            for t in &round.sends {
                let theirs = regions_with(&plans[t.peer].rounds()[r].recvs, rank);
                assert_eq!(theirs, [t.region], "{at}");
            }
            for t in &round.recvs {
                let theirs = regions_with(&plans[t.peer].rounds()[r].sends, rank);
                assert_eq!(theirs, [t.region], "{at}");
            }
            received.extend(round.recvs.iter().map(|t| t.region));
        }
        // Every needed element arrives exactly once.
        for (i, a) in received.iter().enumerate() {
            for b in &received[i + 1..] {
                assert!(a.intersect(b).is_none(), "rank {rank}: {a:?} and {b:?} both arrive");
            }
        }
        assert_eq!(received.iter().map(Block::count).sum::<u64>(), plan.need().count());
    }
}

fn run_case(kind: DataKind, domain: Block, nprocs: usize, seeds: Vec<u64>) {
    // Distribute the partition's blocks to ranks round-robin; some ranks may
    // receive several chunks, some exactly one.
    let parts = random_partition(domain, (nprocs * 2).min(12), &seeds);
    let mut owned: Vec<Vec<Block>> = vec![Vec::new(); nprocs];
    for (i, b) in parts.into_iter().enumerate() {
        owned[i % nprocs].push(b);
    }
    // Ranks with no chunk get none (allowed); every rank needs a random block.
    let layouts: Vec<Layout> = owned
        .into_iter()
        .enumerate()
        .map(|(r, o)| Layout { owned: o, need: random_subblock(&domain, seeds[r % seeds.len()]) })
        .collect();
    check_and_execute(kind, &layouts);
}

/// Assert the plan invariants on `layouts` (one per rank), then run the
/// redistribution and check every needed cell's bytes.
fn check_and_execute(kind: DataKind, layouts: &[Layout]) {
    let nprocs = layouts.len();
    let desc = Descriptor::for_type::<u64>(nprocs, kind).unwrap();
    assert_plan_invariants(layouts, &desc);

    Universe::run(nprocs, move |comm| {
        let me = &layouts[comm.rank()];
        let plan = desc
            .setup_data_mapping_with(comm, &me.owned, me.need, ValidationPolicy::Strict)
            .unwrap();
        let data: Vec<Vec<u64>> =
            me.owned.iter().map(|b| b.coords().map(cell_value).collect()).collect();
        let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
        let mut need = Vec::new();
        plan.reorganize(comm, &refs, &mut need).unwrap();
        prop_assert_eq!(need, me.need.coords().map(cell_value).collect::<Vec<_>>());
        Ok::<(), TestCaseError>(())
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_1d_partitions_redistribute_correctly(
        len in 4usize..200,
        nprocs in 1usize..7,
        seeds in prop::collection::vec(any::<u64>(), 4..8),
    ) {
        let domain = Block::d1(0, len).unwrap();
        run_case(DataKind::D1, domain, nprocs, seeds);
    }

    #[test]
    fn random_2d_partitions_redistribute_correctly(
        w in 2usize..40,
        h in 2usize..40,
        nprocs in 1usize..7,
        seeds in prop::collection::vec(any::<u64>(), 4..8),
    ) {
        let domain = Block::d2([0, 0], [w, h]).unwrap();
        run_case(DataKind::D2, domain, nprocs, seeds);
    }

    #[test]
    fn random_3d_partitions_redistribute_correctly(
        w in 2usize..16,
        h in 2usize..16,
        d in 2usize..16,
        nprocs in 1usize..6,
        seeds in prop::collection::vec(any::<u64>(), 4..8),
    ) {
        let domain = Block::d3([0, 0, 0], [w, h, d]).unwrap();
        run_case(DataKind::D3, domain, nprocs, seeds);
    }

    /// The stack loader's shape: single z-planes dealt round-robin, bricks
    /// of a near-cubic grid that leaves a remainder on every axis it splits.
    #[test]
    fn loader_round_robin_planes_to_ragged_bricks(
        nprocs in 2usize..=7,
        quotients in prop::collection::vec(1usize..4, 3..4),
        remainders in prop::collection::vec(any::<u64>(), 3..4),
    ) {
        let counts = near_cubic_grid(nprocs);
        // An axis split into c > 1 parts is q·c + (1..c) long, so c never
        // divides it; an unsplit axis is 1..=4 long.
        let extent = |a: usize| match counts[a] {
            1 => 1 + remainders[a] as usize % 4,
            c => quotients[a] * c + 1 + remainders[a] as usize % (c - 1),
        };
        let vol = [extent(0), extent(1), extent(2)];
        let domain = Block::d3([0, 0, 0], vol).unwrap();
        let layouts: Vec<Layout> = (0..nprocs)
            .map(|r| Layout {
                owned: round_robin_items(vol[2], nprocs, r, |z| {
                    Block::d3([0, 0, z], [vol[0], vol[1], 1])
                })
                .unwrap(),
                need: brick(&domain, counts, r).unwrap(),
            })
            .collect();
        check_and_execute(DataKind::D3, &layouts);
    }

    #[test]
    fn random_partitions_always_validate(
        w in 2usize..32,
        h in 2usize..32,
        n_parts in 1usize..10,
        seeds in prop::collection::vec(any::<u64>(), 4..8),
    ) {
        // The generator must always produce disjoint, complete partitions.
        let domain = Block::d2([0, 0], [w, h]).unwrap();
        let parts = random_partition(domain, n_parts, &seeds);
        let total: u64 = parts.iter().map(|b| b.count()).sum();
        prop_assert_eq!(total, domain.count());
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                prop_assert!(a.intersect(b).is_none(), "{:?} overlaps {:?}", a, b);
            }
        }
    }

    #[test]
    fn multi_need_random_layouts_redistribute_correctly(
        w in 2usize..24,
        h in 2usize..24,
        nprocs in 1usize..6,
        seeds in prop::collection::vec(any::<u64>(), 6..10),
    ) {
        use ddr_core::ValidationPolicy;
        let domain = Block::d2([0, 0], [w, h]).unwrap();
        let parts = random_partition(domain, (nprocs * 2).min(10), &seeds);
        let mut owned: Vec<Vec<Block>> = vec![Vec::new(); nprocs];
        for (i, b) in parts.into_iter().enumerate() {
            owned[i % nprocs].push(b);
        }
        // 0..=3 random need blocks per rank (overlaps allowed).
        let needs: Vec<Vec<Block>> = (0..nprocs)
            .map(|r| {
                let k = (seeds[r % seeds.len()] % 4) as usize;
                (0..k)
                    .map(|j| random_subblock(&domain, seeds[(r + j + 1) % seeds.len()]))
                    .collect()
            })
            .collect();
        let owned_ref = &owned;
        let needs_ref = &needs;
        Universe::run(nprocs, move |comm| {
            let r = comm.rank();
            let desc = Descriptor::for_type::<u64>(nprocs, DataKind::D2).unwrap();
            let plan = desc
                .setup_multi_mapping(
                    comm,
                    &owned_ref[r],
                    &needs_ref[r],
                    ValidationPolicy::Strict,
                )
                .unwrap();
            let data: Vec<Vec<u64>> = owned_ref[r]
                .iter()
                .map(|b| b.coords().map(cell_value).collect())
                .collect();
            let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
            let mut bufs = vec![Vec::new(); needs_ref[r].len()];
            plan.reorganize_needs(comm, &refs, &mut bufs).unwrap();
            for (buf, blk) in bufs.iter().zip(&needs_ref[r]) {
                let want: Vec<u64> = blk.coords().map(cell_value).collect();
                prop_assert_eq!(buf, &want, "block {:?}", blk);
            }
            Ok::<(), TestCaseError>(())
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    }

    /// Many chunks (from a few bytes to a few hundred KiB) ride one loaned
    /// exchange, with or without a fault plan installed (one whose rule
    /// never fires): the output must equal the serial oracle.
    #[test]
    fn coalesced_exchanges_match_the_oracle(
        w in 4usize..300,
        h in 4usize..300,
        nprocs in 1usize..5,
        planned in any::<bool>(),
        seeds in prop::collection::vec(any::<u64>(), 4..8),
    ) {
        let domain = Block::d2([0, 0], [w, h]).unwrap();
        let parts = random_partition(domain, nprocs * 6, &seeds);
        let mut owned: Vec<Vec<Block>> = vec![Vec::new(); nprocs];
        for (i, b) in parts.into_iter().enumerate() {
            owned[i % nprocs].push(b);
        }
        let layouts: Vec<Layout> = owned
            .into_iter()
            .enumerate()
            .map(|(r, o)| Layout { owned: o, need: random_subblock(&domain, seeds[r % seeds.len()]) })
            .collect();
        let layouts = &layouts;
        let mut builder = Universe::builder();
        if planned {
            builder = builder.fault_plan(FaultPlan::new().drop_message(0, 0, Some(77), 0));
        }
        builder.run(nprocs, move |comm| {
            let me = &layouts[comm.rank()];
            let desc = Descriptor::for_type::<u64>(nprocs, DataKind::D2).unwrap();
            let plan = desc
                .setup_data_mapping_with(comm, &me.owned, me.need, ValidationPolicy::Strict)
                .unwrap();
            let data: Vec<Vec<u64>> =
                me.owned.iter().map(|b| b.coords().map(cell_value).collect()).collect();
            let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
            let mut need = Vec::new();
            plan.reorganize(comm, &refs, &mut need).unwrap();
            prop_assert_eq!(need, me.need.coords().map(cell_value).collect::<Vec<_>>());
            Ok::<_, TestCaseError>(())
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    }

    #[test]
    fn stats_agree_with_executed_transfers(
        w in 2usize..24,
        h in 2usize..24,
        nprocs in 2usize..6,
        seeds in prop::collection::vec(any::<u64>(), 4..8),
    ) {
        // GlobalStats (analytic) must match per-rank Plan totals (executed).
        let domain = Block::d2([0, 0], [w, h]).unwrap();
        let parts = random_partition(domain, (nprocs * 2).min(12), &seeds);
        let mut owned: Vec<Vec<Block>> = vec![Vec::new(); nprocs];
        for (i, b) in parts.into_iter().enumerate() {
            owned[i % nprocs].push(b);
        }
        let layouts: Vec<Layout> = owned
            .into_iter()
            .enumerate()
            .map(|(r, o)| Layout {
                owned: o,
                need: random_subblock(&domain, seeds[r % seeds.len()]),
            })
            .collect();
        let stats = ddr_core::GlobalStats::compute(&layouts, 8);
        let desc = Descriptor::for_type::<u64>(nprocs, DataKind::D2).unwrap();
        for rank in 0..nprocs {
            let plan = ddr_core::compute_local_plan(rank, &layouts, &desc).unwrap();
            let sent: u64 = (0..stats.num_rounds).map(|r| stats.sent[r][rank]).sum();
            let recv: u64 = (0..stats.num_rounds).map(|r| stats.recv[r][rank]).sum();
            let local: u64 = (0..stats.num_rounds).map(|r| stats.local[r][rank]).sum();
            prop_assert_eq!(plan.total_sent_bytes(), sent);
            prop_assert_eq!(plan.total_recv_bytes(), recv);
            prop_assert_eq!(plan.total_local_bytes(), local);
            prop_assert_eq!(plan.num_rounds(), stats.num_rounds);
        }
    }
}
