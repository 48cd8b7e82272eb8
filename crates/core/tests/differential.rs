//! Differential proof against the serial oracle: seeded layout pairs are
//! redistributed through the one wire path — every cross-rank `alltoallw`
//! message a zero-copy loan — and every receive buffer must equal the
//! serial oracle byte for byte (every needed cell holds its globally unique
//! value), also under a fault plan, whose rules act on the loans: there the
//! rank that lost a message fails naming its source and every other rank
//! still equals the oracle. The headline property: a producer → consumer →
//! producer round-trip is the identity on the data.

use ddr_core::{
    decompose, Block, DataKind, DdrError, Descriptor, Layout, RedistStats, ValidationPolicy,
};
use minimpi::{Counter, Counts, Error as MpiError, FaultPlan, Universe};
use proptest::prelude::*;
use std::sync::Barrier;
use std::time::Duration;

/// Recursively split `domain` into `n_parts` disjoint covering blocks using
/// the random bits in `seeds` (same k-d generator as the core proptests).
fn random_partition(domain: Block, n_parts: usize, seeds: &[u64]) -> Vec<Block> {
    fn go(b: Block, n: usize, seeds: &[u64], depth: usize, out: &mut Vec<Block>) {
        if n == 1 {
            out.push(b);
            return;
        }
        let seed = seeds[depth % seeds.len()].wrapping_add(depth as u64 * 0x9e3779b9);
        let mut axis = (seed % 3) as usize;
        let mut tries = 0;
        while b.dims[axis] < 2 && tries < 3 {
            axis = (axis + 1) % 3;
            tries += 1;
        }
        if b.dims[axis] < 2 {
            out.push(b);
            return;
        }
        let left_parts = 1 + (seed / 3) as usize % (n - 1);
        let right_parts = n - left_parts;
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

/// Globally unique value for each domain cell.
fn cell_value(c: [usize; 3]) -> u64 {
    (c[0] as u64) | ((c[1] as u64) << 20) | ((c[2] as u64) << 40)
}

fn mix(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *s >> 17
}

/// One seeded layout pair: a random disjoint-and-complete ownership
/// partition plus a random need block per rank.
struct Case {
    kind: DataKind,
    nprocs: usize,
    layouts: Vec<Layout>,
}

fn case_from_seed(seed: u64) -> Case {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let nprocs = 2 + (mix(&mut s) % 4) as usize; // 2..=5
    let (kind, domain) = match mix(&mut s) % 3 {
        0 => (DataKind::D1, Block::d1(0, 16 + (mix(&mut s) % 120) as usize).unwrap()),
        1 => (
            DataKind::D2,
            Block::d2([0, 0], [4 + (mix(&mut s) % 20) as usize, 4 + (mix(&mut s) % 20) as usize])
                .unwrap(),
        ),
        _ => (
            DataKind::D3,
            Block::d3(
                [0, 0, 0],
                [
                    2 + (mix(&mut s) % 8) as usize,
                    2 + (mix(&mut s) % 8) as usize,
                    2 + (mix(&mut s) % 8) as usize,
                ],
            )
            .unwrap(),
        ),
    };
    let seeds: Vec<u64> = (0..6).map(|_| mix(&mut s)).collect();
    let parts = random_partition(domain, (nprocs * 2).min(10), &seeds);
    let mut owned: Vec<Vec<Block>> = vec![Vec::new(); nprocs];
    for (i, b) in parts.into_iter().enumerate() {
        owned[i % nprocs].push(b);
    }
    let layouts = owned
        .into_iter()
        .enumerate()
        .map(|(r, o)| Layout { owned: o, need: random_subblock(&domain, seeds[r % seeds.len()]) })
        .collect();
    Case { kind, nprocs, layouts }
}

/// What one rank observed: its filled need buffer, the stats its plan
/// predicts, and the universe-wide transport counters at the moment this
/// rank finished.
struct RankRun {
    need: Vec<u64>,
    stats: RedistStats,
    counters: Counts,
}

/// Execute `case` as held chunks.
fn run_path(case: &Case) -> Vec<RankRun> {
    let layouts = &case.layouts;
    let (kind, nprocs) = (case.kind, case.nprocs);
    Universe::run(nprocs, move |comm| {
        let me = &layouts[comm.rank()];
        let desc = Descriptor::for_type::<u64>(nprocs, kind).unwrap();
        let plan = desc
            .setup_data_mapping_with(comm, &me.owned, me.need, ValidationPolicy::Strict)
            .unwrap();
        let data: Vec<Vec<u64>> =
            me.owned.iter().map(|b| b.coords().map(cell_value).collect()).collect();
        let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
        let mut need = Vec::new();
        plan.reorganize(comm, &refs, &mut need).unwrap();
        RankRun { need, stats: RedistStats::from_plan(&plan), counters: comm.counters() }
    })
}

/// The serial oracle: ownership covers the domain, so whatever the layout
/// pair, rank `r`'s need buffer must hold each needed cell's unique value.
fn oracle(case: &Case, r: usize) -> Vec<u64> {
    case.layouts[r].need.coords().map(cell_value).collect()
}

/// Every receive buffer byte-identical to the oracle, and the loans
/// engaged whenever cross-rank messages flowed.
fn assert_matches_oracle(seed: u64, case: &Case, runs: &[RankRun]) {
    for (r, run) in runs.iter().enumerate() {
        assert_eq!(run.need, oracle(case, r), "seed {seed}: rank {r} buffer diverges from oracle");
    }
    // Counters are universe-wide and monotone, so the sender of any message
    // sees at least its own loan.
    let cross_rank: u64 = runs.iter().map(|run| run.stats.messages_sent).sum();
    if cross_rank > 0 {
        let seen = runs.iter().map(|run| run.counters[Counter::ZerocopyMsgs]).max().unwrap();
        assert!(seen > 0, "seed {seed}: cross-rank messages flowed but no loan was made");
    }
}

/// Rank 0 owns three chunks, rank 1 one, rank 2 none: three rounds, of which
/// rank 1 pads two and rank 2 all.
fn ragged_case() -> Case {
    let d1 = |off, len| Block::d1(off, len).unwrap();
    Case {
        kind: DataKind::D1,
        nprocs: 3,
        layouts: vec![
            Layout { owned: vec![d1(0, 10), d1(10, 5), d1(15, 15)], need: d1(20, 20) },
            Layout { owned: vec![d1(30, 10)], need: d1(0, 25) },
            Layout { owned: vec![], need: d1(5, 30) },
        ],
    }
}

/// The core differential suite: 50 seeded layout pairs and the ragged case
/// against the oracle, some of them with ranks of different chunk counts.
#[test]
fn fifty_seeded_cases_match_the_oracle() {
    let mut ragged = 0;
    for (seed, case) in
        (0..50u64).map(|s| (s, case_from_seed(s))).chain([(u64::MAX, ragged_case())])
    {
        let chunks: Vec<usize> = case.layouts.iter().map(|l| l.owned.len()).collect();
        ragged += chunks.iter().any(|&c| c != chunks[0]) as usize;
        assert_matches_oracle(seed, &case, &run_path(&case));
    }
    assert!(ragged > 0, "no case had ranks with different chunk counts");
}

/// Held chunks ride one loaned exchange: here eight 32 KiB column-slab
/// chunks per rank, eight rounds in one exchange, so one loan per
/// direction.
#[test]
fn held_chunks_ride_one_loaned_exchange() {
    let domain = Block::d2([0, 0], [256, 256]).unwrap();
    let case = Case {
        kind: DataKind::D2,
        nprocs: 2,
        layouts: (0..2)
            .map(|r| Layout {
                owned: (0..8)
                    .map(|i| decompose::slab(&domain, 0, 16, 2 * i + r).unwrap())
                    .collect(),
                need: decompose::slab(&domain, 1, 2, r).unwrap(),
            })
            .collect(),
    };
    let runs = run_path(&case);
    assert_matches_oracle(0, &case, &runs);
    for (r, run) in runs.iter().enumerate() {
        assert_eq!(run.stats.rounds, 8, "rank {r}");
        assert_eq!(run.counters[Counter::ZerocopyMsgs], 2, "rank {r}: {:?}", run.counters);
    }
}

/// A fault plan's rules act on the loans: the exchange still loans, and a
/// dropped loan is a lost message. E1's second 0 → 3 message is the
/// exchange's (row 4's right half), after the set-up allgather's: dropped,
/// rank 3 times out on rank 0 with its need empty, and every other rank
/// equals the oracle. The ranks stay alive until all have returned, so rank
/// 3's wait ends in the watchdog, not in rank 0's exit; a set-up error is
/// carried past that barrier, so it fails the test instead of hanging it.
#[test]
fn a_fault_plan_acts_on_loans_and_a_drop_fails_only_its_receiver() {
    fn e1_owned(r: usize) -> [Block; 2] {
        [Block::d2([0, r], [8, 1]).unwrap(), Block::d2([0, r + 4], [8, 1]).unwrap()]
    }
    fn e1_need(r: usize) -> Block {
        Block::d2([4 * (r % 2), 4 * (r / 2)], [4, 4]).unwrap()
    }
    let all_returned = Barrier::new(4);
    let out = Universe::builder()
        .timeout(Duration::from_millis(300))
        .fault_plan(FaultPlan::new().drop_message(0, 3, None, 1))
        .run(4, |comm| {
            let r = comm.rank();
            let desc = Descriptor::for_type::<u64>(4, DataKind::D2).unwrap();
            let data: Vec<Vec<u64>> =
                e1_owned(r).iter().map(|b| b.coords().map(cell_value).collect()).collect();
            let mut need = Vec::new();
            let res = desc
                .setup_data_mapping(comm, &e1_owned(r), e1_need(r))
                .map(|plan| plan.reorganize(comm, &data, &mut need));
            all_returned.wait();
            (res.expect("set-up"), need, comm.counters())
        });
    for (r, (res, need, counters)) in out.iter().enumerate() {
        assert!(counters[Counter::ZerocopyMsgs] > 0, "rank {r}: no loan under a fault plan");
        if r == 3 {
            let timeout = matches!(res, Err(DdrError::Mpi(MpiError::Timeout { src: 0, .. })));
            assert!(timeout, "rank 3: {res:?}");
            assert!(need.is_empty(), "rank 3: an error leaves need empty");
        } else {
            assert_eq!(res, &Ok(()), "rank {r}");
            assert_eq!(need, &e1_need(r).coords().map(cell_value).collect::<Vec<_>>(), "rank {r}");
        }
    }
}

/// Multi-MiB differential: a repartition whose every cross-rank transfer is
/// 8 MiB — far past cache — while the transpose geometry (x-slabs to
/// y-slabs) keeps the per-row runs strided. The loan's claim copy must
/// reproduce the analytically known cell values exactly.
#[test]
fn multi_mib_transpose_matches_the_oracle() {
    let domain = Block::d2([0, 0], [2048, 2048]).unwrap();
    let nprocs = 2;
    let out = Universe::run(nprocs, move |comm| {
        let r = comm.rank();
        let desc = Descriptor::for_type::<u64>(nprocs, DataKind::D2).unwrap();
        let owned = [decompose::slab(&domain, 0, nprocs, r).unwrap()];
        let need = decompose::slab(&domain, 1, nprocs, r).unwrap();
        let plan =
            desc.setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Strict).unwrap();
        let data: Vec<u64> = owned[0].coords().map(cell_value).collect();
        let mut buf = Vec::new();
        plan.reorganize(comm, &[&data], &mut buf).unwrap();
        (need, buf)
    });
    for (r, (need, buf)) in out.iter().enumerate() {
        for (i, (coord, &got)) in need.coords().zip(buf).enumerate() {
            assert_eq!(got, cell_value(coord), "rank {r} cell {i} wrong");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Headline property: redistribute a random producer partition to a
    /// slab-per-rank consumer layout, then redistribute *back* to the
    /// producer's chunks — through the zero-copy plane — and require the
    /// original data, bit for bit.
    #[test]
    fn producer_consumer_producer_roundtrip_is_identity(
        w in 8usize..32,
        h in 8usize..32,
        nprocs in 2usize..6,
        seeds in prop::collection::vec(any::<u64>(), 4..8),
    ) {
        let domain = Block::d2([0, 0], [w, h]).unwrap();
        let parts = random_partition(domain, (nprocs * 2).min(10), &seeds);
        let mut owned: Vec<Vec<Block>> = vec![Vec::new(); nprocs];
        for (i, b) in parts.into_iter().enumerate() {
            owned[i % nprocs].push(b);
        }
        let owned_ref = &owned;
        Universe::builder().run(nprocs, move |comm| {
            let r = comm.rank();
            let chunks = &owned_ref[r];
            let desc = Descriptor::for_type::<u64>(nprocs, DataKind::D2).unwrap();

            // Producer → consumer: everyone needs one horizontal slab.
            let slab = decompose::slab(&domain, 1, nprocs, r).unwrap();
            let fwd = desc
                .setup_data_mapping_with(comm, chunks, slab, ValidationPolicy::Strict)
                .unwrap();
            let data: Vec<Vec<u64>> =
                chunks.iter().map(|b| b.coords().map(cell_value).collect()).collect();
            let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
            let mut slab_buf = Vec::new();
            fwd.reorganize(comm, &refs, &mut slab_buf).unwrap();

            // Consumer → producer: slabs are the ownership now; each rank
            // needs its original chunks back.
            let back = desc
                .setup_multi_mapping(comm, &[slab], chunks, ValidationPolicy::Strict)
                .unwrap();
            let mut rebuilt = vec![Vec::new(); chunks.len()];
            back.reorganize(comm, &[&slab_buf], &mut rebuilt).unwrap();
            for (orig, got) in data.iter().zip(&rebuilt) {
                prop_assert_eq!(orig, got, "round-trip lost data");
            }
            Ok::<(), TestCaseError>(())
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    }
}
