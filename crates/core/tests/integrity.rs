//! Corruption chaos soak: seeded corrupt-message faults across many seeds,
//! with runtime checking (`DDR_CHECK`) armed throughout. Zero-copy is
//! requested with a loan-everything threshold; the fault plan must stage
//! every message regardless.
//!
//! Corruption is detected, never repaired: the receiver of a corrupt
//! message must fail *structurally* — `IntegrityFailure` classified as an
//! integrity loss in [`PartialCompletion`], never a hang — with the lost
//! cells untouched, while every other cell and every uninvolved rank matches
//! the serial oracle.
//!
//! Layouts are built with [`compute_local_plan`] rather than
//! `setup_data_mapping`, so the universe carries **zero** setup traffic:
//! every message on the wire is redistribution data, which makes the seeded
//! corrupt-rule targeting deterministic.

use ddr_core::{compute_local_plan, Block, DataKind, Descriptor, Layout};
use minimpi::{Error as MpiError, FaultPlan, Universe};
use std::time::{Duration, Instant};

const SEEDS: u64 = 24;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// E1 (paper Fig. 1): rank r owns rows {r, r+4} of an 8x8 grid and needs
/// one 4x4 quadrant. Every ordered rank pair ships exactly one non-empty
/// fragment across the two rounds.
fn e1_layouts() -> Vec<Layout> {
    (0..4)
        .map(|r| Layout {
            owned: vec![Block::d2([0, r], [8, 1]).unwrap(), Block::d2([0, r + 4], [8, 1]).unwrap()],
            need: Block::d2([4 * (r % 2), 4 * (r / 2)], [4, 4]).unwrap(),
        })
        .collect()
}

/// Global value of element (x, y): makes bitwise checks self-describing.
fn cell(x: usize, y: usize) -> f32 {
    (y * 8 + x) as f32
}

fn expected_need(rank: usize) -> Vec<f32> {
    let need = &e1_layouts()[rank].need;
    let mut out = Vec::with_capacity(16);
    for ly in 0..4 {
        for lx in 0..4 {
            out.push(cell(need.offset[0] + lx, need.offset[1] + ly));
        }
    }
    out
}

type RankOutcome = (
    Result<(ddr_core::PartialCompletion, ddr_core::RedistStats), ddr_core::DdrError>,
    Vec<f32>,
    minimpi::IntegrityCounters,
);

/// One full redistribution under `plan`, salvage mode, checking armed.
/// Asserts the plan kept every message off the loan path.
fn run_soak(plan: FaultPlan) -> Vec<RankOutcome> {
    Universe::builder()
        .timeout(Duration::from_secs(30))
        .check(true)
        .zerocopy(true) // would loan even these tiny fragments
        .fault_plan(plan)
        .run(4, move |comm| {
            let r = comm.rank();
            let desc = Descriptor::for_type::<f32>(4, DataKind::D2).unwrap();
            let plan = compute_local_plan(r, &e1_layouts(), &desc).unwrap();
            let data: Vec<Vec<f32>> =
                [r, r + 4].iter().map(|&y| (0..8).map(|x| cell(x, y)).collect()).collect();
            let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
            let mut need = vec![-1.0f32; 16];
            let res = plan.reorganize_with_stats(comm, &refs, &mut need);
            // Counters are world-global but snapshotted per rank: fence so
            // no rank reads them while another is still mid-exchange.
            comm.barrier().unwrap();
            assert_eq!(comm.transport_counters().zerocopy_msgs, 0, "a fault plan stages");
            (res, need, comm.integrity_counters())
        })
}

/// Pick a deterministic ordered rank pair from the seed.
fn pick_pair(seed: u64) -> (usize, usize) {
    let src = (mix(seed) % 4) as usize;
    let dst = (src + 1 + (mix(seed ^ 0xD15E) % 3) as usize) % 4;
    (src, dst)
}

/// One corrupt delivery per seed. The victim's salvage report names the
/// corrupt source as an integrity loss — not a liveness one — the cells that
/// source owed keep their sentinel, and everything else is byte-identical.
/// Never a hang.
#[test]
fn corruption_chaos_soak_is_detected_and_classified() {
    for seed in 0..SEEDS {
        let (src, dst) = pick_pair(seed);
        let plan = FaultPlan::new(seed).corrupt_message(src, dst, None, 0);
        let start = Instant::now();
        let out = run_soak(plan);
        assert!(start.elapsed() < Duration::from_secs(20), "seed {seed}: detection must not hang");
        for (r, (res, need, counters)) in out.iter().enumerate() {
            let ctx = format!("seed {seed} rank {r}");
            let (report, stats) =
                res.as_ref().unwrap_or_else(|e| panic!("{ctx}: salvage must not hard-fail: {e:?}"));
            // Counters are world-global: every rank sees the one detection.
            assert_eq!(counters.detected, 1, "{ctx}: {counters:?}");
            if r != dst {
                assert!(report.is_complete(), "{ctx}: {report}");
                assert_eq!(need, &expected_need(r), "{ctx}: byte-identical output");
                continue;
            }
            assert_eq!(report.integrity_peers, vec![src], "{ctx}: {report}");
            assert_eq!(report.dead_peers, vec![src], "{ctx}: {report}");
            assert!(stats.integrity_recvs >= 1, "{ctx}: {stats:?}");
            assert!(report.missing_bytes() > 0, "{ctx}");
            let txt = report.to_string();
            assert!(txt.contains("failed integrity"), "{ctx}: {txt}");
            // Under a corrupt-capable plan a payload is verified before it
            // is unpacked, so no corrupt byte reaches the need buffer: the
            // lost region keeps its sentinel, every other cell is exact.
            let need_blk = &e1_layouts()[r].need;
            let expect = expected_need(r);
            for ly in 0..4 {
                let gy = need_blk.offset[1] + ly;
                let lost = gy == src || gy == src + 4; // row owned by the corrupt source
                for lx in 0..4 {
                    let i = ly * 4 + lx;
                    let want = if lost { -1.0 } else { expect[i] };
                    assert_eq!(need[i], want, "{ctx}: cell {i}");
                }
            }
        }
    }
}

/// The strict (non-salvage) API: the raw minimpi error is a
/// fully-coordinated [`minimpi::Error::IntegrityFailure`] when surfaced
/// through `alltoallw`'s abort path — driven here at the ddr-core level via
/// `reorganize`, whose contract wraps losses as `Incomplete`.
#[test]
fn strict_reorganize_reports_corruption_as_incomplete() {
    let (src, dst) = (0usize, 1usize);
    let fplan = FaultPlan::new(99).corrupt_message(src, dst, None, 0);
    let out = Universe::builder()
        .timeout(Duration::from_secs(30))
        .check(true)
        .fault_plan(fplan)
        .run(4, move |comm| {
            let r = comm.rank();
            let desc = Descriptor::for_type::<f32>(4, DataKind::D2).unwrap();
            let plan = compute_local_plan(r, &e1_layouts(), &desc).unwrap();
            let data: Vec<Vec<f32>> =
                [r, r + 4].iter().map(|&y| (0..8).map(|x| cell(x, y)).collect()).collect();
            let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
            let mut need = vec![-1.0f32; 16];
            plan.reorganize(comm, &refs, &mut need)
        });
    match &out[dst] {
        Err(ddr_core::DdrError::Incomplete(report)) => {
            assert_eq!(report.integrity_peers, vec![src], "{report}");
        }
        other => panic!("expected Incomplete with integrity classification, got {other:?}"),
    }
    for (r, res) in out.iter().enumerate() {
        if r != dst {
            assert!(res.is_ok(), "rank {r}: {res:?}");
        }
    }
}

/// One exchange carries three rounds, so rank 0's message to rank 1 has a
/// part from round 0 and one from round 2. Corrupted once, it is lost whole:
/// rank 1's salvage report names rank 0 as an integrity loss in exactly
/// those two rounds, every cell either part targets keeps its sentinel, and
/// every other cell — rank 1's self-copy, all of rank 0 — is exact.
#[test]
fn a_corrupt_coalesced_message_is_lost_whole_and_touches_nothing() {
    let d1 = |off, len| Block::d1(off, len).unwrap();
    let layouts = vec![
        Layout { owned: vec![d1(12, 3), d1(0, 4), d1(15, 6)], need: d1(0, 12) },
        Layout { owned: vec![d1(4, 4), d1(8, 4), d1(21, 3)], need: d1(12, 12) },
    ];
    let layouts = &layouts;
    let out = Universe::builder()
        .timeout(Duration::from_secs(30))
        .check(true)
        .fault_plan(FaultPlan::new(17).corrupt_message(0, 1, None, 0))
        .run(2, move |comm| {
            let r = comm.rank();
            let desc = Descriptor::for_type::<u32>(2, DataKind::D1).unwrap();
            let plan = compute_local_plan(r, layouts, &desc).unwrap();
            let data: Vec<Vec<u32>> = layouts[r]
                .owned
                .iter()
                .map(|b| (b.offset[0]..b.offset[0] + b.dims[0]).map(|x| x as u32).collect())
                .collect();
            let refs: Vec<&[u32]> = data.iter().map(|v| v.as_slice()).collect();
            let mut need = vec![u32::MAX; 12];
            let (report, stats) = plan.reorganize_with_stats(comm, &refs, &mut need).unwrap();
            (report, stats, need)
        });
    for (r, (report, stats, need)) in out.iter().enumerate() {
        assert_eq!((stats.rounds, stats.exchanges), (3, 1), "rank {r}");
        // Rank 1's cells 12..15 came in round 0's part, 15..21 in round 2's.
        let lost = |x: u32| r == 1 && (12..21).contains(&x);
        let want: Vec<u32> = (12 * r as u32..12 * r as u32 + 12)
            .map(|x| if lost(x) { u32::MAX } else { x })
            .collect();
        assert_eq!(need, &want, "rank {r}");
        if r == 0 {
            assert!(report.is_complete(), "rank 0: {report}");
            continue;
        }
        assert_eq!(report.integrity_peers, vec![0], "{report}");
        let failed: Vec<&[usize]> =
            report.rounds.iter().map(|round| round.failed_sources.as_slice()).collect();
        assert_eq!(
            failed,
            [&[0][..], &[][..], &[0][..]],
            "lost in rounds 0 and 2 only: {report:?}"
        );
    }
}

/// Checksum-off escape hatch at the ddr-core level: with `DDR_CHECKSUM=0`
/// semantics the corrupt bytes land in the need buffer silently — the
/// documented trade-off — and nothing is verified.
#[test]
fn checksum_off_redistribution_delivers_corrupt_data() {
    let out = Universe::builder()
        .timeout(Duration::from_secs(30))
        .checksum(false)
        .fault_plan(FaultPlan::new(5).corrupt_message(0, 1, None, 0))
        .run(4, move |comm| {
            let r = comm.rank();
            let desc = Descriptor::for_type::<f32>(4, DataKind::D2).unwrap();
            let plan = compute_local_plan(r, &e1_layouts(), &desc).unwrap();
            let data: Vec<Vec<f32>> =
                [r, r + 4].iter().map(|&y| (0..8).map(|x| cell(x, y)).collect()).collect();
            let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
            let mut need = vec![-1.0f32; 16];
            plan.reorganize(comm, &refs, &mut need).map(|()| (need, comm.integrity_counters()))
        });
    let (need, counters) = out[1].as_ref().unwrap();
    assert_ne!(need, &expected_need(1), "corruption must have landed undetected");
    assert_eq!(counters.checked, 0);
    // The other three ranks saw only clean fragments.
    for r in [0usize, 2, 3] {
        assert_eq!(out[r].as_ref().unwrap().0, expected_need(r), "rank {r}");
    }
}

/// Integrity losses must not masquerade as peer deaths anywhere in the
/// error surface: the corrupt receiver's peers stay alive and complete — no
/// rank observes a [`minimpi::Error::PeerDead`].
#[test]
fn integrity_loss_never_reports_peer_death() {
    let out = run_soak(FaultPlan::new(41).corrupt_message(2, 0, None, 0));
    for (r, (res, _, _)) in out.iter().enumerate() {
        let (report, _) = res.as_ref().unwrap();
        assert!(
            report.integrity_peers.len() == report.dead_peers.len(),
            "rank {r}: every loss must be an integrity loss, got {report:?}"
        );
    }
    // And the underlying minimpi error type is never PeerDead for this
    // fault plan (sanity via a direct strict run on the victim pair).
    let strict = Universe::builder()
        .timeout(Duration::from_secs(30))
        .fault_plan(FaultPlan::new(41).corrupt_message(0, 1, None, 0))
        .run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 8, &[1u8; 32])?;
                Ok(None)
            } else {
                Ok::<_, MpiError>(Some(comm.recv_bytes(0, 8).unwrap_err()))
            }
        });
    match strict[1].as_ref().unwrap() {
        Some(MpiError::IntegrityFailure { .. }) => {}
        other => panic!("expected IntegrityFailure, got {other:?}"),
    }
}
