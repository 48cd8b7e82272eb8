//! Fault-recovery integration tests: kill a producer mid-`reorganize`,
//! observe a structured [`PartialCompletion`] on the survivors, shrink and
//! remap, and verify the retried redistribution is bitwise correct for the
//! surviving data.

use ddr_core::{
    compute_local_plan, Block, DataKind, DdrError, Descriptor, Layout, PartialCompletion,
};
use minimpi::{Comm, FaultPlan, Universe};
use std::time::{Duration, Instant};

/// E1 (paper Fig. 1): rank r owns rows {r, r+4} of an 8x8 grid, needs one
/// 4x4 quadrant.
fn e1_owned(rank: usize) -> [Block; 2] {
    [Block::d2([0, rank], [8, 1]).unwrap(), Block::d2([0, rank + 4], [8, 1]).unwrap()]
}

fn e1_need(rank: usize) -> Block {
    Block::d2([4 * (rank % 2), 4 * (rank / 2)], [4, 4]).unwrap()
}

/// Global value of element (x, y): makes bitwise checks self-describing.
fn cell(x: usize, y: usize) -> f32 {
    (y * 8 + x) as f32
}

fn row_data(y: usize) -> Vec<f32> {
    (0..8).map(|x| cell(x, y)).collect()
}

/// Find how many communication ops a rank performs during setup so a kill
/// can be placed mid-`reorganize` (after the mapping is built, before the
/// exchange drains). Deterministic: op counts don't vary across runs.
fn ops_after_setup(victim: usize) -> u64 {
    let counts = Universe::run(4, |comm| {
        let desc = Descriptor::for_type::<f32>(4, DataKind::D2).unwrap();
        let _plan =
            desc.setup_data_mapping(comm, &e1_owned(comm.rank()), e1_need(comm.rank())).unwrap();
        comm.op_count()
    });
    counts[victim]
}

/// One full run: setup, reorganize under the given fault plan, and on
/// failure shrink-and-remap + retry. Returns per-rank
/// `(reorganize outcome, recovered need buffer if recovery ran)`.
type RankOutcome = (Result<(), DdrError>, Option<(usize, Vec<f32>)>);

fn run_kill_and_recover(plan: FaultPlan, victim: usize) -> Vec<RankOutcome> {
    Universe::builder().timeout(Duration::from_secs(30)).fault_plan(plan).run(4, move |comm| {
        let r = comm.rank();
        let desc = Descriptor::for_type::<f32>(4, DataKind::D2).unwrap();
        let owned = e1_owned(r);
        let plan = desc.setup_data_mapping(comm, &owned, e1_need(r)).unwrap();

        let data_own = [row_data(r), row_data(r + 4)];
        let refs: Vec<&[f32]> = data_own.iter().map(|v| v.as_slice()).collect();
        let mut need = vec![-1.0f32; 16];
        let first = plan.reorganize(comm, &refs, &mut need);
        if first.is_ok() {
            return (first, None);
        }
        if r == victim {
            // The casualty exits; it must not participate in recovery.
            return (first, None);
        }
        // Shrink-and-remap: survivors keep their own chunks and needs.
        let (sub, plan2) = desc.recover_mapping(comm, &owned, e1_need(r)).unwrap();
        let mut need2 = vec![-1.0f32; 16];
        plan2.reorganize_with_stats(&sub, &refs, &mut need2).unwrap();
        (first, Some((sub.size(), need2)))
    })
}

#[test]
fn killed_producer_yields_partial_completion_and_recovery_is_bitwise_correct() {
    let victim = 1;
    // The victim's op index right after setup is its first op *inside*
    // reorganize: it dies before shipping anything, so every survivor's
    // quadrant is missing the victim's contribution.
    let kill_at = ops_after_setup(victim);
    let start = Instant::now();
    let out = run_kill_and_recover(FaultPlan::new(7).kill_rank_at_op(victim, kill_at), victim);
    // No hang: everything resolves in a fraction of the 30 s watchdog.
    assert!(start.elapsed() < Duration::from_secs(15));

    // The victim itself fails (killed mid-exchange).
    assert!(out[victim].0.is_err(), "victim should not complete");

    for (r, (first, recovered)) in out.iter().enumerate() {
        if r == victim {
            continue;
        }
        // Survivors get a structured Incomplete report naming the victim.
        let report = match first {
            Err(DdrError::Incomplete(report)) => report,
            other => panic!("rank {r}: expected Incomplete, got {other:?}"),
        };
        assert_eq!(report.rank, r);
        assert_eq!(report.dead_peers, vec![victim]);
        assert!(report.missing_bytes() > 0);
        // Accounting is plan-exact: delivered + missing = the plan's full
        // expectation (16 elements * 4 bytes, local copy included).
        assert_eq!(report.delivered_bytes() + report.missing_bytes(), 64);

        // Recovery ran over the 3 survivors and is bitwise correct for all
        // elements not owned by the dead rank (its rows y=1 and y=5 are
        // gone; those stay at the -1 sentinel).
        let (sub_size, need2) = recovered.as_ref().expect("survivor must recover");
        assert_eq!(*sub_size, 3);
        let need_blk = e1_need(r);
        for ly in 0..4 {
            for lx in 0..4 {
                let (gx, gy) = (need_blk.offset[0] + lx, need_blk.offset[1] + ly);
                let got = need2[ly * 4 + lx];
                if gy == victim || gy == victim + 4 {
                    assert_eq!(got, -1.0, "rank {r}: lost cell ({gx},{gy}) must stay unfilled");
                } else {
                    assert_eq!(got, cell(gx, gy), "rank {r}: cell ({gx},{gy})");
                }
            }
        }
    }
}

#[test]
fn same_fault_plan_yields_identical_failure_point_and_report() {
    let victim = 2;
    let kill_at = ops_after_setup(victim);
    let plan = FaultPlan::new(11).kill_rank_at_op(victim, kill_at);

    let reports = |out: Vec<RankOutcome>| -> Vec<Option<PartialCompletion>> {
        out.into_iter()
            .map(|(first, _)| match first {
                Err(DdrError::Incomplete(b)) => Some(*b),
                _ => None,
            })
            .collect()
    };
    let a = reports(run_kill_and_recover(plan.clone(), victim));
    let b = reports(run_kill_and_recover(plan, victim));
    assert_eq!(a, b, "same seed must reproduce the same per-round report");
    // And the reports are non-trivial (survivors actually lost something).
    assert!(a.iter().enumerate().all(|(r, rep)| rep.is_some() || r == victim));
}

#[test]
fn dropped_message_surfaces_as_timeout_in_report_without_hanging() {
    // In E1, the only rank-0 → rank-3 message of the whole program is the
    // round-1 alltoallw payload (row 4's right half): setup's allgather is
    // gather-to-0 + binomial broadcast, neither of which sends 0→3
    // directly. Drop it; rank 3 must time out on peer 0 only, report it,
    // and everything else must complete.
    let out = Universe::builder()
        .timeout(Duration::from_millis(300))
        .fault_plan(FaultPlan::new(3).drop_message(0, 3, None, 0))
        .run(4, |comm| {
            let r = comm.rank();
            let desc = Descriptor::for_type::<f32>(4, DataKind::D2).unwrap();
            let plan = desc.setup_data_mapping(comm, &e1_owned(r), e1_need(r)).unwrap();
            let data_own = [row_data(r), row_data(r + 4)];
            let refs: Vec<&[f32]> = data_own.iter().map(|v| v.as_slice()).collect();
            let mut need = vec![0f32; 16];
            plan.reorganize(comm, &refs, &mut need)
        });
    assert!(out[0].is_ok() && out[1].is_ok() && out[2].is_ok());
    match &out[3] {
        Err(DdrError::Incomplete(report)) => {
            assert_eq!(report.dead_peers, vec![0]);
            assert_eq!(report.rounds[0].missing_bytes, 0);
            assert_eq!(report.rounds[1].failed_sources, vec![0]);
            assert_eq!(report.rounds[1].missing_bytes, 16); // 4 floats
        }
        other => panic!("rank 3: expected Incomplete, got {other:?}"),
    }
}

/// Two ranks, three rounds of small 1-D chunks that one exchange carries.
/// Rank 0 sends rank 1 a part in rounds 0 and 2 only: its round-1 chunk is
/// its own.
fn coalesced_layouts() -> Vec<Layout> {
    let d1 = |off, len| Block::d1(off, len).unwrap();
    vec![
        Layout { owned: vec![d1(12, 3), d1(0, 4), d1(15, 6)], need: d1(0, 12) },
        Layout { owned: vec![d1(4, 4), d1(8, 4), d1(21, 3)], need: d1(12, 12) },
    ]
}

#[test]
fn dropped_coalesced_message_fails_every_round_that_received_from_the_peer() {
    // `compute_local_plan` sends no setup traffic, so rank 0's one message
    // to rank 1 is the exchange's, carrying rounds 0 and 2.
    let layouts = coalesced_layouts();
    let layouts = &layouts;
    let out = Universe::builder()
        .timeout(Duration::from_millis(300))
        .fault_plan(FaultPlan::new(5).drop_message(0, 1, None, 0))
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
    let (report, stats, need) = &out[0];
    assert!(report.is_complete(), "{report}");
    assert_eq!(need, &(0..12).collect::<Vec<u32>>());
    assert_eq!((stats.rounds, stats.exchanges), (3, 1));

    let (report, stats, need) = &out[1];
    assert_eq!((stats.rounds, stats.exchanges), (3, 1));
    assert_eq!(report.dead_peers, vec![0]);
    let failed: Vec<&[usize]> = report.rounds.iter().map(|r| &r.failed_sources[..]).collect();
    assert_eq!(failed, [&[0][..], &[], &[0]], "every round that received from 0, and only those");
    let missing: Vec<u64> = report.rounds.iter().map(|r| r.missing_bytes).collect();
    assert_eq!(missing, [12, 0, 24]);
    // Plan-exact accounting: rank 1's own round-2 chunk still landed.
    assert_eq!(report.delivered_bytes(), 12);
    assert_eq!(report.delivered_bytes() + report.missing_bytes(), 12 * 4);
    assert_eq!((stats.failed_recvs, stats.lost_bytes), (2, 36));
    assert_eq!(stats.local_bytes, 12);
    let mut want = vec![u32::MAX; 9];
    want.extend(21..24);
    assert_eq!(need, &want);
}

#[test]
fn recover_mapping_from_clean_state_is_identity_shrink() {
    // With nobody dead, recover_mapping degenerates to a same-size remap.
    let out = Universe::run(4, |comm: &Comm| {
        let desc = Descriptor::for_type::<f32>(4, DataKind::D2).unwrap();
        let (sub, plan) =
            desc.recover_mapping(comm, &e1_owned(comm.rank()), e1_need(comm.rank())).unwrap();
        (sub.size(), plan.num_rounds())
    });
    assert_eq!(out, vec![(4, 2); 4]);
}

// ---------------------------------------------------------------------------
// Elastic remap: epoch-fenced shrink AND grow via Comm::reconfigure.
// ---------------------------------------------------------------------------

/// Shrink without respawn: survivors keep the slabs they already hold, so
/// the remap is delta-minimal — zero bytes cross the network, everything is
/// retained, and RemapStats says so before any data moves.
#[test]
fn remap_shrink_unchanged_ranks_move_zero_bytes() {
    let domain = Block::d1(0, 32).unwrap();
    let out =
        Universe::builder().respawn(false).timeout(Duration::from_secs(30)).run(4, move |comm| {
            let r = comm.rank();
            if r == 3 {
                return None; // departs; survivors shrink into epoch 1
            }
            let rec = comm.reconfigure().unwrap();
            let desc = Descriptor::for_type::<u32>(4, DataKind::D1).unwrap();
            let owned = [ddr_core::decompose::slab(&domain, 0, 4, r).unwrap()];
            let (plan, stats) = desc.remap(&rec, &owned, owned[0]).unwrap();
            assert!(stats.is_stationary(), "rank {r}: unchanged rank must move zero bytes");
            assert_eq!(stats.moved_bytes, 0);
            assert_eq!(stats.retained_bytes, owned[0].count() * 4);
            assert_eq!(plan.total_sent_bytes(), 0);
            assert_eq!(plan.total_recv_bytes(), 0);
            Some((rec.size(), rec.epoch()))
        });
    assert_eq!(out, vec![Some((3, 1)), Some((3, 1)), Some((3, 1)), None]);
}

/// Grow with respawn: a consumer dies before the initial scatter; the
/// reconfigured (full-size) communicator remaps with the replacement
/// declaring nothing owned. The root's quarter never moves (delta-minimal),
/// every other rank — including the replacement — receives exactly its
/// quarter, and the executed redistribution is bitwise correct.
#[test]
fn remap_grow_feeds_respawned_rank_and_is_delta_minimal() {
    let domain = Block::d1(0, 32).unwrap();
    let out = Universe::builder().timeout(Duration::from_secs(30)).run(4, move |comm| {
        let rec = if comm.epoch() == 0 {
            if comm.rank() == 1 {
                return None; // dies holding nothing: only the rank is lost
            }
            Some(comm.reconfigure().unwrap())
        } else {
            None // the replacement enters already inside epoch 1
        };
        let c = rec.as_ref().unwrap_or(comm);
        let r = c.rank();
        let desc = Descriptor::for_type::<u32>(4, DataKind::D1).unwrap();
        let owned: Vec<Block> = if r == 0 { vec![domain] } else { vec![] };
        let need = ddr_core::decompose::slab(&domain, 0, 4, r).unwrap();
        let (plan, stats) = desc.remap(c, &owned, need).unwrap();
        let quarter_bytes = need.count() * 4;
        if r == 0 {
            assert!(stats.is_stationary(), "root's own quarter is already resident");
            assert_eq!(stats.retained_bytes, quarter_bytes);
        } else {
            assert_eq!(stats.moved_bytes, quarter_bytes);
            assert_eq!(stats.retained_bytes, 0);
        }
        let data: Vec<u32> = (0..32).collect();
        let refs: Vec<&[u32]> = if r == 0 { vec![&data] } else { vec![] };
        let mut got = vec![u32::MAX; 8];
        plan.reorganize(c, &refs, &mut got).unwrap();
        let want: Vec<u32> = (r as u32 * 8..r as u32 * 8 + 8).collect();
        assert_eq!(got, want, "rank {r} (epoch {})", c.epoch());
        // Allgather proves all four ranks — replacement included — executed
        // the same plan on the same communicator.
        let sizes = c.allgather(&[got.len() as u64]).unwrap();
        assert_eq!(sizes, vec![vec![8u64]; 4]);
        Some(c.recovery_counters())
    });
    assert_eq!(out[1], None);
    for r in [0, 2, 3] {
        let counters = out[r].expect("survivor must finish");
        assert_eq!(counters.epoch, 1);
        assert_eq!(counters.respawns, 1);
    }
}
