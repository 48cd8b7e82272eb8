//! Faults and resizing. A rank that dies or a message that is lost mid-
//! `reorganize` fails fast: the ranks it starves return an error naming it,
//! with their need buffers empty, and every other rank completes exactly.
//! There is no recovery protocol: a resize is a fresh mapping.

use ddr_core::{
    compute_local_plan, Block, DataKind, DdrError, Descriptor, Layout, ValidationPolicy,
};
use minimpi::{Error as MpiError, FaultPlan, Universe};
use std::sync::Barrier;
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

/// One E1 run under `faults`: per rank, what `reorganize` returned and the
/// need buffer it left.
fn run_e1(faults: FaultPlan) -> Vec<(Result<(), DdrError>, Vec<f32>)> {
    Universe::builder().timeout(Duration::from_secs(30)).fault_plan(faults).run(4, |comm| {
        let r = comm.rank();
        let desc = Descriptor::for_type::<f32>(4, DataKind::D2).unwrap();
        let plan = desc.setup_data_mapping(comm, &e1_owned(r), e1_need(r)).unwrap();
        let data = [row_data(r), row_data(r + 4)];
        let mut need = vec![f32::NAN; 3];
        let res = plan.reorganize(comm, &data, &mut need);
        (res, need)
    })
}

/// The victim dies at its first op inside `reorganize`, before shipping
/// anything. It owns a row of every quadrant, so every survivor fails
/// naming it, as the victim's own call does, with its need buffer empty —
/// and the same fault plan gives the same outcome on every run.
#[test]
fn killed_producer_fails_every_survivor_naming_it_with_need_empty() {
    let victim = 1;
    let faults = FaultPlan::new().kill_rank_at_op(victim, ops_after_setup(victim));
    let start = Instant::now();
    let out = run_e1(faults.clone());
    // No hang: everything resolves in a fraction of the 30 s watchdog.
    assert!(start.elapsed() < Duration::from_secs(10));
    for (r, (res, need)) in out.iter().enumerate() {
        assert_eq!(res, &Err(DdrError::Mpi(MpiError::PeerDead { rank: victim })), "rank {r}");
        assert!(need.is_empty(), "rank {r}: an error leaves need empty");
    }
    assert_eq!(run_e1(faults), out, "same fault plan, same outcome");
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

/// `compute_local_plan` sends no setup traffic, so rank 0's one message to
/// rank 1 is the exchange's, carrying rounds 0 and 2. Dropped, rank 1 times
/// out on rank 0 with its need empty, and rank 0 — whose receive came from
/// rank 1 up front — completes exactly: nobody waits on another's watchdog.
/// Both ranks stay alive until both have returned, so rank 1's wait ends in
/// the watchdog, not in rank 0's exit.
#[test]
fn dropped_coalesced_message_times_out_its_receiver_naming_the_source() {
    let layouts = coalesced_layouts();
    let both_returned = Barrier::new(2);
    let out = Universe::builder()
        .timeout(Duration::from_millis(300))
        .fault_plan(FaultPlan::new().drop_message(0, 1, None, 0))
        .run(2, |comm| {
            let r = comm.rank();
            let data: Vec<Vec<u32>> = layouts[r]
                .owned
                .iter()
                .map(|b| (b.offset[0]..b.offset[0] + b.dims[0]).map(|x| x as u32).collect())
                .collect();
            let mut need = Vec::new();
            // A set-up error is carried past the barrier, so it fails the
            // test instead of leaving the peer on the barrier.
            let res = Descriptor::for_type::<u32>(2, DataKind::D1)
                .and_then(|desc| compute_local_plan(r, &layouts, &desc))
                .and_then(|plan| plan.reorganize(comm, &data, &mut need));
            both_returned.wait();
            (res, need)
        });
    assert_eq!(out[0], (Ok(()), (0..12).collect::<Vec<u32>>()));
    let (res, need) = &out[1];
    assert!(
        matches!(res, Err(DdrError::Mpi(MpiError::Timeout { rank: 1, src: 0, .. }))),
        "{res:?}"
    );
    assert!(need.is_empty());
}

// ---------------------------------------------------------------------------
// Resizing as a fresh mapping: grow and shrink without a recovery protocol.
// ---------------------------------------------------------------------------

/// Shrink: the leaving rank declares no need through `setup_multi_mapping`
/// (it joins with a send-only plan), and the staying ranks keep the slabs
/// they already hold, so the mapping is delta-minimal — zero bytes cross the
/// network, everything is a local copy, and the plan says so before any data
/// moves.
#[test]
fn fewer_ranks_mapping_keeps_unchanged_ranks_at_zero_moved_bytes() {
    let domain = Block::d1(0, 32).unwrap();
    let out = Universe::builder().timeout(Duration::from_secs(30)).run(4, move |comm| {
        let r = comm.rank();
        let owned = [ddr_core::decompose::slab(&domain, 0, 4, r).unwrap()];
        let needs: &[Block] = if r == 3 { &[] } else { &owned };
        let desc = Descriptor::for_type::<u32>(4, DataKind::D1).unwrap();
        let plan = desc.setup_multi_mapping(comm, &owned, needs, ValidationPolicy::Strict).unwrap();
        assert_eq!(plan.total_sent_bytes(), 0);
        // The leaving rank needs nothing, so it is handed no plan.
        let Some(plan) = plan.plans().first() else { return (0, 0) };
        assert_eq!(plan.total_recv_bytes(), 0, "rank {r}: unchanged rank moves zero bytes");
        assert_eq!(plan.total_local_bytes(), owned[0].count() * 4);
        (plan.total_recv_bytes(), plan.total_local_bytes())
    });
    assert_eq!(out, vec![(0, 32), (0, 32), (0, 32), (0, 0)]);
}

/// Grow: one rank holds the whole domain and the joining ranks own `&[]` on
/// the world communicator. The holder's quarter never moves (delta-minimal),
/// every other rank receives exactly its quarter, and the executed
/// redistribution is bitwise correct.
#[test]
fn grow_mapping_feeds_joining_ranks_and_is_delta_minimal() {
    let domain = Block::d1(0, 32).unwrap();
    Universe::builder().timeout(Duration::from_secs(30)).run(4, move |comm| {
        let r = comm.rank();
        let desc = Descriptor::for_type::<u32>(4, DataKind::D1).unwrap();
        let owned: Vec<Block> = if r == 0 { vec![domain] } else { vec![] };
        let need = ddr_core::decompose::slab(&domain, 0, 4, r).unwrap();
        let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
        let quarter_bytes = need.count() * 4;
        if r == 0 {
            assert_eq!(plan.total_recv_bytes(), 0, "the holder's own quarter is resident");
            assert_eq!(plan.total_local_bytes(), quarter_bytes);
        } else {
            assert_eq!(plan.total_recv_bytes(), quarter_bytes);
            assert_eq!(plan.total_local_bytes(), 0);
        }
        let data: Vec<u32> = (0..32).collect();
        let refs: Vec<&[u32]> = if r == 0 { vec![&data] } else { vec![] };
        let mut got = Vec::new();
        plan.reorganize(comm, &refs, &mut got).unwrap();
        let want: Vec<u32> = (r as u32 * 8..r as u32 * 8 + 8).collect();
        assert_eq!(got, want, "rank {r}");
    });
}
