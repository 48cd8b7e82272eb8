//! Propagation of every [`minimpi::Error`] variant into ddr-core's
//! [`DdrError`] domain, including through `reorganize`.

use ddr_core::{compute_local_plan, Block, DataKind, DdrError, Descriptor, Layout};
use minimpi::{Error as MpiError, FaultPlan, Universe};
use std::time::{Duration, Instant};

fn all_mpi_variants() -> Vec<MpiError> {
    vec![
        MpiError::RankOutOfRange { rank: 9, size: 4 },
        MpiError::Timeout { rank: 1, src: 2, tag: 77, comm_id: 0 },
        MpiError::PeerDead { rank: 3 },
        MpiError::SizeMismatch { expected: 16, got: 12 },
        MpiError::DatatypeMismatch { detail: "d".into() },
        MpiError::CollectiveMismatch { detail: "c".into() },
    ]
}

#[test]
fn every_mpi_variant_converts_and_displays_through_ddr_error() {
    for e in all_mpi_variants() {
        let ddr: DdrError = e.clone().into();
        assert_eq!(ddr, DdrError::Mpi(e.clone()));
        // Display wraps the runtime message verbatim…
        assert_eq!(ddr.to_string(), format!("mpi error: {e}"));
        // …and the source chain exposes the original error.
        let src = std::error::Error::source(&ddr).expect("Mpi variant has a source");
        assert_eq!(src.to_string(), e.to_string());
    }
}

/// 2-rank row swap: rank r owns row r of a 2x2 grid, needs row 1-r.
fn swap_scenario(comm: &minimpi::Comm) -> (Descriptor, [Block; 1], Block) {
    let r = comm.rank();
    let desc = Descriptor::for_type::<f32>(2, DataKind::D2).unwrap();
    let owned = [Block::d2([0, r], [2, 1]).unwrap()];
    let need = Block::d2([0, 1 - r], [2, 1]).unwrap();
    (desc, owned, need)
}

#[test]
fn self_death_mid_reorganize_propagates_peer_dead_on_both_ranks() {
    // Probe the op count at the end of setup, then kill rank 1 exactly
    // there: its first op *inside* reorganize.
    let at = Universe::run(2, |comm| {
        let (desc, owned, need) = swap_scenario(comm);
        desc.setup_data_mapping(comm, &owned, need).unwrap();
        comm.op_count()
    })[1];

    let out = Universe::builder()
        .timeout(Duration::from_secs(20))
        .fault_plan(FaultPlan::new().kill_rank_at_op(1, at))
        .run(2, |comm| {
            let (desc, owned, need) = swap_scenario(comm);
            let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
            let data = [comm.rank() as f32, 10.0];
            let mut got = Vec::new();
            plan.reorganize(comm, &[&data], &mut got).map(|()| got)
        });

    // The casualty sees its own death, and the survivor, starved of the
    // casualty's row, fails naming it: the same runtime error on both.
    for got in &out {
        assert_eq!(got, &Err(DdrError::Mpi(MpiError::PeerDead { rank: 1 })));
    }
}

#[test]
fn death_during_setup_propagates_peer_dead_from_setup_collectives() {
    // Kill rank 0 at its very first op — inside setup's allgather — so the
    // surviving rank's setup itself fails with a propagated PeerDead.
    let out = Universe::builder()
        .timeout(Duration::from_secs(20))
        .fault_plan(FaultPlan::new().kill_rank_at_op(0, 0))
        .run(2, |comm| {
            let (desc, owned, need) = swap_scenario(comm);
            desc.setup_data_mapping(comm, &owned, need).err()
        });
    assert_eq!(out[0], Some(DdrError::Mpi(MpiError::PeerDead { rank: 0 })));
    assert_eq!(out[1], Some(DdrError::Mpi(MpiError::PeerDead { rank: 0 })));
}

/// A plan run by the wrong rank of a right-sized communicator names both
/// ranks, not a process count. Each rank runs its peer's plan, so both
/// return the error before any message and nobody waits on the watchdog.
#[test]
fn plan_run_on_the_wrong_rank_names_both_ranks() {
    let d1 = |offset, len| Block::d1(offset, len).unwrap();
    let layouts = [
        Layout { owned: vec![d1(0, 4)], need: d1(4, 4) },
        Layout { owned: vec![d1(4, 4)], need: d1(0, 4) },
    ];
    let desc = Descriptor::for_type::<u32>(2, DataKind::D1).unwrap();
    let start = Instant::now();
    let out = Universe::builder().timeout(Duration::from_secs(30)).run(2, |comm| {
        let plan = compute_local_plan(1 - comm.rank(), &layouts, &desc).unwrap();
        plan.reorganize(comm, &[[0u32; 4]], &mut Vec::new())
    });
    assert!(start.elapsed() < Duration::from_secs(10), "a rank waited out the watchdog");
    for (rank, got) in out.into_iter().enumerate() {
        let want = DdrError::RankMismatch { plan: 1 - rank, actual: rank };
        assert_eq!(
            want.to_string(),
            format!("rank mismatch: plan was built for rank {}, called on rank {rank}", 1 - rank)
        );
        assert_eq!(got, Err(want), "rank {rank}");
    }
}
