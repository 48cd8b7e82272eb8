//! Stress and endurance tests: larger rank counts, repeated plan changes,
//! interleaved collectives, and failure-path behaviour under load.

use ddr_core::decompose::{brick, near_cubic_grid, slab};
use ddr_core::{Block, DataKind, DdrError, Descriptor, Plan, ValidationPolicy};
use minimpi::{Error as MpiError, FaultPlan, Universe};
use std::time::{Duration, Instant};

fn cell_value(c: [usize; 3]) -> u64 {
    (c[0] as u64) | ((c[1] as u64) << 20) | ((c[2] as u64) << 40)
}

#[test]
fn sixteen_ranks_many_timesteps() {
    // 16 ranks, 48x48x48 domain, 25 time steps of slab->brick staging.
    let n = 16;
    let domain = Block::d3([0, 0, 0], [48, 48, 48]).unwrap();
    let counts = near_cubic_grid(n);
    Universe::run(n, |comm| {
        let r = comm.rank();
        let owned = vec![slab(&domain, 2, n, r).unwrap()];
        let need = brick(&domain, counts, r).unwrap();
        let desc = Descriptor::for_type::<u64>(n, DataKind::D3).unwrap();
        let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
        let mut out = Vec::new();
        for step in 0..25u64 {
            let data: Vec<u64> = owned[0].coords().map(|c| cell_value(c) ^ (step << 50)).collect();
            plan.reorganize(comm, &[&data], &mut out).unwrap();
        }
        // Spot-check the final step.
        assert_eq!(out.len() as u64, need.count());
        let first = need.coords().next().unwrap();
        assert_eq!(out[0], cell_value(first) ^ (24u64 << 50));
    });
}

#[test]
fn alternating_mappings_on_one_communicator() {
    // Rebuild the mapping 20 times with alternating consumer layouts; plan
    // setup and execution must not leak state between configurations.
    let n = 6;
    let domain = Block::d3([0, 0, 0], [24, 24, 24]).unwrap();
    Universe::run(n, |comm| {
        let r = comm.rank();
        let owned = vec![slab(&domain, 2, n, r).unwrap()];
        let desc = Descriptor::for_type::<u32>(n, DataKind::D3).unwrap();
        for round in 0..20 {
            let need = if round % 2 == 0 {
                brick(&domain, [3, 2, 1], r).unwrap()
            } else {
                slab(&domain, 2, n, (r + round) % n).unwrap()
            };
            let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
            let data: Vec<u32> =
                owned[0].coords().map(|c| (c[0] + c[1] * 31 + c[2] * 977 + round) as u32).collect();
            let mut out = Vec::new();
            plan.reorganize(comm, &[&data], &mut out).unwrap();
            let want: Vec<u32> =
                need.coords().map(|c| (c[0] + c[1] * 31 + c[2] * 977 + round) as u32).collect();
            assert_eq!(out, want);
        }
    });
}

#[test]
fn reorganize_interleaved_with_unrelated_collectives() {
    // User collectives and p2p traffic between reorganize calls must never
    // interfere with the redistribution's internal messages.
    let n = 5;
    let domain = Block::d2([0, 0], [40, 25]).unwrap();
    Universe::run(n, |comm| {
        let r = comm.rank();
        let owned = vec![slab(&domain, 1, n, r).unwrap()];
        let need = slab(&domain, 0, n, r).unwrap(); // columns
        let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
        let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
        let mut out = Vec::new();
        for step in 0..10u64 {
            // Unrelated chatter.
            let peer = (r + 1) % n;
            comm.send(peer, 7777, &[step]).unwrap();
            let sum: u64 = comm.allgather(&[r as u64]).unwrap().iter().map(|p| p[0]).sum();
            assert_eq!(sum, (n * (n - 1) / 2) as u64);

            let data: Vec<u64> = owned[0].coords().map(|c| cell_value(c) + step).collect();
            plan.reorganize(comm, &[&data], &mut out).unwrap();

            let from = (r + n - 1) % n;
            assert_eq!(comm.recv_vec::<u64>(from, 7777).unwrap(), vec![step]);
            comm.barrier().unwrap();
            assert_eq!(out, need.coords().map(|c| cell_value(c) + step).collect::<Vec<_>>());
        }
    });
}

#[test]
fn repeated_universes_do_not_leak() {
    // Spin up and tear down many small worlds — thread and mailbox lifetime
    // management under churn.
    for i in 0..60 {
        let n = 1 + i % 4;
        let sums = Universe::run(n, |comm| {
            comm.allgather(&[comm.rank() as u64 + 1]).unwrap().iter().map(|p| p[0]).sum::<u64>()
        });
        assert!(sums.iter().all(|&s| s == (n * (n + 1) / 2) as u64));
    }
}

#[test]
fn seeded_fault_sweep_never_hangs() {
    // One injected kill per seed, scattered over the whole execution — from
    // the first setup collective to the last exchange round. Whatever the
    // failure point, every rank must resolve quickly with either clean
    // completion or a fail-fast runtime error; a hang (watchdog burn) fails
    // the elapsed-time assertion.
    let n = 4usize;
    let domain = Block::d2([0, 0], [16, 16]).unwrap();
    let scenario = move |comm: &minimpi::Comm| -> Result<(), DdrError> {
        let r = comm.rank();
        let owned = vec![slab(&domain, 1, n, r).unwrap()];
        let need = slab(&domain, 0, n, r).unwrap(); // rows -> columns
        let desc = Descriptor::for_type::<u64>(n, DataKind::D2)?;
        let plan = desc.setup_data_mapping(comm, &owned, need)?;
        let data: Vec<u64> = owned[0].coords().map(cell_value).collect();
        let mut out = Vec::new();
        plan.reorganize(comm, &[&data], &mut out)?;
        assert_eq!(out, need.coords().map(cell_value).collect::<Vec<_>>());
        Ok(())
    };

    // A clean probe run bounds the op-count space kills are drawn from.
    let max_op = Universe::run(n, |comm| {
        scenario(comm).unwrap();
        comm.op_count()
    })
    .into_iter()
    .max()
    .unwrap();
    assert!(max_op > 0);

    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(seed, n, max_op);
        let start = Instant::now();
        let out =
            Universe::builder().timeout(Duration::from_secs(20)).fault_plan(plan).run(n, scenario);
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "seed {seed}: resolution must not burn the watchdog"
        );
        for (r, res) in out.iter().enumerate() {
            match res {
                // Kill landed past this run's ops, or missed this rank's
                // dependencies entirely.
                Ok(()) => {}
                // Fail-fast runtime faults: the casualty's own death, or a
                // peer death during setup or the exchange.
                Err(DdrError::Mpi(MpiError::PeerDead { .. }))
                | Err(DdrError::Mpi(MpiError::Timeout { .. })) => {}
                other => panic!("seed {seed} rank {r}: unexpected outcome {other:?}"),
            }
        }
    }
}

#[test]
fn big_single_transfer() {
    // One 32 MB transfer through reorganize (exercises large payloads
    // through mailbox buffering and subarray pack).
    let n = 2;
    let domain = Block::d2([0, 0], [2048, 2048]).unwrap();
    Universe::run(n, |comm| {
        let r = comm.rank();
        let owned = vec![slab(&domain, 1, n, r).unwrap()];
        let need = slab(&domain, 1, n, 1 - r).unwrap(); // full swap
        let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
        let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
        let data: Vec<u64> = owned[0].coords().map(cell_value).collect();
        let mut out = Vec::new();
        plan.reorganize(comm, &[&data], &mut out).unwrap();
        assert_eq!(out.len(), 2048 * 1024);
        let last = need.coords().last().unwrap();
        assert_eq!(*out.last().unwrap(), cell_value(last));
    });
}

#[test]
fn ragged_three_round_layout_under_stress() {
    // 12 ranks, ragged chunk counts, multiple rounds.
    let n = 12;
    let domain = Block::d3([0, 0, 0], [24, 24, 36]).unwrap();
    Universe::run(n, |comm| {
        let r = comm.rank();
        // Rank r owns r%3+1 interleaved z-sub-slabs of its portion.
        let (z0, zlen) = ddr_core::decompose::split_axis(36, n, r);
        let pieces = (r % 3) + 1;
        let owned: Vec<Block> = (0..pieces)
            .map(|p| {
                let (o, l) = ddr_core::decompose::split_axis(zlen, pieces, p);
                Block::d3([0, 0, z0 + o], [24, 24, l]).unwrap()
            })
            .collect();
        let need = brick(&domain, [3, 2, 2], r).unwrap();
        let desc = Descriptor::for_type::<u64>(n, DataKind::D3).unwrap();
        let plan =
            desc.setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Strict).unwrap();
        assert_eq!(plan.num_rounds(), 3); // max pieces
        let data: Vec<Vec<u64>> =
            owned.iter().map(|b| b.coords().map(cell_value).collect()).collect();
        let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
        let mut out = Vec::new();
        plan.reorganize(comm, &refs, &mut out).unwrap();
        assert_eq!(out, need.coords().map(cell_value).collect::<Vec<_>>());
    });
}

// ---------------------------------------------------------------------------
// Fail-fast soaks: kills and drops landing anywhere in a two-round exchange.
// ---------------------------------------------------------------------------

/// The two-round layout on `n` ranks: rank `r` owns two row slabs (two
/// rounds) and needs a column slab — so a fault injected anywhere in the
/// exchange lands with loans outstanding from either round.
fn two_round_layout(domain: &Block, n: usize, r: usize) -> (Vec<Block>, Block) {
    let owned = vec![slab(domain, 1, 2 * n, r).unwrap(), slab(domain, 1, 2 * n, r + n).unwrap()];
    (owned, slab(domain, 0, n, r).unwrap())
}

/// [`two_round_layout`]'s mapping on `c`, checked to be genuinely
/// multi-round.
fn two_round_plan(
    c: &minimpi::Comm,
    domain: &Block,
) -> Result<(Vec<Block>, Block, Plan), DdrError> {
    let (owned, need) = two_round_layout(domain, c.size(), c.rank());
    let desc = Descriptor::for_type::<u64>(c.size(), DataKind::D2)?;
    let plan = desc.setup_data_mapping_with(c, &owned, need, ValidationPolicy::Strict)?;
    assert_eq!(plan.num_rounds(), 2, "the soak needs a genuinely multi-round plan");
    Ok((owned, need, plan))
}

/// Run `plan` over the oracle's values of `owned`: the need buffer and the
/// outcome of [`Plan::reorganize`].
fn run_two_round(
    c: &minimpi::Comm,
    plan: &Plan,
    owned: &[Block],
) -> (Vec<u64>, Result<(), DdrError>) {
    let data: Vec<Vec<u64>> = owned.iter().map(|b| b.coords().map(cell_value).collect()).collect();
    let mut out = Vec::new();
    let res = plan.reorganize(c, &data, &mut out);
    (out, res)
}

/// One drop seed of a chaos soak: the seeded `(src, dest, occurrence)`
/// message is dropped under a 500 ms watchdog. Every rank either completes
/// equal to the oracle or fails with a structured runtime error and an
/// empty need, never a hang. Returns whether the drop hit real traffic.
fn drop_seed(seed: u64, n: usize, domain: Block) -> bool {
    let src = (seed as usize / 2) % n;
    let dest = (src + 1 + (seed as usize / 3) % (n - 1)) % n;
    let occurrence = (seed / 5) % 4;
    let plan = FaultPlan::new().drop_message(src, dest, None, occurrence);
    let builder = Universe::builder().timeout(Duration::from_millis(500)).fault_plan(plan);
    let out = builder.run(n, move |comm| {
        let (owned, need, plan) = two_round_plan(comm, &domain)?;
        let (got, res) = run_two_round(comm, &plan, &owned);
        Ok((need, got, res))
    });
    // The receiver's timeout, or its fallout on peers: a dead peer.
    let structured = |e: &DdrError| {
        matches!(e, DdrError::Mpi(MpiError::PeerDead { .. } | MpiError::Timeout { .. }))
    };
    let mut hit = false;
    for (r, res) in out.iter().enumerate() {
        match res {
            Ok((need, got, Ok(()))) => {
                assert_eq!(got, &need.coords().map(cell_value).collect::<Vec<_>>(), "seed {seed}")
            }
            Ok((_, got, Err(e))) if structured(e) => {
                assert!(got.is_empty(), "seed {seed} rank {r}: an error leaves need empty");
                hit = true
            }
            // A drop in the setup collectives fails the setup.
            Err(e) if structured(e) => hit = true,
            other => panic!("seed {seed} rank {r}: unexpected outcome {other:?}"),
        }
    }
    hit
}

/// Seeded kill soak over the two-round layout: each seed names a victim and
/// an op of the victim's exchange. Whatever the seed, every survivor fails
/// fast naming the victim — `PeerDead` for it, or a `Timeout` waiting on
/// it — with its need empty, or completes equal to the serial oracle; and
/// no run comes near the watchdog.
///
/// Kills are drawn from the exchange, not the setup collectives: there every
/// rank waits only on the ranks that feed it, so a death is seen by exactly
/// the ranks it starves.
#[test]
fn kill_soak_fails_every_survivor_fast_naming_the_victim() {
    let n = 4usize;
    let domain = Block::d2([0, 0], [16, 16]).unwrap();
    let op_counts = |full: bool| {
        Universe::run(n, move |comm| {
            let (owned, _, plan) = two_round_plan(comm, &domain).unwrap();
            if full {
                assert_eq!(run_two_round(comm, &plan, &owned).1, Ok(()));
            }
            comm.op_count()
        })
    };
    let (setup_ops, total_ops) = (op_counts(false), op_counts(true));
    let span = (0..n).map(|r| total_ops[r] - setup_ops[r]).min().unwrap();
    assert!(span >= 2, "the exchange has {span} ops");

    let seeds = (n as u64 * span).max(10);
    let mut hits = 0u64;
    for seed in 0..seeds {
        let victim = seed as usize % n;
        let at_op = setup_ops[victim] + (seed / n as u64) % span;
        let case = format!("seed {seed} (victim {victim} at op {at_op})");
        let start = Instant::now();
        let out = Universe::builder()
            .timeout(Duration::from_secs(30))
            .fault_plan(FaultPlan::new().kill_rank_at_op(victim, at_op))
            .run(n, move |comm| {
                let (owned, _, plan) = two_round_plan(comm, &domain).unwrap();
                run_two_round(comm, &plan, &owned)
            });
        assert!(start.elapsed() < Duration::from_secs(10), "{case}: burned the watchdog");

        let mut hit = false;
        for (r, (got, res)) in out.iter().enumerate() {
            if r == victim {
                assert!(res.is_err(), "{case}: the victim cannot complete");
                continue;
            }
            match res {
                Ok(()) => {
                    let need = two_round_layout(&domain, n, r).1;
                    assert_eq!(got, &need.coords().map(cell_value).collect::<Vec<_>>(), "{case}")
                }
                Err(DdrError::Mpi(
                    MpiError::PeerDead { rank: named } | MpiError::Timeout { src: named, .. },
                )) if *named == victim => {
                    assert!(got.is_empty(), "{case} rank {r}: an error leaves need empty");
                    hit = true
                }
                other => {
                    panic!("{case} rank {r}: expected an error naming the victim, got {other:?}")
                }
            }
        }
        hits += u64::from(hit);
    }
    // Most kills starve somebody; only a victim whose loans were all taken
    // before it died may leave every survivor complete.
    assert!(2 * hits >= seeds, "only {hits}/{seeds} kills were seen by a survivor");
}

/// Odd-seed drop soak (see [`drop_seed`]): whether a drop hits an exchange
/// payload or a setup collective, the loss is structured and fast, and every
/// rank that completes is exact — no hang and no leak.
#[test]
fn drop_soak_loses_structurally_and_never_hangs() {
    let n = 4usize;
    let domain = Block::d2([0, 0], [16, 16]).unwrap();
    let mut hits = 0u32;
    for seed in (1..24u64).step_by(2) {
        let start = Instant::now();
        hits += u32::from(drop_seed(seed, n, domain));
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "seed {seed}: resolution must not burn the watchdog"
        );
    }
    // The drop arm must actually have hit real traffic on a decent share of
    // its seeds, not miss every time.
    assert!(hits >= 6, "only {hits}/12 drop seeds hit real traffic");
}
