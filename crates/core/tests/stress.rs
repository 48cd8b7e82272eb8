//! Stress and endurance tests: larger rank counts, repeated plan changes,
//! interleaved collectives, and failure-path behaviour under load.

use ddr_core::decompose::{brick, near_cubic_grid, slab};
use ddr_core::{Block, DataKind, DdrError, Descriptor, Plan, ValidationPolicy};
use minimpi::{Error as MpiError, FaultPlan, Universe, UniverseBuilder};
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
            let sum = comm.allreduce(&[r as u64], |a, b| a + b).unwrap()[0];
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
            comm.allreduce(&[comm.rank() as u64 + 1], |a, b| a + b).unwrap()[0]
        });
        assert!(sums.iter().all(|&s| s == (n * (n + 1) / 2) as u64));
    }
}

#[test]
fn seeded_fault_sweep_never_hangs() {
    // One injected kill per seed, scattered over the whole execution — from
    // the first setup collective to the last exchange round. Whatever the
    // failure point, every rank must resolve quickly with either clean
    // completion, a well-formed PartialCompletion, or a fail-fast runtime
    // error; a hang (watchdog burn) fails the elapsed-time assertion.
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

    let expected_bytes = 16 * 4 * 8; // one 16x4 column slab of u64
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
                // Structured partial delivery: accounting must add up.
                Err(DdrError::Incomplete(report)) => {
                    assert_eq!(report.rank, r, "seed {seed}");
                    assert!(!report.dead_peers.is_empty(), "seed {seed}");
                    assert!(report.missing_bytes() > 0, "seed {seed}");
                    assert_eq!(
                        report.delivered_bytes() + report.missing_bytes(),
                        expected_bytes,
                        "seed {seed} rank {r}: accounting must cover the plan"
                    );
                }
                // Fail-fast runtime faults: the casualty's own death, or a
                // peer death during a setup collective.
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

/// What a salvaged redistribution leaves in every cell it lost.
const LOST: u64 = 0;

/// The soaks' cell values: [`cell_value`] plus one, so no cell that
/// arrived reads [`LOST`].
fn value(c: [usize; 3]) -> u64 {
    cell_value(c) + 1
}

/// The two-round layout on `n` ranks: rank `r` owns two row slabs (two
/// rounds) and needs a column slab — so a fault injected anywhere in the
/// exchange lands either mid-round (with loans outstanding) or between the
/// rounds.
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

/// Run `plan` over the oracle's values of `owned`: the need buffer (lost
/// cells hold [`LOST`]) and the outcome of [`Plan::reorganize`].
fn run_two_round(
    c: &minimpi::Comm,
    plan: &Plan,
    owned: &[Block],
) -> (Vec<u64>, Result<(), DdrError>) {
    let data: Vec<Vec<u64>> = owned.iter().map(|b| b.coords().map(value).collect()).collect();
    let mut out = Vec::new();
    let res = plan.reorganize(c, &data, &mut out);
    (out, res)
}

/// One drop seed of a chaos soak: the seeded `(src, dest, occurrence)`
/// message is dropped under a 500 ms watchdog. Every rank ends in a
/// salvaged result whose cells are either lost or equal to the oracle — the
/// victim's loss naming `src` in `dead_peers` — or in a structured fallout
/// error, never a hang. Returns whether the drop hit real traffic.
fn drop_seed(seed: u64, n: usize, domain: Block, builder: UniverseBuilder) -> bool {
    let src = (seed as usize / 2) % n;
    let dest = (src + 1 + (seed as usize / 3) % (n - 1)) % n;
    let occurrence = (seed / 5) % 4;
    let plan = FaultPlan::new().drop_message(src, dest, None, occurrence);
    let out = builder.timeout(Duration::from_millis(500)).fault_plan(plan).run(n, move |comm| {
        let (owned, need, plan) = two_round_plan(comm, &domain)?;
        match run_two_round(comm, &plan, &owned) {
            (got, Ok(())) => Ok((need, got, None)),
            (got, Err(DdrError::Incomplete(report))) => Ok((need, got, Some(report))),
            (_, Err(e)) => Err(e),
        }
    });
    let mut hit = false;
    for (r, res) in out.iter().enumerate() {
        match res {
            Ok((need, got, report)) => {
                let lost = got.iter().filter(|&&v| v == LOST).count() as u64;
                let missing = report.as_ref().map_or(0, |p| p.missing_bytes());
                assert_eq!(8 * lost, missing, "seed {seed} rank {r}: {report:?}");
                for (v, co) in got.iter().zip(need.coords()) {
                    assert!(*v == LOST || *v == value(co), "seed {seed} rank {r}: {co:?}");
                }
                if let Some(report) = report {
                    assert!(r != dest || report.dead_peers.contains(&src), "seed {seed}: {report}");
                    hit = true;
                }
            }
            // The victim's timeout, or its fallout on peers: a dead peer.
            Err(DdrError::Mpi(MpiError::PeerDead { .. } | MpiError::Timeout { .. })) => hit = true,
            other => panic!("seed {seed} rank {r}: unexpected outcome {other:?}"),
        }
    }
    hit
}

/// Seeded kill soak over the two-round layout: each seed names a mailbox
/// bound (unbounded, or one message / 512 bytes per pair, so senders sit
/// behind nearly-closed pairs), a victim and an op of the victim's exchange.
/// Whatever the seed:
///
/// * every survivor fails fast naming the victim — `Incomplete` listing only
///   it, or `PeerDead` for it — or completes, and never waits out the
///   watchdog;
/// * every cell that arrived is exact, and the report accounts for the rest;
/// * a `recover_mapping` retry on the survivors delivers, byte for byte, the
///   serial oracle over what the survivors hold: the victim's cells stay
///   [`LOST`], every other cell is exact.
///
/// Kills are drawn from the exchange, not the setup collectives: there every
/// rank waits only on the ranks that feed it, so a death is seen by exactly
/// the ranks it starves.
#[test]
fn kill_soak_fails_fast_and_recovery_matches_the_serial_oracle() {
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

    let seeds = (2 * n as u64 * span).max(20);
    let mut hits = 0u64;
    for seed in 0..seeds {
        let backpressured = seed % 2 == 1;
        let victim = (seed as usize / 2) % n;
        let at_op = setup_ops[victim] + (seed / (2 * n as u64)) % span;
        let builder = if backpressured {
            Universe::builder().flow_control(1, 512)
        } else {
            Universe::builder()
        };
        let case = format!("seed {seed} (victim {victim} at op {at_op}, bounded {backpressured})");
        let start = Instant::now();
        let out = builder
            .timeout(Duration::from_secs(30))
            .fault_plan(FaultPlan::new().kill_rank_at_op(victim, at_op))
            .run(n, move |comm| {
                let (owned, need, plan) = two_round_plan(comm, &domain).unwrap();
                let first = run_two_round(comm, &plan, &owned);
                if !comm.is_alive(comm.rank()) {
                    return (first, None);
                }
                let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
                let (sub, retry) = desc.recover_mapping(comm, &owned, need).unwrap();
                let (got, res) = run_two_round(&sub, &retry, &owned);
                (first, Some((sub.size(), got, res)))
            });
        assert!(start.elapsed() < Duration::from_secs(10), "{case}: burned the watchdog");

        let survivors: Vec<Block> = (0..n)
            .filter(|&s| s != victim)
            .flat_map(|s| two_round_layout(&domain, n, s).0)
            .collect();
        let held = |co: [usize; 3]| survivors.iter().any(|b| b.linear_index(co).is_some());
        let mut hit = false;
        for (r, ((got, res), recovered)) in out.iter().enumerate() {
            if r == victim {
                assert!(res.is_err(), "{case}: the victim cannot complete");
                assert!(recovered.is_none(), "{case}: the victim must not recover");
                continue;
            }
            let need = two_round_layout(&domain, n, r).1;
            let lost = got.iter().filter(|&&v| v == LOST).count() as u64;
            match res {
                Ok(()) => assert_eq!(lost, 0, "{case} rank {r}"),
                Err(DdrError::Incomplete(report)) => {
                    assert_eq!(report.dead_peers, [victim], "{case} rank {r}");
                    assert_eq!(8 * lost, report.missing_bytes(), "{case} rank {r}: {report}");
                    hit = true;
                }
                Err(DdrError::Mpi(MpiError::PeerDead { rank })) if *rank == victim => hit = true,
                other => {
                    panic!("{case} rank {r}: expected a loss naming the victim, got {other:?}")
                }
            }
            for (v, co) in got.iter().zip(need.coords()) {
                assert!(*v == LOST || *v == value(co), "{case} rank {r}: {co:?}");
            }

            let (size, got, res) = recovered.as_ref().expect("a survivor recovers");
            assert_eq!((*size, res), (n - 1, &Ok(())), "{case} rank {r}");
            for (v, co) in got.iter().zip(need.coords()) {
                let want = if held(co) { value(co) } else { LOST };
                assert_eq!(*v, want, "{case} rank {r}: recovered cell {co:?}");
            }
        }
        hits += u64::from(hit);
    }
    // Most kills starve somebody; only a victim whose loans were all taken
    // before it died may leave every survivor complete.
    assert!(2 * hits >= seeds, "only {hits}/{seeds} kills were seen by a survivor");
}

/// Odd-seed drop soak (see [`drop_seed`]), unbounded and behind one-message
/// / 512-byte pairs: whether a drop hits an exchange payload or a setup
/// collective, the loss is structured and fast, and every cell that arrived
/// is exact — no hang and no leak.
#[test]
fn drop_soak_loses_structurally_and_never_hangs() {
    let n = 4usize;
    let domain = Block::d2([0, 0], [16, 16]).unwrap();
    for bounded in [false, true] {
        let mut hits = 0u32;
        for seed in (1..24u64).step_by(2) {
            let builder = if bounded {
                Universe::builder().flow_control(1, 512)
            } else {
                Universe::builder()
            };
            let start = Instant::now();
            hits += u32::from(drop_seed(seed, n, domain, builder));
            assert!(
                start.elapsed() < Duration::from_secs(15),
                "seed {seed} (bounded {bounded}): resolution must not burn the watchdog"
            );
        }
        // The drop arm must actually have hit real traffic on a decent share
        // of its seeds, not miss every time.
        assert!(hits >= 6, "bounded {bounded}: only {hits}/12 drop seeds hit real traffic");
    }
}
