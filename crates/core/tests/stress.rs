//! Stress and endurance tests: larger rank counts, repeated plan changes,
//! interleaved collectives, and failure-path behaviour under load.

use ddr_core::decompose::{brick, near_cubic_grid, slab};
use ddr_core::{Block, DataKind, DdrError, Descriptor, PartialCompletion, ValidationPolicy};
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
        let mut out = vec![0u64; need.count() as usize];
        for step in 0..25u64 {
            let data: Vec<u64> = owned[0].coords().map(|c| cell_value(c) ^ (step << 50)).collect();
            plan.reorganize(comm, &[&data], &mut out).unwrap();
        }
        // Spot-check the final step.
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
            let mut out = vec![0u32; need.count() as usize];
            plan.reorganize(comm, &[&data], &mut out).unwrap();
            for (got, c) in out.iter().zip(need.coords()) {
                assert_eq!(*got, (c[0] + c[1] * 31 + c[2] * 977 + round) as u32);
            }
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
        let mut out = vec![0u64; need.count() as usize];
        for step in 0..10u64 {
            // Unrelated chatter.
            let peer = (r + 1) % n;
            comm.send(peer, 7777, &[step]).unwrap();
            let sum = comm.allreduce(&[r as u64], |a, b| a + b)[0];
            assert_eq!(sum, (n * (n - 1) / 2) as u64);

            let data: Vec<u64> = owned[0].coords().map(|c| cell_value(c) + step).collect();
            plan.reorganize(comm, &[&data], &mut out).unwrap();

            let from = (r + n - 1) % n;
            assert_eq!(comm.recv_vec::<u64>(from, 7777).unwrap(), vec![step]);
            comm.barrier().unwrap();
            for (got, c) in out.iter().zip(need.coords()) {
                assert_eq!(*got, cell_value(c) + step);
            }
        }
    });
}

#[test]
fn repeated_universes_do_not_leak() {
    // Spin up and tear down many small worlds — thread and mailbox lifetime
    // management under churn.
    for i in 0..60 {
        let n = 1 + i % 4;
        let sums =
            Universe::run(n, |comm| comm.allreduce(&[comm.rank() as u64 + 1], |a, b| a + b)[0]);
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
        let mut out = vec![0u64; need.count() as usize];
        plan.reorganize(comm, &[&data], &mut out)?;
        for (got, c) in out.iter().zip(need.coords()) {
            assert_eq!(*got, cell_value(c));
        }
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
        let mut out = vec![0u64; need.count() as usize];
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
        let mut out = vec![0u64; need.count() as usize];
        plan.reorganize(comm, &refs, &mut out).unwrap();
        for (got, c) in out.iter().zip(need.coords()) {
            assert_eq!(*got, cell_value(c));
        }
    });
}

// ---------------------------------------------------------------------------
// Elastic membership chaos soak: kill → respawn → redistribute.
// ---------------------------------------------------------------------------

/// One epoch-1 redistribution step on `c` (size-n slab rows → column slabs),
/// with data regenerated from the deterministic generator — the paper's
/// dynamic-data model, where a step's field is recomputable. Every rank,
/// replacement included, checks its bytes in place; the assembled buffer is
/// returned for cross-run comparison.
fn epoch1_step(c: &minimpi::Comm, domain: &Block) -> Vec<u64> {
    let n = c.size();
    let r = c.rank();
    let owned = vec![slab(domain, 1, n, r).unwrap()];
    let need = slab(domain, 0, n, r).unwrap();
    let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
    let (plan, _stats) = desc.remap_with(c, &owned, need, ValidationPolicy::Strict).unwrap();
    let data: Vec<u64> = owned[0].coords().map(|co| cell_value(co) ^ 0x5EED).collect();
    let mut out = vec![0u64; need.count() as usize];
    plan.reorganize(c, &[&data], &mut out).unwrap();
    for (got, co) in out.iter().zip(need.coords()) {
        assert_eq!(*got, cell_value(co) ^ 0x5EED, "rank {r} epoch {}", c.epoch());
    }
    out
}

#[test]
fn chaos_soak_respawn_restores_byte_identical_redistribution() {
    // ≥20 seeded single-kill fault plans. Each run: a rank dies somewhere in
    // the step-0 redistribution, survivors reconfigure (respawning the
    // casualty), and the epoch-1 step must be byte-identical to the same
    // step in a run that never faulted.
    let n = 4usize;
    let domain = Block::d2([0, 0], [16, 16]).unwrap();
    let scenario = move |comm: &minimpi::Comm| -> Result<(), DdrError> {
        let r = comm.rank();
        let owned = vec![slab(&domain, 1, n, r).unwrap()];
        let need = slab(&domain, 0, n, r).unwrap();
        let desc = Descriptor::for_type::<u64>(n, DataKind::D2)?;
        let plan = desc.setup_data_mapping(comm, &owned, need)?;
        let data: Vec<u64> = owned[0].coords().map(cell_value).collect();
        let mut out = vec![0u64; need.count() as usize];
        plan.reorganize(comm, &[&data], &mut out)?;
        Ok(())
    };

    // Unfaulted reference: the epoch-1 step's exact bytes per rank (the
    // reference universe reconfigures with nobody dead, so the epochs match).
    let reference = Universe::builder().timeout(Duration::from_secs(30)).run(n, move |comm| {
        scenario(comm).unwrap();
        let c = comm.reconfigure().unwrap();
        epoch1_step(&c, &domain)
    });

    // Probe the clean op-count space so seeded kills land mid-execution.
    // The bound is the MINIMUM over ranks: a kill op below every rank's
    // clean count is guaranteed to fire during step 0, whoever the victim
    // is, so the recovery path runs on every seed.
    let max_op = Universe::run(n, move |comm| {
        scenario(comm).unwrap();
        comm.op_count()
    })
    .into_iter()
    .min()
    .unwrap();

    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(seed, n, max_op);
        let start = Instant::now();
        let out = Universe::builder().timeout(Duration::from_secs(30)).fault_plan(plan).run(
            n,
            move |comm| {
                let rec = if comm.epoch() == 0 {
                    // Step 0 under fire: any error is acceptable, hanging is
                    // not. Short watchdog so survivors stuck behind the
                    // casualty cascade out quickly.
                    comm.set_timeout(Duration::from_millis(800));
                    let _ = scenario(comm);
                    if !comm.is_alive(comm.rank()) {
                        return None; // the casualty's original thread
                    }
                    comm.set_timeout(Duration::from_secs(30));
                    match comm.reconfigure() {
                        Ok(c) => Some(c),
                        // Declared dead by the agreement (the kill raced the
                        // is_alive probe): exit, the replacement carries on.
                        Err(_) => return None,
                    }
                } else {
                    None // respawned replacement: already in epoch 1
                };
                let c = rec.as_ref().unwrap_or(comm);
                assert_eq!(c.epoch(), 1, "seed-kill recovery must land in epoch 1");
                assert_eq!(c.size(), n, "respawn must restore full membership");
                Some(epoch1_step(c, &domain))
            },
        );
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "seed {seed}: recovery must not burn the watchdog"
        );
        let finished = out.iter().filter(|o| o.is_some()).count();
        assert!(finished >= n - 1, "seed {seed}: at most one original thread may die");
        for (r, res) in out.iter().enumerate() {
            if let Some(bytes) = res {
                assert_eq!(
                    bytes, &reference[r],
                    "seed {seed} rank {r}: post-recovery step differs from unfaulted run"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-round chaos soak: faults landing anywhere in a two-round exchange.
// ---------------------------------------------------------------------------

/// Sentinel a salvaged redistribution leaves in every cell it lost.
const LOST: u64 = u64::MAX;

/// One two-round redistribution: each rank owns two column slabs (two
/// rounds) and needs a row slab — so a fault injected anywhere in the
/// exchange lands either mid-round (under zero-copy, with loans
/// outstanding) or between the rounds. Returns the need block, the output
/// (lost cells hold [`LOST`]) and the salvage report.
fn two_round_salvage(
    c: &minimpi::Comm,
    domain: &Block,
) -> Result<(Block, Vec<u64>, PartialCompletion), DdrError> {
    let n = c.size();
    let r = c.rank();
    let owned = vec![slab(domain, 1, 2 * n, r).unwrap(), slab(domain, 1, 2 * n, r + n).unwrap()];
    let need = slab(domain, 0, n, r).unwrap();
    let desc = Descriptor::for_type::<u64>(n, DataKind::D2)?;
    let plan = desc.setup_data_mapping_with(c, &owned, need, ValidationPolicy::Strict)?;
    assert_eq!(plan.num_rounds(), 2, "the soak needs a genuinely multi-round plan");
    let data: Vec<Vec<u64>> = owned.iter().map(|b| b.coords().map(cell_value).collect()).collect();
    let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
    let mut out = vec![LOST; need.count() as usize];
    let (report, _) = plan.reorganize_with_stats(c, &refs, &mut out)?;
    Ok((need, out, report))
}

/// [`two_round_salvage`] that must deliver every cell exactly.
fn two_round_step(c: &minimpi::Comm, domain: &Block) -> Result<Vec<u64>, DdrError> {
    let (need, out, report) = two_round_salvage(c, domain)?;
    if !report.is_complete() {
        return Err(DdrError::Incomplete(Box::new(report)));
    }
    for (got, co) in out.iter().zip(need.coords()) {
        assert_eq!(*got, cell_value(co), "rank {} epoch {}", c.rank(), c.epoch());
    }
    Ok(out)
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
    let out = builder
        .timeout(Duration::from_millis(500))
        .fault_plan(plan)
        .run(n, move |comm| two_round_salvage(comm, &domain));
    let mut hit = false;
    for (r, res) in out.iter().enumerate() {
        match res {
            Ok((need, got, report)) => {
                let lost = got.iter().filter(|&&v| v == LOST).count() as u64;
                assert_eq!(8 * lost, report.missing_bytes(), "seed {seed} rank {r}: {report}");
                for (v, co) in got.iter().zip(need.coords()) {
                    assert!(*v == LOST || *v == cell_value(co), "seed {seed} rank {r}: {co:?}");
                }
                if r == dest && !report.is_complete() {
                    assert!(report.dead_peers.contains(&src), "seed {seed}: {report}");
                }
                hit |= !report.is_complete();
            }
            // The victim's timeout, or its fallout on peers: a dead peer.
            Err(DdrError::Mpi(MpiError::PeerDead { .. } | MpiError::Timeout { .. })) => hit = true,
            other => panic!("seed {seed} rank {r}: unexpected outcome {other:?}"),
        }
    }
    hit
}

/// 24-seed multi-round chaos soak. Even seeds kill a rank at a seeded op
/// count somewhere in the two-round exchange; survivors must fail fast (the
/// round under fire is aborted, its loans drained), reconfigure into epoch 1
/// with the casualty respawned, and redistribute byte-identically to an
/// unfaulted reference. Odd seeds drop an in-flight message (see
/// [`drop_seed`]): whether it hits an exchange payload or a setup
/// collective, the loss is structured and fast, and every cell that arrived
/// is exact — no hang and no leak.
#[test]
fn multiround_chaos_soak_recovers_from_kills_and_drops() {
    let n = 4usize;
    let domain = Block::d2([0, 0], [16, 16]).unwrap();

    // Unfaulted reference for the post-recovery epoch-1 bytes.
    let reference = Universe::builder().timeout(Duration::from_secs(30)).run(n, move |comm| {
        two_round_step(comm, &domain).unwrap();
        let c = comm.reconfigure().unwrap();
        two_round_step(&c, &domain).unwrap()
    });

    // Kill-op bound: the minimum clean op count over ranks, so every even
    // seed's kill fires during step 0 whoever the victim is.
    let max_op = Universe::run(n, move |comm| {
        two_round_step(comm, &domain).unwrap();
        comm.op_count()
    })
    .into_iter()
    .min()
    .unwrap();

    let mut hits = 0u32;
    for seed in 0..24u64 {
        let start = Instant::now();
        if seed % 2 == 0 {
            // Kill arm: mirror the respawn soak, but with a two-round
            // exchange under fire and zero-copy loans outstanding.
            let plan = FaultPlan::seeded(seed, n, max_op);
            let out = Universe::builder().timeout(Duration::from_secs(30)).fault_plan(plan).run(
                n,
                move |comm| {
                    let rec = if comm.epoch() == 0 {
                        comm.set_timeout(Duration::from_millis(800));
                        let _ = two_round_step(comm, &domain);
                        if !comm.is_alive(comm.rank()) {
                            return None;
                        }
                        comm.set_timeout(Duration::from_secs(30));
                        match comm.reconfigure() {
                            Ok(c) => Some(c),
                            Err(_) => return None,
                        }
                    } else {
                        None // respawned replacement, already in epoch 1
                    };
                    let c = rec.as_ref().unwrap_or(comm);
                    assert_eq!(c.epoch(), 1, "seed {seed}: recovery must land in epoch 1");
                    assert_eq!(c.size(), n, "seed {seed}: respawn must restore membership");
                    Some(two_round_step(c, &domain).unwrap())
                },
            );
            let finished = out.iter().filter(|o| o.is_some()).count();
            assert!(finished >= n - 1, "seed {seed}: at most one original thread may die");
            for (r, res) in out.iter().enumerate() {
                if let Some(bytes) = res {
                    assert_eq!(
                        bytes, &reference[r],
                        "seed {seed} rank {r}: post-recovery bytes differ from unfaulted run"
                    );
                }
            }
        } else {
            hits += u32::from(drop_seed(seed, n, domain, Universe::builder()));
        }
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "seed {seed}: resolution must not burn the watchdog"
        );
    }
    // The drop arm must actually have hit real traffic on a decent share
    // of its seeds, not miss every time.
    assert!(hits >= 6, "only {hits}/12 drop seeds hit real traffic");
}

// ---------------------------------------------------------------------------
// Backpressure chaos soak: faults under 1-message / 512-byte mailbox bounds.
// ---------------------------------------------------------------------------

/// 24-seed chaos soak with the mailbox bound at its meanest setting: one
/// message and 512 bytes per pair, so every deposit of the run flows through
/// a nearly-closed queue. Even seeds kill a rank mid-exchange (zero-copy on,
/// so loan revocation interleaves with the recovery); odd seeds drop an
/// in-flight message behind the same nearly-closed pairs (see
/// [`drop_seed`]). Whatever the fault, every cell a rank holds at the end is
/// exact, and a lost message ends in a structured loss, not a hang.
#[test]
fn backpressure_chaos_soak_stays_byte_identical() {
    let n = 4usize;
    let domain = Block::d2([0, 0], [16, 16]).unwrap();

    // Unconstrained, unfaulted reference for the epoch-1 bytes.
    let reference = Universe::builder().timeout(Duration::from_secs(30)).run(n, move |comm| {
        two_round_step(comm, &domain).unwrap();
        let c = comm.reconfigure().unwrap();
        two_round_step(&c, &domain).unwrap()
    });

    // Kill-op bound probed under the SAME flow constraints (backpressure
    // changes op interleavings, not op counts — but probe like-for-like).
    let max_op = Universe::builder()
        .flow_control(1, 512)
        .run(n, move |comm| {
            two_round_step(comm, &domain).unwrap();
            comm.op_count()
        })
        .into_iter()
        .min()
        .unwrap();

    let mut hits = 0u32;
    for seed in 0..24u64 {
        let start = Instant::now();
        if seed % 2 == 0 {
            // Kill arm: a seeded casualty while every sender sits behind a
            // 1-message pair; parked senders must unpark into PeerDead,
            // reconfigure's sweep must reset every pair exactly,
            // and the respawned epoch must redistribute bit-for-bit.
            let plan = FaultPlan::seeded(seed, n, max_op);
            let out = Universe::builder()
                .flow_control(1, 512)
                .timeout(Duration::from_secs(30))
                .fault_plan(plan)
                .run(n, move |comm| {
                    let rec = if comm.epoch() == 0 {
                        comm.set_timeout(Duration::from_millis(800));
                        let _ = two_round_step(comm, &domain);
                        if !comm.is_alive(comm.rank()) {
                            return None;
                        }
                        comm.set_timeout(Duration::from_secs(30));
                        match comm.reconfigure() {
                            Ok(c) => Some(c),
                            Err(_) => return None,
                        }
                    } else {
                        None // respawned replacement, already in epoch 1
                    };
                    let c = rec.as_ref().unwrap_or(comm);
                    assert_eq!(c.epoch(), 1, "seed {seed}: recovery must land in epoch 1");
                    Some(two_round_step(c, &domain).unwrap())
                });
            let finished = out.iter().filter(|o| o.is_some()).count();
            assert!(finished >= n - 1, "seed {seed}: at most one original thread may die");
            for (r, res) in out.iter().enumerate() {
                if let Some(bytes) = res {
                    assert_eq!(
                        bytes, &reference[r],
                        "seed {seed} rank {r}: constrained recovery bytes differ"
                    );
                }
            }
        } else {
            let builder = Universe::builder().flow_control(1, 512);
            hits += u32::from(drop_seed(seed, n, domain, builder));
        }
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "seed {seed}: backpressured resolution must not burn the watchdog"
        );
    }
    // The drop arm must genuinely have hit traffic through the constrained
    // windows on a decent share of seeds.
    assert!(hits >= 6, "only {hits}/12 drop seeds hit real traffic");
}

/// End-to-end elasticity on zero-copy loans: a rank disappears mid-redistribution (after the
/// mapping, before its exchange — so its peers' loans must be revoked, not
/// stranded), survivors reconfigure, the replacement joins epoch 1, and
/// the next redistribution is byte-identical to the unfaulted reference.
#[test]
fn elastic_e2e_on_zerocopy_loans() {
    let n = 4usize;
    let domain = Block::d2([0, 0], [16, 16]).unwrap();
    let reference = Universe::builder().timeout(Duration::from_secs(30)).run(n, move |comm| {
        let c = comm.reconfigure().unwrap();
        epoch1_step(&c, &domain)
    });

    let out = Universe::builder().timeout(Duration::from_secs(30)).run(n, move |comm| {
        let rec = if comm.epoch() == 0 {
            let r = comm.rank();
            let owned = vec![slab(&domain, 1, n, r).unwrap()];
            let need = slab(&domain, 0, n, r).unwrap();
            let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
            let plan = desc.setup_data_mapping(comm, &owned, need).unwrap();
            if r == 2 {
                return None; // dies between mapping and exchange
            }
            comm.set_timeout(Duration::from_millis(800));
            let data: Vec<u64> = owned[0].coords().map(cell_value).collect();
            let mut buf = vec![0u64; need.count() as usize];
            let res = plan.reorganize(comm, &[&data], &mut buf);
            assert!(res.is_err(), "losing a producer mid-exchange must surface");
            comm.set_timeout(Duration::from_secs(30));
            Some(comm.reconfigure().unwrap())
        } else {
            None // replacement
        };
        let c = rec.as_ref().unwrap_or(comm);
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.recovery_counters().respawns, 1);
        Some(epoch1_step(c, &domain))
    });
    assert_eq!(out[2], None);
    for r in [0, 1, 3] {
        assert_eq!(
            out[r].as_ref().unwrap(),
            &reference[r],
            "rank {r}: bytes must match unfaulted run"
        );
    }
}
