//! Schedule exploration end-to-end: the explorer must *find* a planted
//! concurrency bug (a head-of-line credit deadlock) with a replayable seed,
//! and must run clean workloads across the whole seed budget without false
//! positives.
//!
//! The failing-seed assertions re-run the closure with the reported seed and
//! require the violation to reproduce — the property that makes the
//! `DDR_SCHED_SEED=<seed>` replay line in the report trustworthy.

use ddrcheck::explore::{default_seed_budget, explore, render_explore_report};
use minimpi::{Datatype, Error, Universe};
use std::time::Duration;

/// One run's outcome for the explorer: clean, or the message of the error
/// `try_run` reports — the cause, not a peer's `PeerDead` fallout from it.
fn verdict(out: minimpi::Result<Vec<()>>) -> Result<(), String> {
    out.map(|_| ()).map_err(|e| e.to_string())
}

/// The full redistribution path — zero-copy loans, checking, signatures on
/// every fragment — must survive the whole seed sweep without a false
/// deadlock, divergence or type mismatch. 4 ranks, all-pairs exchange.
#[test]
fn alltoallw_under_check_is_clean_across_schedules() {
    let report = explore(default_seed_budget(), |seed| {
        let n = 4usize;
        let len = 512usize;
        let out = Universe::builder()
            .check(true)
            .sched_seed(seed)
            .timeout(Duration::from_secs(20))
            .try_run(n, move |comm| {
                let me = comm.rank();
                let send: Vec<u8> = (0..n * len).map(|i| (me as u8) ^ (i as u8)).collect();
                let mut recv = vec![0u8; n * len];
                let seg = |r: usize| Datatype::Contiguous { len_bytes: len, offset: r * len };
                let send_types: Vec<Datatype> = (0..n).map(seg).collect();
                let recv_types: Vec<Datatype> = (0..n).map(seg).collect();
                let mut mine = send.clone();
                comm.alltoallw(&send, &send_types, &mut recv, &recv_types)?;
                // Self-segment must round-trip; peers' segments must carry
                // their rank stamp.
                mine.clear();
                for (r, chunk) in recv.chunks(len).enumerate() {
                    for (i, b) in chunk.iter().enumerate() {
                        let expect = (r as u8) ^ ((r * len + i) as u8);
                        if *b != expect {
                            return Err(Error::Internal {
                                detail: format!("rank {me}: bad byte from rank {r} at {i}"),
                            });
                        }
                    }
                }
                Ok::<_, Error>(())
            });
        verdict(out)
    });
    assert!(report.passed(), "{}", render_explore_report("alltoallw", &report));
    assert_eq!(report.seeds_run, default_seed_budget());
}

/// The full redistribution path end to end: a genuinely multi-round plan
/// (3 chunks per rank → 3 back-to-back `alltoallw` rounds) with zero-copy
/// loans and collective fingerprints live. Every explored schedule must
/// deliver exact bytes and run clean.
#[test]
fn multiround_reorganize_under_check_is_clean_across_schedules() {
    use ddr_core::{decompose, Block, DataKind, Descriptor, ValidationPolicy};
    fn cell_value(c: [usize; 3]) -> u64 {
        (c[0] as u64) | ((c[1] as u64) << 20) | ((c[2] as u64) << 40)
    }
    let report = explore(default_seed_budget(), |seed| {
        let n = 3usize;
        let out = Universe::builder()
            .check(true)
            .sched_seed(seed)
            .timeout(Duration::from_secs(20))
            .run(n, move |comm| {
                let r = comm.rank();
                let domain = Block::d2([0, 0], [12, 12]).unwrap();
                // Rank r owns column slabs r, r+3, r+6 of nine; needs a row
                // slab — every round has cross-rank traffic.
                let owned: Vec<Block> =
                    (0..3).map(|k| decompose::slab(&domain, 1, 9, r + 3 * k).unwrap()).collect();
                let need = decompose::slab(&domain, 0, n, r).unwrap();
                let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
                let plan = desc
                    .setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Strict)
                    .map_err(|e| e.to_string())?;
                let data: Vec<Vec<u64>> =
                    owned.iter().map(|b| b.coords().map(cell_value).collect()).collect();
                let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
                let mut got = vec![u64::MAX; need.count() as usize];
                plan.reorganize(comm, &refs, &mut got).map_err(|e| e.to_string())?;
                let want: Vec<u64> = need.coords().map(cell_value).collect();
                if got != want {
                    return Err(format!("rank {r}: bytes diverge on seed {seed}"));
                }
                Ok(())
            });
        out.into_iter().collect::<Result<Vec<_>, _>>().map(|_| ())
    });
    assert!(report.passed(), "{}", render_explore_report("multi-round reorganize", &report));
    assert_eq!(report.seeds_run, default_seed_budget());
}

/// The credit handshake under schedule perturbation: a ring of sends
/// through 1-message windows, each deposit parking and resuming through the
/// gate's sched point, must deliver exact bytes on every explored schedule
/// with the checker armed — no false deadlock convictions and no watchdog
/// false positives from credit-parked senders, whatever order the scheduler
/// wakes them in.
#[test]
fn credit_handshake_is_clean_across_schedules() {
    let report = explore(default_seed_budget(), |seed| {
        let n = 3usize;
        let out = Universe::builder()
            .check(true)
            .flow_control(1, 256)
            .sched_seed(seed)
            .timeout(Duration::from_secs(10))
            .try_run(n, move |comm| {
                let me = comm.rank();
                let next = (me + 1) % n;
                let prev = (me + n - 1) % n;
                // send/recv interleaved: each recv hands the upstream peer
                // its credit back, so the ring always has a granter — but
                // the second send of every iteration races the downstream
                // drain and parks on losing schedules.
                for i in 0..4u8 {
                    comm.send_bytes(next, 5, &[(me as u8) ^ i; 96])?;
                    let m = comm.recv_bytes(prev, 5)?;
                    if m != vec![(prev as u8) ^ i; 96] {
                        return Err(Error::Internal {
                            detail: format!("rank {me}: bad credit-gated delivery {i}"),
                        });
                    }
                }
                Ok::<_, Error>(())
            });
        verdict(out)
    });
    assert!(report.passed(), "{}", render_explore_report("credit handshake", &report));
    assert_eq!(report.seeds_run, default_seed_budget());
}

/// A planted flow-control protocol bug: both ranks post two sends into
/// 1-message windows before either receives, so both park on the credit
/// gate with nobody left to grant credits. The sweep must convict this as a
/// *structured* failure — a credit-wait timeout or a deadlock report, never
/// a hang — and the reported seed must replay it.
#[test]
fn explorer_convicts_head_of_line_credit_deadlock() {
    let run = |seed: u64| {
        let out = Universe::builder()
            .check(true)
            .flow_control(1, 1 << 20)
            .sched_seed(seed)
            .timeout(Duration::from_millis(300))
            .try_run(2, move |comm| {
                let other = 1 - comm.rank();
                comm.send_bytes(other, 3, &[1u8; 32])?;
                // Bug under test: this send needs a credit only the peer's
                // recv can grant, and the peer is parked the same way.
                comm.send_bytes(other, 3, &[2u8; 32])?;
                comm.recv_bytes(other, 3)?;
                comm.recv_bytes(other, 3)?;
                Ok::<_, Error>(())
            });
        verdict(out)
    };
    let report = explore(default_seed_budget(), run);
    let failure =
        report.failure.clone().expect("send-send-recv through 1-credit windows must deadlock");
    assert!(
        failure.message.contains("timed out") || failure.message.contains("deadlock"),
        "the conviction must be structured, got: {}",
        failure.message
    );
    assert!(run(failure.seed).is_err(), "seed {} did not replay the credit deadlock", failure.seed);
}
