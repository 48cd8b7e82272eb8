//! Integration tests for the correctness-checking subsystem: collective
//! matching and wait-for-graph deadlock detection.
//!
//! The key property throughout: failures are reported *fast* (milliseconds)
//! and *structurally* (naming ranks, ops, call sites, cycles), while the
//! watchdog timeout is set far higher — proving the checker, not the
//! watchdog, caught the bug.

use minimpi::{CollectiveKind, Datatype, Error, Subarray, Universe};
use std::time::{Duration, Instant};

/// Watchdog high enough that any test passing under it proves the checker
/// fired first.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Checked runs should fail well under this bound — orders of magnitude
/// below the watchdog.
const FAST: Duration = Duration::from_secs(5);

#[test]
fn divergent_collective_kinds_fail_fast_with_report() {
    let start = Instant::now();
    let out = Universe::builder().check(true).timeout(WATCHDOG).run(2, |comm| {
        if comm.rank() == 0 {
            comm.barrier()
        } else {
            comm.broadcast_bytes(1, &[1, 2, 3]).map(|_| ())
        }
    });
    assert!(start.elapsed() < FAST, "checker must beat the watchdog");
    // One rank arrives second and gets the divergence; depending on timing
    // the other either also diverges against the surviving entry or dies
    // with its peer. At least one structured report must exist.
    let report = out
        .iter()
        .find_map(|r| match r {
            Err(Error::CollectiveDiverged(report)) => Some(report.clone()),
            _ => None,
        })
        .expect("at least one rank must receive CollectiveDiverged");
    assert_eq!(report.index, 0, "divergence is at the first collective");
    let kinds = [report.fp_a.kind, report.fp_b.kind];
    assert!(kinds.contains(&CollectiveKind::Barrier));
    assert!(kinds.contains(&CollectiveKind::Broadcast));
    // Call sites point at this test file, not at minimpi internals.
    assert!(report.fp_a.file.ends_with("check.rs"), "got {}", report.fp_a.file);
    assert!(report.fp_b.file.ends_with("check.rs"), "got {}", report.fp_b.file);
}

#[test]
fn divergent_broadcast_roots_fail_fast() {
    let start = Instant::now();
    let out = Universe::builder().check(true).timeout(WATCHDOG).run(3, |comm| {
        // Ranks disagree on the root: a classic silent-deadlock bug.
        let root = if comm.rank() == 2 { 1 } else { 0 };
        comm.broadcast_bytes(root, &[9]).map(|_| ())
    });
    assert!(start.elapsed() < FAST);
    let diverged = out.iter().filter(|r| matches!(r, Err(Error::CollectiveDiverged(_)))).count();
    assert!(diverged >= 1, "root mismatch must be reported, got {out:?}");
}

#[test]
fn send_recv_cycle_detected_as_deadlock() {
    // Two ranks each wait for a message the other never sends. Without
    // checking this burns the full watchdog; with checking the wait-for
    // graph detector convicts the cycle in milliseconds.
    let start = Instant::now();
    let out = Universe::builder().check(true).timeout(WATCHDOG).run(2, |comm| {
        let peer = 1 - comm.rank();
        comm.recv_bytes(peer, 7).map(|_| ())
    });
    assert!(start.elapsed() < FAST, "detector must beat the watchdog");
    for (rank, r) in out.iter().enumerate() {
        let report = match r {
            Err(Error::Deadlock(report)) => report,
            other => panic!("rank {rank}: expected Deadlock, got {other:?}"),
        };
        assert_eq!(report.cycle.len(), 2);
        // The cycle is a chain: each member waits on the next (wrapping).
        for (i, p) in report.cycle.iter().enumerate() {
            let next = report.cycle[(i + 1) % report.cycle.len()];
            assert_eq!(p.awaited, next.rank);
            assert_eq!(p.tag, 7);
        }
    }
}

#[test]
fn three_rank_cycle_detected() {
    // 0 waits on 1, 1 waits on 2, 2 waits on 0.
    let start = Instant::now();
    let out = Universe::builder().check(true).timeout(WATCHDOG).run(3, |comm| {
        let src = (comm.rank() + 1) % 3;
        comm.recv_bytes(src, 11).map(|_| ())
    });
    assert!(start.elapsed() < FAST);
    for (rank, r) in out.iter().enumerate() {
        match r {
            Err(Error::Deadlock(report)) => assert_eq!(report.cycle.len(), 3),
            other => panic!("rank {rank}: expected Deadlock, got {other:?}"),
        }
    }
}

#[test]
fn deadlock_detection_spares_innocent_bystanders() {
    // Ranks 0 and 1 deadlock on each other; rank 2 does legitimate work
    // against rank 3 and must complete untouched.
    let out = Universe::builder().check(true).timeout(WATCHDOG).run(4, |comm| match comm.rank() {
        0 => comm.recv_bytes(1, 5).map(|_| 0),
        1 => comm.recv_bytes(0, 5).map(|_| 0),
        2 => {
            std::thread::sleep(Duration::from_millis(50));
            comm.send_bytes(3, 6, &[42]).map(|_| 1)
        }
        _ => comm.recv_bytes(2, 6).map(|v| v[0] as usize),
    });
    assert!(matches!(out[0], Err(Error::Deadlock(_))));
    assert!(matches!(out[1], Err(Error::Deadlock(_))));
    assert_eq!(out[2], Ok(1));
    assert_eq!(out[3], Ok(42));
}

#[test]
fn checking_off_still_times_out() {
    // With checking disabled the same cycle falls back to the watchdog.
    let out = Universe::builder().check(false).timeout(Duration::from_millis(100)).run(2, |comm| {
        let peer = 1 - comm.rank();
        comm.recv_bytes(peer, 3).map(|_| ())
    });
    // The first rank to give up reports Timeout and is marked dead; its
    // peer may then fail fast with PeerDead instead of timing out itself.
    assert!(out.iter().any(|r| matches!(r, Err(Error::Timeout { .. }))), "got {out:?}");
    for r in &out {
        assert!(matches!(r, Err(Error::Timeout { .. }) | Err(Error::PeerDead { .. })), "got {r:?}");
    }
}

#[test]
fn matched_program_runs_clean_under_checking() {
    // A full workout of the collective surface with checking on: nothing
    // may be flagged, results must be identical to an unchecked run.
    let body = |comm: &minimpi::Comm| -> minimpi::Result<u64> {
        comm.barrier()?;
        let b = comm.broadcast_bytes(0, &[comm.size() as u8])?;
        let g = comm.allgather(&[comm.rank() as u64])?;
        let sum = comm.try_allreduce(&[comm.rank() as u64 + 1], |a, b| a + b)?[0];
        let at_root = comm.gather_bytes(1, &[comm.rank() as u8])?.map_or(0, |parts| parts.len());
        let byte_at = |offset| Datatype::Contiguous { len_bytes: 1, offset };
        let send_types = vec![byte_at(0); comm.size()];
        let recv_types: Vec<Datatype> = (0..comm.size()).map(byte_at).collect();
        let mut swapped = vec![0u8; comm.size()];
        comm.alltoallw(&[comm.rank() as u8 + 1], &send_types, &mut swapped, &recv_types)?;
        let swapped: u64 = swapped.iter().map(|&v| v as u64).sum();
        Ok(b[0] as u64 + g.len() as u64 + sum + at_root as u64 + swapped)
    };
    let checked = Universe::builder().check(true).timeout(WATCHDOG).run(4, |c| body(c).unwrap());
    let plain = Universe::builder().check(false).timeout(WATCHDOG).run(4, |c| body(c).unwrap());
    assert_eq!(checked, plain);
}

/// A message of several parts signs as its parts together: a receiver that
/// expects other parts than the sender packed gets a structured
/// `TypeMismatch` for that source, the bytes are never unpacked, and the
/// exchange itself completes.
#[test]
fn mismatched_coalesced_message_is_a_type_mismatch() {
    let start = Instant::now();
    let out = Universe::builder().check(true).timeout(WATCHDOG).run(2, |comm| {
        let words = |count, at, elem| {
            Datatype::Subarray(Subarray::d1(16, count, at, elem).expect("valid subarray"))
        };
        let send = [7u8; 128];
        let mut recv = vec![0u8; 128];
        let (mut sends, mut recvs) = (vec![Vec::new(); 2], vec![Vec::new(); 2]);
        if comm.rank() == 0 {
            // Two parts of four 4-byte elements: 32 bytes.
            sends[1] = vec![(&send[..], words(4, 0, 4)), (&send[..], words(4, 8, 4))];
        } else {
            // The same 32 bytes, expected as two parts of 8-byte elements.
            recvs[0] = vec![words(2, 0, 8), words(2, 4, 8)];
        }
        comm.alltoallw_parts(&sends, &mut recv, &recvs).map(|report| (report, recv))
    });
    assert!(start.elapsed() < FAST, "checker must beat the watchdog");
    assert!(out[0].as_ref().is_ok_and(|(report, _)| report.is_complete()), "{:?}", out[0]);
    let (report, recv) = out[1].as_ref().expect("a mismatched source is reported, not fatal");
    match report.failed.as_slice() {
        [(0, Error::TypeMismatch { src: 0, dst: 1, expected, got, .. })] => {
            assert_eq!((expected.extent, expected.elem), (32, 8));
            assert_eq!((got.extent, got.elem), (32, 4));
        }
        other => panic!("expected one TypeMismatch from rank 0, got {other:?}"),
    }
    assert!(recv.iter().all(|&b| b == 0), "a mismatched message must not be unpacked");
}

#[test]
fn split_communicators_check_independently() {
    // Divergence inside one child communicator must not implicate the other.
    let out = Universe::builder().check(true).timeout(WATCHDOG).run(4, |comm| {
        let child = comm.split(comm.rank() as u64 % 2).unwrap();
        if comm.rank() % 2 == 0 {
            // Even child: ranks disagree on the op.
            if child.rank() == 0 {
                child.barrier().err()
            } else {
                child.broadcast_bytes(0, &[]).err().map(|e| match e {
                    // Whichever side loses the race, it is a structured error.
                    Error::CollectiveDiverged(_) | Error::PeerDead { .. } => e,
                    other => panic!("unexpected: {other:?}"),
                })
            }
        } else {
            // Odd child: perfectly matched collectives succeed.
            child.barrier().unwrap();
            assert_eq!(child.broadcast_bytes(1, &[7u8]).unwrap(), vec![7]);
            None
        }
    });
    assert!(out[1].is_none() && out[3].is_none());
    assert!(out.iter().any(|r| matches!(r, Some(Error::CollectiveDiverged(_)))));
}
