//! Every [`minimpi::Error`] variant: its `Display` rendering and, where the
//! runtime can be driven into it, the failure path that produces it.

use minimpi::{
    CollFingerprint, CollectiveKind, Datatype, DeadlockReport, DivergenceReport, Error,
    PendingRecv, TypeSig, Universe,
};
use std::time::{Duration, Instant};

fn fingerprint(kind: CollectiveKind, root: usize, line: u32) -> CollFingerprint {
    CollFingerprint { kind, root, file: "app.rs", line }
}

/// One representative value per variant — a match here fails to compile when
/// a variant is added without extending this coverage.
fn all_variants() -> Vec<Error> {
    let variants = vec![
        Error::RankOutOfRange { rank: 9, size: 4 },
        Error::Timeout { rank: 1, src: Some(2), tag: 77, comm_id: 5 },
        // No source: a rendezvous, here under the shrink sentinel tag.
        Error::Timeout { rank: 1, src: None, tag: (1 << 63) | 0xfff, comm_id: 5 },
        Error::PeerDead { rank: 3 },
        Error::SizeMismatch { expected: 16, got: 12 },
        Error::DatatypeMismatch { detail: "subarray exceeds buffer".into() },
        Error::CollectiveMismatch { detail: "counts differ".into() },
        Error::CollectiveDiverged(Box::new(DivergenceReport {
            comm_id: 5,
            index: 3,
            rank_a: 0,
            fp_a: fingerprint(CollectiveKind::Barrier, usize::MAX, 10),
            rank_b: 2,
            fp_b: fingerprint(CollectiveKind::Broadcast, 0, 20),
        })),
        Error::Deadlock(Box::new(DeadlockReport {
            cycle: vec![
                PendingRecv { rank: 0, awaited: 1, comm_id: 0, tag: 7 },
                PendingRecv { rank: 1, awaited: 0, comm_id: 0, tag: 7 },
            ],
        })),
        Error::TypeMismatch {
            src: 0,
            dst: 1,
            tag: 7,
            expected: TypeSig { extent: 16, elem: 2, shape: 0 },
            got: TypeSig { extent: 16, elem: 4, shape: 0 },
        },
        Error::StaleEpoch { comm_epoch: 0, world_epoch: 2 },
        Error::Internal { detail: "split: world rank 2 missing from its own color group".into() },
    ];
    for v in &variants {
        match v {
            Error::RankOutOfRange { .. }
            | Error::Timeout { .. }
            | Error::PeerDead { .. }
            | Error::SizeMismatch { .. }
            | Error::DatatypeMismatch { .. }
            | Error::CollectiveMismatch { .. }
            | Error::CollectiveDiverged(_)
            | Error::Deadlock(_)
            | Error::TypeMismatch { .. }
            | Error::StaleEpoch { .. }
            | Error::Internal { .. } => {}
        }
    }
    variants
}

#[test]
fn display_is_informative_for_every_variant() {
    let expected = [
        "rank 9 out of range for communicator of size 4",
        "rank 1: waiting on rank 2 (user tag 77 on comm 0x5) timed out — likely deadlock",
        "rank 1: shrink rendezvous on comm 0x5 timed out — likely deadlock",
        "rank 3 is dead (fault-killed, panicked, or exited) — failing fast",
        "message size mismatch: expected 16 bytes, got 12",
        "datatype mismatch: subarray exceeds buffer",
        "collective mismatch: counts differ",
        "collective divergence: collective #3 on comm 0x5: rank 0 called barrier at app.rs:10 \
         but rank 2 called broadcast(root 0) at app.rs:20",
        "deadlock cycle of 2 ranks: rank 0 waits on rank 1 (user tag 7 on comm 0x0); \
         rank 1 waits on rank 0 (user tag 7 on comm 0x0)",
        "datatype signature mismatch: rank 0 sent (extent 16B, elem 4B) but rank 1 \
         expected (extent 16B, elem 2B) (user tag 7)",
        "communicator from epoch 0 used after reconfiguration to epoch 2 — \
         rebuild it via reconfigure()",
        "internal runtime invariant violated: split: world rank 2 missing from its own color group",
    ];
    for (e, want) in all_variants().iter().zip(expected) {
        assert_eq!(e.to_string(), want);
    }
}

#[test]
fn variants_implement_std_error() {
    for e in all_variants() {
        let dyn_err: &dyn std::error::Error = &e;
        assert!(!dyn_err.to_string().is_empty());
    }
}

#[test]
fn rank_out_of_range_from_send_and_recv() {
    let out = Universe::run(2, |comm| {
        (comm.send(5, 1, &[0u8]).unwrap_err(), comm.recv_bytes(5, 1).unwrap_err())
    });
    assert_eq!(out[0].0, Error::RankOutOfRange { rank: 5, size: 2 });
    assert_eq!(out[0].1, Error::RankOutOfRange { rank: 5, size: 2 });
}

#[test]
fn timeout_from_never_sent_message() {
    // Checking pinned off: under `DDR_CHECK=1` the self-wait is convicted as
    // a deadlock before the watchdog this test is about can fire.
    let out = Universe::builder().check(false).run(1, |comm| {
        comm.set_timeout(Duration::from_millis(50));
        comm.recv_bytes(0, 42).unwrap_err()
    });
    assert_eq!(out[0], Error::Timeout { rank: 0, src: Some(0), tag: 42, comm_id: 0 });
}

#[test]
fn peer_dead_from_departed_rank() {
    let out = Universe::run(2, |comm| {
        if comm.rank() == 1 {
            return None; // leave without sending
        }
        Some(comm.recv_bytes(1, 9).unwrap_err())
    });
    assert_eq!(out[0], Some(Error::PeerDead { rank: 1 }));
}

/// One rank's watchdog fires and it exits; the other then fails fast with
/// `PeerDead`. Whichever rank is lower, the timeout is the cause to report.
#[test]
fn root_cause_prefers_the_cause_over_peer_dead_fallout() {
    let dead = Error::PeerDead { rank: 1 };
    let timeout = Error::Timeout { rank: 1, src: Some(0), tag: 3, comm_id: 0 };
    for outcomes in [
        vec![Err::<(), _>(dead.clone()), Err(timeout.clone())],
        vec![Err(timeout.clone()), Err(dead.clone())],
    ] {
        assert_eq!(Error::root_cause(outcomes), Err(timeout.clone()));
    }
    // Nothing but fallout: the first PeerDead stands in for the cause.
    let only_fallout = vec![Ok(0), Err(dead.clone()), Err(Error::PeerDead { rank: 0 })];
    assert_eq!(Error::root_cause(only_fallout), Err(dead));
    assert_eq!(Error::root_cause(vec![Ok(1), Ok(2)]), Ok(vec![1, 2]));
}

#[test]
fn size_mismatch_from_typed_receive() {
    let out = Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, &[1u8, 2, 3]).unwrap();
            None
        } else {
            Some(comm.recv_vec::<u32>(0, 5).unwrap_err())
        }
    });
    assert_eq!(out[1], Some(Error::SizeMismatch { expected: 4, got: 3 }));
}

#[test]
fn typed_send_recv_matches_under_check() {
    // Same element type and count on both sides: checking must not get in
    // the way of a correct program.
    let out = Universe::builder().check(true).run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, &[1u32, 2, 3]).unwrap();
            vec![]
        } else {
            comm.recv_vec::<u32>(0, 5).unwrap()
        }
    });
    assert_eq!(out[1], vec![1u32, 2, 3]);
}

#[test]
fn type_mismatch_from_wrong_element_type_under_check() {
    // u32s received as u16s: the byte count happens to divide evenly, so
    // without checking this silently reinterprets — with checking it fails
    // with the stamped signature in hand.
    let out = Universe::builder().check(true).run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, &[1u32, 2]).unwrap();
            None
        } else {
            Some(comm.recv_vec::<u16>(0, 5).unwrap_err())
        }
    });
    match out[1].clone().unwrap() {
        Error::TypeMismatch { src: 0, dst: 1, expected, got, .. } => {
            assert_eq!(expected.elem, 2);
            assert_eq!(got.elem, 4);
            assert_eq!(got.extent, 8);
        }
        other => panic!("expected TypeMismatch, got {other}"),
    }
}

#[test]
fn type_mismatch_from_truncating_receive_under_check() {
    // The receiver's buffer declares a 4-byte extent but the sender shipped
    // 8: caught as a signature mismatch before any bytes are copied (without
    // checking, this surfaces later as SizeMismatch).
    let out = Universe::builder().check(true).run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, &[1u32, 2]).unwrap();
            None
        } else {
            let mut buf = [0u32; 1];
            Some(comm.recv_into::<u32>(0, 5, &mut buf).unwrap_err())
        }
    });
    match out[1].clone().unwrap() {
        Error::TypeMismatch { expected, got, .. } => {
            assert_eq!(expected.extent, 4);
            assert_eq!(got.extent, 8);
        }
        other => panic!("expected TypeMismatch, got {other}"),
    }
}

#[test]
fn untyped_send_passes_typed_receive_under_check() {
    // Raw-byte sends carry an untyped-bytes signature (elem 1); a typed
    // receive accepts it — the wildcard exists so byte-level framing and
    // typed consumption can legally mix.
    let out = Universe::builder().check(true).run(2, |comm| {
        if comm.rank() == 0 {
            comm.send_bytes(1, 5, &7u64.to_le_bytes()).unwrap();
            0
        } else {
            comm.recv_vec::<u64>(0, 5).unwrap()[0]
        }
    });
    assert_eq!(out[1], 7);
}

/// An `alltoallw` whose send phase fails *after* a zero-copy loan already
/// went out: rank 0 lends to rank 1, then its datatype for rank 2 fails the
/// sender-side bounds check. The exchange guard's drop must drain the loan
/// on the way out — revoked at once if rank 1 has not claimed it (`late`:
/// rank 1 enters only after rank 0 reported the failure), waited out if the
/// claim is already copying — so nobody is stranded until the watchdog.
#[test]
fn send_phase_error_after_a_loan_drains_it() {
    const FAILED: minimpi::Tag = 4242;
    let len = 4096usize;
    let watchdog = Duration::from_secs(30);
    for late in [false, true] {
        let start = Instant::now();
        let out =
            Universe::builder().check(true).zerocopy(true).timeout(watchdog).run(3, move |comm| {
                let contig = Datatype::Contiguous { len_bytes: len, offset: 0 };
                let empty = Datatype::Empty;
                let mut recv = vec![0u8; len];
                if comm.rank() > 0 {
                    if late && comm.rank() == 1 {
                        comm.recv_bytes(0, FAILED)?;
                    }
                    let res = comm.alltoallw(&[], &[empty; 3], &mut recv, &[contig, empty, empty]);
                    return res.map(|()| recv);
                }
                let send = vec![9u8; len];
                let past_the_end = Datatype::Contiguous { len_bytes: len, offset: 1 };
                let before = comm.transport_counters().zerocopy_msgs;
                let res =
                    comm.alltoallw(&send, &[empty, contig, past_the_end], &mut recv, &[empty; 3]);
                assert!(
                    comm.transport_counters().zerocopy_msgs > before,
                    "the loan to rank 1 must have gone out before the bounds check failed"
                );
                if late {
                    comm.send_bytes(1, FAILED, &[])?;
                }
                res.map(|()| recv)
            });
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "late={late}: a loan was stranded until the watchdog"
        );
        assert!(matches!(out[0], Err(Error::DatatypeMismatch { .. })), "late={late}: {:?}", out[0]);
        // Rank 1 either copied the loan out before rank 0 left, or found it revoked.
        match &out[1] {
            Ok(bytes) if !late => assert_eq!(bytes, &vec![9u8; len]),
            Err(Error::PeerDead { rank: 0 }) => {}
            other => panic!("late={late}: rank 1 got {other:?}"),
        }
        assert_eq!(out[2], Err(Error::PeerDead { rank: 0 }), "late={late}");
    }
}

/// A loan pairs its parts with the receiver's in order, so a loan whose part
/// count, or one part's length, disagrees with the receive parts is a
/// `DatatypeMismatch`, found before the loan is claimed: the receive buffer
/// is untouched, and dropping the unclaimed loan revokes it, so the sender
/// completes at once with the loan counted revoked instead of waiting out
/// the watchdog. The totals agree (64 bytes), so only the part check can
/// catch it.
#[test]
fn loan_whose_parts_disagree_with_the_receiver_is_a_datatype_mismatch() {
    let contig = |offset, len_bytes| Datatype::Contiguous { len_bytes, offset };
    let cases =
        [("part count", vec![contig(0, 64)]), ("part length", vec![contig(0, 16), contig(16, 48)])];
    for (what, recv_parts) in cases {
        let watchdog = Duration::from_secs(30);
        let start = Instant::now();
        let out = Universe::builder().zerocopy(true).timeout(watchdog).run(2, |comm| {
            let send: Vec<u8> = (0..64).collect();
            let mut recv = vec![0xEE; 64];
            let (mut sends, mut recvs) = (vec![Vec::new(); 2], vec![Vec::new(); 2]);
            if comm.rank() == 0 {
                sends[1] = vec![(&send[..], contig(0, 32)), (&send[..], contig(32, 32))];
            } else {
                recvs[0] = recv_parts.clone();
            }
            let res = comm.alltoallw_parts(&sends, &mut recv, &recvs);
            (res.map(|report| report.is_complete()), recv, comm.transport_counters())
        });
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{what}: a loan waited out the watchdog"
        );
        let (res, _, counters) = &out[0];
        assert_eq!(res, &Ok(true), "{what}: the sender completes");
        assert!(counters.revoked_msgs >= 1, "{what}: the loan comes back revoked: {counters:?}");
        let (res, recv, _) = &out[1];
        assert!(matches!(res, Err(Error::DatatypeMismatch { .. })), "{what}: {res:?}");
        assert_eq!(recv, &vec![0xEE; 64], "{what}: the receive buffer is untouched");
    }
}

#[test]
fn collective_mismatch_from_wrong_datatype_count() {
    // Rank 0 hands alltoallw one datatype on a 2-rank communicator; it is
    // rejected locally, and rank 1 — left without a partner — fails fast
    // with PeerDead rather than timing out.
    let out = Universe::run(2, |comm| {
        let byte = Datatype::Contiguous { len_bytes: 1, offset: 0 };
        let types = vec![byte; if comm.rank() == 0 { 1 } else { 2 }];
        comm.alltoallw(&[1], &types, &mut [0], &types)
    });
    let detail = "alltoallw: expected 2 send and recv types, got 1 and 1".into();
    assert_eq!(out[0], Err(Error::CollectiveMismatch { detail }));
    assert_eq!(out[1], Err(Error::PeerDead { rank: 0 }));
}
