//! Every [`minimpi::Error`] variant: its `Display` rendering and, where the
//! runtime can be driven into it, the failure path that produces it.

use minimpi::{Comm, Counter, Datatype, Error, FaultPlan, Subarray, Universe};
use std::mem::MaybeUninit;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// [`Comm::alltoallw_parts_uninit`] into one initialized buffer, so a test
/// can check which bytes it left alone.
fn parts_exchange(
    comm: &Comm,
    bufs: &[&[u8]],
    sends: &[&[(usize, Datatype)]],
    recv: &mut [u8],
    recvs: &[&[(usize, Datatype)]],
) -> minimpi::Result<()> {
    let mut out: Vec<MaybeUninit<u8>> = recv.iter().map(|&b| MaybeUninit::new(b)).collect();
    let res = comm.alltoallw_parts_uninit(bufs, sends, &mut [&mut out], recvs);
    for (r, b) in recv.iter_mut().zip(&out) {
        // SAFETY: every byte started initialized, and the exchange stores
        // only initialized bytes.
        *r = unsafe { b.assume_init() };
    }
    res
}

/// One representative value per variant — a match here fails to compile when
/// a variant is added without extending this coverage.
fn all_variants() -> Vec<Error> {
    let variants = vec![
        Error::RankOutOfRange { rank: 9, size: 4 },
        Error::Timeout { rank: 1, src: 2, tag: 77, comm_id: 5 },
        // A collective's tag names it: barrier #3, phase 1.
        Error::Timeout { rank: 1, src: 0, tag: (1 << 63) | (3 << 12) | (1 << 6) | 1, comm_id: 5 },
        Error::PeerDead { rank: 3 },
        Error::SizeMismatch { expected: 16, got: 12 },
        Error::DatatypeMismatch { detail: "subarray exceeds buffer".into() },
        Error::CollectiveMismatch { detail: "counts differ".into() },
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
        "rank 1: waiting on rank 0 (barrier #3 phase 1 on comm 0x5) timed out — likely deadlock",
        "rank 3 is dead (fault-killed, panicked, or exited) — failing fast",
        "message size mismatch: expected 16 bytes, got 12",
        "datatype mismatch: subarray exceeds buffer",
        "collective mismatch: counts differ",
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
    let out = Universe::run(1, |comm| {
        comm.set_timeout(Duration::from_millis(50));
        comm.recv_bytes(0, 42).unwrap_err()
    });
    assert_eq!(out[0], Error::Timeout { rank: 0, src: 0, tag: 42, comm_id: 0 });
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
fn typed_send_recv_matches() {
    // Same element type and count on both sides: the element-size stamp must
    // not get in the way of a correct program.
    let out = Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, &[1u32, 2, 3]).unwrap();
            vec![]
        } else {
            comm.recv_vec::<u32>(0, 5).unwrap()
        }
    });
    assert_eq!(out[1], vec![1u32, 2, 3]);
}

/// Element sizes that both exceed one byte and differ are a
/// `DatatypeMismatch`, whether the byte count divides evenly (u32s as u16s,
/// or 8 f32s as 4 f64s) or not — the bytes are never reinterpreted.
#[test]
fn wrong_element_size_is_a_datatype_mismatch() {
    let out = Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, &[1u32, 2]).unwrap();
            comm.send(1, 6, &[1.5f32; 8]).unwrap();
            vec![]
        } else {
            vec![comm.recv_vec::<u16>(0, 5).unwrap_err(), comm.recv_vec::<f64>(0, 6).unwrap_err()]
        }
    });
    let detail =
        |sent, got| format!("rank 0 sent {sent}-byte elements, received as {got}-byte elements");
    assert_eq!(
        out[1],
        vec![
            Error::DatatypeMismatch { detail: detail(4, 2) },
            Error::DatatypeMismatch { detail: detail(4, 8) },
        ]
    );
}

#[test]
fn truncating_typed_receive_is_a_size_mismatch() {
    // The receiver's buffer holds 4 bytes but the sender shipped 8 of the
    // same element size.
    let out = Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, &[1u32, 2]).unwrap();
            None
        } else {
            let mut buf = [0u32; 1];
            Some(comm.recv_into::<u32>(0, 5, &mut buf).unwrap_err())
        }
    });
    assert_eq!(out[1], Some(Error::SizeMismatch { expected: 4, got: 8 }));
}

#[test]
fn untyped_send_passes_typed_receive() {
    // Raw-byte sends stamp element size 1, which a typed receive accepts —
    // so byte-level framing and typed consumption can legally mix.
    let out = Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send_bytes_owned(1, 5, 7u64.to_le_bytes().to_vec()).unwrap();
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
        let out = Universe::builder().timeout(watchdog).run(3, move |comm| {
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
            let before = comm.counters()[Counter::ZerocopyMsgs];
            let res = comm.alltoallw(&send, &[empty, contig, past_the_end], &mut recv, &[empty; 3]);
            assert!(
                comm.counters()[Counter::ZerocopyMsgs] > before,
                "the loan to rank 1 must have gone out before the bounds check failed"
            );
            if late {
                comm.send::<u8>(1, FAILED, &[])?;
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
    let cases = [
        ("part count", vec![(0, contig(0, 64))]),
        ("part length", vec![(0, contig(0, 16)), (0, contig(16, 48))]),
    ];
    for (what, recv_parts) in cases {
        let watchdog = Duration::from_secs(30);
        let start = Instant::now();
        let out = Universe::builder().timeout(watchdog).run(2, |comm| {
            let send: Vec<u8> = (0..64).collect();
            let mut recv = vec![0xEE; 64];
            let lent = [(0, contig(0, 32)), (0, contig(32, 32))];
            let (mut sends, mut recvs): ([&[_]; 2], [&[_]; 2]) = ([&[]; 2], [&[]; 2]);
            if comm.rank() == 0 {
                sends[1] = &lent;
            } else {
                recvs[0] = &recv_parts;
            }
            let res = parts_exchange(comm, &[&send], &sends, &mut recv, &recvs);
            (res, recv, comm.counters())
        });
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{what}: a loan waited out the watchdog"
        );
        let (res, _, counters) = &out[0];
        assert_eq!(res, &Ok(()), "{what}: the sender completes");
        assert!(
            counters[Counter::RevokedMsgs] >= 1,
            "{what}: the loan comes back revoked: {counters:?}"
        );
        let (res, recv, _) = &out[1];
        assert!(matches!(res, Err(Error::DatatypeMismatch { .. })), "{what}: {res:?}");
        assert_eq!(recv, &vec![0xEE; 64], "{what}: the receive buffer is untouched");
    }
}

/// A part names its buffer by index, a send part one of `bufs` and a
/// receive part one of the receive buffers, so an index past either table
/// is a `CollectiveMismatch` found before the first deposit. Rank 0's
/// message to rank 1 is well formed and goes first in send order, yet
/// nothing leaves: no loan is counted, rank 1's buffer is untouched, and
/// both receivers report rank 0 dead at once instead of waiting out the
/// watchdog. In the receive case the bad part is rank 0's own self part.
#[test]
fn a_part_naming_a_missing_buffer_deposits_nothing() {
    for side in ["send", "receive"] {
        let start = Instant::now();
        let out = Universe::builder().timeout(Duration::from_secs(30)).run(3, |comm| {
            let send = [7u8; 16];
            let mut recv = [0xEE; 16];
            let whole = Datatype::Contiguous { len_bytes: 16, offset: 0 };
            let (good, bad) = ([(0, whole)], [(1, whole)]);
            let (mut sends, mut recvs): ([&[_]; 3], [&[_]; 3]) = ([&[]; 3], [&[]; 3]);
            if comm.rank() == 0 && side == "send" {
                (sends[1], sends[2]) = (&good, &bad);
            } else if comm.rank() == 0 {
                (sends[0], sends[1], sends[2], recvs[0]) = (&good, &good, &good, &bad);
            } else {
                recvs[0] = &good;
            }
            let res = parts_exchange(comm, &[&send], &sends, &mut recv, &recvs);
            (res, recv, comm.counters()[Counter::ZerocopyMsgs])
        });
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{side}: a rank waited out the watchdog"
        );
        let detail = format!("alltoallw: a {side} part names buffer 1 of 1");
        assert_eq!(out[0], (Err(Error::CollectiveMismatch { detail }), [0xEE; 16], 0), "{side}");
        for (rank, (res, recv, _)) in out.iter().enumerate().skip(1) {
            assert_eq!(res, &Err(Error::PeerDead { rank: 0 }), "{side}: rank {rank}");
            assert_eq!(recv, &[0xEE; 16], "{side}: rank {rank}: nothing was deposited");
        }
    }
}

/// A death anywhere in an `alltoallw` is the dead rank's alone: for every
/// victim of 4 ranks, killed at every op of its exchange, each other rank
/// returns `Ok` with every byte delivered or an error naming the victim,
/// never a survivor. A survivor drains every source and settles its own
/// loans before it returns, so none revokes a loan another survivor still
/// has to claim.
#[test]
fn a_death_in_alltoallw_is_attributed_to_the_victim() {
    const N: usize = 4;
    const LEN: usize = 256;
    let byte = |src: usize, at: usize| (src * 31 + at) as u8;
    let exchange = |comm: &Comm| {
        let me = comm.rank();
        let send: Vec<u8> = (0..N * LEN).map(|at| byte(me, at)).collect();
        let mut recv = vec![0u8; N * LEN];
        let types: Vec<Datatype> =
            (0..N).map(|p| Datatype::Contiguous { len_bytes: LEN, offset: p * LEN }).collect();
        comm.alltoallw(&send, &types, &mut recv, &types).map(|()| recv)
    };
    let ops = Universe::run(N, |comm| exchange(comm).map(|_| comm.op_count()).unwrap());
    for victim in 0..N {
        for at_op in 0..ops[victim] {
            let case = format!("victim {victim} at op {at_op}");
            let start = Instant::now();
            let out = Universe::builder()
                .timeout(Duration::from_secs(30))
                .fault_plan(FaultPlan::new().kill_rank_at_op(victim, at_op))
                .run(N, exchange);
            assert!(start.elapsed() < Duration::from_secs(10), "{case}: burned the watchdog");
            assert_eq!(out[victim], Err(Error::PeerDead { rank: victim }), "{case}");
            for (r, res) in out.iter().enumerate().filter(|&(r, _)| r != victim) {
                match res {
                    Ok(recv) => {
                        let want: Vec<u8> = (0..N)
                            .flat_map(|s| (0..LEN).map(move |i| byte(s, r * LEN + i)))
                            .collect();
                        assert_eq!(recv, &want, "{case}: rank {r}");
                    }
                    Err(Error::PeerDead { rank: named } | Error::Timeout { src: named, .. }) => {
                        assert_eq!(*named, victim, "{case}: rank {r} blamed a survivor")
                    }
                    Err(e) => panic!("{case}: rank {r}: {e}"),
                }
            }
        }
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

/// A receive cycle ends in `Timeout` on every member, each naming the peer it
/// waited on. The ranks hold their results until every one has timed out: a
/// rank that returns retires, and a peer still waiting on it would fail fast
/// with `PeerDead` instead.
#[test]
fn receive_cycle_times_out_on_every_rank_naming_its_peer() {
    for n in [2, 3] {
        let all_waited = Barrier::new(n);
        let out = Universe::builder().timeout(Duration::from_millis(100)).run(n, |comm| {
            let res = comm.recv_bytes((comm.rank() + 1) % n, 7).map(drop);
            all_waited.wait();
            res
        });
        for (rank, res) in out.into_iter().enumerate() {
            let src = (rank + 1) % n;
            assert_eq!(res, Err(Error::Timeout { rank, src, tag: 7, comm_id: 0 }), "{n} ranks");
        }
    }
}

/// Ranks 0 and 1 wait on each other; ranks 2 and 3 do legitimate work and
/// complete untouched.
#[test]
fn receive_cycle_spares_innocent_bystanders() {
    let cycle_done = Barrier::new(2);
    let out =
        Universe::builder().timeout(Duration::from_millis(200)).run(4, |comm| match comm.rank() {
            r @ (0 | 1) => {
                let res = comm.recv_bytes(1 - r, 5).map(|_| 0);
                cycle_done.wait();
                res
            }
            2 => {
                std::thread::sleep(Duration::from_millis(20));
                comm.send(3, 6, &[42u8]).map(|_| 1)
            }
            _ => comm.recv_bytes(2, 6).map(|v| v[0] as usize),
        });
    assert_eq!(out[0], Err(Error::Timeout { rank: 0, src: 1, tag: 5, comm_id: 0 }));
    assert_eq!(out[1], Err(Error::Timeout { rank: 1, src: 0, tag: 5, comm_id: 0 }));
    assert_eq!(out[2], Ok(1));
    assert_eq!(out[3], Ok(42));
}

#[test]
fn checking_off_still_times_out() {
    let out = Universe::builder().timeout(Duration::from_millis(100)).run(2, |comm| {
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

/// A message of several parts pairs with the receive parts one by one, in
/// element size too: two parts of four 4-byte words received as two parts
/// of two 8-byte words — equal lengths — are a `DatatypeMismatch`, found
/// before the loan is claimed, so the receive buffer is untouched and the
/// sender completes.
#[test]
fn mismatched_coalesced_message_is_a_datatype_mismatch() {
    let out = Universe::builder().timeout(Duration::from_secs(30)).run(2, |comm| {
        let words = |count, at, elem| {
            Datatype::Subarray(
                Subarray::new(1, [16, 1, 1], [count, 1, 1], [at, 0, 0], elem)
                    .expect("valid subarray"),
            )
        };
        let send = [7u8; 128];
        let mut recv = vec![0u8; 128];
        let lent = [(0, words(4, 0, 4)), (0, words(4, 8, 4))];
        let want = [(0, words(2, 0, 8)), (0, words(2, 4, 8))];
        let (mut sends, mut recvs): ([&[_]; 2], [&[_]; 2]) = ([&[]; 2], [&[]; 2]);
        if comm.rank() == 0 {
            sends[1] = &lent;
        } else {
            recvs[0] = &want;
        }
        let res = parts_exchange(comm, &[&send], &sends, &mut recv, &recvs);
        (res, recv)
    });
    assert_eq!(out[0], (Ok(()), vec![0; 128]));
    match &out[1] {
        (Err(Error::DatatypeMismatch { detail }), recv) => {
            assert!(detail.contains("[(16, 4), (16, 4)]"), "{detail}");
            assert!(detail.contains("[(16, 8), (16, 8)]"), "{detail}");
            assert_eq!(recv, &vec![0; 128], "a mismatched loan must not be copied");
        }
        other => panic!("expected a DatatypeMismatch, got {other:?}"),
    }
}

/// The collectives of [`divergent_collectives_never_all_succeed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Coll {
    Barrier,
    Allgather,
    Alltoallw,
}

fn call(coll: Coll, comm: &Comm) -> minimpi::Result<()> {
    let mine = [comm.rank() as u8];
    match coll {
        Coll::Barrier => comm.barrier(),
        Coll::Allgather => comm.allgather(&mine).map(drop),
        Coll::Alltoallw => {
            let n = comm.size();
            let byte = |offset| Datatype::Contiguous { len_bytes: 1, offset };
            let recv_types: Vec<Datatype> = (0..n).map(byte).collect();
            comm.alltoallw(&mine, &vec![byte(0); n], &mut vec![0; n], &recv_types)
        }
    }
}

/// Rank 0 calls one collective and every other rank another, for every
/// ordered pair at 2 and 3 ranks. The collective's kind is part of its key
/// tag, so no rank takes another collective's bytes: some rank waits, and
/// the run ends in an error: every collective posts a receive from a peer,
/// so no pair is silent.
#[test]
fn divergent_collectives_never_all_succeed() {
    use Coll::*;
    let colls = [Barrier, Allgather, Alltoallw];
    for n in [2, 3] {
        for (a, b) in colls.iter().flat_map(|&a| colls.iter().map(move |&b| (a, b))) {
            if a == b {
                continue;
            }
            let out = Universe::builder()
                .timeout(Duration::from_millis(100))
                .run(n, |comm| call(if comm.rank() == 0 { a } else { b }, comm));
            assert!(
                out.iter().any(Result::is_err),
                "{n} ranks: rank 0 {a:?} against {b:?} succeeded"
            );
        }
    }
}

/// Divergence inside one child communicator does not touch the other.
#[test]
fn divergence_in_one_split_child_spares_the_other() {
    let out = Universe::builder().timeout(Duration::from_millis(200)).run(4, |comm| {
        let child = comm.split(comm.rank() as u64 % 2)?;
        if comm.rank() % 2 == 1 {
            child.barrier()?;
            assert_eq!(child.allgather(&[comm.rank() as u8])?, vec![vec![1], vec![3]]);
            Ok(())
        } else if child.rank() == 0 {
            child.barrier()
        } else {
            child.allgather::<u8>(&[]).map(drop)
        }
    });
    assert!(out[0].is_err() && out[2].is_err(), "{out:?}");
    assert_eq!((&out[1], &out[3]), (&Ok(()), &Ok(())));
}
