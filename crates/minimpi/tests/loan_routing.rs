//! The one wire path an `alltoallw` message takes: every message loans,
//! whatever its size or number of parts, and under any fault plan.

use minimpi::{Counter, Counts, Datatype, FaultPlan, Subarray, Universe, UniverseBuilder};

/// Run one contiguous alltoallw of `elems` u64 elements per pair on `n`
/// ranks of `builder`'s universe; return rank 0's counters.
fn exchange(builder: UniverseBuilder, n: usize, elems: usize) -> Counts {
    let out = builder.run(n, move |comm| {
        let n = comm.size();
        let send: Vec<u64> = (0..elems * n).map(|i| i as u64).collect();
        let mut recv = vec![0u64; elems * n];
        let types: Vec<Datatype> = (0..n)
            .map(|p| {
                Datatype::Subarray(
                    Subarray::d1(elems * n, elems, p * elems, 8).expect("valid subarray"),
                )
            })
            .collect();
        comm.alltoallw(minimpi::bytes_of(&send), &types, minimpi::bytes_of_mut(&mut recv), &types)
            .expect("exchange succeeds");
        // Every rank holds the same pattern and sends its block at offset
        // `me*elems` to us, so each received chunk equals our own block.
        let me = comm.rank();
        let mine = &send[me * elems..(me + 1) * elems];
        for chunk in recv.chunks(elems) {
            assert_eq!(chunk, mine);
        }
        comm.counters()
    });
    out[0]
}

fn assert_loaned(c: Counts, what: &str) {
    assert!(c[Counter::ZerocopyMsgs] > 0, "{what} must loan: {c:?}");
    assert_eq!(c[Counter::StagedMsgs], 0, "{what} must not stage: {c:?}");
}

#[test]
fn small_messages_loan() {
    // 128 u64 = 1 KiB per pair.
    assert_loaned(exchange(Universe::builder(), 4, 128), "1 KiB messages");
}

#[test]
fn large_messages_loan() {
    // 16 Ki u64 = 128 KiB per pair.
    assert_loaned(exchange(Universe::builder(), 4, 16 << 10), "128 KiB messages");
}

#[test]
fn tiny_messages_loan() {
    assert_loaned(exchange(Universe::builder(), 4, 8), "64-byte messages");
}

#[test]
fn messages_of_exactly_64_kib_loan() {
    // 8 Ki u64 = 64 KiB, and one element either side of it: there is no
    // size floor below which a message stages.
    for elems in [(8 << 10) - 1, 8 << 10, (8 << 10) + 1] {
        assert_loaned(exchange(Universe::builder(), 2, elems), &format!("{elems} u64 messages"));
    }
}

#[test]
fn a_fault_plan_still_loans_every_size() {
    // Neither plan fires (no user message carries tag 77, and no rank
    // reaches op 10 000), but both are installed: rules act on the loan,
    // so a plan changes no message's wire path.
    let plans = [
        FaultPlan::new().drop_message(0, 1, Some(77), 0),
        FaultPlan::new().kill_rank_at_op(1, 10_000),
    ];
    for (plan, elems) in plans.iter().flat_map(|p| [8, 128, 16 << 10].map(|e| (p, e))) {
        let c = exchange(Universe::builder().fault_plan(plan.clone()), 2, elems);
        assert_loaned(c, &format!("{elems} u64 messages under {plan:?}"));
    }
}

/// A message of three parts over two buffers — contiguous and strided, out
/// of buffer order — is one loan, and lands part by part in order: part `i`
/// of the loan fills receive part `i`.
#[test]
fn multi_part_message_loans_and_lands_part_by_part_in_order() {
    let out = Universe::builder().run(2, |comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        let a: Vec<u8> = (0..64).map(|i| (100 * me + i) as u8).collect();
        // An 8x8 grid; its centre 4x4 is sixteen bytes in four runs.
        let b: Vec<u8> = (0..64).map(|i| (100 * me + 64 + i) as u8).collect();
        let centre = Datatype::Subarray(Subarray::d2([8, 8], [4, 4], [2, 2], 1).unwrap());
        let contig = |offset| Datatype::Contiguous { len_bytes: 16, offset };
        let (lent, want) =
            ([(0, contig(48)), (1, centre), (0, contig(0))], [contig(32), contig(0), contig(16)]);
        let (mut sends, mut recvs): ([&[_]; 2], [&[_]; 2]) = ([&[]; 2], [&[]; 2]);
        (sends[peer], recvs[peer]) = (&lent, &want);
        let mut recv = vec![0u8; 48];
        let report =
            comm.alltoallw_parts(&[&a, &b], &sends, &mut recv, &recvs).expect("exchange succeeds");
        assert!(report.is_complete(), "{report:?}");
        // Each rank's loan is counted before its barrier message.
        comm.barrier().expect("barrier");
        (recv, comm.counters())
    });
    for (me, (recv, _)) in out.iter().enumerate() {
        let peer = 1 - me;
        let a = |i: usize| (100 * peer + i) as u8;
        let b = |x: usize, y: usize| (100 * peer + 64 + x + 8 * y) as u8;
        let centre: Vec<u8> = (2..6).flat_map(|y| (2..6).map(move |x| b(x, y))).collect();
        let want: Vec<u8> =
            centre.into_iter().chain((0..16).map(a)).chain((48..64).map(a)).collect();
        assert_eq!(recv, &want, "rank {me}");
    }
    let c = out[0].1;
    assert_eq!(c[Counter::ZerocopyMsgs], 2, "one loan per multi-part message: {c:?}");
}
