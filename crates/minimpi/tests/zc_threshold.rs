//! The per-message zero-copy threshold: small messages must take the staged
//! path even with zero-copy enabled, large ones must still loan.

use minimpi::{Datatype, Subarray, Universe};

/// Run one contiguous alltoallw of `elems` u64 elements per pair under
/// zero-copy with the given loan threshold; return rank 0's counters.
fn exchange(n: usize, elems: usize, threshold: usize) -> minimpi::TransportCounters {
    let out =
        Universe::builder().zerocopy(true).zerocopy_threshold(threshold).run(n, move |comm| {
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
            comm.alltoallw(
                minimpi::bytes_of(&send),
                &types,
                minimpi::bytes_of_mut(&mut recv),
                &types,
            )
            .expect("exchange succeeds");
            // Every rank holds the same pattern and sends its block at offset
            // `me*elems` to us, so each received chunk equals our own block.
            let me = comm.rank();
            let mine = &send[me * elems..(me + 1) * elems];
            for chunk in recv.chunks(elems) {
                assert_eq!(chunk, mine);
            }
            comm.transport_counters()
        });
    out[0]
}

#[test]
fn small_messages_stage_under_default_style_threshold() {
    // 128 u64 = 1 KiB per pair, well under a 64 KiB threshold.
    let c = exchange(4, 128, 64 << 10);
    assert_eq!(c.zerocopy_msgs, 0, "sub-threshold messages must not loan: {c:?}");
    assert!(c.staged_msgs > 0, "sub-threshold messages must stage: {c:?}");
}

#[test]
fn large_messages_still_loan() {
    // 16 Ki u64 = 128 KiB per pair, over a 64 KiB threshold.
    let c = exchange(4, 16 << 10, 64 << 10);
    assert!(c.zerocopy_msgs > 0, "above-threshold messages must loan: {c:?}");
    assert_eq!(c.staged_msgs, 0, "above-threshold messages must not stage: {c:?}");
}

#[test]
fn zero_threshold_loans_everything() {
    let c = exchange(4, 8, 0);
    assert!(c.zerocopy_msgs > 0, "threshold 0 must loan even tiny messages: {c:?}");
    assert_eq!(c.staged_msgs, 0, "{c:?}");
}

#[test]
fn threshold_boundary_stages() {
    // Exactly at the threshold: 8 Ki u64 = 64 KiB. The rendezvous handshake
    // only pays for itself strictly above the threshold (measured breakeven
    // at the boundary), so at-threshold messages take the staged path.
    let c = exchange(2, 8 << 10, 64 << 10);
    assert_eq!(c.zerocopy_msgs, 0, "messages exactly at the threshold must stage: {c:?}");
    assert!(c.staged_msgs > 0, "{c:?}");
}

/// Only a one-part message loans: a message of two parts stages, however
/// low the threshold, and still lands part by part in order.
#[test]
fn coalesced_message_stages_and_a_single_part_loans() {
    let out = Universe::builder().zerocopy(true).zerocopy_threshold(0).run(2, |comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        let send: Vec<u8> = (0..64).map(|i| (64 * me + i) as u8).collect();
        let half = |offset| Datatype::Contiguous { len_bytes: 32, offset };
        let whole = Datatype::Contiguous { len_bytes: 64, offset: 0 };
        let (mut sends, mut recvs) = (vec![Vec::new(); 2], vec![Vec::new(); 2]);
        if me == 0 {
            // Second half first: two parts, one message.
            sends[peer] = vec![(&send[..], half(32)), (&send[..], half(0))];
            recvs[peer] = vec![whole];
        } else {
            sends[peer] = vec![(&send[..], whole)];
            recvs[peer] = vec![half(32), half(0)];
        }
        let mut recv = vec![0u8; 64];
        let report = comm.alltoallw_parts(&sends, &mut recv, &recvs).expect("exchange succeeds");
        assert!(report.is_complete(), "{report:?}");
        // Each rank's deposits happen before its barrier message.
        comm.barrier().expect("barrier");
        (recv, comm.transport_counters())
    });
    assert_eq!(out[0].0, (64..128).map(|i| i as u8).collect::<Vec<_>>());
    assert_eq!(out[1].0, (0..64).map(|i| i as u8).collect::<Vec<_>>());
    let c = out[0].1;
    assert_eq!(c.zerocopy_msgs, 1, "only the one-part message may loan: {c:?}");
    assert!(c.staged_msgs > 0, "{c:?}");
}

#[test]
fn just_above_threshold_loans() {
    // One element over the boundary: (8 Ki + 1) u64 = 64 KiB + 8 bytes.
    let c = exchange(2, (8 << 10) + 1, 64 << 10);
    assert!(c.zerocopy_msgs > 0, "messages above the threshold must loan: {c:?}");
    assert_eq!(c.staged_msgs, 0, "{c:?}");
}
