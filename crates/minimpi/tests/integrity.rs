//! End-to-end data integrity: envelope checksums detect corruption and
//! report it as a structured error — driven through the public
//! fault-injection API.

use minimpi::{Error, FaultPlan, Universe};
use std::time::{Duration, Instant};

/// Bidirectional 2-rank alltoallw: each rank ships `len` bytes of
/// rank-seeded data to the other and returns what it received.
fn exchange(comm: &minimpi::Comm, len: usize) -> minimpi::Result<Vec<u8>> {
    use minimpi::Datatype;
    let me = comm.rank();
    let other = 1 - me;
    let send: Vec<u8> = (0..len).map(|i| (me as u8) ^ (i as u8).wrapping_mul(31)).collect();
    let mut recv = vec![0u8; len];
    let contig = Datatype::Contiguous { len_bytes: len, offset: 0 };
    let mut send_types = [Datatype::Empty, Datatype::Empty];
    let mut recv_types = [Datatype::Empty, Datatype::Empty];
    send_types[other] = contig;
    recv_types[other] = contig;
    comm.alltoallw(&send, &send_types, &mut recv, &recv_types)?;
    Ok(recv)
}

fn expected_from(src: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (src as u8) ^ (i as u8).wrapping_mul(31)).collect()
}

/// A corrupt staged message is detected, not repaired: the receiver fails
/// with a structured [`Error::IntegrityFailure`] naming both ranks and the
/// exchange's tag, while the sender, whose own receive was clean, completes
/// with exact bytes. Zero-copy is requested with a threshold that would loan
/// everything; the fault plan stages it regardless.
#[test]
fn corrupt_alltoallw_is_detected_and_the_sender_completes() {
    let len = 2048usize;
    let start = Instant::now();
    let out = Universe::builder()
        .timeout(Duration::from_secs(20))
        .zerocopy(true)
        .zerocopy_threshold(0)
        .fault_plan(FaultPlan::new(7).corrupt_message(0, 1, None, 0))
        .run(2, move |comm| {
            let got = exchange(comm, len);
            (got, comm.integrity_counters(), comm.transport_counters())
        });
    assert!(start.elapsed() < Duration::from_secs(5), "detection must not wait on anything");
    let (res1, c1, t1) = &out[1];
    match res1 {
        Err(e @ Error::IntegrityFailure { src: 0, dst: 1, .. }) => {
            assert!(e.to_string().contains("collective #0 phase 0"), "the exchange's tag: {e}");
        }
        other => panic!("expected IntegrityFailure from rank 0, got {other:?}"),
    }
    assert_eq!(c1.detected, 1, "{c1:?}");
    assert_eq!(t1.zerocopy_msgs, 0, "a fault plan stages every message: {t1:?}");
    let (res0, _, _) = &out[0];
    assert_eq!(res0.as_ref().expect("the sender completes"), &expected_from(1, len));
}

/// Both directions corrupt at once: each rank detects its own loss and
/// fails with its own structured error, promptly — there is no protocol
/// left for either rank to wait on.
#[test]
fn mutual_corruption_is_detected_in_both_directions() {
    let len = 512usize;
    let start = Instant::now();
    let out = Universe::builder()
        .timeout(Duration::from_secs(20))
        .fault_plan(
            FaultPlan::new(11).corrupt_message(0, 1, None, 0).corrupt_message(1, 0, None, 0),
        )
        .run(2, move |comm| exchange(comm, len));
    assert!(matches!(out[0], Err(Error::IntegrityFailure { src: 1, dst: 0, .. })), "{out:?}");
    assert!(matches!(out[1], Err(Error::IntegrityFailure { src: 0, dst: 1, .. })), "{out:?}");
    assert!(start.elapsed() < Duration::from_secs(5), "detection must not hang");
}

/// Point-to-point receives detect the same way: corruption surfaces as
/// `IntegrityFailure`, and the error carries the user tag.
#[test]
fn p2p_receive_is_detect_only() {
    let out = Universe::builder()
        .timeout(Duration::from_secs(20))
        .fault_plan(FaultPlan::new(19).corrupt_message(0, 1, Some(42), 0))
        .run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 42, &[0xABu8; 64])?;
                Ok(None)
            } else {
                Ok::<_, Error>(Some(comm.recv_bytes(0, 42).unwrap_err()))
            }
        });
    assert_eq!(
        out[1].as_ref().unwrap().as_ref(),
        Some(&Error::IntegrityFailure { src: 0, dst: 1, tag: 42 })
    );
}

/// `checksum(false)` restores the pre-integrity wire format: corruption
/// passes through undetected (the documented trade-off of turning the knob
/// off) and no integrity counters move.
#[test]
fn checksum_off_delivers_corrupt_bytes_silently() {
    let payload = [0x5Au8; 64];
    let out = Universe::builder()
        .timeout(Duration::from_secs(20))
        .checksum(false)
        .fault_plan(FaultPlan::new(23).corrupt_message(0, 1, Some(7), 0))
        .run(2, move |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &payload)?;
                Ok((None, comm.integrity_counters()))
            } else {
                Ok::<_, Error>((Some(comm.recv_bytes(0, 7)?), comm.integrity_counters()))
            }
        });
    let (got, counters) = out[1].as_ref().unwrap();
    let got = got.as_ref().unwrap();
    assert_eq!(got.len(), payload.len());
    assert_ne!(got.as_slice(), &payload[..], "corruption must have landed");
    assert_eq!(counters.checked, 0, "no verification may run with DDR_CHECKSUM off");
}

/// Clean exchanges under checksumming verify every *staged* envelope and
/// detect nothing — the integrity plane is pure bookkeeping on the happy
/// path. A loan has no in-flight bytes and is not checked: the loan-sized leg
/// (above the default 64 KiB threshold) verifies nothing at all.
#[test]
fn clean_run_checks_everything_and_detects_nothing() {
    for (len, staged) in [(1024usize, 2u64), (1 << 20, 0)] {
        // Counters are world-global, so the snapshot waits for both ranks —
        // on a thread barrier, because a `Comm::barrier` would add staged,
        // checksummed messages of its own.
        let done = std::sync::Barrier::new(2);
        let out =
            Universe::builder().timeout(Duration::from_secs(20)).zerocopy(true).run(2, |comm| {
                let got = exchange(comm, len);
                done.wait();
                let (c, t) = (comm.integrity_counters(), comm.transport_counters());
                Ok::<_, Error>((got?, c, t, comm.checksum_active()))
            });
        for (r, res) in out.iter().enumerate() {
            let (got, c, t, active) = res.as_ref().unwrap();
            assert!(active, "checksumming is on by default");
            assert_eq!(got, &expected_from(1 - r, len));
            assert_eq!((t.staged_msgs, t.zerocopy_msgs), (staged, 2 - staged), "len {len}");
            assert_eq!(c.checked, staged, "len {len}: staged messages only: {c:?}");
            assert_eq!(c.detected, 0);
        }
    }
}
