//! What the integrity plane covers, seen through the facade: staged bytes are
//! checksummed, a zero-copy loan is a pointer hand-off that carries none, and
//! any fault plan moves every message onto the staged path, where corruption
//! is detected and reported as a structured error.

use ddr::minimpi::{
    Comm, Datatype, Error, FaultPlan, IntegrityCounters, TransportCounters, Universe,
    UniverseBuilder,
};
use std::sync::Barrier;
use std::time::Duration;

fn payload(rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (rank as u8) ^ (i as u8).wrapping_mul(31) ^ (i >> 8) as u8).collect()
}

/// Bidirectional 2-rank alltoallw of `len` contiguous bytes.
fn exchange(comm: &Comm, len: usize) -> Result<Vec<u8>, Error> {
    let other = 1 - comm.rank();
    let contig = Datatype::Contiguous { len_bytes: len, offset: 0 };
    let mut types = [Datatype::Empty, Datatype::Empty];
    types[other] = contig;
    let mut recv = vec![0u8; len];
    comm.alltoallw(&payload(comm.rank(), len), &types, &mut recv, &types)?;
    Ok(recv)
}

/// One exchange on a 2-rank universe of `builder`. Returns the universe-wide
/// counters once *both* ranks are done, and what each rank received; the
/// rendezvous is a thread barrier because a `Comm::barrier` would add
/// staged, checksummed messages of its own.
fn run(builder: UniverseBuilder, len: usize) -> (TransportCounters, IntegrityCounters, Vec<Got>) {
    let done = Barrier::new(2);
    let out = builder.timeout(Duration::from_secs(20)).run(2, |comm| {
        let got = exchange(comm, len);
        done.wait();
        (got, comm.transport_counters(), comm.integrity_counters())
    });
    let (transport, integrity) = (out[0].1, out[0].2);
    (transport, integrity, out.into_iter().map(|(got, ..)| got).collect())
}

type Got = Result<Vec<u8>, Error>;

/// Zero-copy requested explicitly, so `DDR_NO_ZEROCOPY` cannot change the
/// case, and everything else default.
fn loaning() -> UniverseBuilder {
    Universe::builder().zerocopy(true)
}

/// Rank `r` received exactly what its peer sent.
fn exact(got: &Got, r: usize, len: usize) -> bool {
    got.as_ref().is_ok_and(|bytes| *bytes == payload(1 - r, len))
}

#[test]
fn loans_carry_no_checksum_and_every_fault_plan_stages() {
    // A large exchange loans both messages: one copy each, nothing hashed,
    // nothing verified.
    let (transport, integrity, got) = run(loaning(), 1 << 20);
    assert!(exact(&got[0], 0, 1 << 20) && exact(&got[1], 1, 1 << 20));
    assert_eq!(transport.zerocopy_msgs, 2);
    assert_eq!(integrity.checked, 0, "a loan has no in-flight bytes to verify");

    // So does a small one: there is no size floor under a loan. With
    // zero-copy off the same exchange stages both messages, and every staged
    // payload is verified.
    let (transport, integrity, got) = run(loaning(), 1 << 10);
    assert!(exact(&got[0], 0, 1 << 10) && exact(&got[1], 1, 1 << 10));
    assert_eq!((transport.zerocopy_msgs, transport.staged_msgs), (2, 0));
    assert_eq!(integrity.checked, 0);
    let (transport, integrity, got) = run(Universe::builder().zerocopy(false), 1 << 10);
    assert!(exact(&got[0], 0, 1 << 10) && exact(&got[1], 1, 1 << 10));
    assert_eq!((transport.zerocopy_msgs, transport.staged_msgs), (0, 2));
    assert_eq!(integrity.checked, 2);

    // A corrupt-only plan stages the loan-sized exchange too: the scramble
    // hits real in-flight bytes and is detected. The receiver loses that
    // message with a structured error; the sender completes exactly.
    let plan = FaultPlan::new(7).corrupt_message(0, 1, None, 0);
    let (transport, integrity, got) = run(loaning().fault_plan(plan), 1 << 20);
    assert_eq!((transport.zerocopy_msgs, transport.staged_msgs), (0, 2), "every plan stages");
    assert_eq!((integrity.checked, integrity.detected), (2, 1), "{integrity:?}");
    assert!(
        matches!(got[1], Err(Error::IntegrityFailure { src: 0, dst: 1, .. })),
        "{:?}",
        got[1].as_ref().err()
    );
    assert!(exact(&got[0], 0, 1 << 20), "the sender completes");
}
