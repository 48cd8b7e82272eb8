//! The one wire path an `alltoallw` message takes, seen through the
//! facade's transport counters: a zero-copy loan at every size, also under
//! a fault plan, whose rules act on the loan.

use ddr::minimpi::{Comm, Counter, Counts, Datatype, Error, FaultPlan, Universe, UniverseBuilder};
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
/// staged messages of its own.
fn run(builder: UniverseBuilder, len: usize) -> (Counts, Vec<Got>) {
    let done = Barrier::new(2);
    let out = builder.timeout(Duration::from_secs(20)).run(2, |comm| {
        let got = exchange(comm, len);
        done.wait();
        (got, comm.counters())
    });
    let transport = out[0].1;
    (transport, out.into_iter().map(|(got, _)| got).collect())
}

type Got = Result<Vec<u8>, Error>;

/// Rank `r` received exactly what its peer sent.
fn exact(got: &Got, r: usize, len: usize) -> bool {
    got.as_ref().is_ok_and(|bytes| *bytes == payload(1 - r, len))
}

#[test]
fn loans_have_no_size_floor_and_every_fault_plan_loans() {
    // A large exchange loans both messages.
    let (transport, got) = run(Universe::builder(), 1 << 20);
    assert!(exact(&got[0], 0, 1 << 20) && exact(&got[1], 1, 1 << 20));
    assert_eq!(transport[Counter::ZerocopyMsgs], 2);

    // So does a small one: there is no size floor under a loan.
    let (transport, got) = run(Universe::builder(), 1 << 10);
    assert!(exact(&got[0], 0, 1 << 10) && exact(&got[1], 1, 1 << 10));
    assert_eq!((transport[Counter::ZerocopyMsgs], transport[Counter::StagedMsgs]), (2, 0));

    // A delay-only plan delays the loan itself: both messages still loan,
    // and both ranks still receive exactly what was sent.
    let plan = FaultPlan::new().delay_message(0, 1, None, 0, Duration::from_millis(1));
    let (transport, got) = run(Universe::builder().fault_plan(plan), 1 << 20);
    assert_eq!(
        (transport[Counter::ZerocopyMsgs], transport[Counter::StagedMsgs]),
        (2, 0),
        "a plan still loans"
    );
    assert!(exact(&got[0], 0, 1 << 20) && exact(&got[1], 1, 1 << 20));
}
