//! Property-based tests of minimpi collectives with randomized payloads,
//! sizes, and rank counts.

use minimpi::{Datatype, Error, FaultPlan, Universe};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allgather_bytes_arbitrary_content(
        nprocs in 1usize..6,
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 6),
    ) {
        let payloads_ref = &payloads;
        let outs = Universe::run(nprocs, move |comm| {
            comm.allgather_bytes(&payloads_ref[comm.rank()]).unwrap()
        });
        for all in outs {
            prop_assert_eq!(all.len(), nprocs);
            for (r, part) in all.iter().enumerate() {
                prop_assert_eq!(part, &payloads[r]);
            }
        }
    }

    #[test]
    fn allreduce_max_and_min(
        nprocs in 1usize..7,
        values in prop::collection::vec(any::<i64>(), 7),
    ) {
        let values_ref = &values;
        let outs = Universe::run(nprocs, move |comm| {
            let mine = [values_ref[comm.rank()]];
            let mx = comm.allreduce(&mine, i64::max)[0];
            let mn = comm.allreduce(&mine, i64::min)[0];
            (mx, mn)
        });
        let expect_max = values[..nprocs].iter().copied().max().unwrap();
        let expect_min = values[..nprocs].iter().copied().min().unwrap();
        for (mx, mn) in outs {
            prop_assert_eq!(mx, expect_max);
            prop_assert_eq!(mn, expect_min);
        }
    }

    #[test]
    fn interleaved_collectives_never_cross_talk(
        nprocs in 2usize..6,
        rounds in 1usize..5,
    ) {
        // Alternate different collectives; sequence numbers must keep every
        // round's traffic separate.
        Universe::run(nprocs, |comm| {
            for round in 0..rounds {
                let tag = (round * nprocs + comm.rank()) as u64;
                let all = comm.allgather(&[tag]).unwrap();
                for (r, v) in all.iter().enumerate() {
                    assert_eq!(v[0], (round * nprocs + r) as u64);
                }
                comm.barrier().unwrap();
                let sum = comm.allreduce(&[1u64], |a, b| a + b)[0];
                assert_eq!(sum, nprocs as u64);
                let bc = comm.broadcast_bytes(round % nprocs, &[round as u8]).unwrap();
                assert_eq!(bc, vec![round as u8]);
            }
        });
    }
}

/// Bidirectional 2-rank alltoallw of `len` seeded bytes; returns what the
/// calling rank received.
fn paired_exchange(comm: &minimpi::Comm, seed: u64, len: usize) -> minimpi::Result<Vec<u8>> {
    let me = comm.rank();
    let other = 1 - me;
    let gen = |r: usize| -> Vec<u8> {
        (0..len).map(|i| (seed as u8) ^ (r as u8) ^ (i as u8).wrapping_mul(13)).collect()
    };
    let send = gen(me);
    let mut recv = vec![0u8; len];
    let contig = Datatype::Contiguous { len_bytes: len, offset: 0 };
    let mut send_types = [Datatype::Empty, Datatype::Empty];
    let mut recv_types = [Datatype::Empty, Datatype::Empty];
    send_types[other] = contig;
    recv_types[other] = contig;
    comm.alltoallw(&send, &send_types, &mut recv, &recv_types)?;
    Ok(recv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: a corrupt alltoallw payload of any size — below, at, and
    /// above the zero-copy loan threshold, all of which the fault plan
    /// stages — is detected on its first delivery and reported as a
    /// structured error carrying the full coordinates (source, destination,
    /// collective tag), while the clean direction delivers byte-identical
    /// output. Never a hang.
    #[test]
    fn corruption_is_detected_across_zc_threshold(
        seed in any::<u64>(),
        size_class in 0usize..4,
        len_seed in any::<u64>(),
    ) {
        // Explicit threshold 1024: without the plan, `len` would land on
        // the staged path, the boundary, and the loan path across cases.
        let len = match size_class {
            0 => 1 + (len_seed as usize % 63),       // well below threshold
            1 => 1000 + (len_seed as usize % 48),    // straddling the boundary
            2 => 1024,                               // exactly at threshold
            _ => 1025,                               // first loan-sized length
        };
        let out = Universe::builder()
            .timeout(Duration::from_secs(20))
            .zerocopy(true)
            .zerocopy_threshold(1024)
            .fault_plan(FaultPlan::new(seed).corrupt_message(0, 1, None, 0))
            .run(2, move |comm| {
                let got = paired_exchange(comm, seed, len);
                (got, comm.integrity_counters(), comm.transport_counters())
            });
        let expect = |r: usize| -> Vec<u8> {
            (0..len).map(|i| (seed as u8) ^ (r as u8) ^ (i as u8).wrapping_mul(13)).collect()
        };
        let (res1, c1, t1) = &out[1];
        match res1 {
            Err(Error::IntegrityFailure { src, dst, tag }) => {
                prop_assert_eq!(*src, 0);
                prop_assert_eq!(*dst, 1);
                prop_assert!(*tag >= 1 << 32, "collective tags live above the user range");
            }
            other => return Err(TestCaseError::fail(format!(
                "expected IntegrityFailure, got {other:?}"
            ))),
        }
        prop_assert_eq!(c1.detected, 1);
        prop_assert_eq!(t1.zerocopy_msgs, 0);
        let got0 = out[0].0.as_ref().expect("clean direction must succeed");
        prop_assert_eq!(got0, &expect(1));
    }
}
