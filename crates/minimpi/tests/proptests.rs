//! Property-based tests of minimpi collectives with randomized payloads,
//! sizes, and rank counts.

use minimpi::{Datatype, Error, FaultPlan, Universe, VectorClock};
use proptest::prelude::*;
use std::time::Duration;

/// Build a clock with the given per-rank components through the public API
/// (ticking each component up to its target value).
fn clock_from(components: &[u64]) -> VectorClock {
    let mut c = VectorClock::new(components.len());
    for (rank, &v) in components.iter().enumerate() {
        for _ in 0..v {
            c.tick(rank);
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ticking strictly advances the clock: the old snapshot happens-before
    /// the new one and never the other way around. This is what makes every
    /// recorded access comparable to later accesses by the same rank.
    #[test]
    fn vclock_tick_is_strictly_monotonic(
        n in 1usize..6,
        raw in prop::collection::vec(0u64..12, 6),
        rank_pick in any::<u8>(),
    ) {
        let a = &raw[..n];
        let before = clock_from(a);
        let mut after = before.clone();
        let rank = rank_pick as usize % a.len();
        after.tick(rank);
        prop_assert!(before.leq(&after));
        prop_assert!(!after.leq(&before));
        prop_assert_eq!(after.get(rank), before.get(rank) + 1);
    }

    /// Join is the least upper bound: both inputs happen-before the join,
    /// and any other upper bound dominates it. The checker relies on this
    /// when a receive folds the sender's snapshot into the receiver's clock.
    #[test]
    fn vclock_join_is_least_upper_bound(
        n in 1usize..6,
        ra in prop::collection::vec(0u64..12, 6),
        rb in prop::collection::vec(0u64..12, 6),
        rc in prop::collection::vec(0u64..12, 6),
    ) {
        let (a, b, c) = (&ra[..n], &rb[..n], &rc[..n]);
        let (ca, cb, cc) = (clock_from(a), clock_from(b), clock_from(c));
        let mut joined = ca.clone();
        joined.join(&cb);
        prop_assert!(ca.leq(&joined));
        prop_assert!(cb.leq(&joined));
        if ca.leq(&cc) && cb.leq(&cc) {
            prop_assert!(joined.leq(&cc));
        }
    }

    /// Join is commutative, idempotent, and associative — so the clock a
    /// rank ends up with is independent of the order its deliveries were
    /// folded in, which is what lets the race verdict be schedule-stable.
    #[test]
    fn vclock_join_laws(
        n in 1usize..6,
        ra in prop::collection::vec(0u64..12, 6),
        rb in prop::collection::vec(0u64..12, 6),
        rc in prop::collection::vec(0u64..12, 6),
    ) {
        let (a, b, c) = (&ra[..n], &rb[..n], &rc[..n]);
        let (ca, cb, cc) = (clock_from(a), clock_from(b), clock_from(c));
        let mut ab = ca.clone();
        ab.join(&cb);
        let mut ba = cb.clone();
        ba.join(&ca);
        prop_assert_eq!(&ab, &ba);
        let mut aa = ca.clone();
        aa.join(&ca);
        prop_assert_eq!(&aa, &ca);
        let mut ab_c = ab.clone();
        ab_c.join(&cc);
        let mut bc = cb.clone();
        bc.join(&cc);
        let mut a_bc = ca.clone();
        a_bc.join(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
    }

    /// `leq` is a partial order (reflexive, antisymmetric, transitive) and
    /// `concurrent` is exactly its incomparability relation — symmetric,
    /// irreflexive, and matching a componentwise model.
    #[test]
    fn vclock_leq_is_a_partial_order_and_concurrent_its_complement(
        n in 1usize..6,
        ra in prop::collection::vec(0u64..12, 6),
        rb in prop::collection::vec(0u64..12, 6),
        rc in prop::collection::vec(0u64..12, 6),
    ) {
        let (a, b, c) = (&ra[..n], &rb[..n], &rc[..n]);
        let (ca, cb, cc) = (clock_from(a), clock_from(b), clock_from(c));
        prop_assert!(ca.leq(&ca));
        prop_assert!(!ca.concurrent(&ca));
        if ca.leq(&cb) && cb.leq(&ca) {
            prop_assert_eq!(&ca, &cb);
        }
        if ca.leq(&cb) && cb.leq(&cc) {
            prop_assert!(ca.leq(&cc));
        }
        prop_assert_eq!(ca.concurrent(&cb), cb.concurrent(&ca));
        let model_leq = a.iter().zip(b.iter()).all(|(x, y)| x <= y);
        prop_assert_eq!(ca.leq(&cb), model_leq);
    }
}

/// Regression corpus for the clock laws: fixed component vectors that pin
/// the boundary cases the random sweep only sometimes lands on.
mod vclock_regressions {
    use super::clock_from;
    use minimpi::VectorClock;

    #[test]
    fn equal_clocks_are_ordered_both_ways_and_not_concurrent() {
        let a = clock_from(&[3, 1, 4]);
        let b = clock_from(&[3, 1, 4]);
        assert!(a.leq(&b) && b.leq(&a));
        assert!(!a.concurrent(&b));
    }

    #[test]
    fn classic_crossing_pair_is_concurrent() {
        // Each side is ahead on its own component: neither orders the other.
        let a = clock_from(&[2, 0]);
        let b = clock_from(&[0, 2]);
        assert!(a.concurrent(&b));
        let mut join = a.clone();
        join.join(&b);
        assert_eq!(join, clock_from(&[2, 2]));
    }

    #[test]
    fn zero_clock_precedes_everything() {
        let zero = VectorClock::new(3);
        let any = clock_from(&[0, 7, 1]);
        assert!(zero.leq(&any));
        assert!(!zero.concurrent(&any));
    }

    #[test]
    fn single_rank_world_is_totally_ordered() {
        // With one component, concurrency is impossible by construction.
        let a = clock_from(&[5]);
        let b = clock_from(&[9]);
        assert!(a.leq(&b));
        assert!(!a.concurrent(&b));
    }

    #[test]
    fn empty_world_clock_is_leq_itself() {
        let a = VectorClock::new(0);
        assert!(a.is_empty());
        assert!(a.leq(&a));
        assert!(!a.concurrent(&a));
    }
}

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
    /// stages — is detected and recovered by retransmission, restoring
    /// byte-identical output.
    #[test]
    fn corruption_recovers_across_zc_threshold(
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
                let got = paired_exchange(comm, seed, len)?;
                Ok::<_, Error>((got, comm.integrity_counters(), comm.transport_counters()))
            });
        let expect = |r: usize| -> Vec<u8> {
            (0..len).map(|i| (seed as u8) ^ (r as u8) ^ (i as u8).wrapping_mul(13)).collect()
        };
        let (got1, c1, t1) = out[1].as_ref().expect("corrupt transfer must recover");
        prop_assert_eq!(got1, &expect(0));
        prop_assert!(c1.detected >= 1);
        prop_assert_eq!(c1.exhausted, 0);
        prop_assert_eq!(t1.zerocopy_msgs, 0);
        let (got0, ..) = out[0].as_ref().expect("clean direction must succeed");
        prop_assert_eq!(got0, &expect(1));
    }

    /// Exhaustion at any seed and size is a structured error carrying the
    /// full failure coordinates — source, destination, tag, and the number
    /// of retransmit attempts consumed — never a hang.
    #[test]
    fn exhaustion_error_carries_full_coordinates(
        seed in any::<u64>(),
        len in 1usize..512,
    ) {
        let max = 1u32;
        let plan = FaultPlan::new(seed)
            .corrupt_message(0, 1, None, 0)
            .corrupt_message(0, 1, None, 1);
        let out = Universe::builder()
            .timeout(Duration::from_secs(20))
            .retransmit_max(max)
            .retransmit_backoff(Duration::from_micros(50))
            .fault_plan(plan)
            .run(2, move |comm| paired_exchange(comm, seed, len));
        match &out[1] {
            Err(Error::IntegrityFailure { src, dst, tag, attempt }) => {
                prop_assert_eq!(*src, 0);
                prop_assert_eq!(*dst, 1);
                prop_assert!(*tag >= 1 << 32, "collective tags live above the user range");
                prop_assert_eq!(*attempt, max);
            }
            other => return Err(TestCaseError::fail(format!(
                "expected IntegrityFailure, got {other:?}"
            ))),
        }
    }
}
