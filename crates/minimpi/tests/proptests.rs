//! Property-based tests of minimpi collectives with randomized payloads,
//! sizes, and rank counts.

use minimpi::Universe;
use proptest::prelude::*;

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
            let mx = comm.allreduce(&mine, i64::max).unwrap()[0];
            let mn = comm.allreduce(&mine, i64::min).unwrap()[0];
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
                let sum = comm.allreduce(&[1u64], |a, b| a + b).unwrap()[0];
                assert_eq!(sum, nprocs as u64);
                let bc = comm.broadcast_bytes(round % nprocs, &[round as u8]).unwrap();
                assert_eq!(bc, vec![round as u8]);
            }
        });
    }
}
