//! Property-based tests of minimpi collectives with randomized payloads,
//! sizes, and rank counts.

use minimpi::Universe;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allgather_arbitrary_content(
        nprocs in 1usize..6,
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 6),
    ) {
        let payloads_ref = &payloads;
        let outs = Universe::run(nprocs, move |comm| {
            comm.allgather::<u8>(&payloads_ref[comm.rank()]).unwrap()
        });
        for all in outs {
            prop_assert_eq!(all.len(), nprocs);
            for (r, part) in all.iter().enumerate() {
                prop_assert_eq!(part, &payloads[r]);
            }
        }
    }

    #[test]
    fn allgather_folds_to_max_and_min(
        nprocs in 1usize..7,
        values in prop::collection::vec(any::<i64>(), 7),
    ) {
        let values_ref = &values;
        let outs = Universe::run(nprocs, move |comm| {
            let mine = [values_ref[comm.rank()]];
            let all = comm.allgather(&mine).unwrap();
            let mx = all.iter().map(|p| p[0]).max().unwrap();
            let mn = all.iter().map(|p| p[0]).min().unwrap();
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
            }
        });
    }
}
