//! Integration tests for minimpi collectives across real rank threads.

use minimpi::{Datatype, Subarray, Universe};

#[test]
fn barrier_many_times() {
    Universe::run(7, |comm| {
        for _ in 0..50 {
            comm.barrier().unwrap();
        }
    });
}

#[test]
fn barrier_orders_side_effects() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static BEFORE: AtomicUsize = AtomicUsize::new(0);
    let seen = Universe::run(6, |comm| {
        BEFORE.fetch_add(1, Ordering::SeqCst);
        comm.barrier().unwrap();
        BEFORE.load(Ordering::SeqCst)
    });
    // After the barrier, every rank must observe all 6 increments.
    assert!(seen.into_iter().all(|s| s == 6));
}

/// Allgather's broadcast leg carries one rank's large contribution to every
/// rank, whole.
#[test]
fn allgather_large_payload() {
    let out = Universe::run(9, |comm| {
        let data: Vec<u64> = if comm.rank() == 3 { (0..100_000).collect() } else { vec![] };
        let got = comm.allgather(&data).unwrap().swap_remove(3);
        (got.len(), got[12_345])
    });
    for (len, v) in out {
        assert_eq!(len, 100_000);
        assert_eq!(v, 12_345);
    }
}

#[test]
fn gather_collects_in_rank_order() {
    let out = Universe::run(6, |comm| {
        let mine = vec![comm.rank() as u8; comm.rank() + 1];
        comm.gather_bytes(2, &mine).unwrap()
    });
    for (rank, res) in out.into_iter().enumerate() {
        if rank == 2 {
            let parts = res.unwrap();
            for (r, p) in parts.iter().enumerate() {
                assert_eq!(p, &vec![r as u8; r + 1]);
            }
        } else {
            assert!(res.is_none());
        }
    }
}

#[test]
fn allgather_variable_lengths() {
    let out = Universe::run(5, |comm| {
        let mine: Vec<u16> = (0..comm.rank() as u16 * 2).collect();
        comm.allgather(&mine).unwrap()
    });
    for parts in out {
        assert_eq!(parts.len(), 5);
        for (r, p) in parts.iter().enumerate() {
            assert_eq!(p, &(0..r as u16 * 2).collect::<Vec<_>>());
        }
    }
}

/// Element-wise sum over ranks: an allgather, then a local fold.
fn sum_over_ranks(comm: &minimpi::Comm, mine: &[u64]) -> Vec<u64> {
    let all = comm.allgather(mine).unwrap();
    (0..mine.len()).map(|i| all.iter().map(|p| p[i]).sum()).collect()
}

#[test]
fn allgather_then_fold_sums() {
    let out = Universe::run(8, |comm| sum_over_ranks(comm, &[comm.rank() as u64, 1]));
    for got in out {
        assert_eq!(got, vec![28, 8]); // 0+..+7 = 28
    }
}

#[test]
fn allgather_folds_in_rank_order_for_nonassociative_ops() {
    // Subtraction is order-sensitive: ((0 - 1) - 2) - 3 = -6.
    let out = Universe::run(4, |comm| {
        let all = comm.allgather(&[comm.rank() as i64]).unwrap();
        all.iter().map(|p| p[0]).reduce(|a, b| a - b).unwrap()
    });
    assert_eq!(out, vec![-6; 4]);
}

#[test]
fn alltoallw_transposes_a_block_distributed_matrix() {
    // An 8x8 u32 matrix distributed as 2 rows per rank (4 ranks) is
    // redistributed to 2 columns per rank using subarray datatypes.
    let n = 4;
    let out = Universe::run(n, |comm| {
        let me = comm.rank();
        // Global element (x, y) has value y * 8 + x. I own rows 2*me..2*me+2,
        // stored as an 8x2 local array.
        let own: Vec<u32> = (0..16).map(|i| ((2 * me + i / 8) * 8 + i % 8) as u32).collect();
        // I need columns 2*me..2*me+2, stored as a 2x8 local array.
        let mut need = vec![0u8; 16 * 4];

        let send_types: Vec<Datatype> = (0..n)
            .map(|d| {
                // To rank d: the 2-wide column band [2d..2d+2) of my 8x2 rows.
                Datatype::Subarray(
                    Subarray::new(2, [8, 2, 1], [2, 2, 1], [2 * d, 0, 0], 4).unwrap(),
                )
            })
            .collect();
        let recv_types: Vec<Datatype> = (0..n)
            .map(|s| {
                // From rank s: its 2 rows of my 2-wide column band, placed at
                // row offset 2*s of my 2x8 local array.
                Datatype::Subarray(
                    Subarray::new(2, [2, 8, 1], [2, 2, 1], [0, 2 * s, 0], 4).unwrap(),
                )
            })
            .collect();

        comm.alltoallw(minimpi::bytes_of(&own), &send_types, &mut need, &recv_types).unwrap();
        need.chunks(4).map(|b| u32::from_ne_bytes(b.try_into().unwrap())).collect::<Vec<_>>()
    });

    for (me, need) in out.into_iter().enumerate() {
        for (i, v) in need.into_iter().enumerate() {
            let x = 2 * me + i % 2;
            let y = i / 2;
            assert_eq!(v as usize, y * 8 + x, "rank {me} element {i}");
        }
    }
}

#[test]
fn split_into_two_groups_with_independent_collectives() {
    let out = Universe::run(10, |comm| {
        let color = if comm.rank() < 6 { 0u64 } else { 1u64 };
        let sub = comm.split(color).unwrap();
        let sum = sum_over_ranks(&sub, &[comm.rank() as u64])[0];
        (color, sub.rank(), sub.size(), sum)
    });
    for (rank, (color, sub_rank, sub_size, sum)) in out.into_iter().enumerate() {
        if rank < 6 {
            assert_eq!((color, sub_rank, sub_size, sum), (0, rank, 6, 15));
        } else {
            assert_eq!((color, sub_rank, sub_size, sum), (1, rank - 6, 4, 30)); // 6+7+8+9
        }
    }
}

#[test]
fn split_then_cross_group_p2p_on_parent() {
    // Groups do internal collectives while cross-group messages flow on the
    // parent communicator — the in-transit streaming pattern.
    let out = Universe::run(6, |comm| {
        let color = (comm.rank() % 2) as u64;
        let sub = comm.split(color).unwrap();
        sub.barrier().unwrap();
        if color == 0 {
            comm.send(comm.rank() + 1, 9, &[comm.rank() as u32]).unwrap();
            0
        } else {
            comm.recv_vec::<u32>(comm.rank() - 1, 9).unwrap()[0]
        }
    });
    assert_eq!(out, vec![0, 0, 0, 2, 0, 4]);
}

#[test]
fn one_color_split_gives_isolated_namespace() {
    Universe::run(4, |comm| {
        let dup = comm.split(0).unwrap();
        // Send on parent, then a collective on the copy, then receive on
        // parent: traffic must not cross namespaces.
        let peer = (comm.rank() + 1) % 4;
        let from = (comm.rank() + 3) % 4;
        comm.send(peer, 1, &[comm.rank() as u32]).unwrap();
        let s = sum_over_ranks(&dup, &[1])[0];
        assert_eq!(s, 4);
        let got = comm.recv_vec::<u32>(from, 1).unwrap();
        assert_eq!(got, vec![from as u32]);
    });
}

#[test]
fn message_order_preserved_per_sender_and_tag() {
    let out = Universe::run(2, |comm| {
        if comm.rank() == 0 {
            for i in 0..100u32 {
                comm.send(1, 5, &[i]).unwrap();
            }
            vec![]
        } else {
            (0..100).map(|_| comm.recv_vec::<u32>(0, 5).unwrap()[0]).collect()
        }
    });
    assert_eq!(out[1], (0..100).collect::<Vec<u32>>());
}

#[test]
fn recv_timeout_reports_deadlock() {
    use std::time::Duration;
    let out = Universe::run(2, |comm| {
        if comm.rank() == 1 {
            comm.set_timeout(Duration::from_millis(50));
            let err = comm.recv_bytes(0, 42).err();
            // Release rank 0, which stays alive (blocked) during our wait so
            // the watchdog — not the fail-fast liveness path — fires.
            comm.send::<u8>(0, 43, &[]).unwrap();
            err
        } else {
            comm.recv_bytes(1, 43).unwrap();
            None
        }
    });
    assert!(matches!(out[1], Some(minimpi::Error::Timeout { rank: 1, src: 0, tag: 42, .. })));
}

#[test]
fn recv_from_departed_rank_fails_fast_with_peer_dead() {
    use std::time::Duration;
    let out = Universe::run(2, |comm| {
        if comm.rank() == 1 {
            comm.set_timeout(Duration::from_secs(60));
            comm.recv_bytes(0, 42).err()
        } else {
            None // departs immediately → marked dead
        }
    });
    assert!(matches!(out[1], Some(minimpi::Error::PeerDead { rank: 0 })));
}

#[test]
fn typed_recv_rejects_misaligned_length() {
    let out = Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 0, &[1u8, 2, 3]).unwrap(); // 3 bytes, not a u32 multiple
            None
        } else {
            comm.recv_vec::<u32>(0, 0).err()
        }
    });
    assert!(matches!(out[1], Some(minimpi::Error::SizeMismatch { .. })));
}

#[test]
fn collectives_compose_in_sequence() {
    // A realistic mixed workload: allgather layouts, alltoallw exchange,
    // sum a checksum over ranks — repeated, on the same communicator.
    let n = 4;
    Universe::run(n, |comm| {
        for iter in 0..10u64 {
            let layouts = comm.allgather(&[comm.rank() as u64 * 100 + iter]).unwrap();
            assert_eq!(layouts.len(), n);
            for (r, l) in layouts.iter().enumerate() {
                assert_eq!(l[0], r as u64 * 100 + iter);
            }
            let sum = sum_over_ranks(comm, &[iter])[0];
            assert_eq!(sum, iter * n as u64);
            comm.barrier().unwrap();
        }
    });
}

/// Every rank sends every other a rank-stamped 512-byte segment, each a
/// loan; every segment must arrive exactly. Repeated, because the order in
/// which loans are claimed varies from run to run.
#[test]
fn alltoallw_all_pairs_delivers_every_segment() {
    let (n, len) = (4usize, 512usize);
    for _ in 0..16 {
        let out = Universe::run(n, |comm| {
            let me = comm.rank();
            let send: Vec<u8> = (0..n * len).map(|i| (me as u8) ^ (i as u8)).collect();
            let mut recv = vec![0u8; n * len];
            let types: Vec<Datatype> =
                (0..n).map(|r| Datatype::Contiguous { len_bytes: len, offset: r * len }).collect();
            comm.alltoallw(&send, &types, &mut recv, &types).unwrap();
            recv
        });
        for recv in out {
            for (r, chunk) in recv.chunks(len).enumerate() {
                let want: Vec<u8> = (0..len).map(|i| (r as u8) ^ ((r * len + i) as u8)).collect();
                assert_eq!(chunk, &want[..], "segment from rank {r}");
            }
        }
    }
}
