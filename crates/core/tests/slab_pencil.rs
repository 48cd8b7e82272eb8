//! The slab-to-pencil transpose of a distributed 3-D FFT (Dalcin et al.,
//! "Fast parallel multidimensional FFT using advanced MPI"): a 64³ `f32`
//! volume held in z-slabs by 4 ranks comes back in x-slabs, so every rank
//! sends N³/P² elements to every peer, itself included, in one exchange.

use ddr_core::decompose::slab;
use ddr_core::{Block, DataKind, Descriptor};
use minimpi::{Counter, Universe};

const N: usize = 64;
const P: usize = 4;

/// A cell's value: its linear index in the volume, x fastest (exact in
/// `f32` below 2^24).
fn value(c: [usize; 3]) -> f32 {
    (c[0] + N * (c[1] + N * c[2])) as f32
}

/// Every rank's x-slab equals the serial oracle, and the exchange moved all
/// of its bytes through the 64-byte loop: a z-slab's part for one peer is
/// N/P x-values (64 bytes) per (y, z) row, and an x-slab receives it as one
/// contiguous stretch.
#[test]
fn z_slabs_to_x_slabs_move_every_byte_through_the_64_byte_loop() {
    let domain = Block::d3([0, 0, 0], [N, N, N]).unwrap();
    let out = Universe::run(P, |comm| {
        let r = comm.rank();
        let (owned, need) = (slab(&domain, 2, P, r).unwrap(), slab(&domain, 0, P, r).unwrap());
        let desc = Descriptor::for_type::<f32>(P, DataKind::D3).unwrap();
        let plan = desc.setup_data_mapping(comm, &[owned], need).unwrap();
        let data: Vec<f32> = owned.coords().map(value).collect();
        let mut got = Vec::new();
        plan.reorganize(comm, &[&data], &mut got).unwrap();
        comm.barrier().unwrap();
        (need, got, comm.counters())
    });
    for (r, (need, got, _)) in out.iter().enumerate() {
        let oracle: Vec<f32> = need.coords().map(value).collect();
        assert!(got.iter().map(|v| v.to_bits()).eq(oracle.iter().map(|v| v.to_bits())), "rank {r}");
    }
    let counts = out[0].2;
    // P² parts (every rank to every rank) of N³/P² values of 4 bytes.
    let moved = (P * P * (N * N * N / (P * P)) * 4) as u64;
    let pack = [Counter::PackFusedRuns, Counter::PackVectorBytes, Counter::PackScalarBytes];
    assert_eq!(pack.map(|c| counts[c]), [0, moved, 0], "(fused runs, vector bytes, scalar bytes)");
}
