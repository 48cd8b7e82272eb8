//! The benchmark's cadence: one `step`, then one `vorticity`, every frame.
//! `vorticity` runs the next step's collide, so every frame after the first
//! starts from a slab collided ahead; each frame's stitched field must still
//! equal the serial solver's, bit for bit.

use ddr_lbm::{barrier_line, Config, DistributedLbm, Lattice};
use minimpi::Universe;

const FRAMES: usize = 8;

/// The serial field after each of `FRAMES` steps.
fn serial_frames(cfg: Config, barrier: &(dyn Fn(usize, usize) -> bool + Sync)) -> Vec<Vec<f32>> {
    let mut lat = Lattice::new(cfg, 0, cfg.ny, barrier);
    (0..FRAMES)
        .map(|_| {
            lat.step_serial();
            lat.vorticity(None, None)
        })
        .collect()
}

/// The stitched field after each of `FRAMES` steps of `nprocs` ranks, and
/// the slab heights.
fn distributed_frames(
    cfg: Config,
    barrier: &(dyn Fn(usize, usize) -> bool + Sync),
    nprocs: usize,
) -> (Vec<Vec<f32>>, Vec<usize>) {
    let slabs = Universe::run(nprocs, |comm| {
        let mut sim = DistributedLbm::new(cfg, comm, barrier);
        let frames: Vec<Vec<f32>> = (0..FRAMES)
            .map(|_| {
                sim.step(comm).unwrap();
                sim.vorticity(comm).unwrap()
            })
            .collect();
        (sim.slab(), frames)
    });
    let mut stitched = vec![vec![0f32; cfg.nx * cfg.ny]; FRAMES];
    for &((y0, rows), ref frames) in &slabs {
        for (field, frame) in stitched.iter_mut().zip(frames) {
            field[y0 * cfg.nx..(y0 + rows) * cfg.nx].copy_from_slice(frame);
        }
    }
    (stitched, slabs.iter().map(|&((_, rows), _)| rows).collect())
}

#[test]
fn one_step_one_frame_matches_serial_every_frame() {
    // 7 rows over 5 ranks are slabs of 2, 2, 1, 1, 1 rows; 13 over 5 are
    // 3, 3, 3, 2, 2. Both barriers cross every slab edge.
    let mut heights = Vec::new();
    for (nx, ny, barrier) in [(24, 7, barrier_line(6, 1, 5)), (40, 13, barrier_line(10, 2, 10))] {
        let cfg = Config::wind_tunnel(nx, ny);
        let serial = serial_frames(cfg, &*barrier);
        for nprocs in [1, 2, 3, 5] {
            let (frames, rows) = distributed_frames(cfg, &*barrier, nprocs);
            heights.extend(rows);
            for (frame, (got, want)) in frames.iter().zip(&serial).enumerate() {
                let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(want), "{nx}x{ny}, {nprocs} ranks, frame {frame}");
            }
        }
    }
    assert!(heights.contains(&1) && heights.contains(&2), "slab heights {heights:?}");
}

#[test]
#[should_panic(expected = "one frame per step")]
fn a_second_vorticity_before_the_next_step_panics() {
    let cfg = Config::wind_tunnel(16, 8);
    Universe::run(1, |comm| {
        let mut sim = DistributedLbm::new(cfg, comm, &*barrier_line(4, 2, 5));
        sim.step(comm).unwrap();
        sim.vorticity(comm).unwrap();
        let _ = sim.vorticity(comm);
    });
}
