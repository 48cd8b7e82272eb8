//! Distributed-vs-serial equivalence: the slab-decomposed solver must match
//! the single-lattice reference bit for bit, for any rank count.

use ddr_lbm::{barrier_line, barrier_none, Config, DistributedLbm, Lattice};
use minimpi::Universe;

/// Run the serial reference for `steps` and return (velocity, vorticity).
fn serial_fields(
    cfg: Config,
    barrier: &(dyn Fn(usize, usize) -> bool + Send + Sync),
    steps: usize,
) -> (Vec<(f64, f64)>, Vec<f32>) {
    let mut lat = Lattice::new(cfg, 0, cfg.ny, barrier);
    for _ in 0..steps {
        lat.step_serial();
    }
    let vel: Vec<(f64, f64)> = (0..cfg.ny).flat_map(|ly| lat.velocity_row(ly)).collect();
    let vort = lat.vorticity(None, None);
    (vel, vort)
}

fn distributed_fields(
    cfg: Config,
    barrier: &(dyn Fn(usize, usize) -> bool + Send + Sync),
    steps: usize,
    nprocs: usize,
) -> (Vec<(f64, f64)>, Vec<f32>) {
    let results = Universe::run(nprocs, |comm| {
        let mut sim = DistributedLbm::new(cfg, comm, barrier);
        for _ in 0..steps {
            sim.step(comm).unwrap();
        }
        let vel: Vec<(f64, f64)> =
            (0..sim.lattice().rows()).flat_map(|ly| sim.lattice().velocity_row(ly)).collect();
        let vort = sim.vorticity(comm).unwrap();
        (sim.slab(), vel, vort)
    });
    let mut vel = vec![(0.0, 0.0); cfg.nx * cfg.ny];
    let mut vort = vec![0f32; cfg.nx * cfg.ny];
    for ((y0, rows), v, w) in results {
        vel[y0 * cfg.nx..(y0 + rows) * cfg.nx].copy_from_slice(&v);
        vort[y0 * cfg.nx..(y0 + rows) * cfg.nx].copy_from_slice(&w);
    }
    (vel, vort)
}

#[test]
fn distributed_matches_serial_bitwise_no_barrier() {
    let cfg = Config::wind_tunnel(32, 24);
    let barrier = barrier_none();
    let (sv, sw) = serial_fields(cfg, &barrier, 20);
    for nprocs in [2usize, 3, 5] {
        let (dv, dw) = distributed_fields(cfg, &barrier, 20, nprocs);
        assert_eq!(sv, dv, "velocity mismatch at {nprocs} ranks");
        assert_eq!(sw, dw, "vorticity mismatch at {nprocs} ranks");
    }
}

#[test]
fn distributed_matches_serial_bitwise_with_barrier() {
    let cfg = Config::wind_tunnel(48, 30);
    let barrier = barrier_line(12, 10, 20);
    let (sv, sw) = serial_fields(cfg, &barrier, 60);
    for nprocs in [2usize, 4, 6] {
        let (dv, dw) = distributed_fields(cfg, &barrier, 60, nprocs);
        assert_eq!(sv, dv, "velocity mismatch at {nprocs} ranks");
        assert_eq!(sw, dw, "vorticity mismatch at {nprocs} ranks");
    }
}

#[test]
fn barrier_crossing_slab_boundary_is_handled() {
    // The barrier spans rows 10..=20; with 6 ranks over 30 rows the slab
    // boundaries at rows 10, 15, 20 cut right through it.
    let cfg = Config::wind_tunnel(32, 30);
    let barrier = barrier_line(8, 10, 20);
    let (sv, _) = serial_fields(cfg, &barrier, 40);
    let (dv, _) = distributed_fields(cfg, &barrier, 40, 6);
    assert_eq!(sv, dv);
}

#[test]
fn single_rank_distributed_equals_serial() {
    let cfg = Config::wind_tunnel(24, 12);
    let barrier = barrier_line(6, 4, 8);
    let (sv, sw) = serial_fields(cfg, &barrier, 30);
    let (dv, dw) = distributed_fields(cfg, &barrier, 30, 1);
    assert_eq!(sv, dv);
    assert_eq!(sw, dw);
}

#[test]
fn uneven_rank_counts_cover_domain() {
    // 30 rows over 7 ranks: slabs of 5,5,4,4,4,4,4.
    let cfg = Config::wind_tunnel(16, 30);
    let barrier = barrier_none();
    let (dv, _) = distributed_fields(cfg, &barrier, 5, 7);
    assert_eq!(dv.len(), 16 * 30);
    // Uniform flow preserved.
    assert!(dv.iter().all(|&(ux, uy)| (ux - cfg.u0).abs() < 1e-12 && uy.abs() < 1e-12));
}
