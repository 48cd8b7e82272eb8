//! LBM solver step rate, serial and distributed (halo exchange included).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ddr_lbm::{barrier_line, Config, DistributedLbm, Lattice};
use minimpi::Universe;
use std::hint::black_box;

fn bench_serial_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("lbm_serial");
    g.sample_size(20);
    let cfg = Config::wind_tunnel(256, 128);
    let barrier = barrier_line(64, 48, 80);
    g.throughput(Throughput::Elements((cfg.nx * cfg.ny) as u64));
    g.bench_function("step_256x128", |b| {
        let mut lat = Lattice::new(cfg, 0, cfg.ny, &barrier);
        b.iter(|| {
            lat.step_serial();
            black_box(lat.macroscopic(1, 1).0)
        });
    });
    g.bench_function("stream_256x128", |b| {
        let mut lat = Lattice::new(cfg, 0, cfg.ny, &barrier);
        b.iter(|| {
            lat.stream();
            black_box(lat.macroscopic(1, 1).0)
        });
    });
    g.finish();
}

fn bench_distributed_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("lbm_distributed");
    g.sample_size(10);
    let cfg = Config::wind_tunnel(256, 128);
    for nprocs in [2usize, 4, 8] {
        g.throughput(Throughput::Elements((cfg.nx * cfg.ny * 10) as u64));
        g.bench_with_input(BenchmarkId::new("steps10", nprocs), &nprocs, |b, &n| {
            b.iter(|| {
                let sums = Universe::run(n, |comm| {
                    let barrier = barrier_line(64, 48, 80);
                    let mut sim = DistributedLbm::new(cfg, comm, &barrier);
                    for _ in 0..10 {
                        sim.step(comm).unwrap();
                    }
                    sim.lattice().macroscopic(1, 0).0
                });
                black_box(sums[0])
            });
        });
    }
    g.finish();
}

fn bench_vorticity(c: &mut Criterion) {
    let mut g = c.benchmark_group("lbm_vorticity");
    let cfg = Config::wind_tunnel(256, 128);
    let barrier = barrier_line(64, 48, 80);
    let mut lat = Lattice::new(cfg, 0, cfg.ny, &barrier);
    for _ in 0..50 {
        lat.step_serial();
    }
    g.throughput(Throughput::Elements((cfg.nx * cfg.ny) as u64));
    g.bench_function("extract_256x128", |b| {
        b.iter(|| black_box(lat.vorticity(None, None).len()));
    });
    g.finish();
}

criterion_group!(benches, bench_serial_step, bench_distributed_steps, bench_vorticity);
criterion_main!(benches);
