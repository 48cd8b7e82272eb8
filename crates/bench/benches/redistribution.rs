//! End-to-end redistribution microbenchmarks and the design ablations
//! called out in DESIGN.md:
//!
//! * slices → bricks throughput vs rank count,
//! * **rounds ablation** — the same bytes moved as 1 chunk/rank vs k
//!   chunks/rank (the consecutive vs round-robin trade-off of Table III at
//!   microbenchmark scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddr_core::decompose::{brick, near_cubic_grid, round_robin_items, slab};
use ddr_core::{Block, DataKind, Descriptor, ValidationPolicy};
use minimpi::Universe;
use std::hint::black_box;

/// One full cycle: map once, reorganize `reps` times (the dynamic-data
/// pattern). Returns a checksum so the work cannot be optimized away.
fn run_cycle(nprocs: usize, domain: Block, chunks_per_rank: usize, reps: usize) -> u64 {
    let counts = near_cubic_grid(nprocs);
    let sums = Universe::run(nprocs, |comm| {
        let r = comm.rank();
        // Owned: z-slabs, split into `chunks_per_rank` interleaved pieces.
        let owned: Vec<Block> = if chunks_per_rank == 1 {
            vec![slab(&domain, 2, nprocs, r).unwrap()]
        } else {
            let planes = domain.dims[2];
            round_robin_items(planes.min(nprocs * chunks_per_rank), nprocs, r, |z| {
                let zlen = planes / (nprocs * chunks_per_rank).min(planes);
                Block::d3([0, 0, z * zlen], [domain.dims[0], domain.dims[1], zlen])
            })
            .unwrap()
        };
        let need = brick(&domain, counts, r).unwrap();
        let desc = Descriptor::for_type::<f32>(nprocs, DataKind::D3).unwrap();
        let plan =
            desc.setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Skip).unwrap();
        let data: Vec<Vec<f32>> =
            owned.iter().map(|b| vec![comm.rank() as f32; b.count() as usize]).collect();
        let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
        let mut out = Vec::new();
        for _ in 0..reps {
            plan.reorganize(comm, &refs, &mut out).unwrap();
        }
        out.iter().map(|v| *v as u64).sum::<u64>()
    });
    sums.iter().sum()
}

fn bench_rank_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("slices_to_bricks");
    g.sample_size(10);
    let domain = Block::d3([0, 0, 0], [128, 128, 64]).unwrap();
    for nprocs in [2usize, 4, 8] {
        g.throughput(criterion::Throughput::Bytes(domain.count() * 4));
        g.bench_with_input(BenchmarkId::from_parameter(nprocs), &nprocs, |b, &n| {
            b.iter(|| black_box(run_cycle(n, domain, 1, 1)));
        });
    }
    g.finish();
}

fn bench_rounds_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("rounds_ablation");
    g.sample_size(10);
    let domain = Block::d3([0, 0, 0], [96, 96, 64]).unwrap();
    for chunks in [1usize, 4, 16] {
        g.bench_with_input(BenchmarkId::new("chunks_per_rank", chunks), &chunks, |b, &k| {
            b.iter(|| black_box(run_cycle(4, domain, k, 1)));
        });
    }
    g.finish();
}

fn bench_plan_reuse(c: &mut Criterion) {
    // Amortized cost per reorganize when the plan is reused 8 times — the
    // dynamic-data pattern of the in-transit use case.
    let mut g = c.benchmark_group("plan_reuse");
    g.sample_size(10);
    let domain = Block::d3([0, 0, 0], [96, 96, 48]).unwrap();
    g.bench_function("map_once_reorganize_8x", |b| {
        b.iter(|| black_box(run_cycle(4, domain, 1, 8)));
    });
    g.bench_function("map_once_reorganize_1x", |b| {
        b.iter(|| black_box(run_cycle(4, domain, 1, 1)));
    });
    g.finish();
}

criterion_group!(benches, bench_rank_scaling, bench_rounds_ablation, bench_plan_reuse);
criterion_main!(benches);
