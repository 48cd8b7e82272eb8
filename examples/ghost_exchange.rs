//! Ghost-zone staging with the generalized multi-block API.
//!
//! The published DDR library restricts each rank to a *single* continuous
//! needed block; its future work calls for "more data patterns". This
//! example uses the `setup_multi_mapping` extension to stage a stencil
//! computation: each rank's needed data is its own slab **plus** one-row
//! halos from both neighbors — up to three blocks, declared directly, with
//! DDR computing who sends what. One `reorganize_needs` fills them all in
//! one exchange.
//!
//! A 5-point Laplacian is then applied using the halos and verified against
//! a serial computation of the whole domain.
//!
//! Run with: `cargo run --example ghost_exchange`

use ddr::core::decompose::slab;
use ddr::core::{Block, DataKind, DdrError, Descriptor, ValidationPolicy};
use ddr::minimpi::Universe;
use std::process::ExitCode;

const NX: usize = 64;
const NY: usize = 48;
const NPROCS: usize = 6;

fn field(x: usize, y: usize) -> f64 {
    (x as f64 * 0.3).sin() * (y as f64 * 0.2).cos() * 100.0
}

fn laplacian(get: impl Fn(usize, i64) -> f64, x: usize, y: i64) -> f64 {
    let left = if x > 0 { get(x - 1, y) } else { get(x, y) };
    let right = if x + 1 < NX { get(x + 1, y) } else { get(x, y) };
    left + right + get(x, y - 1) + get(x, y + 1) - 4.0 * get(x, y)
}

fn main() -> ExitCode {
    let domain = Block::d2([0, 0], [NX, NY]).unwrap();

    // Serial reference.
    let serial: Vec<f64> = (0..NY as i64)
        .flat_map(|y| {
            (0..NX).map(move |x| {
                let get = |x: usize, y: i64| {
                    let yc = y.clamp(0, NY as i64 - 1) as usize;
                    field(x, yc)
                };
                laplacian(get, x, y)
            })
        })
        .collect();

    let outcomes = Universe::run(NPROCS, |comm| {
        let r = comm.rank();
        let my_slab = slab(&domain, 1, NPROCS, r).unwrap();
        let owned = vec![my_slab];

        // Need: my slab + halo rows that exist.
        let mut needs = vec![my_slab];
        let y0 = my_slab.offset[1];
        let y1 = y0 + my_slab.dims[1];
        if y0 > 0 {
            needs.push(Block::d2([0, y0 - 1], [NX, 1]).unwrap());
        }
        if y1 < NY {
            needs.push(Block::d2([0, y1], [NX, 1]).unwrap());
        }

        let desc = Descriptor::for_type::<f64>(NPROCS, DataKind::D2)?;
        let plan = desc.setup_multi_mapping(comm, &owned, &needs, ValidationPolicy::Strict)?;

        let data: Vec<f64> = my_slab.coords().map(|c| field(c[0], c[1])).collect();
        let mut bufs = vec![Vec::new(); needs.len()];
        plan.reorganize_needs(comm, &[&data], &mut bufs)?;

        // Stencil over the slab using the received halos.
        let rows = my_slab.dims[1];
        let below = (y0 > 0).then(|| bufs[1].clone());
        let above = if y1 < NY { Some(bufs[if y0 > 0 { 2 } else { 1 }].clone()) } else { None };
        let slab_data = &bufs[0];
        let get = |x: usize, ly: i64| -> f64 {
            if ly < 0 {
                match &below {
                    Some(h) => h[x],
                    None => slab_data[x], // clamped at global edge
                }
            } else if ly >= rows as i64 {
                match &above {
                    Some(h) => h[x],
                    None => slab_data[(rows - 1) * NX + x],
                }
            } else {
                slab_data[ly as usize * NX + x]
            }
        };
        let out: Vec<f64> = (0..rows as i64)
            .flat_map(|ly| (0..NX).map(move |x| (x, ly)))
            .map(|(x, ly)| laplacian(get, x, ly))
            .collect();
        Ok::<_, DdrError>((y0, rows, out, plan.num_rounds(), plan.total_sent_bytes()))
    });

    let mut results = Vec::with_capacity(outcomes.len());
    for (rank, o) in outcomes.into_iter().enumerate() {
        match o {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("ghost_exchange: rank {rank} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut stitched = vec![0f64; NX * NY];
    for (y0, rows, out, rounds, sent) in &results {
        stitched[y0 * NX..(y0 + rows) * NX].copy_from_slice(out);
        println!("rank slab rows {y0}..{}: {rounds} round(s), {sent} bytes shipped", y0 + rows);
    }
    let max_err = stitched.iter().zip(&serial).map(|(a, b)| (a - b).abs()).fold(0f64, f64::max);
    println!("\nmax |distributed - serial| = {max_err:.3e}");
    if stitched != serial {
        eprintln!("ghost_exchange: stencil diverges from the serial reference");
        return ExitCode::FAILURE;
    }
    println!("OK: ghost-zone staging through DDR multi-need is exact.");
    ExitCode::SUCCESS
}
