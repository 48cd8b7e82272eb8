//! Use case 2: in-transit streaming of a CFD simulation into a parallel
//! visualization application (paper §IV-B, Figures 4 and 5, Table IV).
//!
//! Runs a D2Q9 Lattice-Boltzmann wind tunnel with a barrier on M simulation
//! ranks; every `OUTPUT_EVERY` steps each simulation rank streams its slice
//! of the vorticity field to its analysis rank (M→N fan-in). The N analysis
//! ranks use DDR to repartition the slices into near-square rectangles,
//! apply the blue-white-red colormap, and save JPEG frames — comparing
//! output size against what raw float dumps would have cost.
//!
//! Run with: `cargo run --release --example lbm_in_transit`
//! Outputs: `target/lbm_in_transit/frame_*.jpg`

use ddr::core::Block;
use ddr::lbm::{barrier_line, Config, DistributedLbm};
use ddr::minimpi::Universe;
use intransit::{
    analysis_block, consumer_sources, producer_targets, recv_frames, send_frame, split_resources,
    Repartitioner, Role,
};
use jimage::{jpeg, Colormap, RgbImage};
use std::process::ExitCode;

const M: usize = 10; // simulation ranks (Figure 4 uses 10 -> 4)
const N: usize = 4; // analysis ranks
const NX: usize = 640;
const NY: usize = 256;
const STEPS: usize = 1000;
const OUTPUT_EVERY: usize = 100;

fn main() -> ExitCode {
    let out_dir = std::path::PathBuf::from("target/lbm_in_transit");
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    println!("M-to-N mapping (Figure 4): {M} simulation ranks -> {N} analysis ranks");
    for c in 0..N {
        println!(
            "  analysis rank {c} receives from simulation ranks {:?}",
            consumer_sources(M, N, c)
        );
    }
    let (gx, gy) = ddr::core::decompose::near_square_grid(N);
    println!("analysis layout (Figure 5): {gx}x{gy} near-square grid over {NX}x{NY}\n");

    let cfg = Config::wind_tunnel(NX, NY);
    let out_dir2 = out_dir.clone();
    let outcomes = Universe::run(M + N, move |world| -> Result<_, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let barrier = barrier_line(NX / 4, NY * 2 / 5, NY * 3 / 5);
        let (role, group) = split_resources(world, M).map_err(|e| err(&e))?;
        match role {
            Role::Simulation => {
                let mut sim = DistributedLbm::new(cfg, &group, &barrier);
                let consumer = M + producer_targets(M, N)[group.rank()];
                for step in 1..=STEPS {
                    sim.step(&group).map_err(|e| err(&e))?;
                    if step % OUTPUT_EVERY == 0 {
                        let (y0, rows) = sim.slab();
                        let vort = sim.vorticity(&group).map_err(|e| err(&e))?;
                        let block = Block::d2([0, y0], [NX, rows]).map_err(|e| err(&e))?;
                        send_frame(world, consumer, step as u64, block, vort)
                            .map_err(|e| err(&e))?;
                    }
                }
                Ok((0usize, 0usize))
            }
            Role::Analysis => {
                let c = group.rank();
                let need = analysis_block(NX, NY, N, c).map_err(|e| err(&e))?;
                let mut rep = Repartitioner::new(need);
                let sources = consumer_sources(M, N, c);
                let cmap = Colormap::blue_white_red();
                let mut jpeg_bytes = 0usize;
                let mut raw_bytes = 0usize;
                for step in 1..=STEPS {
                    if step % OUTPUT_EVERY == 0 {
                        let frames =
                            recv_frames(world, &sources, Some(step as u64)).map_err(|e| err(&e))?;
                        let field = rep.redistribute(&group, &frames).map_err(|e| err(&e))?;
                        raw_bytes += field.len() * 4;
                        let img = RgbImage::from_scalar_field(
                            need.dims[0],
                            need.dims[1],
                            &field,
                            -0.08,
                            0.08,
                            &cmap,
                        );
                        let bytes = jpeg::encode(&img, 75).map_err(|e| err(&e))?;
                        jpeg_bytes += bytes.len();
                        let path = out_dir2.join(format!("frame_{step:05}_tile{c}.jpg"));
                        std::fs::write(path, bytes).map_err(|e| err(&e))?;
                    }
                }
                Ok((raw_bytes, jpeg_bytes))
            }
        }
    });

    let mut results = Vec::with_capacity(outcomes.len());
    for (rank, o) in outcomes.into_iter().enumerate() {
        match o {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("lbm_in_transit: rank {rank} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let raw: usize = results.iter().map(|(r, _)| r).sum();
    let jpg: usize = results.iter().map(|(_, j)| j).sum();
    println!("saved {} frames x {N} tiles to {}", STEPS / OUTPUT_EVERY, out_dir.display());
    println!(
        "raw vorticity would be {raw} bytes; JPEG tiles are {jpg} bytes — {:.2}% data reduction (Table IV effect)",
        100.0 * (1.0 - jpg as f64 / raw as f64)
    );
    if jpg * 10 >= raw {
        eprintln!("lbm_in_transit: expected at least 10x data reduction");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
