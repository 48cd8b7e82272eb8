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
//!
//! Set `DDR_FAULT_SEED=<n>` to inject a deterministic fault: one streamed
//! frame (chosen by the seed) is dropped in flight. The analysis side then
//! demonstrates degraded-mode streaming — it skips ahead after the per-frame
//! deadline, keeps rendering, and reports the skip in its stream stats.

use ddr::core::Block;
use ddr::lbm::{barrier_line, Config, DistributedLbm};
use ddr::minimpi::{FaultPlan, Universe};
use intransit::{
    analysis_block, consumer_sources, producer_targets, send_frame, split_resources, FrameReceiver,
    FrameRecvConfig, FrameStats, Repartitioner, Role, FRAME_TAG,
};
use jimage::{jpeg, Colormap, RgbImage};
use std::process::ExitCode;
use std::time::Duration;

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

    // DDR_FAULT_SEED drops one frame in flight, deterministically.
    let mut builder = Universe::builder();
    if let Some(seed) = ddr::minimpi::env::u64_var("DDR_FAULT_SEED") {
        let victim = (seed % M as u64) as usize;
        let consumer = M + producer_targets(M, N)[victim];
        let nth = seed % (STEPS / OUTPUT_EVERY) as u64;
        println!(
            "fault injection (seed {seed}): dropping frame #{nth} from simulation rank \
             {victim} to analysis rank {}\n",
            consumer - M
        );
        builder = builder.fault_plan(FaultPlan::new().drop_message(
            victim,
            consumer,
            Some(FRAME_TAG),
            nth,
        ));
    }

    let cfg = Config::wind_tunnel(NX, NY);
    let out_dir2 = out_dir.clone();
    let outcomes = builder.run(M + N, move |world| -> Result<_, String> {
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
                Ok((0usize, 0usize, FrameStats::default()))
            }
            Role::Analysis => {
                let c = group.rank();
                let need = analysis_block(NX, NY, N, c).map_err(|e| err(&e))?;
                // Degraded mode: a step with a lost frame still redistributes
                // and renders — undelivered cells stay at zero.
                let mut rep = Repartitioner::degraded(need);
                // The deadline must comfortably exceed the simulation's
                // inter-output time, or healthy frames would be skipped.
                let mut rx = FrameReceiver::new(
                    consumer_sources(M, N, c),
                    FrameRecvConfig {
                        deadline: Duration::from_secs(2),
                        ..FrameRecvConfig::default()
                    },
                );
                let cmap = Colormap::blue_white_red();
                let mut jpeg_bytes = 0usize;
                let mut raw_bytes = 0usize;
                for step in 1..=STEPS {
                    if step % OUTPUT_EVERY == 0 {
                        let frames = rx.recv_step(world, step as u64).map_err(|e| err(&e))?;
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
                Ok((raw_bytes, jpeg_bytes, *rx.stats()))
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

    let raw: usize = results.iter().map(|(r, _, _)| r).sum();
    let jpg: usize = results.iter().map(|(_, j, _)| j).sum();
    let mut stats = FrameStats::default();
    for (_, _, s) in &results {
        stats.merge(s);
    }
    println!("saved {} frames x {N} tiles to {}", STEPS / OUTPUT_EVERY, out_dir.display());
    println!("stream stats: {stats}");
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
