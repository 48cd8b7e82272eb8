//! Use case 1: parallel visualization of a 3-D medical image stack
//! (paper §IV-A, Figure 2).
//!
//! Generates a synthetic CT phantom ("primate tooth") as a TIFF stack on
//! disk, loads it on 8 in-process ranks three ways — without DDR, with DDR
//! round-robin, and with DDR consecutive — times each, then renders the
//! volume by brick-decomposed direct volume rendering and composites the
//! final image.
//!
//! Any error exits non-zero with its diagnostic.
//!
//! Run with: `cargo run --release --example tiff_stack_dvr`
//! Outputs: `target/tiff_stack_dvr/tooth.ppm` and `tooth.jpg`

use ddr::minimpi::Universe;
use ddr_bench::loader::{load_stack, write_phantom_stack};
use ddr_bench::tiffcase::Method;
use std::process::ExitCode;
use std::time::Instant;

const VOL: [usize; 3] = [96, 96, 96];
const NPROCS: usize = 8;

fn main() -> ExitCode {
    let out_dir = std::path::PathBuf::from("target/tiff_stack_dvr");
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let stack_dir = out_dir.join("stack");

    println!("writing synthetic {}x{}x{} 16-bit TIFF stack…", VOL[0], VOL[1], VOL[2]);
    write_phantom_stack(&stack_dir, VOL).expect("write stack");

    // Load three ways and time them (the Table II comparison in miniature).
    println!("\nloading with {NPROCS} ranks (bricks: 2x2x2):");
    for method in [Method::NoDdr, Method::RoundRobin, Method::Consecutive] {
        let dir = stack_dir.clone();
        let t0 = Instant::now();
        let outcomes = Universe::run(NPROCS, move |comm| {
            load_stack(comm, &dir, VOL, method).map(|r| r.2).map_err(|e| e.to_string())
        });
        let dt = t0.elapsed();
        let mut results = Vec::with_capacity(outcomes.len());
        for (rank, o) in outcomes.into_iter().enumerate() {
            match o {
                Ok(s) => results.push(s),
                Err(e) => {
                    eprintln!("tiff_stack_dvr: {} rank {rank} failed: {e}", method.label());
                    return ExitCode::FAILURE;
                }
            }
        }
        let reads: usize = results.iter().map(|s| s.images_read).sum();
        let sent: u64 = results.iter().map(|s| s.bytes_sent).sum();
        println!(
            "  {:<18} {:>8.1} ms   {:>4} image reads   {:>9} bytes redistributed",
            method.label(),
            dt.as_secs_f64() * 1e3,
            reads,
            sent
        );
    }

    // Fully distributed DVR: each rank loads (DDR), renders its brick, and
    // a second DDR plan moves the partial images to rank 0, which
    // composites them — the same load → render → composite pipeline the
    // paper's multi-GPU renderer runs.
    println!("\nrendering and compositing over the communicator…");
    let dir = stack_dir.clone();
    let outcomes = Universe::run(NPROCS, move |comm| {
        let (block, data, _) =
            load_stack(comm, &dir, VOL, Method::Consecutive).map_err(|e| e.to_string())?;
        let tf = volren::TransferFunction::tooth();
        let brick = volren::render_brick(&data, block.dims, block.offset, &tf);
        volren::composite_gather(comm, VOL[0], VOL[1], &brick).map_err(|e| e.to_string())
    });
    let mut images = Vec::with_capacity(outcomes.len());
    for (rank, o) in outcomes.into_iter().enumerate() {
        match o {
            Ok(img) => images.push(img),
            Err(e) => {
                eprintln!("tiff_stack_dvr: render rank {rank} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let image = images.into_iter().flatten().next().expect("rank 0 composited");
    let rgb = image.to_rgb([0, 0, 0]);

    let ppm_path = out_dir.join("tooth.ppm");
    jimage::pnm::write_ppm(&ppm_path, &rgb).expect("write ppm");
    let jpg = jimage::jpeg::encode(&rgb, 90).expect("encode jpeg");
    let jpg_path = out_dir.join("tooth.jpg");
    std::fs::write(&jpg_path, &jpg).expect("write jpeg");

    println!("wrote {} and {}", ppm_path.display(), jpg_path.display());
    println!(
        "raw image {} bytes, jpeg {} bytes ({:.1}x smaller)",
        rgb.data.len(),
        jpg.len(),
        rgb.data.len() as f64 / jpg.len() as f64
    );

    // Sanity: the tooth must actually be visible.
    let center = rgb.get(VOL[0] / 2, VOL[1] / 2);
    if !center.iter().any(|&c| c > 40) {
        eprintln!("tiff_stack_dvr: center pixel is black: {center:?}");
        return ExitCode::FAILURE;
    }
    println!("OK: composited DVR image contains the phantom.");
    ExitCode::SUCCESS
}
