//! Reproduce **Table II** (TIFF load time) and **Figure 3** (strong
//! scaling) of *Automated Dynamic Data Redistribution*.
//!
//! Two parts:
//!
//! 1. **Paper-scale projection** — Table II, then Figure 3's series, for
//!    the 128 GB synthetic stack (4096 × 2048 × 4096 × 32-bit) on
//!    27/64/125/216 ranks of the calibrated Cooley model. Byte counts and
//!    round structure are exact (from the real DDR mapping); read and
//!    network times come from the `ddr-netsim` cost model.
//! 2. **Measured laptop scale** — a real TIFF stack is written to a temp
//!    directory and loaded end-to-end (decode + DDR redistribution over
//!    in-process ranks) with all three methods, wall-clock timed.
//!
//! Usage: `repro_table2 [--no-measured] [--reps N]`

use ddr_bench::loader::{load_stack, write_phantom_stack};
use ddr_bench::table;
use ddr_bench::tiffcase::{project, Method, PAPER_ELEM, PAPER_SCALES, PAPER_VOLUME};
use ddr_netsim::ClusterSpec;
use minimpi::Universe;
use std::time::Instant;

/// Paper's Table II values for side-by-side comparison (seconds).
const PAPER_TABLE2: [(usize, f64, f64, f64); 4] = [
    (27, 283.0, 39.3, 49.2),
    (64, 204.6, 18.9, 18.9),
    (125, 188.2, 11.1, 10.4),
    (216, 165.3, 9.7, 6.6),
];

fn projected_section(cluster: &ClusterSpec) {
    println!("== Table II (projection @ paper scale: 4096x2048x4096 x 32-bit = 128 GiB) ==\n");
    table::header(&[
        ("Processes", 10),
        ("No DDR", 12),
        ("DDR (RR)", 12),
        ("DDR (Consec)", 13),
        ("paper: No DDR", 14),
        ("RR", 8),
        ("Consec", 8),
    ]);
    for (i, &p) in PAPER_SCALES.iter().enumerate() {
        let no_ddr = project(PAPER_VOLUME, PAPER_ELEM, p, Method::NoDdr, cluster).total();
        let rr = project(PAPER_VOLUME, PAPER_ELEM, p, Method::RoundRobin, cluster).total();
        let cons = project(PAPER_VOLUME, PAPER_ELEM, p, Method::Consecutive, cluster).total();
        let (_, pn, pr, pc) = PAPER_TABLE2[i];
        let root = (p as f64).cbrt().round() as usize;
        table::row(&[
            (format!("{root}^3 ({p})"), 10),
            (table::secs(no_ddr), 12),
            (table::secs(rr), 12),
            (table::secs(cons), 13),
            (table::secs(pn), 14),
            (table::secs(pr), 8),
            (table::secs(pc), 8),
        ]);
    }
    let best = project(PAPER_VOLUME, PAPER_ELEM, 216, Method::Consecutive, cluster).total();
    let base = project(PAPER_VOLUME, PAPER_ELEM, 216, Method::NoDdr, cluster).total();
    println!("\nmax speed-up at 216 ranks: {:.1}x (paper: 24.9x)\n", base / best);
}

fn figure3_section(cluster: &ClusterSpec) {
    println!("== Figure 3 (strong scaling series; x axis is log3(processes^(1/3))) ==\n");
    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "processes", "No DDR [s]", "DDR RR [s]", "DDR Consec [s]"
    );
    for &p in &PAPER_SCALES {
        let no_ddr = project(PAPER_VOLUME, PAPER_ELEM, p, Method::NoDdr, cluster).total();
        let rr = project(PAPER_VOLUME, PAPER_ELEM, p, Method::RoundRobin, cluster).total();
        let cons = project(PAPER_VOLUME, PAPER_ELEM, p, Method::Consecutive, cluster).total();
        println!("{p:>10} {no_ddr:>14.1} {rr:>14.1} {cons:>14.1}");
    }
    println!();
}

fn measured_section(reps: usize) {
    // A stack small enough for CI but big enough that decode dominates:
    // 128 slices of 256x128 16-bit = 8 MiB of pixel data.
    let vol = [256usize, 128, 128];
    let nprocs = 8; // 2x2x2 bricks
    println!(
        "== Table II (measured in-process @ {}x{}x{} 16-bit, {} ranks, {} reps) ==\n",
        vol[0], vol[1], vol[2], nprocs, reps
    );
    let dir = std::env::temp_dir().join(format!("ddr_table2_{}", std::process::id()));
    write_phantom_stack(&dir, vol).expect("write synthetic stack");

    table::header(&[("Method", 18), ("mean", 12), ("std", 10), ("images read", 12)]);
    for method in [Method::NoDdr, Method::RoundRobin, Method::Consecutive] {
        let mut times = Vec::with_capacity(reps);
        let mut reads = 0usize;
        for _ in 0..reps {
            let dir = dir.clone();
            let t0 = Instant::now();
            let stats =
                Universe::run(nprocs, move |comm| load_stack(comm, &dir, vol, method).unwrap().2);
            times.push(t0.elapsed().as_secs_f64());
            reads = stats.iter().map(|s| s.images_read).sum();
        }
        let mean = times.iter().sum::<f64>() / reps as f64;
        let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / reps as f64;
        table::row(&[
            (method.label().to_string(), 18),
            (format!("{:.1} ms", mean * 1e3), 12),
            (format!("{:.1} ms", var.sqrt() * 1e3), 10),
            (format!("{reads}"), 12),
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("\n(No DDR reads every image once per brick-layer that intersects it; DDR reads each image exactly once.)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let cluster = ClusterSpec::cooley();

    projected_section(&cluster);
    figure3_section(&cluster);
    if !args.iter().any(|a| a == "--no-measured") {
        measured_section(reps);
    }
}
