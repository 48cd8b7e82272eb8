//! Quickstart: the paper's running example **E1** (Figure 1, Table I,
//! Algorithm 1).
//!
//! Four ranks operate on an 8×8 grid. Before redistribution each rank owns
//! two separate 8×1 rows ({rank, rank+4}); afterwards each rank holds one
//! continuous 4×4 quadrant. The example prints the Table I parameter values,
//! performs the redistribution with the three DDR calls, and shows the data
//! movement of Figure 1.
//!
//! If a rank reports an error the example prints it and exits non-zero.
//!
//! Run with: `cargo run --example quickstart`

use ddr::core::papi::{ddr_new_data_descriptor, ddr_reorganize_data, ddr_setup_data_mapping};
use ddr::core::{DataKind, DdrError};
use ddr::minimpi::Universe;
use std::process::ExitCode;

type RankResult = (usize, [usize; 2], usize, u64, Vec<f32>);

fn rank_body(comm: &ddr::minimpi::Comm) -> Result<RankResult, DdrError> {
    let rank = comm.rank();

    // Algorithm 1, line 1: create the data descriptor.
    let desc = ddr_new_data_descriptor(4, DataKind::D2, std::mem::size_of::<f32>())?;

    // Lines 2-8: describe what this rank owns and what it needs.
    let chunks_own = 2;
    let dims_own = [8, 1, 8, 1];
    let offsets_own = [0, rank, 0, rank + 4];
    let right = rank % 2;
    let bottom = rank / 2;
    let dims_need = [4, 4];
    let offsets_need = [4 * right, 4 * bottom];

    // Line 9: set up the data mapping (collective).
    let plan = ddr_setup_data_mapping(
        comm,
        rank,
        4,
        chunks_own,
        &dims_own,
        &offsets_own,
        &dims_need,
        &offsets_need,
        &desc,
    )?;

    // The global grid holds value y*8 + x at column x, row y.
    let row = |y: usize| -> Vec<f32> { (0..8).map(|x| (y * 8 + x) as f32).collect() };
    let data_own = [row(rank), row(rank + 4)];
    let refs: Vec<&[f32]> = data_own.iter().map(|v| v.as_slice()).collect();
    let mut data_need = Vec::new();

    // Line 10: exchange the data (collective, reusable per time step).
    ddr_reorganize_data(comm, 4, &refs, &mut data_need, &plan)?;

    Ok((rank, offsets_need, plan.num_rounds(), plan.total_sent_bytes(), data_need))
}

fn main() -> ExitCode {
    println!("E1: 4 ranks, 8x8 domain, rows {{r, r+4}} -> 4x4 quadrants\n");
    println!("Table I parameter values (P1 rank, P3 #chunks, P4/P5 owned dims/offsets,");
    println!("P6/P7 needed dims/offset):\n");

    let outcomes = Universe::run(4, rank_body);
    let mut results = Vec::with_capacity(outcomes.len());
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("quickstart: rank {rank} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for (rank, need_off, rounds, sent, _) in &results {
        println!(
            "Rank {rank}: P1={rank} P2=4 P3=2 P4={{[8,1],[8,1]}} P5={{[0,{rank}],[0,{}]}} \
             P6=[4,4] P7=[{},{}]   ({rounds} rounds, {sent} bytes sent)",
            rank + 4,
            need_off[0],
            need_off[1]
        );
    }

    println!("\nQuadrants after redistribution (each 4x4, values are global y*8+x):\n");
    for (rank, _, _, _, quad) in &results {
        println!("Rank {rank}:");
        for y in 0..4 {
            let row: Vec<String> =
                (0..4).map(|x| format!("{:>2}", quad[y * 4 + x] as usize)).collect();
            println!("   {}", row.join(" "));
        }
    }

    // Verify against Figure 1's right-hand grid.
    for (rank, need_off, _, _, quad) in &results {
        for y in 0..4 {
            for x in 0..4 {
                let expect = ((need_off[1] + y) * 8 + need_off[0] + x) as f32;
                if quad[y * 4 + x] != expect {
                    eprintln!("quickstart: rank {rank} holds wrong data at ({x},{y})");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("\nOK: every rank holds exactly its quadrant of the domain.");
    ExitCode::SUCCESS
}
