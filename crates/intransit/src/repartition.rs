//! DDR-backed repartitioning on the analysis resource.

use crate::frame::Frame;
use ddr_core::{Block, DataKind, DdrError, Descriptor, Plan, Result};
use minimpi::Comm;

/// Reorganizes incoming frames (the producer's layout) into this analysis
/// rank's needed block (Figure 5: "incoming slices of data were
/// redistributed into nearly square rectangles").
///
/// The redistribution plan is computed from the first time step's frames and
/// **reused** for every subsequent step as long as the incoming layout stays
/// the same — exactly the paper's dynamic-data usage, where
/// `DDR_SetupDataMapping` runs once and `DDR_ReorganizeData` runs per step.
/// A plan is pure geometry: it is rebuilt when the incoming layout, or the
/// communicator's size or this rank's place in it changes, and nothing else.
pub struct Repartitioner {
    need: Block,
    plan: Option<Plan>,
    owned: Vec<Block>,
}

impl Repartitioner {
    /// Create a repartitioner delivering into `need`. Incoming frames must
    /// tile the domain exactly.
    pub fn new(need: Block) -> Self {
        Repartitioner { need, plan: None, owned: Vec::new() }
    }

    /// The block this rank assembles each step.
    pub fn need(&self) -> &Block {
        &self.need
    }

    /// Number of communication rounds of the established plan.
    pub fn num_rounds(&self) -> Option<usize> {
        self.plan.as_ref().map(Plan::num_rounds)
    }

    /// Collective over the analysis communicator: redistribute this step's
    /// frames into the needed layout. Returns the assembled field
    /// (x fastest within [`Repartitioner::need`]).
    ///
    /// A rank that received no frames participates with zero owned chunks.
    /// If the incoming layout or the communicator's shape changes between
    /// steps the mapping is rebuilt transparently.
    pub fn redistribute(&mut self, analysis: &Comm, frames: &[Frame]) -> Result<Vec<f32>> {
        let _span = ddrtrace::span_arg("intransit", "repartition", "frames", frames.len() as i64);
        let owned: Vec<Block> = frames.iter().map(|f| f.block).collect();
        // Layout or shape changes (including the first call) trigger a
        // mapping setup; all ranks must agree, so the "changed" flag is
        // agreed collectively.
        let same_shape = |p: &Plan| (p.nprocs(), p.rank()) == (analysis.size(), analysis.rank());
        let changed = !(self.plan.as_ref().is_some_and(same_shape) && owned == self.owned);
        let any_changed = analysis.allgather(&[changed as u64])?.iter().any(|v| v[0] != 0);
        if any_changed {
            let desc = Descriptor::for_type::<f32>(analysis.size(), DataKind::D2)?;
            self.plan = Some(desc.setup_data_mapping(analysis, &owned, self.need)?);
            self.owned = owned;
        }
        let plan = self.plan.as_ref().expect("plan established above");
        let refs: Vec<&[f32]> = frames.iter().map(|f| f.data.as_slice()).collect();
        let mut out = Vec::new();
        plan.reorganize(analysis, &refs, &mut out)?;
        Ok(out)
    }
}

impl std::fmt::Debug for Repartitioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Repartitioner")
            .field("need", &self.need)
            .field("plan_rounds", &self.num_rounds())
            .field("owned_chunks", &self.owned.len())
            .finish()
    }
}

/// Convenience: the near-square analysis layout of the paper — consumer `c`
/// of `n` gets one brick of the `cols × rows` grid over `nx × ny`.
pub fn analysis_block(nx: usize, ny: usize, n: usize, c: usize) -> Result<Block> {
    let (cols, rows) = ddr_core::decompose::near_square_grid(n);
    if c >= n {
        return Err(DdrError::InvalidBlock(format!("consumer {c} out of {n}")));
    }
    ddr_core::decompose::brick(&Block::d2([0, 0], [nx, ny])?, [cols, rows, 1], c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::consumer_sources;
    use minimpi::Universe;

    /// Global reference field: deterministic function of coordinates + step.
    fn field_at(x: usize, y: usize, step: u64) -> f32 {
        (x as f32) + 1000.0 * (y as f32) + 1_000_000.0 * step as f32
    }

    #[test]
    fn slices_to_near_square_grid_with_plan_reuse() {
        // N=4 analysis ranks; each receives slices of a 16x12 domain from
        // "producers" (synthesized locally here) and repartitions them.
        let (nx, ny, n) = (16usize, 12usize, 4usize);
        let m = 6; // producer slices
        Universe::run(n, |comm| {
            let c = comm.rank();
            let need = analysis_block(nx, ny, n, c).unwrap();
            let mut rep = Repartitioner::new(need);
            for step in 0..3u64 {
                // Frames this consumer would receive: producer slabs mapped
                // contiguously (Figure 4).
                let frames: Vec<Frame> = consumer_sources(m, n, c)
                    .into_iter()
                    .map(|p| {
                        let (y0, rows) = ddr_core::decompose::split_axis(ny, m, p);
                        let block = Block::d2([0, y0], [nx, rows]).unwrap();
                        let data = block.coords().map(|co| field_at(co[0], co[1], step)).collect();
                        Frame::new(step, block, data)
                    })
                    .collect();
                let out = rep.redistribute(comm, &frames).unwrap();
                for (v, co) in out.iter().zip(need.coords()) {
                    assert_eq!(*v, field_at(co[0], co[1], step), "step {step} at {co:?}");
                }
                // After the first step the plan must be reused, not rebuilt.
                assert!(rep.num_rounds().is_some());
            }
        });
    }

    #[test]
    fn layout_change_triggers_remap() {
        let (nx, ny, n) = (8usize, 8usize, 2usize);
        Universe::run(n, |comm| {
            let c = comm.rank();
            let need = analysis_block(nx, ny, n, c).unwrap();
            let mut rep = Repartitioner::new(need);
            // Step 0: two slabs of 4 rows each.
            let mk = |y0: usize, rows: usize, step: u64| {
                let block = Block::d2([0, y0], [nx, rows]).unwrap();
                let data = block.coords().map(|co| field_at(co[0], co[1], step)).collect();
                Frame::new(step, block, data)
            };
            let out = rep.redistribute(comm, &[mk(c * 4, 4, 0)]).unwrap();
            for (v, co) in out.iter().zip(need.coords()) {
                assert_eq!(*v, field_at(co[0], co[1], 0));
            }
            // Step 1: producers rebalanced to 6+2 rows — mapping must adapt.
            let frames = if c == 0 { vec![mk(0, 6, 1)] } else { vec![mk(6, 2, 1)] };
            let out = rep.redistribute(comm, &frames).unwrap();
            for (v, co) in out.iter().zip(need.coords()) {
                assert_eq!(*v, field_at(co[0], co[1], 1));
            }
        });
    }

    #[test]
    fn analysis_block_grid_is_near_square() {
        // 32 consumers -> 8x4 grid (the paper's analysis layout).
        let blocks: Vec<Block> = (0..32).map(|c| analysis_block(64, 32, 32, c).unwrap()).collect();
        let total: u64 = blocks.iter().map(|b| b.count()).sum();
        assert_eq!(total, 64 * 32);
        assert!(blocks.iter().all(|b| b.dims[0] == 8 && b.dims[1] == 8));
        assert!(analysis_block(64, 32, 32, 32).is_err());
    }
}
