//! Slab-decomposed LBM over a `minimpi` communicator.

use crate::config::Config;
use crate::lattice::{Edge, Lattice};
use minimpi::{Comm, Result as MpiResult};

/// Halo-exchange tag namespace (user tags; one per direction per purpose).
const TAG_F_UP: u32 = 0x4C42_0001; // post-collision rows moving upward
const TAG_F_DOWN: u32 = 0x4C42_0002;
const TAG_V_UP: u32 = 0x4C42_0003; // `ux` rows for vorticity stencils
const TAG_V_DOWN: u32 = 0x4C42_0004;

/// The paper's simulation-side decomposition: "the simulation application
/// splits the data into slices … each rank only needs to communicate with
/// two other ranks at most, the neighbors with data directly above and
/// below".
pub struct DistributedLbm {
    lattice: Lattice,
    rank: usize,
    nprocs: usize,
    /// Whether `vorticity` has run the next step's collide already.
    collided: bool,
}

impl DistributedLbm {
    /// Create the slab for `comm.rank()` of a balanced slice decomposition
    /// over `comm.size()` ranks.
    pub fn new<F: Fn(usize, usize) -> bool + ?Sized>(
        cfg: Config,
        comm: &Comm,
        barrier: &F,
    ) -> Self {
        let nprocs = comm.size();
        let rank = comm.rank();
        let (y0, rows) = split_rows(cfg.ny, nprocs, rank);
        let lattice = Lattice::new(cfg, y0, rows, barrier);
        DistributedLbm { lattice, rank, nprocs, collided: false }
    }

    /// The underlying slab. After [`DistributedLbm::vorticity`] and until
    /// the next [`DistributedLbm::step`], it holds the next step's
    /// post-collision values, not the state the vorticity was taken of.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Global row range `(y0, rows)` of this rank's slab.
    pub fn slab(&self) -> (usize, usize) {
        (self.lattice.y0(), self.lattice.rows())
    }

    /// The ranks of the slabs below and above, where there are any.
    fn neighbours(&self) -> (Option<usize>, Option<usize>) {
        (self.rank.checked_sub(1), Some(self.rank + 1).filter(|&a| a < self.nprocs))
    }

    /// Advance one time step: collide (unless [`DistributedLbm::vorticity`]
    /// has), exchange halo rows with the (at most two) neighbors, stream.
    pub fn step(&mut self, comm: &Comm) -> MpiResult<()> {
        if !std::mem::take(&mut self.collided) {
            self.lattice.collide();
        }
        let (below, above) = self.neighbours();

        // Send both edges first (buffered), then receive: no deadlock.
        if let Some(b) = below {
            comm.send(b, TAG_F_DOWN, &self.lattice.edge_row(Edge::Below))?;
        }
        if let Some(a) = above {
            comm.send(a, TAG_F_UP, &self.lattice.edge_row(Edge::Above))?;
        }
        match below {
            Some(b) => {
                let ghost: Vec<f64> = comm.recv_vec(b, TAG_F_UP)?;
                self.lattice.set_ghost(Edge::Below, &ghost);
            }
            None => self.lattice.set_ghost_boundary(Edge::Below),
        }
        match above {
            Some(a) => {
                let ghost: Vec<f64> = comm.recv_vec(a, TAG_F_DOWN)?;
                self.lattice.set_ghost(Edge::Above, &ghost);
            }
            None => self.lattice.set_ghost_boundary(Edge::Above),
        }
        self.lattice.stream();
        Ok(())
    }

    /// Vorticity of this slab, with velocity halos exchanged so the stencil
    /// matches the serial solver exactly.
    ///
    /// It runs the next step's collide in the same sweep
    /// ([`Lattice::vorticity`]'s velocities are the moments the collide
    /// computes from the same distributions), so the next
    /// [`DistributedLbm::step`] skips its own. Each op of a step-then-frame
    /// loop thus sweeps the slab once, not twice.
    ///
    /// # Panics
    /// Panics when called twice without a [`DistributedLbm::step`] between:
    /// the slab then holds post-collision values, not the state of a step.
    pub fn vorticity(&mut self, comm: &Comm) -> MpiResult<Vec<f32>> {
        assert!(
            !self.collided,
            "DistributedLbm::vorticity takes one frame per step: call `step` before the next `vorticity`"
        );
        self.collided = true;
        let (below, above) = self.neighbours();
        self.lattice.collide_vorticity(|bottom, top| {
            if let Some(b) = below {
                comm.send(b, TAG_V_DOWN, bottom)?;
            }
            if let Some(a) = above {
                comm.send(a, TAG_V_UP, top)?;
            }
            Ok([
                below.map(|b| comm.recv_vec(b, TAG_V_UP)).transpose()?,
                above.map(|a| comm.recv_vec(a, TAG_V_DOWN)).transpose()?,
            ])
        })
    }
}

/// Balanced row split (first `ny % n` ranks get one extra row).
pub fn split_rows(ny: usize, nprocs: usize, rank: usize) -> (usize, usize) {
    let base = ny / nprocs;
    let extra = ny % nprocs;
    let rows = base + usize::from(rank < extra);
    let y0 = rank * base + rank.min(extra);
    (y0, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_rows_covers_domain() {
        for ny in [7usize, 32, 100] {
            for n in [1usize, 3, 7] {
                let mut next = 0;
                for r in 0..n {
                    let (y0, rows) = split_rows(ny, n, r);
                    assert_eq!(y0, next);
                    next += rows;
                }
                assert_eq!(next, ny);
            }
        }
    }
}
