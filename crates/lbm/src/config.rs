//! Simulation configuration and obstacle masks.

/// Parameters of the 2-D LBM wind-tunnel simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Grid width (x extent, flow direction).
    pub nx: usize,
    /// Grid height (y extent, the decomposed axis).
    pub ny: usize,
    /// BGK relaxation parameter `omega = 1/tau` (0 < omega < 2).
    pub omega: f64,
    /// Inflow velocity in x, lattice units (keep ≤ ~0.15 for stability).
    pub u0: f64,
}

impl Config {
    /// A stable default wind tunnel at the given resolution.
    pub fn wind_tunnel(nx: usize, ny: usize) -> Self {
        assert!(nx >= 4 && ny >= 4, "grid must be at least 4x4");
        Config { nx, ny, omega: 1.7, u0: 0.1 }
    }

    /// Kinematic viscosity implied by `omega` (lattice units).
    pub fn viscosity(&self) -> f64 {
        (1.0 / self.omega - 0.5) / 3.0
    }
}

/// Obstacle mask: `true` where a cell is solid.
pub type BarrierFn = dyn Fn(usize, usize) -> bool + Send + Sync;

/// No obstacle.
pub fn barrier_none() -> Box<BarrierFn> {
    Box::new(|_, _| false)
}

/// The paper's barrier: a vertical line segment the flow must divert around
/// ("we place a barrier inside the domain that forces the fluid to flow
/// around it, creating more turbulent flow patterns"). Placed at `x`,
/// spanning rows `y0..=y1`.
pub fn barrier_line(x: usize, y0: usize, y1: usize) -> Box<BarrierFn> {
    Box::new(move |cx, cy| cx == x && (y0..=y1).contains(&cy))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn viscosity_from_omega() {
        let c = Config { nx: 8, ny: 8, omega: 1.0, u0: 0.1 };
        assert!((c.viscosity() - 1.0 / 6.0).abs() < 1e-15);
        let c2 = Config { omega: 2.0, ..c };
        assert!(c2.viscosity().abs() < 1e-15);
    }

    #[test]
    fn barrier_line_mask() {
        let b = barrier_line(5, 2, 4);
        assert!(b(5, 2) && b(5, 3) && b(5, 4));
        assert!(!b(5, 1) && !b(5, 5) && !b(4, 3));
        assert!(!barrier_none()(0, 0));
    }

    #[test]
    #[should_panic]
    fn tiny_grid_rejected() {
        Config::wind_tunnel(2, 8);
    }
}
