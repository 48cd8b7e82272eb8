//! One rank's slab of the LBM domain.

use crate::config::Config;
use crate::d2q9::{equilibrium, E, OPP};

/// Defines `$name`, which runs `$body` compiled for AVX2 (through the
/// `#[target_feature]` wrapper `$avx2`) when the CPU has it, and the
/// baseline build of `$body` otherwise. `$body` is `#[inline(always)]`, so
/// each build is its own copy of the one source. Rust neither contracts
/// `a * b + c` into an FMA nor reassociates, so the two builds agree to the
/// bit; only `avx2` is enabled, not `fma`.
///
/// The wrapper is an `unsafe fn` rather than a safe `#[target_feature]` fn
/// so the crate keeps building on Rust 1.85.
macro_rules! avx2_dispatch {
    (
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident, $avx2:ident;
    ) => {
        /// # Safety
        /// The CPU must have AVX2.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        $(#[$attr])*
        fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU has AVX2, checked just above.
                return unsafe { $avx2($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}

/// Which slab edge a halo operation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// The row below the slab (global y = y0 - 1).
    Below,
    /// The row above the slab (global y = y0 + rows).
    Above,
}

/// A horizontal slab of the global lattice: `rows` interior rows starting at
/// global row `y0`, plus one ghost row on each side. A lattice spanning the
/// whole domain (`y0 = 0`, `rows = ny`) is the serial reference solver.
pub struct Lattice {
    cfg: Config,
    y0: usize,
    rows: usize,
    /// Distributions: `f[d * stride + (y + 1) * nx + x]`, y ∈ -1..=rows.
    f: Vec<f64>,
    /// Solid mask over interior + ghost rows.
    solid: Vec<bool>,
    /// Bounce-back `(destination, source)` index pairs into `f`: direction
    /// `d` of an interior cell whose upstream cell is solid, and the opposite
    /// direction of that same cell.
    bounce: Vec<(usize, usize)>,
    /// Pre-stream values of the bounce sources, one per pair.
    saved: Vec<f64>,
}

/// Density and velocity of one cell from its nine distributions, summed in
/// direction order. Every velocity this crate reports goes through here, so
/// `collide`, `macroscopic` and `vorticity` agree to the bit.
#[inline(always)]
fn moments(f: [f64; 9]) -> (f64, f64, f64) {
    let mut rho = 0.0;
    let mut ux = 0.0;
    let mut uy = 0.0;
    for (e, v) in E.iter().zip(f) {
        rho += v;
        ux += e[0] as f64 * v;
        uy += e[1] as f64 * v;
    }
    if rho > 0.0 {
        ux /= rho;
        uy /= rho;
    }
    (rho, ux, uy)
}

/// BGK collision of `solid.len()` consecutive cells, given as the same range
/// of each direction plane. Every plane is cut to that one length first, so
/// the loop reads each cell's nine values without a bounds check, and a solid
/// cell keeps its values through a select rather than a branch, so the loop
/// vectorises. Measured on a 2-core x86-64 Xeon guest, one 512×128 slab's
/// collide went from 1.9–2.2 ms (a branch, a `macroscopic` call and nine
/// `idx` lookups per cell) to 1.0–1.3 ms. Its AVX2 build (four f64 lanes
/// instead of two) took a traced `lbm_frames` run's `lbm.step_ms` (collide,
/// halo exchange and stream of a 512 × 128 slab) from 1.89–2.14 to
/// 1.20–1.36 ms (6 runs each, alternating).
#[inline(always)]
fn collide_cells_body(omega: f64, solid: &[bool], planes: [&mut [f64]; 9]) {
    let n = solid.len();
    let mut p = planes.map(|plane| &mut plane[..n]);
    for (i, &is_solid) in solid.iter().enumerate() {
        let (rho, ux, uy) = moments(std::array::from_fn(|d| p[d][i]));
        for (d, plane) in p.iter_mut().enumerate() {
            let feq = equilibrium(d, rho, ux, uy);
            let v = plane[i];
            plane[i] = if is_solid { v } else { v + omega * (feq - v) };
        }
    }
}

avx2_dispatch! {
    /// [`collide_cells_body`], the AVX2 build where the CPU has it.
    fn collide_cells(omega: f64, solid: &[bool], planes: [&mut [f64]; 9])
        = collide_cells_body, collide_cells_avx2;
}

impl Lattice {
    /// Create a slab initialized to uniform inflow equilibrium.
    pub fn new<F: Fn(usize, usize) -> bool + ?Sized>(
        cfg: Config,
        y0: usize,
        rows: usize,
        barrier: &F,
    ) -> Self {
        assert!(rows >= 1, "a slab needs at least one interior row");
        assert!(y0 + rows <= cfg.ny, "slab exceeds the domain");
        let nx = cfg.nx;
        let cells = nx * (rows + 2);
        let mut f = vec![0f64; 9 * cells];
        for d in 0..9 {
            let feq = equilibrium(d, 1.0, cfg.u0, 0.0);
            f[d * cells..(d + 1) * cells].fill(feq);
        }
        let mut solid = vec![false; cells];
        for ly in 0..rows + 2 {
            // Ghost rows take the barrier mask of their global row when it
            // exists (so bounce-back across slab edges matches the serial
            // solver); out-of-domain ghosts stay fluid.
            let gy = (y0 + ly).checked_sub(1);
            if let Some(gy) = gy {
                if gy < cfg.ny {
                    for x in 0..nx {
                        solid[ly * nx + x] = barrier(x, gy);
                    }
                }
            }
        }
        // Every solid cell (ghost rows included) bounces back into each
        // neighbour that lies inside x and in an interior row. That upstream
        // cell is inside x, so no equilibrium column is overwritten; the rest
        // direction (d = 0) streams a cell onto itself and is skipped.
        let mut bounce = Vec::new();
        for c in (0..cells).filter(|&c| solid[c]) {
            let (sx, sy) = ((c % nx) as i64, (c / nx) as i64);
            for (d, e) in E.iter().enumerate().skip(1) {
                let (x, y) = (sx + e[0] as i64, sy + e[1] as i64);
                if (0..nx as i64).contains(&x) && (1..=rows as i64).contains(&y) {
                    let i = y as usize * nx + x as usize;
                    bounce.push((d * cells + i, OPP[d] * cells + i));
                }
            }
        }
        let saved = vec![0.0; bounce.len()];
        Lattice { cfg, y0, rows, f, solid, bounce, saved }
    }

    /// Simulation configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Global row of the first interior row.
    pub fn y0(&self) -> usize {
        self.y0
    }

    /// Number of interior rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    fn cells(&self) -> usize {
        self.cfg.nx * (self.rows + 2)
    }

    #[inline]
    fn idx(&self, d: usize, x: usize, ly: i64) -> usize {
        d * self.cells() + ((ly + 1) as usize) * self.cfg.nx + x
    }

    /// Density and velocity at interior cell `(x, ly)` (slab-local row).
    pub fn macroscopic(&self, x: usize, ly: usize) -> (f64, f64, f64) {
        let c = (ly + 1) * self.cfg.nx + x;
        if self.solid[c] {
            return (1.0, 0.0, 0.0);
        }
        let cells = self.cells();
        moments(std::array::from_fn(|d| self.f[d * cells + c]))
    }

    /// Plane-local index range of the interior rows.
    fn interior(&self) -> std::ops::Range<usize> {
        self.cfg.nx..self.cfg.nx * (self.rows + 1)
    }

    /// BGK collision on all interior fluid cells.
    pub fn collide(&mut self) {
        let (interior, cells) = (self.interior(), self.cells());
        let mut planes = self.f.chunks_exact_mut(cells);
        let planes =
            std::array::from_fn(|_| &mut planes.next().expect("nine planes")[interior.clone()]);
        collide_cells(self.cfg.omega, &self.solid[interior], planes);
    }

    /// Post-collision distributions of an interior edge row, packed as
    /// `[d][x]` (length `9 * nx`) — the halo payload for a neighbor.
    pub fn edge_row(&self, edge: Edge) -> Vec<f64> {
        let ly = match edge {
            Edge::Below => 0i64,
            Edge::Above => self.rows as i64 - 1,
        };
        let nx = self.cfg.nx;
        let mut out = Vec::with_capacity(9 * nx);
        for d in 0..9 {
            for x in 0..nx {
                out.push(self.f[self.idx(d, x, ly)]);
            }
        }
        out
    }

    /// Install a neighbor's post-collision edge row into a ghost row.
    ///
    /// # Panics
    /// Panics when the payload length is not `9 * nx`.
    pub fn set_ghost(&mut self, edge: Edge, data: &[f64]) {
        let nx = self.cfg.nx;
        assert_eq!(data.len(), 9 * nx, "ghost payload must be 9*nx values");
        let ly = match edge {
            Edge::Below => -1i64,
            Edge::Above => self.rows as i64,
        };
        for d in 0..9 {
            for x in 0..nx {
                let i = self.idx(d, x, ly);
                self.f[i] = data[d * nx + x];
            }
        }
    }

    /// Fill a ghost row with inflow equilibrium (used at global boundaries,
    /// where the paper keeps edge cells at fixed values).
    pub fn set_ghost_boundary(&mut self, edge: Edge) {
        let nx = self.cfg.nx;
        let ly = match edge {
            Edge::Below => -1i64,
            Edge::Above => self.rows as i64,
        };
        for d in 0..9 {
            let feq = equilibrium(d, 1.0, self.cfg.u0, 0.0);
            for x in 0..nx {
                let i = self.idx(d, x, ly);
                self.f[i] = feq;
            }
        }
    }

    /// Streaming with half-way bounce-back, then fixed-value boundaries.
    ///
    /// Pull scheme: each interior cell takes direction `d` from its upstream
    /// neighbor; if the upstream cell is solid, the opposite distribution of
    /// the cell itself is taken instead (bounce-back). After streaming, the
    /// domain edge cells (x = 0, x = nx−1, and the global top/bottom rows)
    /// are reset to inflow equilibrium.
    ///
    /// Streaming happens inside `f`: each direction's interior row is one
    /// `copy_within` of its upstream row shifted by `E[d][0]`, and the column
    /// whose upstream cell lies outside the x extent takes inflow equilibrium.
    /// Rows run descending when `E[d][1] = +1` (the source row is below) and
    /// ascending when it is −1, so every source row is read before it is
    /// overwritten; when it is 0 a row is its own source and `copy_within`
    /// is a memmove. Bounce-back takes the pre-stream `f[OPP[d]]` of the
    /// target cell, which the shift of plane `OPP[d]` overwrites, so every
    /// bounce source is saved into a preallocated buffer before any plane
    /// moves and written back after. Only interior rows are written: the
    /// ghost rows keep their pre-stream values until the next
    /// [`Lattice::set_ghost`] / [`Lattice::set_ghost_boundary`], and every
    /// reader (`collide`, `edge_row`, `velocity_row`, `macroscopic`,
    /// `vorticity`) reads interior rows only.
    ///
    /// Measured on a 2-core x86-64 Xeon guest, streaming in place instead of
    /// into a second buffer took `lbm_serial/stream_256x128` from
    /// 0.27–0.31 to 0.10–0.13 ms and `lbm_serial/step_256x128` from
    /// 1.03–1.18 to 0.78–1.01 ms; `lbm_frames`' `peak_rss_mb` went from 26.7
    /// to 17.1 MB (medians of 10 pairs; 4.79 MB less on each of two ranks).
    pub fn stream(&mut self) {
        let (nx, rows, cells) = (self.cfg.nx, self.rows, self.cells());
        for (v, &(_, src)) in self.saved.iter_mut().zip(&self.bounce) {
            *v = self.f[src];
        }
        // The rest direction (d = 0) streams every cell onto itself.
        let planes = self.f.chunks_exact_mut(cells).zip(E).enumerate().skip(1);
        for (d, (plane, e)) in planes {
            let feq = equilibrium(d, 1.0, self.cfg.u0, 0.0);
            for k in 0..rows {
                let ly = if e[1] == 1 { rows - k } else { k + 1 };
                let (from, to) = ((ly as i64 - e[1] as i64) as usize * nx, ly * nx);
                match e[0] {
                    0 => plane.copy_within(from..from + nx, to),
                    1 => {
                        plane.copy_within(from..from + nx - 1, to + 1);
                        plane[to] = feq;
                    }
                    _ => {
                        plane.copy_within(from + 1..from + nx, to);
                        plane[to + nx - 1] = feq;
                    }
                }
            }
        }
        for (&(dst, _), &v) in self.bounce.iter().zip(&self.saved) {
            self.f[dst] = v;
        }
        self.apply_fixed_edges();
    }

    /// Reset the global domain edges to inflow equilibrium ("certain cells,
    /// including the edges, are kept at fixed values").
    fn apply_fixed_edges(&mut self) {
        let nx = self.cfg.nx;
        let fix_cell = |this: &mut Self, x: usize, ly: i64| {
            for d in 0..9 {
                let i = this.idx(d, x, ly);
                this.f[i] = equilibrium(d, 1.0, this.cfg.u0, 0.0);
            }
        };
        for ly in 0..self.rows as i64 {
            fix_cell(self, 0, ly);
            fix_cell(self, nx - 1, ly);
        }
        if self.y0 == 0 {
            for x in 0..nx {
                fix_cell(self, x, 0);
            }
        }
        if self.y0 + self.rows == self.cfg.ny {
            for x in 0..nx {
                fix_cell(self, x, self.rows as i64 - 1);
            }
        }
    }

    /// One serial time step: collide, refresh ghosts from boundary
    /// conditions, stream. Only meaningful when the slab covers the whole
    /// domain (otherwise use [`crate::DistributedLbm`]).
    pub fn step_serial(&mut self) {
        self.collide();
        self.set_ghost_boundary(Edge::Below);
        self.set_ghost_boundary(Edge::Above);
        self.stream();
    }

    /// Velocity of every cell of interior row `ly`, as `(ux, uy)` pairs.
    pub fn velocity_row(&self, ly: usize) -> Vec<(f64, f64)> {
        (0..self.cfg.nx)
            .map(|x| {
                let (_, ux, uy) = self.macroscopic(x, ly);
                (ux, uy)
            })
            .collect()
    }

    /// Vorticity (∂uy/∂x − ∂ux/∂y) of the slab interior as `f32` values —
    /// the 4-byte float field streamed to the analysis application.
    ///
    /// `below` / `above` supply neighbor velocity rows for central
    /// differences across slab edges; when absent (global domain edge) a
    /// one-sided difference is used, so the distributed result equals the
    /// serial one exactly.
    ///
    /// Velocities run through a ring of three rows, computed once each in
    /// one pass over the nine plane slices. Row −1 and row `rows` are the
    /// halos — or, at a domain edge, the edge row again, which makes the
    /// central difference the one-sided one. The stencil then indexes rows
    /// directly, and the divisions by 2 become exact multiplies by 0.5.
    /// Measured on a 2-core x86-64 Xeon guest, `lbm_vorticity/extract_256x128`
    /// went from 1.06–1.09 ms (a closure with edge branches over a
    /// `Vec<(f64, f64)>` of `velocity_row`s) to 0.18–0.20 ms with whole-slab
    /// `nx × (rows + 2)` velocity arrays. Those two arrays (532 KiB each at
    /// 512 × 128) sat at glibc's mmap threshold, so every call mapped and
    /// faulted them in afresh: 292 minor faults per call on a 512 × 128 slab.
    /// The ring (24 KiB at nx = 512) faults none, and took a traced
    /// `lbm_frames` run's `lbm.vorticity_ms` from 0.96–1.16 to 0.58–0.61 ms
    /// (3 alternating pairs). The AVX2 build, with the row's velocities an
    /// `#[inline(always)]` fn rather than a closure so that build reaches
    /// them, took it from 0.51–0.61 to 0.42–0.46 ms (6 runs each,
    /// alternating).
    pub fn vorticity(
        &self,
        below: Option<&[(f64, f64)]>,
        above: Option<&[(f64, f64)]>,
    ) -> Vec<f32> {
        vorticity_field(self, below, above)
    }
}

/// Velocities of ring row `k − 1` ∈ −1..=rows of a slab whose interior
/// planes are `p` and mask `solid`, into `ux` / `uy` (solid cells (0, 0)),
/// or the `halo` row's velocities when there is one. Rows −1 and `rows`
/// without a halo are the edge rows again.
#[inline(always)]
fn velocities(
    p: &[&[f64]; 9],
    solid: &[bool],
    k: usize,
    halo: Option<&[(f64, f64)]>,
    ux: &mut [f64],
    uy: &mut [f64],
) {
    let nx = ux.len();
    if let Some(row) = halo {
        for ((u, v), &h) in ux.iter_mut().zip(uy.iter_mut()).zip(&row[..nx]) {
            (*u, *v) = h;
        }
        return;
    }
    let r = k.clamp(1, solid.len() / nx) * nx - nx;
    let q: [&[f64]; 9] = std::array::from_fn(|d| &p[d][r..r + nx]);
    let cells = ux.iter_mut().zip(uy.iter_mut()).zip(&solid[r..r + nx]);
    for (i, ((u, v), &solid)) in cells.enumerate() {
        let (_, cu, cv) = moments(std::array::from_fn(|d| q[d][i]));
        (*u, *v) = if solid { (0.0, 0.0) } else { (cu, cv) };
    }
}

/// [`Lattice::vorticity`] of `lat`.
#[inline(always)]
fn vorticity_field_body(
    lat: &Lattice,
    below: Option<&[(f64, f64)]>,
    above: Option<&[(f64, f64)]>,
) -> Vec<f32> {
    let nx = lat.cfg.nx;
    let rows = lat.rows;
    let (interior, cells) = (lat.interior(), lat.cells());
    let p: [&[f64]; 9] =
        std::array::from_fn(|d| &lat.f[d * cells..(d + 1) * cells][interior.clone()]);
    let solid = &lat.solid[interior];
    let halo = |k: usize| match k {
        0 => below,
        k if k == rows + 1 => above,
        _ => None,
    };
    // Ring slot `k % 3` holds row `k − 1`.
    let slot = |k: usize| k % 3 * nx..(k % 3 + 1) * nx;
    let (mut ux, mut uy) = (vec![0f64; 3 * nx], vec![0f64; 3 * nx]);
    for k in 0..2 {
        velocities(&p, solid, k, halo(k), &mut ux[slot(k)], &mut uy[slot(k)]);
    }
    let mut out = vec![0f32; nx * rows];
    for (ly, out) in out.chunks_exact_mut(nx).enumerate() {
        let k = ly + 2;
        velocities(&p, solid, k, halo(k), &mut ux[slot(k)], &mut uy[slot(k)]);
        let (ux_lo, ux_hi, uy_row) = (&ux[slot(ly)], &ux[slot(ly + 2)], &uy[slot(ly + 1)]);
        let one_sided = (ly == 0 && below.is_none()) || (ly == rows - 1 && above.is_none());
        let dy = if one_sided { 1.0 } else { 0.5 };
        // Columns 0 and nx − 1 difference one-sided over one cell.
        for x in [0, nx - 1] {
            let duy_dx = uy_row[(x + 1).min(nx - 1)] - uy_row[x.saturating_sub(1)];
            out[x] = (duy_dx - (ux_hi[x] - ux_lo[x]) * dy) as f32;
        }
        let inner = 1..nx.max(2) - 1;
        let stencil = uy_row.windows(3).zip(&ux_hi[inner.clone()]).zip(&ux_lo[inner.clone()]);
        for (o, ((w, &hi), &lo)) in out[inner].iter_mut().zip(stencil) {
            *o = ((w[2] - w[0]) * 0.5 - (hi - lo) * dy) as f32;
        }
    }
    out
}

avx2_dispatch! {
    /// [`vorticity_field_body`], the AVX2 build where the CPU has it.
    fn vorticity_field(
        lat: &Lattice,
        below: Option<&[(f64, f64)]>,
        above: Option<&[(f64, f64)]>,
    ) -> Vec<f32> = vorticity_field_body, vorticity_field_avx2;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{barrier_line, barrier_none};

    #[test]
    fn uniform_flow_is_a_fixed_point() {
        let cfg = Config::wind_tunnel(32, 16);
        let none = barrier_none();
        let mut lat = Lattice::new(cfg, 0, 16, &none);
        let before: Vec<f64> = (0..16)
            .flat_map(|ly| (0..32).map(move |x| (x, ly)))
            .map(|(x, ly)| lat.macroscopic(x, ly).1)
            .collect();
        for _ in 0..10 {
            lat.step_serial();
        }
        let after: Vec<f64> = (0..16)
            .flat_map(|ly| (0..32).map(move |x| (x, ly)))
            .map(|(x, ly)| lat.macroscopic(x, ly).1)
            .collect();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a).abs() < 1e-12, "{b} vs {a}");
        }
    }

    #[test]
    fn uniform_flow_has_zero_vorticity() {
        let cfg = Config::wind_tunnel(16, 16);
        let none = barrier_none();
        let mut lat = Lattice::new(cfg, 0, 16, &none);
        lat.step_serial();
        let vort = lat.vorticity(None, None);
        assert!(vort.iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn barrier_generates_vorticity_downstream() {
        let cfg = Config::wind_tunnel(64, 32);
        let bar = barrier_line(16, 12, 20);
        let mut lat = Lattice::new(cfg, 0, 32, &bar);
        for _ in 0..200 {
            lat.step_serial();
        }
        let vort = lat.vorticity(None, None);
        let max = vort.iter().fold(0f32, |m, v| m.max(v.abs()));
        assert!(max > 1e-3, "no vorticity shed: max {max}");
        // Both senses of rotation appear (a vortex street sheds pairs).
        assert!(vort.iter().any(|&v| v > 1e-4) && vort.iter().any(|&v| v < -1e-4));
    }

    #[test]
    fn simulation_stays_finite_and_positive() {
        let cfg = Config::wind_tunnel(48, 24);
        let bar = barrier_line(12, 8, 16);
        let mut lat = Lattice::new(cfg, 0, 24, &bar);
        for _ in 0..500 {
            lat.step_serial();
        }
        for ly in 0..24 {
            for x in 0..48 {
                let (rho, ux, uy) = lat.macroscopic(x, ly);
                assert!(rho.is_finite() && ux.is_finite() && uy.is_finite());
                assert!(rho > 0.2 && rho < 5.0, "density blow-up: {rho}");
            }
        }
    }

    #[test]
    fn interior_mass_is_conserved_by_collision() {
        let cfg = Config::wind_tunnel(32, 16);
        let bar = barrier_line(8, 4, 10);
        let mut lat = Lattice::new(cfg, 0, 16, &bar);
        for _ in 0..5 {
            lat.step_serial();
        }
        let mass = |l: &Lattice| -> f64 {
            let mut m = 0.0;
            for ly in 0..16 {
                for x in 0..32 {
                    m += l.macroscopic(x, ly).0;
                }
            }
            m
        };
        let m0 = mass(&lat);
        lat.collide(); // collision alone must conserve mass exactly
        let m1 = mass(&lat);
        assert!((m0 - m1).abs() < 1e-9, "{m0} vs {m1}");
    }

    #[test]
    fn edge_row_and_ghost_roundtrip() {
        let cfg = Config::wind_tunnel(8, 8);
        let none = barrier_none();
        let mut a = Lattice::new(cfg, 0, 4, &none);
        let b = Lattice::new(cfg, 4, 4, &none);
        let payload = b.edge_row(Edge::Below);
        assert_eq!(payload.len(), 9 * 8);
        a.set_ghost(Edge::Above, &payload);
        // Ghost row now mirrors b's bottom interior row.
        for d in 0..9 {
            for x in 0..8 {
                assert_eq!(a.f[a.idx(d, x, 4)], b.f[b.idx(d, x, 0)]);
            }
        }
    }

    #[test]
    fn stale_ghost_rows_never_leak() {
        // `stream` writes interior rows only, leaving stale pre-stream
        // values in the ghost rows. Poison both with NaN after every stream:
        // collide → set_ghost* → stream must not read them.
        let cfg = Config::wind_tunnel(24, 12);
        let bar = barrier_line(6, 0, 5); // solid cells in the bottom ghost row too
        let (mut clean, mut poisoned) =
            (Lattice::new(cfg, 4, 5, &bar), Lattice::new(cfg, 4, 5, &bar));
        let halo = Lattice::new(cfg, 9, 3, &bar).edge_row(Edge::Below);
        for _ in 0..20 {
            for lat in [&mut clean, &mut poisoned] {
                lat.collide();
                lat.set_ghost_boundary(Edge::Below);
                lat.set_ghost(Edge::Above, &halo);
                lat.stream();
            }
            let (nx, cells) = (cfg.nx, poisoned.cells());
            for plane in poisoned.f.chunks_exact_mut(cells) {
                plane[..nx].fill(f64::NAN);
                plane[cells - nx..].fill(f64::NAN);
            }
        }
        assert_eq!(interior_bits(&poisoned), interior_bits(&clean));
        assert_eq!(poisoned.vorticity(None, None), clean.vorticity(None, None));
    }

    /// The two-buffer stream this crate used before streaming in place:
    /// shift every plane into `tmp`, fix up bounce-back over the solid cells
    /// from the untouched `f`, swap.
    fn stream_two_buffer(lat: &mut Lattice, tmp: &mut Vec<f64>) {
        let (nx, cells) = (lat.cfg.nx, lat.cells());
        for (d, e) in E.iter().enumerate() {
            let feq = equilibrium(d, 1.0, lat.cfg.u0, 0.0);
            let src = &lat.f[d * cells..(d + 1) * cells];
            let dst = &mut tmp[d * cells..(d + 1) * cells];
            for ly in 1..=lat.rows {
                let from = (ly as i64 - e[1] as i64) as usize * nx;
                let (row, up) = (&mut dst[ly * nx..(ly + 1) * nx], &src[from..from + nx]);
                match e[0] {
                    0 => row.copy_from_slice(up),
                    1 => {
                        row[1..].copy_from_slice(&up[..nx - 1]);
                        row[0] = feq;
                    }
                    _ => {
                        row[..nx - 1].copy_from_slice(&up[1..]);
                        row[nx - 1] = feq;
                    }
                }
            }
        }
        for c in (0..cells).filter(|&c| lat.solid[c]) {
            let (sx, sy) = ((c % nx) as i64, (c / nx) as i64);
            for (d, e) in E.iter().enumerate().skip(1) {
                let (x, y) = (sx + e[0] as i64, sy + e[1] as i64);
                if (0..nx as i64).contains(&x) && (1..=lat.rows as i64).contains(&y) {
                    let i = y as usize * nx + x as usize;
                    tmp[d * cells + i] = lat.f[OPP[d] * cells + i];
                }
            }
        }
        std::mem::swap(&mut lat.f, tmp);
        lat.apply_fixed_edges();
    }

    /// Deterministic value in [0, 1) from an index.
    fn noise(i: usize) -> f64 {
        let h = (i as u64 ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn interior_bits(l: &Lattice) -> Vec<u64> {
        l.f.chunks_exact(l.cells())
            .flat_map(|p| p[l.interior()].iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn in_place_stream_equals_two_buffer_stream() {
        for nx in [2, 3, 8, 24] {
            for rows in [1, 2, 5] {
                let ny = rows + 4;
                // `wind_tunnel` asks for nx ≥ 4; at nx = 2 every column is an edge.
                let cfg = Config { nx, ny, ..Config::wind_tunnel(4, 4) };
                for y0 in [0, 2, ny - rows] {
                    // Solid cells in both ghost rows and both edge columns,
                    // and a scatter of solid cells anywhere.
                    let frame = move |x: usize, gy: usize| {
                        x == 0 || x == nx - 1 || gy + 1 == y0 || gy == y0 + rows
                    };
                    let scatter = |x: usize, gy: usize| noise(gy * 31 + x) < 0.3;
                    let barriers: [&dyn Fn(usize, usize) -> bool; 3] =
                        [&frame, &scatter, &barrier_none()];
                    for barrier in barriers {
                        let shape = format!("nx {nx}, rows {rows}, y0 {y0}");
                        let mut a = Lattice::new(cfg, y0, rows, barrier);
                        for (i, v) in a.f.iter_mut().enumerate() {
                            *v *= 0.9 + 0.2 * noise(i);
                        }
                        let mut b = Lattice::new(cfg, y0, rows, barrier);
                        b.f.clone_from(&a.f);
                        let mut tmp = a.f.clone();
                        // Neighbour slabs of one row, each perturbed
                        // differently, supply the non-boundary ghosts.
                        let neighbour = |gy: usize, salt: usize| {
                            let mut n = Lattice::new(cfg, gy, 1, barrier);
                            for (i, v) in n.f.iter_mut().enumerate() {
                                *v *= 0.9 + 0.2 * noise(i + salt);
                            }
                            n
                        };
                        let mut below = (y0 > 0).then(|| neighbour(y0 - 1, 1 << 20));
                        let mut above = (y0 + rows < ny).then(|| neighbour(y0 + rows, 1 << 21));
                        for step in 0..50 {
                            for n in below.iter_mut().chain(above.iter_mut()) {
                                n.step_serial();
                            }
                            for lat in [&mut a, &mut b] {
                                lat.collide();
                                match &below {
                                    Some(n) => lat.set_ghost(Edge::Below, &n.edge_row(Edge::Above)),
                                    None => lat.set_ghost_boundary(Edge::Below),
                                }
                                match &above {
                                    Some(n) => lat.set_ghost(Edge::Above, &n.edge_row(Edge::Below)),
                                    None => lat.set_ghost_boundary(Edge::Above),
                                }
                            }
                            a.stream();
                            stream_two_buffer(&mut b, &mut tmp);
                            assert_eq!(
                                interior_bits(&a),
                                interior_bits(&b),
                                "{shape}, step {step}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A slab of `rows` rows at `y0` in an `nx × ny` domain with a scatter
    /// of solid cells, its distributions perturbed by noise.
    fn noisy_slab(nx: usize, ny: usize, y0: usize, rows: usize, salt: usize) -> Lattice {
        let cfg = Config { nx, ny, ..Config::wind_tunnel(4, 4) };
        let scatter = move |x: usize, gy: usize| noise(gy * 131 + x + salt) < 0.2;
        let mut lat = Lattice::new(cfg, y0, rows, &scatter);
        for (i, v) in lat.f.iter_mut().enumerate() {
            *v *= 0.8 + 0.4 * noise(i + salt);
        }
        lat
    }

    /// The dispatched `collide_cells` (the AVX2 build on a CPU that has it)
    /// against its body called directly (the baseline build), to the bit.
    #[test]
    fn collide_builds_agree_to_the_bit() {
        for (nx, rows) in [(2, 1), (7, 3), (64, 33), (515, 6)] {
            for omega in [0.6, 1.0, 1.7, 1.99] {
                let lat = noisy_slab(nx, rows + 2, 1, rows, nx + rows);
                let n = lat.solid.len();
                let (mut a, mut b) = (lat.f.clone(), lat.f.clone());
                for _ in 0..3 {
                    let mut pa = a.chunks_exact_mut(n);
                    collide_cells(omega, &lat.solid, std::array::from_fn(|_| pa.next().unwrap()));
                    let mut pb = b.chunks_exact_mut(n);
                    let pb = std::array::from_fn(|_| pb.next().unwrap());
                    collide_cells_body(omega, &lat.solid, pb);
                }
                let bits = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "nx {nx}, rows {rows}, omega {omega}");
            }
        }
    }

    /// The dispatched `vorticity` against its body called directly, to the
    /// bit, with halo rows and with one-sided domain edges.
    #[test]
    fn vorticity_builds_agree_to_the_bit() {
        for (nx, rows) in [(2, 1), (5, 2), (64, 17), (515, 6)] {
            let lat = noisy_slab(nx, rows + 2, 1, rows, 3 * nx + rows);
            let halo = |salt: usize| -> Vec<(f64, f64)> {
                (0..nx)
                    .map(|x| (0.2 * noise(x + salt) - 0.1, 0.2 * noise(x + 2 * salt) - 0.1))
                    .collect()
            };
            let (below, above) = (halo(1 << 20), halo(1 << 21));
            for (b, a) in [
                (None, None),
                (Some(&below[..]), None),
                (None, Some(&above[..])),
                (Some(&below[..]), Some(&above[..])),
            ] {
                let bits = |v: Vec<f32>| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(lat.vorticity(b, a)),
                    bits(vorticity_field_body(&lat, b, a)),
                    "nx {nx}, rows {rows}, below {}, above {}",
                    b.is_some(),
                    a.is_some()
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn slab_outside_domain_rejected() {
        let cfg = Config::wind_tunnel(8, 8);
        let none = barrier_none();
        let _ = Lattice::new(cfg, 6, 4, &none);
    }
}
