//! One rank's slab of the LBM domain.

use crate::config::Config;
use crate::d2q9::{equilibrium, E, OPP};
use std::ops::Range;

/// Defines `$name`, which runs `$body` compiled for AVX-512 (through the
/// `#[target_feature]` wrapper `$avx512`, where one is named) or AVX2
/// (`$avx2`), the widest the CPU has, and the baseline build of `$body`
/// otherwise. `$body` is `#[inline(always)]`, so each build is its own copy
/// of the one source. Rust neither contracts `a * b + c` into an FMA nor
/// reassociates, so the builds agree to the bit; `fma` is never enabled.
/// A kernel names an `$avx512` wrapper only where that build beats its AVX2
/// build by direct call. The AVX-512 target features need Rust 1.89.
macro_rules! avx2_dispatch {
    (
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            = $body:path, $avx2:ident $(, $avx512:ident)?;
    ) => {
        avx2_dispatch!(@wrapper "avx2", $avx2, $body, ($($arg: $ty),*) $(-> $ret)?);
        avx2_dispatch!(@avx512 [$($avx512)?], $body, ($($arg: $ty),*) $(-> $ret)?);

        $(#[$attr])*
        fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                avx2_dispatch!(@call [$($avx512)?] ($($arg),*));
                if is_x86_feature_detected!("avx2") {
                    // SAFETY: the CPU has AVX2, checked just above.
                    return unsafe { $avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
    (@wrapper $features:literal, $wrapper:ident, $body:path,
        ($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {
        /// # Safety
        #[doc = concat!("The CPU must have `", $features, "`.")]
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        unsafe fn $wrapper($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }
    };
    (@avx512 [], $($rest:tt)*) => {};
    (@avx512 [$avx512:ident], $body:path, $($sig:tt)*) => {
        avx2_dispatch!(@wrapper "avx512f,avx512bw,avx512dq,avx512vl", $avx512, $body, $($sig)*);
    };
    (@call [] $args:tt) => {};
    (@call [$avx512:ident] ($($arg:ident),*)) => {
        if has_avx512() {
            // SAFETY: the CPU has AVX-512 F, BW, DQ and VL, checked just above.
            return unsafe { $avx512($($arg),*) };
        }
    };
}

/// Whether the CPU has the AVX-512 subsets that an `$avx512` build of
/// `avx2_dispatch!` enables.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
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
///
/// Cells are numbered `c = (y + 1) * nx + x`, y ∈ -1..=rows, and each
/// direction plane holds them in a ring of `cells` values that starts at
/// its own offset, so streaming moves an offset rather than the data.
pub struct Lattice {
    cfg: Config,
    y0: usize,
    rows: usize,
    /// Distributions: cell `c` of plane `d` at `f[d * cells + (off[d] + c) % cells]`.
    f: Vec<f64>,
    /// Where each plane's ring puts cell 0.
    off: [usize; 9],
    /// Solid mask over interior + ghost rows, by cell.
    solid: Vec<bool>,
    /// Bounce-back `(d, c)`: direction `d` of interior cell `c`, whose
    /// upstream cell is solid, takes direction `OPP[d]` of `c` itself.
    bounce: Vec<(usize, usize)>,
    /// Pre-stream values of the bounce sources, one per pair.
    saved: Vec<f64>,
    /// Velocities `collide_velocities` yields, five rows of `nx` each: the
    /// rows a [`Lattice::collide_vorticity`] sweep keeps.
    ux: Vec<f64>,
    uy: Vec<f64>,
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

/// Where cell `c` sits in a ring of `cells` cells that starts at `off`.
#[inline(always)]
fn ring_pos(off: usize, cells: usize, c: usize) -> usize {
    let p = off + c;
    if p >= cells {
        p - cells
    } else {
        p
    }
}

/// Splits the cells `range` of planes whose rings start at `off` into runs
/// that no ring wraps inside: at most one run more than there are planes.
/// Yields each run and where it starts in each plane.
struct Runs<'a> {
    off: &'a [usize; 9],
    cells: usize,
    range: Range<usize>,
}

impl Iterator for Runs<'_> {
    type Item = (Range<usize>, [usize; 9]);

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        let Range { start, end } = self.range;
        if start >= end {
            return None;
        }
        let mut stop = end;
        let at = self.off.map(|off| {
            let p = ring_pos(off, self.cells, start);
            stop = stop.min(start + self.cells - p);
            p
        });
        self.range.start = stop;
        Some((start..stop, at))
    }
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
/// 1.20–1.36 ms (6 runs each, alternating). Its AVX-512 build (eight lanes)
/// takes a direct call on that slab's interior from 0.50 to 0.36 ms.
///
/// With `YIELD`, each cell's pre-collision velocity also goes to `ux` /
/// `uy` (solid cells (0, 0)), the values [`Lattice::vorticity`] computes
/// from the same distributions, so a sweep that collides ahead of the next
/// step reads the vorticity's velocities off the collide. Without it the
/// velocity slices are not touched, and a plain collide stores nothing
/// more than the nine planes: a store on that path, the one most steps
/// take, cost the criterion step benches 15–18 %.
#[inline(always)]
fn collide_body<const YIELD: bool>(
    omega: f64,
    solid: &[bool],
    planes: [&mut [f64]; 9],
    ux: &mut [f64],
    uy: &mut [f64],
) {
    let n = solid.len();
    let mut p = planes.map(|plane| &mut plane[..n]);
    let (ux, uy) = if YIELD { (&mut ux[..n], &mut uy[..n]) } else { (ux, uy) };
    for (i, &is_solid) in solid.iter().enumerate() {
        let (rho, cu, cv) = moments(std::array::from_fn(|d| p[d][i]));
        for (d, plane) in p.iter_mut().enumerate() {
            let feq = equilibrium(d, rho, cu, cv);
            let v = plane[i];
            plane[i] = if is_solid { v } else { v + omega * (feq - v) };
        }
        if YIELD {
            (ux[i], uy[i]) = if is_solid { (0.0, 0.0) } else { (cu, cv) };
        }
    }
}

avx2_dispatch! {
    /// [`collide_body`] for [`Lattice::collide`], storing no velocity (`ux`
    /// and `uy` may be empty), the AVX-512 or AVX2 build where the CPU has
    /// it.
    fn collide_cells(
        omega: f64,
        solid: &[bool],
        planes: [&mut [f64]; 9],
        ux: &mut [f64],
        uy: &mut [f64],
    ) = collide_body::<false>, collide_cells_avx2, collide_cells_avx512;
}

avx2_dispatch! {
    /// [`collide_body`] for [`Lattice::collide_vorticity`], storing each
    /// cell's velocity, the AVX-512 or AVX2 build where the CPU has it.
    fn collide_velocities(
        omega: f64,
        solid: &[bool],
        planes: [&mut [f64]; 9],
        ux: &mut [f64],
        uy: &mut [f64],
    ) = collide_body::<true>, collide_velocities_avx2, collide_velocities_avx512;
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
                    bounce.push((d, y as usize * nx + x as usize));
                }
            }
        }
        let saved = vec![0.0; bounce.len()];
        let (ux, uy) = (vec![0.0; 5 * nx], vec![0.0; 5 * nx]);
        Lattice { cfg, y0, rows, f, off: [0; 9], solid, bounce, saved, ux, uy }
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

    /// Index into `f` of cell `c` of plane `d`.
    #[inline]
    fn at(&self, d: usize, c: usize) -> usize {
        let cells = self.cells();
        d * cells + ring_pos(self.off[d], cells, c)
    }

    /// The ranges of `f` that hold row `ly` (−1..=rows) of plane `d`: the
    /// second is empty unless the row wraps the plane's ring.
    fn row(&self, d: usize, ly: i64) -> [Range<usize>; 2] {
        let (nx, cells) = (self.cfg.nx, self.cells());
        let start = self.at(d, (ly + 1) as usize * nx);
        let end = start + nx;
        let ring_end = (d + 1) * cells;
        if end <= ring_end {
            [start..end, end..end]
        } else {
            [start..ring_end, d * cells..end - cells]
        }
    }

    /// Inflow equilibrium of each direction, the fixed value of edge cells.
    fn inflow(&self) -> [f64; 9] {
        std::array::from_fn(|d| equilibrium(d, 1.0, self.cfg.u0, 0.0))
    }

    /// Density and velocity at interior cell `(x, ly)` (slab-local row).
    pub fn macroscopic(&self, x: usize, ly: usize) -> (f64, f64, f64) {
        let c = (ly + 1) * self.cfg.nx + x;
        if self.solid[c] {
            return (1.0, 0.0, 0.0);
        }
        moments(std::array::from_fn(|d| self.f[self.at(d, c)]))
    }

    /// Cells of the interior rows.
    fn interior(&self) -> Range<usize> {
        self.cfg.nx..self.cfg.nx * (self.rows + 1)
    }

    /// BGK collision on all interior fluid cells, one run at a time.
    pub fn collide(&mut self) {
        let (cells, omega) = (self.cells(), self.cfg.omega);
        let runs = Runs { off: &self.off, cells, range: self.interior() };
        for (run, at) in runs {
            let n = run.len();
            let mut planes = self.f.chunks_exact_mut(cells).zip(at);
            let planes = std::array::from_fn(|_| {
                let (plane, at) = planes.next().expect("nine planes");
                &mut plane[at..at + n]
            });
            collide_cells(omega, &self.solid[run], planes, &mut [], &mut []);
        }
    }

    /// [`Lattice::collide`] of interior row `ly` alone, one run at a time,
    /// its velocities into velocity slot `s`.
    fn collide_row(&mut self, ly: usize, s: usize) {
        let (nx, cells, omega) = (self.cfg.nx, self.cells(), self.cfg.omega);
        let first = (ly + 1) * nx;
        let (ux, uy) = (&mut self.ux[s * nx..][..nx], &mut self.uy[s * nx..][..nx]);
        for (run, at) in (Runs { off: &self.off, cells, range: first..first + nx }) {
            let (n, x) = (run.len(), run.start - first);
            let mut planes = self.f.chunks_exact_mut(cells).zip(at);
            let planes = std::array::from_fn(|_| {
                let (plane, at) = planes.next().expect("nine planes");
                &mut plane[at..at + n]
            });
            let (ux, uy) = (&mut ux[x..x + n], &mut uy[x..x + n]);
            collide_velocities(omega, &self.solid[run], planes, ux, uy);
        }
    }

    /// [`Lattice::vorticity`] of the slab as it stands, computed while the
    /// slab runs the next time step's [`Lattice::collide`], in one sweep:
    /// each row's collide yields its velocities into a ring of rows, and the
    /// stencil follows one row behind. `exchange` gets the `ux` rows of
    /// interior rows 0 and `rows − 1` and returns the neighbours' `ux` rows
    /// below and above (`None` at a domain edge), with which rows 0 and
    /// `rows − 1` are finished. The stencil reads only `ux` across a row, so
    /// that is all a halo carries. Both the field and the collide are bit
    /// for bit those of `vorticity` then `collide`.
    pub(crate) fn collide_vorticity<Err>(
        &mut self,
        exchange: impl FnOnce(&[f64], &[f64]) -> Result<[Option<Vec<f64>>; 2], Err>,
    ) -> Result<Vec<f32>, Err> {
        let (nx, rows) = (self.cfg.nx, self.rows);
        // Rows 0 and 1 keep slots 0 and 1 until the halos arrive; later
        // rows go round slots 2..5.
        let slot = |ly: usize| if ly < 2 { ly } else { 2 + ly % 3 };
        let row = |ly: usize| slot(ly) * nx..(slot(ly) + 1) * nx;
        let mut out = vec![0f32; nx * rows];
        for ly in 0..rows {
            self.collide_row(ly, slot(ly));
            // Rows 1..rows − 1 have both neighbours inside the slab.
            if let Some(mid) = ly.checked_sub(1).filter(|&mid| mid >= 1) {
                let (lo, hi) = (&self.ux[row(mid - 1)], &self.ux[row(ly)]);
                stencil_row(&mut out[mid * nx..][..nx], lo, &self.uy[row(mid)], hi, 0.5);
            }
        }
        let [below, above] = exchange(&self.ux[row(0)], &self.ux[row(rows - 1)])?;
        // As in `vorticity_field_body`: without a halo, the edge row stands
        // in for it and the difference is one-sided.
        for ly in [0, rows - 1].into_iter().take(rows.min(2)) {
            let lo = match &below {
                Some(h) if ly == 0 => &h[..nx],
                _ => &self.ux[row(ly.saturating_sub(1))],
            };
            let hi = match &above {
                Some(h) if ly == rows - 1 => &h[..nx],
                _ => &self.ux[row((ly + 1).min(rows - 1))],
            };
            let one_sided = (ly == 0 && below.is_none()) || (ly == rows - 1 && above.is_none());
            let dy = if one_sided { 1.0 } else { 0.5 };
            stencil_row(&mut out[ly * nx..][..nx], lo, &self.uy[row(ly)], hi, dy);
        }
        Ok(out)
    }

    /// Post-collision distributions of an interior edge row, packed as
    /// `[d][x]` (length `9 * nx`) — the halo payload for a neighbor.
    pub fn edge_row(&self, edge: Edge) -> Vec<f64> {
        let ly = match edge {
            Edge::Below => 0i64,
            Edge::Above => self.rows as i64 - 1,
        };
        let mut out = Vec::with_capacity(9 * self.cfg.nx);
        for d in 0..9 {
            for part in self.row(d, ly) {
                out.extend_from_slice(&self.f[part]);
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
        for (d, mut data) in data.chunks_exact(nx).enumerate() {
            for part in self.row(d, ly) {
                let (head, tail) = data.split_at(part.len());
                self.f[part].copy_from_slice(head);
                data = tail;
            }
        }
    }

    /// Fill a ghost row with inflow equilibrium (used at global boundaries,
    /// where the paper keeps edge cells at fixed values).
    pub fn set_ghost_boundary(&mut self, edge: Edge) {
        let ly = match edge {
            Edge::Below => -1i64,
            Edge::Above => self.rows as i64,
        };
        self.fill_row(ly, self.inflow());
    }

    /// Set every cell of row `ly` to `feq`, direction by direction.
    fn fill_row(&mut self, ly: i64, feq: [f64; 9]) {
        for (d, feq) in feq.into_iter().enumerate() {
            for part in self.row(d, ly) {
                self.f[part].fill(feq);
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
    /// Cell `c` takes cell `c − (E[d][1]·nx + E[d][0])` of plane `d`, so
    /// moving the start of each plane's ring back by that much streams every
    /// cell at once, and no distribution moves. A cell in column 0 or
    /// nx − 1 whose upstream column is outside the slab then holds a value
    /// from the far end of a neighbouring row (or a ghost row has wrapped
    /// round the ring); the fixed edge columns overwrite the former, and the
    /// ghost rows are rewritten by the next [`Lattice::set_ghost`] /
    /// [`Lattice::set_ghost_boundary`] before any reader sees them: every
    /// reader (`collide`, `edge_row`, `velocity_row`, `macroscopic`,
    /// `vorticity`) reads interior rows only. Bounce-back takes the
    /// pre-stream `f[OPP[d]]` of the target cell, so every bounce source is
    /// saved into a preallocated buffer before any ring moves and written
    /// back after.
    ///
    /// The stream thus writes the bounce pairs and the fixed edges only.
    /// Measured on a 2-core x86-64 Xeon guest, a direct call on a 512 × 128
    /// slab took 0.16 ms when it copied every plane in place, and takes
    /// 0.012 ms (EXPERIMENTS.md, "What did the stream's copy and the vector
    /// width cost?").
    pub fn stream(&mut self) {
        let (nx, cells) = (self.cfg.nx, self.cells());
        for (v, &(d, c)) in self.saved.iter_mut().zip(&self.bounce) {
            let d = OPP[d];
            *v = self.f[d * cells + ring_pos(self.off[d], cells, c)];
        }
        // The rest direction (d = 0) streams every cell onto itself.
        for (off, e) in self.off.iter_mut().zip(E).skip(1) {
            let shift = e[1] as isize * nx as isize + e[0] as isize;
            *off = (*off as isize - shift).rem_euclid(cells as isize) as usize;
        }
        for (&(d, c), &v) in self.bounce.iter().zip(&self.saved) {
            let i = self.at(d, c);
            self.f[i] = v;
        }
        self.apply_fixed_edges();
    }

    /// Reset the global domain edges to inflow equilibrium ("certain cells,
    /// including the edges, are kept at fixed values").
    fn apply_fixed_edges(&mut self) {
        let (nx, rows, feq) = (self.cfg.nx, self.rows, self.inflow());
        for c in (1..=rows).flat_map(|ly| [ly * nx, ly * nx + nx - 1]) {
            for (d, &feq) in feq.iter().enumerate() {
                let i = self.at(d, c);
                self.f[i] = feq;
            }
        }
        if self.y0 == 0 {
            self.fill_row(0, feq);
        }
        if self.y0 + rows == self.cfg.ny {
            self.fill_row(rows as i64 - 1, feq);
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
    ///
    /// This is the serial field, computed from the slab as it stands;
    /// [`crate::DistributedLbm::vorticity`] computes the same field, bit for
    /// bit, inside the next step's collide.
    pub fn vorticity(
        &self,
        below: Option<&[(f64, f64)]>,
        above: Option<&[(f64, f64)]>,
    ) -> Vec<f32> {
        vorticity_field(self, below, above)
    }
}

/// Velocities of ring row `k − 1` ∈ −1..=rows of `lat` into `ux` / `uy`
/// (solid cells (0, 0)), or the `halo` row's velocities when there is one.
/// Rows −1 and `rows` without a halo are the edge rows again. The row is
/// read one run at a time, where a plane's ring wraps inside it.
#[inline(always)]
fn velocities(
    lat: &Lattice,
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
    let cells = lat.cells();
    let first = k.clamp(1, lat.rows) * nx;
    for (run, at) in (Runs { off: &lat.off, cells, range: first..first + nx }) {
        let (n, x) = (run.len(), run.start - first);
        let q: [&[f64]; 9] = std::array::from_fn(|d| &lat.f[d * cells + at[d]..][..n]);
        let lanes = ux[x..x + n].iter_mut().zip(&mut uy[x..x + n]).zip(&lat.solid[run]);
        for (i, ((u, v), &solid)) in lanes.enumerate() {
            let (_, cu, cv) = moments(std::array::from_fn(|d| q[d][i]));
            (*u, *v) = if solid { (0.0, 0.0) } else { (cu, cv) };
        }
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
    let halo = |k: usize| match k {
        0 => below,
        k if k == rows + 1 => above,
        _ => None,
    };
    // Ring slot `k % 3` holds row `k − 1`.
    let slot = |k: usize| k % 3 * nx..(k % 3 + 1) * nx;
    let (mut ux, mut uy) = (vec![0f64; 3 * nx], vec![0f64; 3 * nx]);
    for k in 0..2 {
        velocities(lat, k, halo(k), &mut ux[slot(k)], &mut uy[slot(k)]);
    }
    let mut out = vec![0f32; nx * rows];
    for (ly, out) in out.chunks_exact_mut(nx).enumerate() {
        let k = ly + 2;
        velocities(lat, k, halo(k), &mut ux[slot(k)], &mut uy[slot(k)]);
        let one_sided = (ly == 0 && below.is_none()) || (ly == rows - 1 && above.is_none());
        let dy = if one_sided { 1.0 } else { 0.5 };
        stencil_row_body(out, &ux[slot(ly)], &uy[slot(ly + 1)], &ux[slot(ly + 2)], dy);
    }
    out
}

/// One row of the vorticity stencil into `out`: `∂uy/∂x` from the row's
/// own `uy`, `∂ux/∂y` from the rows below and above, scaled by `dy` (0.5
/// for a central difference, 1 for a one-sided one). Columns 0 and nx − 1
/// difference one-sided over one cell.
#[inline(always)]
fn stencil_row_body(out: &mut [f32], ux_lo: &[f64], uy_row: &[f64], ux_hi: &[f64], dy: f64) {
    let nx = out.len();
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

avx2_dispatch! {
    /// [`stencil_row_body`], the AVX2 build where the CPU has it.
    fn stencil_row(out: &mut [f32], ux_lo: &[f64], uy_row: &[f64], ux_hi: &[f64], dy: f64)
        = stencil_row_body, stencil_row_avx2;
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
        let mut b = Lattice::new(cfg, 4, 4, &none);
        // Streams move the rings, so rows wrap some of them.
        for _ in 0..3 {
            a.stream();
            b.stream();
        }
        let payload = b.edge_row(Edge::Below);
        assert_eq!(payload.len(), 9 * 8);
        a.set_ghost(Edge::Above, &payload);
        // Ghost row now mirrors b's bottom interior row.
        for d in 0..9 {
            for x in 0..8 {
                assert_eq!(value(&a, d, x, 4), value(&b, d, x, 0));
            }
        }
    }

    #[test]
    fn stale_ghost_rows_never_leak() {
        // `stream` leaves whatever its rings moved into the ghost rows.
        // Poison both with NaN after every stream: collide → set_ghost* →
        // stream must not read them.
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
            for ly in [-1, poisoned.rows as i64] {
                poisoned.fill_row(ly, [f64::NAN; 9]);
            }
        }
        assert_eq!(interior_bits(&poisoned), interior_bits(&clean));
        assert_eq!(poisoned.vorticity(None, None), clean.vorticity(None, None));
    }

    /// Direction `d` of cell `(x, ly)`, through the rings.
    fn value(lat: &Lattice, d: usize, x: usize, ly: i64) -> f64 {
        lat.f[lat.at(d, (ly + 1) as usize * lat.cfg.nx + x)]
    }

    /// The two-buffer stream this crate used before streaming in place, on
    /// cells read and written through the rings: shift every plane of a
    /// copy into `new`, fix up bounce-back over the solid cells from the
    /// copy, write `new`'s interior rows back.
    fn stream_two_buffer(lat: &mut Lattice) {
        let (nx, cells) = (lat.cfg.nx, lat.cells());
        let old: Vec<f64> = (0..9 * cells).map(|i| lat.f[lat.at(i / cells, i % cells)]).collect();
        let mut new = old.clone();
        for (d, e) in E.iter().enumerate() {
            let feq = equilibrium(d, 1.0, lat.cfg.u0, 0.0);
            let src = &old[d * cells..(d + 1) * cells];
            let dst = &mut new[d * cells..(d + 1) * cells];
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
                    new[d * cells + i] = old[OPP[d] * cells + i];
                }
            }
        }
        for d in 0..9 {
            for c in lat.interior() {
                let i = lat.at(d, c);
                lat.f[i] = new[d * cells + c];
            }
        }
        lat.apply_fixed_edges();
    }

    /// Deterministic value in [0, 1) from an index.
    fn noise(i: usize) -> f64 {
        let h = (i as u64 ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Scale direction `d` of cell `c` by `lo + span · noise(d · cells + c + salt)`.
    fn perturb(lat: &mut Lattice, lo: f64, span: f64, salt: usize) {
        let cells = lat.cells();
        for i in 0..9 * cells {
            let at = lat.at(i / cells, i % cells);
            lat.f[at] *= lo + span * noise(i + salt);
        }
    }

    /// The interior cells of every plane, in cell order.
    fn interior_bits(l: &Lattice) -> Vec<u64> {
        (0..9).flat_map(|d| l.interior().map(move |c| l.f[l.at(d, c)].to_bits())).collect()
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
                        perturb(&mut a, 0.9, 0.2, 0);
                        let mut b = Lattice::new(cfg, y0, rows, barrier);
                        perturb(&mut b, 0.9, 0.2, 0);
                        // Neighbour slabs of one row, each perturbed
                        // differently, supply the non-boundary ghosts.
                        let neighbour = |gy: usize, salt: usize| {
                            let mut n = Lattice::new(cfg, gy, 1, barrier);
                            perturb(&mut n, 0.9, 0.2, salt);
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
                            stream_two_buffer(&mut b);
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
        perturb(&mut lat, 0.8, 0.4, salt);
        lat
    }

    /// Whether the CPU has the features of the wrapper for `build`.
    #[cfg(target_arch = "x86_64")]
    fn cpu_has(build: &str) -> bool {
        match build {
            "avx2" => is_x86_feature_detected!("avx2"),
            "avx512" => has_avx512(),
            _ => unreachable!("no {build} build"),
        }
    }

    /// Every wrapper of `collide_cells` and `collide_velocities` this CPU
    /// runs, each called directly, against the baseline builds, to the bit:
    /// the distributions each of three collides leaves and the velocities
    /// each `collide_velocities` yields. Both kernels leave the same
    /// distributions, and `collide_cells` stores no velocity.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn collide_builds_agree_to_the_bit() {
        type Collide = unsafe fn(f64, &[bool], [&mut [f64]; 9], &mut [f64], &mut [f64]);
        let wrappers: [(&str, Collide, Collide); 2] = [
            ("avx2", collide_cells_avx2, collide_velocities_avx2),
            ("avx512", collide_cells_avx512, collide_velocities_avx512),
        ];
        for (nx, rows) in [(2, 1), (7, 3), (64, 33), (515, 6)] {
            for omega in [0.6, 1.0, 1.7, 1.99] {
                let lat = noisy_slab(nx, rows + 2, 1, rows, nx + rows);
                let (n, solid) = (lat.solid.len(), &lat.solid[..]);
                let f: Vec<f64> = (0..9 * n).map(|i| lat.f[lat.at(i / n, i % n)]).collect();
                // The distributions after three collides, then every velocity.
                let bits = |collide: Collide| {
                    let (mut f, mut u) = (f.clone(), Vec::new());
                    for _ in 0..3 {
                        let (mut ux, mut uy) = (vec![f64::NAN; n], vec![f64::NAN; n]);
                        let mut planes = f.chunks_exact_mut(n);
                        let planes = std::array::from_fn(|_| planes.next().unwrap());
                        // SAFETY: a wrapper comes in only if `cpu_has` its build.
                        unsafe { collide(omega, solid, planes, &mut ux, &mut uy) };
                        u.extend(ux.into_iter().chain(uy));
                    }
                    f.iter().chain(&u).map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                let baseline = bits(collide_body::<true>);
                let mut no_velocity = baseline.clone();
                no_velocity[9 * n..].fill(f64::NAN.to_bits());
                let plain: [(&str, Collide, Collide); 1] =
                    [("baseline", collide_body::<false>, collide_body::<true>)];
                let wide = wrappers.into_iter().filter(|&(b, ..)| cpu_has(b));
                for (build, cells, velocities) in plain.into_iter().chain(wide) {
                    let shape = format!("{build}, nx {nx}, rows {rows}, omega {omega}");
                    assert_eq!(bits(cells), no_velocity, "collide_cells, {shape}");
                    assert_eq!(bits(velocities), baseline, "collide_velocities, {shape}");
                }
            }
        }
    }

    /// The stencil's AVX2 build, where this CPU runs it, called directly,
    /// against the baseline build, to the bit, at both values of `dy`.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn stencil_builds_agree_to_the_bit() {
        if !cpu_has("avx2") {
            return;
        }
        for nx in [1, 2, 3, 8, 515] {
            let row =
                |salt: usize| -> Vec<f64> { (0..nx).map(|x| noise(x + salt) - 0.5).collect() };
            let (lo, uy, hi) = (row(0), row(1 << 20), row(1 << 21));
            for dy in [0.5, 1.0] {
                let (mut wide, mut baseline) = (vec![f32::NAN; nx], vec![f32::NAN; nx]);
                // SAFETY: the CPU has AVX2, checked at the top.
                unsafe { stencil_row_avx2(&mut wide, &lo, &uy, &hi, dy) };
                stencil_row_body(&mut baseline, &lo, &uy, &hi, dy);
                let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&wide), bits(&baseline), "nx {nx}, dy {dy}");
            }
        }
    }

    /// A slab collided ahead by `collide_vorticity` yields the field
    /// `vorticity` computes, hands `exchange` the `ux` of its edge rows and
    /// is left as `collide` leaves it, to the bit, with and without halos,
    /// on rings that wrap inside rows, at every slab height the sweep's
    /// slots treat apart. A halo's `uy` (NaN here) is never read.
    #[test]
    fn collide_vorticity_equals_vorticity_then_collide() {
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (nx, rows) in [(2, 1), (5, 2), (9, 3), (7, 4), (64, 5), (515, 17)] {
            let slab = || {
                let mut lat = noisy_slab(nx, rows + 2, 1, rows, 5 * nx + rows);
                for _ in 0..3 {
                    lat.stream();
                }
                lat
            };
            let halo =
                |salt: usize| -> Vec<f64> { (0..nx).map(|x| noise(x + salt) - 0.5).collect() };
            let (below, above) = (halo(1 << 20), halo(1 << 21));
            let pairs =
                |ux: &[f64]| -> Vec<(f64, f64)> { ux.iter().map(|&u| (u, f64::NAN)).collect() };
            let (pairs_below, pairs_above) = (pairs(&below), pairs(&above));
            for (b, a) in [(false, false), (true, false), (false, true), (true, true)] {
                let shape = format!("nx {nx}, rows {rows}, below {b}, above {a}");
                let mut lat = slab();
                let ux_row =
                    |ly| -> Vec<f64> { lat.velocity_row(ly).iter().map(|v| v.0).collect() };
                let edges = [ux_row(0), ux_row(rows - 1)].concat();
                let field =
                    lat.vorticity(b.then_some(&pairs_below[..]), a.then_some(&pairs_above[..]));
                lat.collide();

                let mut ahead = slab();
                let mut sent = Vec::new();
                let swept = ahead.collide_vorticity(|bottom, top| {
                    sent = [bottom, top].concat();
                    Ok::<_, ()>([b.then(|| below.clone()), a.then(|| above.clone())])
                });
                let to_bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(to_bits(&swept.unwrap()), to_bits(&field), "{shape}");
                assert_eq!(bits(&sent), bits(&edges), "{shape}");
                assert_eq!(interior_bits(&ahead), interior_bits(&lat), "{shape}");
            }
        }
    }

    /// The vorticity's AVX2 build, where this CPU runs it, called directly,
    /// against the baseline build, to the bit, with halo rows and with
    /// one-sided domain edges, on rings that wrap inside rows.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn vorticity_builds_agree_to_the_bit() {
        if !cpu_has("avx2") {
            return;
        }
        for (nx, rows) in [(2, 1), (5, 2), (64, 17), (515, 6)] {
            let mut lat = noisy_slab(nx, rows + 2, 1, rows, 3 * nx + rows);
            for _ in 0..3 {
                lat.stream();
            }
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
                    // SAFETY: the CPU has AVX2, checked at the top.
                    bits(unsafe { vorticity_field_avx2(&lat, b, a) }),
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
