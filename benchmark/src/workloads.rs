//! The four workloads: input generation from the seed, per-rank state, one
//! op, and the serial-oracle check.
//!
//! Everything here runs against the measured crates' public surface listed
//! in the README and nothing else.

use crate::gen;
use crate::json::Json;
use crate::spans::Tracer;
use crate::spec::{self, Kind};
use crate::sysinfo::RANKS;
use ddr_bench::loader::load_stack;
use ddr_bench::tiffcase::Method;
use ddr_core::decompose::slab;
use ddr_core::{Block, DataKind, Descriptor, Layout, Plan, ValidationPolicy};
use ddr_lbm::{barrier_line, Config, DistributedLbm, Lattice};
use intransit::{analysis_block, Frame, Repartitioner};
use jimage::{jpeg, Colormap, RgbImage};
use minimpi::Comm;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// What a rank declares to `setup_data_mapping` on this workload: the same
/// shapes the rung stages measure each layer on.
pub fn layout(kind: Kind, seed: u64, rank: usize) -> Layout {
    let ok = "workload geometry is valid by construction";
    match kind {
        Kind::BulkTranspose2d => {
            let domain = Block::d2([0, 0], [spec::BULK_N, spec::BULK_N]).expect(ok);
            // Row slab `perm[rank]` in, column slab `rank` out.
            let perm = gen::permutation(seed, RANKS);
            Layout {
                owned: vec![slab(&domain, 1, RANKS, perm[rank]).expect(ok)],
                need: slab(&domain, 0, RANKS, rank).expect(ok),
            }
        }
        Kind::RoundsSmall2d => {
            let n = spec::SMALL_N;
            let domain = Block::d2([0, 0], [n, n]).expect(ok);
            // 16 column slabs dealt to the ranks by a seeded permutation;
            // chunk r of every rank is exchanged in round r.
            let perm = gen::permutation(seed, spec::SMALL_SLABS);
            let per_rank = spec::SMALL_SLABS / RANKS;
            let owned = perm[rank * per_rank..(rank + 1) * per_rank]
                .iter()
                .map(|&s| slab(&domain, 0, spec::SMALL_SLABS, s).expect(ok))
                .collect();
            Layout { owned, need: slab(&domain, 1, RANKS, rank).expect(ok) }
        }
        Kind::TiffStackLoad => {
            let vol = spec::TIFF_VOL;
            let domain = Block::d3([0, 0, 0], vol).expect(ok);
            // `load_stack(.., Method::RoundRobin)`: image z belongs to rank
            // z mod P, one chunk per image; bricks split the x axis.
            let owned = (rank..vol[2])
                .step_by(RANKS)
                .map(|z| Block::d3([0, 0, z], [vol[0], vol[1], 1]).expect(ok))
                .collect();
            Layout { owned, need: slab(&domain, 0, RANKS, rank).expect(ok) }
        }
        Kind::LbmFrames => {
            let (nx, ny) = (spec::LBM_NX, spec::LBM_NY);
            let domain = Block::d2([0, 0], [nx, ny]).expect(ok);
            Layout {
                owned: vec![slab(&domain, 1, RANKS, rank).expect(ok)],
                need: analysis_block(nx, ny, RANKS, rank).expect(ok),
            }
        }
    }
}

pub fn data_kind(kind: Kind) -> DataKind {
    match kind {
        Kind::TiffStackLoad => DataKind::D3,
        _ => DataKind::D2,
    }
}

/// Extent of the fastest axis of the global domain (for linear indices).
fn domain_nx(kind: Kind) -> usize {
    match kind {
        Kind::BulkTranspose2d => spec::BULK_N,
        Kind::RoundsSmall2d => spec::SMALL_N,
        Kind::TiffStackLoad => spec::TIFF_VOL[0],
        Kind::LbmFrames => spec::LBM_NX,
    }
}

/// Fill one owned block with the seeded payload: the cell at global `(x, y)`
/// holds `gen::cell(seed, y·NX + x)`.
fn fill_block(seed: u64, nx: usize, b: &Block) -> Vec<f32> {
    let mut data = Vec::with_capacity(b.count() as usize);
    for y in b.offset[1]..b.offset[1] + b.dims[1] {
        let row = (y * nx) as u64;
        data.extend(
            (b.offset[0]..b.offset[0] + b.dims[0]).map(|x| gen::cell(seed, row + x as u64)),
        );
    }
    data
}

/// The LBM barrier: the example's vertical line, shifted along x by the seed.
pub fn lbm_barrier(seed: u64) -> (usize, usize, usize) {
    let (nx, ny) = (spec::LBM_NX, spec::LBM_NY);
    (gen::pick(seed, 0x4C42, nx / 8, nx * 3 / 8), ny * 2 / 5, ny * 3 / 5)
}

/// Everything the library receives, generated from the seed before
/// `Universe::run` is entered (input generation is not set-up).
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    /// 2-D workloads: each rank's payload, taken by its thread.
    payload: Vec<Mutex<Option<Vec<Vec<f32>>>>>,
    /// `tiff_stack_load`: the stack written once by the parent.
    pub stack_dir: Option<PathBuf>,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64, stack_dir: Option<PathBuf>) -> Inputs {
        let payload = (0..RANKS)
            .map(|rank| {
                let data = matches!(kind, Kind::BulkTranspose2d | Kind::RoundsSmall2d).then(|| {
                    let l = layout(kind, seed, rank);
                    l.owned.iter().map(|b| fill_block(seed, domain_nx(kind), b)).collect()
                });
                Mutex::new(data)
            })
            .collect();
        Inputs { kind, seed, payload, stack_dir }
    }

    fn take_payload(&self, rank: usize) -> Vec<Vec<f32>> {
        self.payload[rank]
            .lock()
            .expect("payload mutex is never held across a panic")
            .take()
            .expect("each rank takes its payload once; regenerate inputs per universe")
    }
}

/// Outcome of the oracle check on one rank.
pub struct Verified {
    pub mismatches: u64,
    /// Workload-specific evidence for the parent (digests, JPEG size).
    pub extra: Json,
}

/// One rank's side of a workload.
pub trait RankState {
    /// One collective op, as the application would issue it.
    fn op(&mut self, comm: &Comm, t: &mut Tracer) -> Result<(), String>;
    /// Called once between warm-up and the first timed op.
    fn arm(&mut self) {}
    /// Compare outputs with the serial oracle. Outside the timed region.
    /// `corrupt` (the `--corrupt-oracle` test hook) flips one bit of the
    /// first expected value on rank 0, which a sound check must then report.
    fn verify(&mut self, corrupt: bool) -> Verified;
    /// Consumer-side payload bytes per op on this rank: `need.count() × 4`.
    fn need_bytes(&self) -> u64;
}

/// Set-up inside the rank thread: descriptor, mapping, buffer first touch.
///
/// `reassembled` selects, for `tiff_stack_load`, the loader re-assembled from
/// public pieces (one span per layer call) instead of `load_stack` itself;
/// the traced run uses it so that recorder-on and recorder-off ops run the
/// same code.
pub fn setup(
    inputs: &Inputs,
    comm: &Comm,
    reassembled: bool,
) -> Result<Box<dyn RankState>, String> {
    let (kind, seed, rank) = (inputs.kind, inputs.seed, comm.rank());
    let l = layout(kind, seed, rank);
    Ok(match kind {
        Kind::BulkTranspose2d | Kind::RoundsSmall2d => {
            let desc = Descriptor::for_type::<f32>(RANKS, DataKind::D2).map_err(err)?;
            let plan = desc.setup_data_mapping(comm, &l.owned, l.need).map_err(err)?;
            Box::new(Redist2d {
                seed,
                nx: domain_nx(kind),
                plan,
                owned: inputs.take_payload(rank),
                need: vec![0.0; l.need.count() as usize],
            })
        }
        Kind::TiffStackLoad => Box::new(TiffLoad {
            dir: inputs.stack_dir.clone().ok_or("tiff_stack_load needs a stack directory")?,
            layout: l,
            reassembled,
            last: None,
        }),
        Kind::LbmFrames => {
            let (x, y0, y1) = lbm_barrier(seed);
            let cfg = Config::wind_tunnel(spec::LBM_NX, spec::LBM_NY);
            Box::new(LbmFrames {
                sim: DistributedLbm::new(cfg, comm, &*barrier_line(x, y0, y1)),
                rep: Repartitioner::new(l.need),
                need: l.need,
                cmap: Colormap::blue_white_red(),
                step: 0,
                first: None,
                mark_first: false,
                last: None,
            })
        }
    })
}

/// Errors cross the rank-thread and process boundaries as their message.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// bulk_transpose_2d and rounds_small_2d: setup once, reorganize per op.
// ---------------------------------------------------------------------------

struct Redist2d {
    seed: u64,
    nx: usize,
    plan: Plan,
    owned: Vec<Vec<f32>>,
    need: Vec<f32>,
}

impl RankState for Redist2d {
    fn op(&mut self, comm: &Comm, t: &mut Tracer) -> Result<(), String> {
        let refs: Vec<&[f32]> = self.owned.iter().map(Vec::as_slice).collect();
        t.span("exec.reorganize", |_| self.plan.reorganize(comm, &refs, &mut self.need))
            .map_err(err)
    }

    /// Poison the output so the check proves the timed ops wrote every cell.
    fn arm(&mut self) {
        self.need.fill(f32::NAN);
    }

    fn verify(&mut self, corrupt: bool) -> Verified {
        let b = *self.plan.need();
        let mut got = self.need.iter();
        let mut flip = u32::from(corrupt && self.plan.rank() == 0);
        let mut mismatches = 0;
        for y in b.offset[1]..b.offset[1] + b.dims[1] {
            for x in b.offset[0]..b.offset[0] + b.dims[0] {
                let want = gen::cell(self.seed, (y * self.nx + x) as u64).to_bits() ^ flip;
                flip = 0;
                mismatches += u64::from(got.next().map(|v| v.to_bits()) != Some(want));
            }
        }
        Verified { mismatches, extra: Json::Null }
    }

    fn need_bytes(&self) -> u64 {
        self.plan.need().count() * 4
    }
}

// ---------------------------------------------------------------------------
// tiff_stack_load: the paper's use case 1.
// ---------------------------------------------------------------------------

struct TiffLoad {
    dir: PathBuf,
    layout: Layout,
    reassembled: bool,
    last: Option<(Block, Vec<f32>)>,
}

/// Decode one slice to normalized `f32`, as the loader does.
pub fn decode_slice(dir: &Path, z: usize) -> Result<Vec<f32>, String> {
    let img = dtiff::read_stack_slice(dir, z).map_err(err)?;
    let scale = match img.kind() {
        dtiff::PixelKind::U8 => 255.0,
        dtiff::PixelKind::U16 => 65535.0,
        dtiff::PixelKind::U32 => u32::MAX as f64,
        dtiff::PixelKind::F32 => 1.0,
    };
    Ok((0..img.data.len()).map(|i| (img.data.get_f64(i) / scale) as f32).collect())
}

impl TiffLoad {
    /// `load_stack(.., RoundRobin)` re-assembled from public pieces with one
    /// span per layer call — the traced run only.
    fn op_reassembled(&self, comm: &Comm, t: &mut Tracer) -> Result<(Block, Vec<f32>), String> {
        let l = &self.layout;
        let mut data = Vec::with_capacity(l.owned.len());
        for b in &l.owned {
            data.push(t.span("dtiff.decode", |_| decode_slice(&self.dir, b.offset[2]))?);
        }
        let plan = t.span("mapping.setup", |_| {
            let desc = Descriptor::for_type::<f32>(comm.size(), DataKind::D3)?;
            desc.setup_data_mapping_with(comm, &l.owned, l.need, ValidationPolicy::Skip)
        });
        let plan = plan.map_err(err)?;
        let refs: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
        let mut out = vec![0f32; l.need.count() as usize];
        t.span("exec.reorganize", |_| plan.reorganize(comm, &refs, &mut out)).map_err(err)?;
        Ok((l.need, out))
    }
}

impl RankState for TiffLoad {
    fn op(&mut self, comm: &Comm, t: &mut Tracer) -> Result<(), String> {
        self.last = None; // the previous brick is dropped before the next load, as a caller would
        let loaded = if self.reassembled {
            self.op_reassembled(comm, t)?
        } else {
            let (block, data, _) =
                load_stack(comm, &self.dir, spec::TIFF_VOL, Method::RoundRobin).map_err(err)?;
            (block, data)
        };
        self.last = Some(loaded);
        Ok(())
    }

    /// Voxels against the phantom itself, through the files' 16-bit
    /// quantization — independent of `dtiff` and of the redistribution.
    fn verify(&mut self, corrupt: bool) -> Verified {
        let Some((block, data)) = &self.last else {
            return Verified { mismatches: self.layout.need.count(), extra: Json::Null };
        };
        let vol = spec::TIFF_VOL;
        let phantom = volren::phantom_tooth(vol);
        let mut flip = u32::from(corrupt && block.offset[0] == 0);
        let mut mismatches = u64::from(data.len() as u64 != block.count());
        for (got, c) in data.iter().zip(block.coords()) {
            let v = phantom[c[0] + vol[0] * (c[1] + vol[1] * c[2])];
            let want = ((f64::from((v * 65535.0) as u16) / 65535.0) as f32).to_bits() ^ flip;
            flip = 0;
            mismatches += u64::from(got.to_bits() != want);
        }
        Verified { mismatches, extra: Json::Null }
    }

    fn need_bytes(&self) -> u64 {
        self.layout.need.count() * 4
    }
}

// ---------------------------------------------------------------------------
// lbm_frames: the paper's use case 2, collapsed onto the two ranks.
// ---------------------------------------------------------------------------

struct LbmFrames {
    sim: DistributedLbm,
    rep: Repartitioner,
    need: Block,
    cmap: Colormap,
    step: u64,
    /// Digest of the first timed frame's assembled field.
    first: Option<u64>,
    mark_first: bool,
    /// Last assembled field and its JPEG.
    last: Option<(Vec<f32>, Vec<u8>)>,
}

impl RankState for LbmFrames {
    fn op(&mut self, comm: &Comm, t: &mut Tracer) -> Result<(), String> {
        self.step += 1;
        t.span("lbm.step", |_| self.sim.step(comm)).map_err(err)?;
        let vort = t.span("lbm.vorticity", |_| self.sim.vorticity(comm)).map_err(err)?;
        let (y0, rows) = self.sim.slab();
        let block = Block::d2([0, y0], [spec::LBM_NX, rows]).map_err(err)?;
        let field = t
            .span("intransit.redistribute", |_| {
                self.rep.redistribute(comm, &[Frame::new(self.step, block, vort)])
            })
            .map_err(err)?;
        let (w, h) = (self.need.dims[0], self.need.dims[1]);
        let (lo, hi) = spec::VORT_RANGE;
        let img = t.span("jimage.colormap", |_| {
            RgbImage::from_scalar_field(w, h, &field, lo, hi, &self.cmap)
        });
        let bytes =
            t.span("jimage.encode", |_| jpeg::encode(&img, spec::JPEG_QUALITY)).map_err(err)?;
        if std::mem::take(&mut self.mark_first) {
            self.first = Some(gen::digest(&field));
        }
        self.last = Some((field, bytes));
        Ok(())
    }

    fn arm(&mut self) {
        self.mark_first = true;
    }

    /// The digests go to the parent, which compares them with the serial
    /// lattice ([`lbm_reference`]); the JPEG is decoded here and must show
    /// the colormapped field again. (`corrupt` acts on the parent's reference.)
    fn verify(&mut self, _corrupt: bool) -> Verified {
        let Some((field, bytes)) = &self.last else {
            return Verified { mismatches: self.need.count(), extra: Json::Null };
        };
        let (w, h) = (self.need.dims[0], self.need.dims[1]);
        let (lo, hi) = spec::VORT_RANGE;
        let shown = RgbImage::from_scalar_field(w, h, field, lo, hi, &self.cmap);
        let jpeg_ok = jpeg::decode(bytes)
            .is_ok_and(|d| (d.width, d.height) == (w, h) && d.mean_abs_diff(&shown) < 8.0);
        Verified {
            mismatches: u64::from(!jpeg_ok),
            extra: Json::obj([
                ("steps", Json::Num(self.step as f64)),
                // u64 digests travel as strings: f64 cannot hold them.
                ("first_digest", Json::Str(self.first.map_or("none".into(), |d| d.to_string()))),
                ("last_digest", Json::Str(gen::digest(field).to_string())),
                ("jpeg_bytes", Json::Num(bytes.len() as f64)),
            ]),
        }
    }

    fn need_bytes(&self) -> u64 {
        self.need.count() * 4
    }
}

/// Serial reference for `lbm_frames`: step the whole lattice on one thread
/// with `Lattice::step_serial` and digest each rank's tile of the vorticity
/// field after steps `first` and `last`. Returns `[first, last]` per rank.
pub fn lbm_reference(seed: u64, first: u64, last: u64) -> Vec<[u64; 2]> {
    let (nx, ny) = (spec::LBM_NX, spec::LBM_NY);
    let (x, y0, y1) = lbm_barrier(seed);
    let mut lattice = Lattice::new(Config::wind_tunnel(nx, ny), 0, ny, &*barrier_line(x, y0, y1));
    let tiles = |lattice: &Lattice| -> Vec<u64> {
        let field = lattice.vorticity(None, None);
        (0..RANKS)
            .map(|rank| {
                let b = layout(Kind::LbmFrames, seed, rank).need;
                let mut tile = Vec::with_capacity(b.count() as usize);
                for y in b.offset[1]..b.offset[1] + b.dims[1] {
                    let row = y * nx + b.offset[0];
                    tile.extend_from_slice(&field[row..row + b.dims[0]]);
                }
                gen::digest(&tile)
            })
            .collect()
    };
    let mut at_first = Vec::new();
    for step in 1..=last {
        lattice.step_serial();
        if step == first {
            at_first = tiles(&lattice);
        }
    }
    let at_last = tiles(&lattice);
    at_first.into_iter().zip(at_last).map(|(f, l)| [f, l]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_core::compute_local_plan;

    fn plans(kind: Kind, seed: u64) -> Vec<Plan> {
        let layouts: Vec<Layout> = (0..RANKS).map(|r| layout(kind, seed, r)).collect();
        let elem = std::mem::size_of::<f32>();
        let desc = Descriptor::new(RANKS, data_kind(kind), elem).unwrap();
        (0..RANKS).map(|r| compute_local_plan(r, &layouts, &desc).unwrap()).collect()
    }

    /// The shapes the issue fixes, for two seeds: the seed never moves a size.
    #[test]
    fn workload_shapes_do_not_depend_on_the_seed() {
        for seed in [1u64, 99] {
            for p in plans(Kind::BulkTranspose2d, seed) {
                assert_eq!(p.num_rounds(), 1);
                assert_eq!(p.total_sent_bytes(), 4 << 20);
                assert_eq!(p.total_local_bytes(), 4 << 20);
            }
            for p in plans(Kind::RoundsSmall2d, seed) {
                assert_eq!(p.num_rounds(), 8);
                assert_eq!(p.total_sent_bytes(), 8 * (8 << 10));
                for round in p.rounds() {
                    let sent: Vec<u64> = round
                        .sends
                        .iter()
                        .filter(|t| t.peer != p.rank())
                        .map(|t| t.bytes())
                        .collect();
                    assert_eq!(sent, vec![8 << 10], "one 8 KiB message per round");
                }
            }
            for p in plans(Kind::TiffStackLoad, seed) {
                assert_eq!(p.num_rounds(), 64);
                assert_eq!(p.total_sent_bytes(), 64 * (128 << 10));
            }
            for p in plans(Kind::LbmFrames, seed) {
                assert_eq!(p.num_rounds(), 1);
                assert_eq!(p.need().dims, [256, 256, 1]);
            }
        }
    }

    #[test]
    fn the_seed_moves_the_interleave_and_the_barrier() {
        let a = layout(Kind::RoundsSmall2d, 1, 0).owned;
        assert_eq!(a, layout(Kind::RoundsSmall2d, 1, 0).owned);
        assert_ne!(a, layout(Kind::RoundsSmall2d, 2, 0).owned);
        let barriers: std::collections::BTreeSet<_> = (0..20).map(|s| lbm_barrier(s).0).collect();
        assert!(barriers.len() > 1);
        assert!(barriers.iter().all(|&x| (spec::LBM_NX / 8..=spec::LBM_NX * 3 / 8).contains(&x)));
    }

    #[test]
    fn payload_follows_the_global_index() {
        let b = Block::d2([3, 2], [2, 2]).unwrap();
        let got = fill_block(7, 10, &b);
        let want: Vec<f32> = [23u64, 24, 33, 34].iter().map(|&i| gen::cell(7, i)).collect();
        assert_eq!(got, want);
    }
}
