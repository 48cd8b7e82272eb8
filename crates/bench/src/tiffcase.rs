//! The TIFF-stack use case as DDR layouts, at any scale, plus the
//! paper-scale cost projection (Tables II/III, Figure 3).

use ddr_core::decompose::{brick, consecutive_items, near_cubic_grid, round_robin_items};
use ddr_core::{Block, GlobalStats, Layout};
use ddr_netsim::ClusterSpec;

/// How file reading is assigned to ranks (Table II's three columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Every rank reads and decodes every image its brick intersects; no
    /// redistribution (the traditional approach).
    NoDdr,
    /// Rank `r` reads images `r, r+P, r+2P, …` — each image a separate DDR
    /// chunk, many `alltoallw` rounds of constant size.
    RoundRobin,
    /// Rank `r` reads one consecutive run of images — a single DDR chunk,
    /// one large `alltoallw` round.
    Consecutive,
}

impl Method {
    /// Human-readable column label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Method::NoDdr => "No DDR",
            Method::RoundRobin => "DDR (Round-Robin)",
            Method::Consecutive => "DDR (Consecutive)",
        }
    }
}

/// The paper's synthetic benchmark volume: 4096 slices of 4096×2048 32-bit
/// grayscale — 128 GiB total.
pub const PAPER_VOLUME: [usize; 3] = [4096, 2048, 4096];
/// Bytes per voxel of the benchmark volume.
pub const PAPER_ELEM: usize = 4;
/// The rank counts of Table II (3³, 4³, 5³, 6³).
pub const PAPER_SCALES: [usize; 4] = [27, 64, 125, 216];

/// Block of the volume covered by image (z-slice) `z`.
pub fn image_block(vol: [usize; 3], z: usize) -> ddr_core::Result<Block> {
    Block::d3([0, 0, z], [vol[0], vol[1], 1])
}

/// DDR layouts for loading `vol` on `nprocs` ranks with `method`
/// (`NoDdr` has no redistribution layout — returns `None`).
pub fn layouts(vol: [usize; 3], nprocs: usize, method: Method) -> Option<Vec<Layout>> {
    let domain = Block::d3([0, 0, 0], vol).expect("volume dims are nonzero");
    let counts = near_cubic_grid(nprocs);
    let n_images = vol[2];
    let per_rank = |rank: usize| -> Layout {
        let owned = match method {
            Method::RoundRobin => {
                round_robin_items(n_images, nprocs, rank, |z| image_block(vol, z))
                    .expect("image blocks are valid")
            }
            Method::Consecutive => {
                let (z0, len) = consecutive_items(n_images, nprocs, rank);
                if len == 0 {
                    Vec::new()
                } else {
                    vec![Block::d3([0, 0, z0], [vol[0], vol[1], len]).expect("valid chunk")]
                }
            }
            Method::NoDdr => unreachable!(),
        };
        let need = brick(&domain, counts, rank).expect("brick within domain");
        Layout { owned, need }
    };
    match method {
        Method::NoDdr => None,
        _ => Some((0..nprocs).map(per_rank).collect()),
    }
}

/// Images a rank must read itself. For `NoDdr` this is every image its
/// brick's z-range intersects; for the DDR methods it is `n_images / P`.
pub fn images_read_per_rank(vol: [usize; 3], nprocs: usize, method: Method, rank: usize) -> usize {
    let n_images = vol[2];
    match method {
        Method::NoDdr => {
            let domain = Block::d3([0, 0, 0], vol).expect("valid volume");
            let counts = near_cubic_grid(nprocs);
            let b = brick(&domain, counts, rank).expect("valid brick");
            b.dims[2]
        }
        Method::RoundRobin => (n_images - rank).div_ceil(nprocs),
        Method::Consecutive => consecutive_items(n_images, nprocs, rank).1,
    }
}

/// One projected Table II cell: the modelled load time in seconds, broken
/// into its read+decode and redistribution components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedTime {
    /// Parallel file read + decode component.
    pub read_s: f64,
    /// DDR redistribution component (0 for `NoDdr`).
    pub redistribute_s: f64,
}

impl ProjectedTime {
    /// Total load time.
    pub fn total(&self) -> f64 {
        self.read_s + self.redistribute_s
    }
}

/// Project the load time of `method` at paper scale on the given cluster.
///
/// Read/decode uses the filesystem model with the *exact* per-rank image
/// counts; redistribution uses the network model driven by the exact
/// per-round pair-byte matrices of the real DDR mapping.
pub fn project(
    vol: [usize; 3],
    elem: usize,
    nprocs: usize,
    method: Method,
    cluster: &ClusterSpec,
) -> ProjectedTime {
    let image_bytes = (vol[0] * vol[1] * elem) as f64;
    // The slowest reader bounds the read phase.
    let max_images = (0..nprocs)
        .map(|r| images_read_per_rank(vol, nprocs, method, r))
        .max()
        .expect("at least one rank") as f64;
    let read_s = cluster.fs.read_decode_time(nprocs, max_images * image_bytes, max_images);

    let redistribute_s = match layouts(vol, nprocs, method) {
        None => 0.0,
        Some(layouts) => {
            let stats = GlobalStats::compute(&layouts, elem);
            let node_of = cluster.node_map(nprocs);
            (0..stats.num_rounds)
                .map(|round| {
                    let m = GlobalStats::pair_bytes(&layouts, elem, round);
                    cluster.net.alltoallw_round_time(nprocs, &m, &node_of)
                })
                .sum()
        }
    };
    ProjectedTime { read_s, redistribute_s }
}

/// Like [`project`], but estimate the redistribution with the flow-level
/// simulator ([`ddr_netsim::flowsim`]) instead of the analytic contention
/// model — an independent, parameter-free lower-bound estimate.
pub fn project_flowsim(
    vol: [usize; 3],
    elem: usize,
    nprocs: usize,
    method: Method,
    cluster: &ClusterSpec,
) -> ProjectedTime {
    let base = project(vol, elem, nprocs, method, cluster);
    let redistribute_s = match layouts(vol, nprocs, method) {
        None => 0.0,
        Some(layouts) => {
            let stats = GlobalStats::compute(&layouts, elem);
            let node_of = cluster.node_map(nprocs);
            (0..stats.num_rounds)
                .map(|round| {
                    let m = GlobalStats::pair_bytes(&layouts, elem, round);
                    ddr_netsim::flowsim::alltoallw_round_time(&cluster.net, nprocs, &m, &node_of)
                })
                .sum()
        }
    };
    ProjectedTime { read_s: base.read_s, redistribute_s }
}

/// Table III row: exact communication schedule of one method at one scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleRow {
    /// Number of `alltoallw` rounds.
    pub rounds: usize,
    /// Mean bytes sent per rank per round (over ranks that send), MB.
    pub mean_mb_per_rank_per_round: f64,
    /// Max bytes sent by any rank in any round, MB.
    pub max_mb_per_rank_per_round: f64,
}

/// Compute the exact Table III schedule for a DDR method.
///
/// # Panics
/// Panics for [`Method::NoDdr`], which performs no communication.
pub fn schedule(vol: [usize; 3], elem: usize, nprocs: usize, method: Method) -> ScheduleRow {
    let layouts = layouts(vol, nprocs, method).expect("schedule needs a DDR method");
    let stats = GlobalStats::compute(&layouts, elem);
    ScheduleRow {
        rounds: stats.num_rounds,
        mean_mb_per_rank_per_round: stats.mean_sent_per_rank_per_round() / 1e6,
        max_mb_per_rank_per_round: stats.max_sent_per_rank_per_round() as f64 / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_core::{validate, ValidationPolicy};

    #[test]
    fn layouts_are_valid_at_all_paper_scales() {
        // Full Strict validation is O(n²)-ish for round-robin's 4096 chunks,
        // so check the small scale strictly and the rest structurally.
        for method in [Method::RoundRobin, Method::Consecutive] {
            let ls = layouts(PAPER_VOLUME, 27, method).unwrap();
            let owned: Vec<_> = ls.iter().map(|l| l.owned.as_slice()).collect();
            let needs: Vec<_> = ls.iter().map(|l| std::slice::from_ref(&l.need)).collect();
            validate(&owned, &needs, ValidationPolicy::Strict).unwrap();
        }
        for &p in &PAPER_SCALES {
            for method in [Method::RoundRobin, Method::Consecutive] {
                let ls = layouts(PAPER_VOLUME, p, method).unwrap();
                let owned: u64 = ls.iter().flat_map(|l| l.owned.iter()).map(|b| b.count()).sum();
                assert_eq!(owned, (4096u64 * 2048 * 4096), "{method:?} at {p}");
            }
        }
    }

    #[test]
    fn paper_round_counts_match_table_3() {
        // Table III: consecutive is always 1 round; round-robin is
        // ceil(4096 / P): 152, 64, 33, 19.
        let expect_rr = [152usize, 64, 33, 19];
        for (&p, &rr) in PAPER_SCALES.iter().zip(expect_rr.iter()) {
            let c = schedule(PAPER_VOLUME, PAPER_ELEM, p, Method::Consecutive);
            assert_eq!(c.rounds, 1, "consecutive at {p}");
            let r = schedule(PAPER_VOLUME, PAPER_ELEM, p, Method::RoundRobin);
            assert_eq!(r.rounds, rr, "round-robin at {p}");
        }
    }

    #[test]
    fn paper_data_sizes_match_table_3_within_tolerance() {
        // Table III data sizes (MB/rank/round): consecutive 4315.12,
        // 1920.00, 1006.63, 589.95; round-robin 30.81, 31.50, 31.74, 31.85.
        let expect_cons = [4315.12, 1920.00, 1006.63, 589.95];
        let expect_rr = [30.81, 31.50, 31.74, 31.85];
        for ((&p, &ec), &er) in PAPER_SCALES.iter().zip(&expect_cons).zip(&expect_rr) {
            let c = schedule(PAPER_VOLUME, PAPER_ELEM, p, Method::Consecutive);
            let rel = (c.mean_mb_per_rank_per_round - ec).abs() / ec;
            assert!(
                rel < 0.15,
                "consecutive at {p}: got {} expected {ec}",
                c.mean_mb_per_rank_per_round
            );
            let r = schedule(PAPER_VOLUME, PAPER_ELEM, p, Method::RoundRobin);
            let rel = (r.mean_mb_per_rank_per_round - er).abs() / er;
            assert!(
                rel < 0.15,
                "round-robin at {p}: got {} expected {er}",
                r.mean_mb_per_rank_per_round
            );
        }
    }

    #[test]
    fn flowsim_preserves_method_ordering_at_small_scale() {
        // The parameter-free flow simulation must agree with the analytic
        // model on who wins at 27 ranks, and never exceed it.
        let cluster = ClusterSpec::cooley();
        let rr_a = project(PAPER_VOLUME, PAPER_ELEM, 27, Method::RoundRobin, &cluster);
        let rr_f = project_flowsim(PAPER_VOLUME, PAPER_ELEM, 27, Method::RoundRobin, &cluster);
        let c_a = project(PAPER_VOLUME, PAPER_ELEM, 27, Method::Consecutive, &cluster);
        let c_f = project_flowsim(PAPER_VOLUME, PAPER_ELEM, 27, Method::Consecutive, &cluster);
        assert!(rr_f.redistribute_s <= rr_a.redistribute_s + 1e-9);
        assert!(c_f.redistribute_s <= c_a.redistribute_s + 1e-9);
        assert!(rr_f.redistribute_s > 0.0 && c_f.redistribute_s > 0.0);
    }

    #[test]
    fn no_ddr_reads_amplify() {
        // At 27 ranks each brick spans a third of the images: 1366 reads vs
        // 152 with DDR.
        let no_ddr = images_read_per_rank(PAPER_VOLUME, 27, Method::NoDdr, 0);
        let ddr = images_read_per_rank(PAPER_VOLUME, 27, Method::Consecutive, 0);
        assert!(no_ddr > 1300 && no_ddr < 1400, "{no_ddr}");
        assert_eq!(ddr, 152);
    }

    #[test]
    fn projection_reproduces_table_2_shape() {
        let cluster = ClusterSpec::cooley();
        let mut last_no_ddr = f64::INFINITY;
        for &p in &PAPER_SCALES {
            let no_ddr = project(PAPER_VOLUME, PAPER_ELEM, p, Method::NoDdr, &cluster).total();
            let rr = project(PAPER_VOLUME, PAPER_ELEM, p, Method::RoundRobin, &cluster).total();
            let cons = project(PAPER_VOLUME, PAPER_ELEM, p, Method::Consecutive, &cluster).total();
            // DDR beats No-DDR by a large margin everywhere.
            assert!(rr * 3.0 < no_ddr, "rr {rr} vs no-ddr {no_ddr} at {p}");
            assert!(cons * 3.0 < no_ddr, "cons {cons} vs no-ddr {no_ddr} at {p}");
            // Strong scaling: No-DDR decreases slowly with P.
            assert!(no_ddr < last_no_ddr);
            last_no_ddr = no_ddr;
        }
        // Crossover: round-robin wins at 27 ranks, consecutive at 216.
        let rr27 = project(PAPER_VOLUME, PAPER_ELEM, 27, Method::RoundRobin, &cluster).total();
        let c27 = project(PAPER_VOLUME, PAPER_ELEM, 27, Method::Consecutive, &cluster).total();
        assert!(rr27 < c27, "at 27 ranks round-robin should win: {rr27} vs {c27}");
        let rr216 = project(PAPER_VOLUME, PAPER_ELEM, 216, Method::RoundRobin, &cluster).total();
        let c216 = project(PAPER_VOLUME, PAPER_ELEM, 216, Method::Consecutive, &cluster).total();
        assert!(c216 < rr216, "at 216 ranks consecutive should win: {c216} vs {rr216}");
    }
}
