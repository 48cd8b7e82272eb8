//! The benchmark's fixed vocabulary: workload names, sizes and op counts, and
//! every metric name with its unit. `BENCHMARK.json` repeats these tables and
//! a unit test keeps the two in step.

/// Fresh child processes per workload. The variance is between processes,
/// not within one (the pipeline gate, pack counters, copy pool and memory
/// governor are process-global statics), so repetitions are re-execs.
pub const REPS: usize = 7;

/// `--seconds` the timed op counts below are sized for: 7 repetitions × ≈4 s.
pub const REFERENCE_SECONDS: u64 = 28;

/// `--seconds` when none is given; equals `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 16;

/// Cap on the tail percentile reported as `op_ms_p95`.
pub const TAIL_PERCENTILE: u32 = 95;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BulkTranspose2d,
    RoundsSmall2d,
    TiffStackLoad,
    LbmFrames,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// Untimed ops per repetition, part of set-up. Never scaled: they carry
    /// caches, the buffer pool and the pipeline gate (16 probing calls) to
    /// steady state.
    pub warm_ops: usize,
    /// Timed ops per repetition at [`REFERENCE_SECONDS`].
    pub timed_ops: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::BulkTranspose2d,
        name: "bulk_transpose_2d",
        why: "2048x2048 f32 row slabs to column slabs in one round: bandwidth-bound, kernels and the zero-copy loan do the work",
        warm_ops: 64,
        timed_ops: 1850,
    },
    Workload {
        kind: Kind::RoundsSmall2d,
        name: "rounds_small_2d",
        why: "256x256 f32, 8 rounds of 8 KiB staged messages: latency-bound on envelope cost and round pipelining, bypasses copy optimisations",
        warm_ops: 2000,
        timed_ops: 17200,
    },
    Workload {
        kind: Kind::TiffStackLoad,
        name: "tiff_stack_load",
        why: "paper use case 1: decode a 256x256x128 16-bit TIFF stack and redistribute to bricks; the plan is rebuilt inside every op, 64 rounds",
        warm_ops: 20,
        timed_ops: 50,
    },
    Workload {
        kind: Kind::LbmFrames,
        name: "lbm_frames",
        why: "paper use case 2: LBM step, vorticity, repartition, colormap, JPEG per frame; redistribution is ~5%, so transport changes must not move it",
        warm_ops: 20,
        timed_ops: 460,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Timed ops per repetition for a run of `seconds`: the reference count
    /// scaled linearly (at least 3, so a smoke run still has a median).
    pub fn timed_ops_for(&self, seconds: u64) -> usize {
        let scaled = (self.timed_ops as u64 * seconds).div_ceil(REFERENCE_SECONDS) as usize;
        scaled.max(3)
    }
}

// ---------------------------------------------------------------------------
// Workload sizes (f32 elements). The seed never changes any of these.
// ---------------------------------------------------------------------------

/// `bulk_transpose_2d`: 16 MiB domain; 8 MiB in + 8 MiB out per rank, twice
/// the two 4 MiB L2s, and each rank's 4 MiB message sits exactly on the
/// kernels' pooled tier. Deliberately *not* DRAM-sized: at 4096² (64 MiB) the
/// op time followed the shared host's memory system from 8 to 15 ms within
/// ten minutes while this size, run in alternation, stayed within 5 % (see
/// README, "Steadiness").
pub const BULK_N: usize = 2048;
/// `rounds_small_2d`: 256 KiB domain in 16 column slabs of 16 columns.
pub const SMALL_N: usize = 256;
pub const SMALL_SLABS: usize = 16;
/// `tiff_stack_load`: 128 slices of 256×256 16-bit.
pub const TIFF_VOL: [usize; 3] = [256, 256, 128];
/// `lbm_frames`: lattice extent; each rank steps a 512×128 slab (9.4 MB of
/// f64 distributions, both buffers) and assembles a 256×256 tile. A quarter
/// of the example's 1024×512, whose 75 MB followed the host's memory system
/// three times as closely (README, "Steadiness").
pub const LBM_NX: usize = 512;
pub const LBM_NY: usize = 256;
pub const JPEG_QUALITY: u8 = 75;
/// Vorticity range mapped onto the colormap (the example's setting).
pub const VORT_RANGE: (f32, f32) = (-0.08, 0.08);

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The bounded end-to-end metrics, the same on every workload, always from
/// the untraced run. One bound per metric has to hold on the noisiest
/// workload in the noisiest hour of a shared host, so the timing bounds sit
/// at the contract's cap although ten-seed spreads measure 0.01 – 0.04 (see
/// README, "Steadiness").
///
/// `fail_ratio` travels as the result's `failed`/`attempted` counts — it is
/// always 0 on a healthy tree and any increase is a regression, which a
/// bounded ratio of medians cannot express.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "op_ms_p50", unit: "ms", lower_is_better: true, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", lower_is_better: true, bound: 0.05 },
    EndToEnd { name: "setup_s", unit: "s", lower_is_better: true, bound: 0.25 },
];

/// Measured by the same untraced run, printed and kept per repetition, but
/// reported without a bound: `(name, unit)`. Two back-to-back sets of runs
/// disagreed on each by more than a tenth on some workload, and the rule is
/// that such a metric moves to the per-layer list instead of getting a wider
/// bound. `throughput_mb_s` is the mean-based twin of `op_ms_p50`: where op
/// time is bimodal it swings with the mixture (spread 0.25 on
/// `rounds_small_2d`) while the median stays put.
pub const UNBOUNDED: [(&str, &str); 3] =
    [("throughput_mb_s", "MB/s"), ("op_ms_p95", "ms"), ("cpu_ms_per_op", "ms")];

/// Per-layer metrics `(name, unit, higher is better)`, grouped by rung.
/// Direction is informational: per-layer metrics carry no bound.
pub const PER_LAYER: [(&str, &str, bool); 67] = [
    // the untraced run's unbounded metrics (see `UNBOUNDED`)
    ("throughput_mb_s", "MB/s", true),
    ("op_ms_p95", "ms", false),
    ("cpu_ms_per_op", "ms", false),
    // rung 0 — harness roofline: denominators only, must not move with the library
    ("roofline.memcpy_gb_s", "GB/s", true),
    ("roofline.strided_gb_s", "GB/s", true),
    // rung 1 — minimpi::Subarray kernels, single thread, largest transfer
    ("kernels.pack_gb_s", "GB/s", true),
    ("kernels.unpack_gb_s", "GB/s", true),
    ("kernels.copy_to_gb_s", "GB/s", true),
    ("kernels.pack_frac_roofline", "ratio", true),
    ("kernels.fused_runs", "count", false),
    ("kernels.vector_bytes", "B", true),
    ("kernels.scalar_bytes", "B", false),
    ("kernels.pool_dispatches", "count", false),
    // rung 2 — point-to-point envelope path
    ("p2p.rtt_us", "us", false),
    ("p2p.msg_gb_s", "GB/s", true),
    ("p2p.msg_gb_s_staged", "GB/s", true),
    ("p2p.checksum_ratio_loaned", "ratio", false),
    ("p2p.checksum_ratio_staged", "ratio", false),
    ("p2p.zerocopy_msgs", "count", true),
    ("p2p.staged_msgs", "count", false),
    ("p2p.integrity_checked", "count", false),
    ("p2p.credit_waits", "count", false),
    ("p2p.stalled_ms", "ms", false),
    ("p2p.retransmits", "count", false),
    ("p2p.peak_staging_mb", "MB", false),
    // rung 3 — one alltoallw round
    ("alltoallw.round_ms", "ms", false),
    ("alltoallw.eff_vs_p2p", "ratio", true),
    // rung 4a — mapping
    ("mapping.setup_us", "us", false),
    ("mapping.setup_validated_us", "us", false),
    ("mapping.compute_plan_us", "us", false),
    ("mapping.rounds", "count", false),
    ("mapping.transfers", "count", false),
    ("mapping.sent_mb", "MB", false),
    ("mapping.local_mb", "MB", true),
    // rung 4b — exec
    ("exec.reorganize_ms", "ms", false),
    ("exec.eff_vs_alltoallw", "ratio", true),
    ("exec.pipeline_fallback", "flag", false),
    ("exec.overlapped_posts", "count", true),
    // use case 1 layers
    ("dtiff.decode_ms_per_image", "ms", false),
    ("dtiff.decode_mb_s", "MB/s", true),
    ("loader.roundrobin_ms", "ms", false),
    ("loader.consecutive_ms", "ms", false),
    ("loader.noddr_ms", "ms", false),
    ("loader.reassembled_ms", "ms", false),
    ("loader.ddr_speedup", "ratio", true),
    ("loader.images_read_per_rank", "count", false),
    ("loader.decode_share", "ratio", false),
    ("loader.mapping_share", "ratio", false),
    ("loader.reorganize_share", "ratio", false),
    // use case 2 layers
    ("lbm.step_ms", "ms", false),
    ("lbm.mlups", "MLUPS", true),
    ("lbm.vorticity_ms", "ms", false),
    ("intransit.redistribute_ms", "ms", false),
    ("intransit.frame_rtt_us", "us", false),
    ("jimage.colormap_ms", "ms", false),
    ("jimage.encode_ms", "ms", false),
    ("jimage.encode_mpix_s", "Mpix/s", true),
    ("jimage.bytes_per_frame", "B", false),
    // tracing and the harness itself
    ("ddrtrace.overhead_ratio", "ratio", false),
    ("harness.span_overhead_ratio", "ratio", false),
    ("trace.mailbox_wait_share", "ratio", false),
    ("trace.pack_share", "ratio", false),
    ("trace.unpack_share", "ratio", false),
    ("harness.inputgen_s", "s", false),
    ("harness.nproc", "count", true),
    ("harness.ranks", "count", false),
    ("harness.oversubscribed", "flag", false),
];

/// Value printed on the contract's result line for a per-layer metric that
/// has no value on this workload: the layer is not on its path, or the
/// counter name is gone from the registry. Files and tables say `null`.
pub const NO_VALUE: f64 = -1.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn op_counts_scale_with_seconds() {
        let w = workload("rounds_small_2d").unwrap();
        assert_eq!(w.timed_ops_for(REFERENCE_SECONDS), 17200);
        assert_eq!(w.timed_ops_for(14), 8600);
        assert_eq!(workload("tiff_stack_load").unwrap().timed_ops_for(1), 3);
        // At the default run length every workload pools enough samples for a
        // p95 with ten samples beyond it.
        for w in &WORKLOADS {
            let pooled = REPS * w.timed_ops_for(DEFAULT_SECONDS);
            assert_eq!(
                crate::stats::highest_percentile(pooled, TAIL_PERCENTILE),
                Some(95),
                "{}",
                w.name
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let s = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        assert_eq!(doc.num("run_seconds"), Some(DEFAULT_SECONDS as f64));
        let names: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for (w, spec) in list("workloads").iter().zip(&WORKLOADS) {
            assert_eq!(s(w, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!((s(m, "name"), s(m, "unit")), (spec.name.into(), spec.unit.into()));
            assert_eq!(s(m, "better"), if spec.lower_is_better { "lower" } else { "higher" });
            assert_eq!(m.num("bound"), Some(spec.bound));
            assert!(spec.bound <= 0.25);
        }
        for (name, unit) in UNBOUNDED {
            assert!(PER_LAYER.iter().any(|(n, u, _)| (*n, *u) == (name, unit)), "{name}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit, higher)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!((s(m, "name"), s(m, "unit")), (name.to_string(), unit.to_string()));
            assert_eq!(s(m, "better"), if *higher { "higher" } else { "lower" });
        }
    }
}
