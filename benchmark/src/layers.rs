//! The traced run's rung ladder: each layer's public functions timed, inside
//! spans, on the workload's own shapes — roofline (0) → kernels (1) → p2p (2)
//! → alltoallw (3) → mapping / exec (4) → the workload's pipeline with one
//! span per layer call.

use crate::json::Json;
use crate::rep::closed_loop;
use crate::spans::{self, NameTotals, Span, Tracer};
use crate::spec::{self, Kind};
use crate::stats::median;
use crate::sysinfo::RANKS;
use crate::workloads::{self, err, Inputs};
use ddr_bench::loader::load_stack;
use ddr_bench::tiffcase::Method;
use ddr_core::{compute_local_plan, Descriptor, Layout, Plan, ValidationPolicy};
use intransit::{recv_frames, send_frame};
use minimpi::{Comm, Datatype, Subarray, Universe};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Per-layer results of one child: metric name → value (`None` = no value).
pub type Metrics = BTreeMap<&'static str, Option<f64>>;

/// Time budget of one rung stage. Stages repeat their call until it is spent
/// (at least [`MIN_CALLS`] times), so fast calls get many samples and slow
/// ones still finish.
const STAGE_BUDGET: Duration = Duration::from_millis(300);
const MIN_CALLS: usize = 5;
const MAX_CALLS: usize = 4000;

/// The workload's geometry as the layers below `exec` see it.
pub struct Shapes {
    pub layouts: Vec<Layout>,
    pub desc: Descriptor,
    pub plans: Vec<Plan>,
    /// Largest transfer between two different ranks: the round it belongs to
    /// and both sides' selections.
    pub round: usize,
    pub send_sel: Subarray,
    pub recv_sel: Subarray,
}

impl Shapes {
    pub fn of(kind: Kind, seed: u64) -> Result<Shapes, String> {
        let layouts: Vec<Layout> = (0..RANKS).map(|r| workloads::layout(kind, seed, r)).collect();
        let desc = Descriptor::for_type::<f32>(RANKS, workloads::data_kind(kind)).map_err(err)?;
        let plans = (0..RANKS)
            .map(|r| compute_local_plan(r, &layouts, &desc))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let mut best: Option<(usize, Subarray, Subarray)> = None;
        for (sender, plan) in plans.iter().enumerate() {
            for (round, rp) in plan.rounds().iter().enumerate() {
                for send in rp.sends.iter().filter(|t| t.peer != sender) {
                    let recv = plans[send.peer].rounds()[round]
                        .recvs
                        .iter()
                        .find(|t| t.peer == sender)
                        .ok_or("a send without its matching receive")?;
                    if best.is_none_or(|b| send.subarray.packed_len() > b.1.packed_len()) {
                        best = Some((round, send.subarray, recv.subarray));
                    }
                }
            }
        }
        let (round, send_sel, recv_sel) = best.ok_or("workload moves no data")?;
        Ok(Shapes { layouts, desc, plans, round, send_sel, recv_sel })
    }

    /// Bytes of the workload's largest message.
    pub fn message_bytes(&self) -> usize {
        self.send_sel.packed_len()
    }
}

/// Repeat `call` inside spans named `name` until the stage budget is spent.
/// Each span covers `batch` calls so that sub-microsecond calls are not
/// swamped by the clock.
fn stage(t: &mut Tracer, name: &'static str, batch: usize, mut call: impl FnMut()) {
    let start = Instant::now();
    let mut calls = 0;
    while calls < MIN_CALLS || (start.elapsed() < STAGE_BUDGET && calls < MAX_CALLS) {
        t.span(name, |_| (0..batch).for_each(|_| call()));
        calls += 1;
    }
}

/// Calls per span that bring one span to roughly a megabyte moved.
fn batch_for(bytes: usize) -> usize {
    ((1 << 20) / bytes.max(1)).max(1)
}

/// Median span duration in seconds, per call.
fn median_s(totals: &BTreeMap<&'static str, NameTotals>, name: &str, batch: usize) -> Option<f64> {
    let durs: Vec<f64> = totals.get(name)?.durs_ns.iter().map(|&d| d as f64).collect();
    Some(median(&durs)? / 1e9 / batch as f64)
}

/// Rungs 0 and 1, on the calling thread: plain copies, then the `Subarray`
/// kernels, all on the workload's largest transfer.
fn single_thread_rungs(shapes: &Shapes, t: &mut Tracer) -> Result<usize, String> {
    let (send, recv) = (shapes.send_sel, shapes.recv_sel);
    let bytes = send.packed_len();
    let batch = batch_for(bytes);
    let src: Vec<u8> = (0..send.full_len()).map(|i| i as u8).collect();
    let mut dst = vec![0u8; recv.full_len()];
    let mut packed = vec![0u8; bytes];

    stage(t, "roofline.memcpy", batch, || {
        packed.copy_from_slice(black_box(&src[..bytes]));
        black_box(&mut packed);
    });

    // The same selection as a plain nested loop: one `copy_from_slice` per
    // row of the rectangle, at the transfer's run length and stride.
    let run = send.subsizes[0] * send.elem_size;
    stage(t, "roofline.strided", batch, || {
        let mut out = 0;
        for z in 0..send.subsizes[2] {
            for y in 0..send.subsizes[1] {
                let row = (send.starts[2] + z) * send.sizes[1] + send.starts[1] + y;
                let at = (row * send.sizes[0] + send.starts[0]) * send.elem_size;
                packed[out..out + run].copy_from_slice(&src[at..at + run]);
                out += run;
            }
        }
        black_box(&mut packed);
    });

    let mut out = Vec::with_capacity(bytes);
    let mut failed = None;
    stage(t, "kernels.pack", batch, || {
        out.clear();
        failed = failed.take().or(send.pack_into(black_box(&src), &mut out).err());
    });
    stage(t, "kernels.unpack", batch, || {
        failed = failed.take().or(recv.unpack(black_box(&out), &mut dst).err());
    });
    stage(t, "kernels.copy_to", batch, || {
        failed = failed.take().or(send.copy_to(black_box(&src), &recv, &mut dst).err());
    });
    black_box(&dst);
    match failed {
        Some(e) => Err(err(e)),
        None => Ok(batch),
    }
}

/// Rank 0 picks a repetition count from how long one call took; rank 1 learns
/// it. Collective stages need every rank to make the same number of calls.
fn agree_calls(comm: &Comm, one_call: Duration) -> Result<usize, String> {
    const TAG: u32 = 0xBE7C;
    let mut n = [0u64];
    if comm.rank() == 0 {
        let fit = STAGE_BUDGET.as_nanos() / one_call.as_nanos().max(1);
        n[0] = (fit as usize).clamp(MIN_CALLS, MAX_CALLS) as u64;
        for peer in 1..comm.size() {
            comm.send(peer, TAG, &n).map_err(err)?;
        }
    } else {
        comm.recv_into(0, TAG, &mut n).map_err(err)?;
    }
    Ok(n[0] as usize)
}

/// A collective stage: time one call, agree on a count, then repeat in spans.
fn collective_stage(
    comm: &Comm,
    t: &mut Tracer,
    name: &'static str,
    mut call: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    comm.barrier().map_err(err)?;
    let start = Instant::now();
    call()?; // also warms pools and first-touches buffers
    let calls = agree_calls(comm, start.elapsed())?;
    for _ in 0..calls {
        t.span(name, |_| call())?;
    }
    Ok(())
}

/// Rung 2b: one-way messages of `bytes` from rank 0 to rank 1 through the
/// envelope path. `Comm::send` always stages, and the loan exists only under
/// `alltoallw`, so the message is a one-transfer `alltoallw` with a
/// contiguous datatype; the receiver's call returns when the payload is in
/// its buffer. Which path carries it (loaned, staged, checksummed) is the
/// process environment's business.
pub fn p2p_messages(comm: &Comm, t: &mut Tracer, bytes: usize) -> Result<(), String> {
    let whole = Datatype::Contiguous { len_bytes: bytes, offset: 0 };
    let (mut send_types, mut recv_types) =
        (vec![Datatype::Empty; RANKS], vec![Datatype::Empty; RANKS]);
    let send_buf = vec![0x5Au8; if comm.rank() == 0 { bytes } else { 0 }];
    let mut recv_buf = vec![0u8; if comm.rank() == 1 { bytes } else { 0 }];
    if comm.rank() == 0 {
        send_types[1] = whole;
    } else {
        recv_types[0] = whole;
    }
    collective_stage(comm, t, "p2p.msg", || {
        comm.alltoallw(&send_buf, &send_types, &mut recv_buf, &recv_types).map_err(err)
    })
}

/// One 64-byte round trip between ranks 0 and 1 over `Comm::{send, recv_into}`.
pub fn ping_pong(comm: &Comm) -> Result<(), String> {
    let (ping, mut pong) = ([1.0f32; 16], [0.0f32; 16]);
    if comm.rank() == 0 {
        comm.send(1, 1, &ping).and_then(|()| comm.recv_into(1, 2, &mut pong))
    } else {
        comm.recv_into(0, 1, &mut pong).and_then(|()| comm.send(0, 2, &ping))
    }
    .map_err(err)
}

/// Rungs 2–4 inside one universe, on the workload's plan.
fn universe_rungs(shapes: &Shapes, comm: &Comm, t: &mut Tracer) -> Result<(), String> {
    let rank = comm.rank();
    let plan = &shapes.plans[rank];

    // 2a — 64-byte ping-pong; half the round trip is the envelope latency.
    collective_stage(comm, t, "p2p.rtt", || ping_pong(comm))?;

    // 2b — the workload's message size, default environment.
    p2p_messages(comm, t, shapes.message_bytes())?;

    // 3 — one round's datatypes through `alltoallw`.
    let round = &plan.rounds()[shapes.round];
    let (mut send_types, mut recv_types) =
        (vec![Datatype::Empty; RANKS], vec![Datatype::Empty; RANKS]);
    for s in &round.sends {
        send_types[s.peer] = Datatype::Subarray(s.subarray);
    }
    for r in &round.recvs {
        recv_types[r.peer] = Datatype::Subarray(r.subarray);
    }
    let chunk_bytes = round.sends.first().map_or(0, |s| s.subarray.full_len());
    let need_bytes = plan.need().count() as usize * plan.elem_size();
    let send_buf = vec![0x3Cu8; chunk_bytes];
    let mut recv_buf = vec![0u8; need_bytes];
    collective_stage(comm, t, "alltoallw.round", || {
        comm.alltoallw(&send_buf, &send_types, &mut recv_buf, &recv_types).map_err(err)
    })?;
    drop((send_buf, recv_buf));

    // 4a — the mapping: collective set-up without and with validation, and
    // the pure geometric core.
    let mine = &shapes.layouts[rank];
    collective_stage(comm, t, "mapping.setup", || {
        let plan = shapes.desc.setup_data_mapping_with(
            comm,
            &mine.owned,
            mine.need,
            ValidationPolicy::Skip,
        );
        plan.map(|p| drop(black_box(p))).map_err(err)
    })?;
    collective_stage(comm, t, "mapping.setup_validated", || {
        let plan = shapes.desc.setup_data_mapping(comm, &mine.owned, mine.need);
        plan.map(|p| drop(black_box(p))).map_err(err)
    })?;
    let mut failed = None;
    stage(t, "mapping.compute_plan", 1, || {
        match compute_local_plan(rank, black_box(&shapes.layouts), &shapes.desc) {
            Ok(p) => drop(black_box(p)),
            Err(e) => failed = Some(err(e)),
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }

    // 4b — `Plan::reorganize` on a reused plan (even for the workload that
    // rebuilds its plan per op: this rung isolates execution).
    let owned: Vec<Vec<f32>> = plan.owned().iter().map(|b| vec![1.0; b.count() as usize]).collect();
    let refs: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
    let mut need = vec![0f32; plan.need().count() as usize];
    collective_stage(comm, t, "exec.reorganize", || {
        plan.reorganize(comm, &refs, &mut need).map_err(err)
    })
}

/// Ops per block of the traced/untraced comparison. Blocks alternate
/// (off, on, off, on) so drift cancels.
fn pipeline_block_ops(kind: Kind, smoke: bool) -> usize {
    let ops = match kind {
        Kind::BulkTranspose2d => 20,
        Kind::RoundsSmall2d => 1000,
        Kind::TiffStackLoad => 4,
        Kind::LbmFrames => 6,
    };
    if smoke {
        (ops / 10).max(2)
    } else {
        ops
    }
}

struct PipelineOut {
    off_s: Vec<f64>,
    on_s: Vec<f64>,
    images_read: Option<f64>,
    jpeg_bytes: Option<f64>,
}

/// The workload's own op loop, untraced and traced in alternating blocks,
/// plus the use-case layers no generic rung covers.
fn pipeline(
    inputs: &Inputs,
    comm: &Comm,
    t: &mut Tracer,
    smoke: bool,
) -> Result<PipelineOut, String> {
    let kind = inputs.kind;
    let mut state = workloads::setup(inputs, comm, true)?;
    t.set_on(false);
    let warm = if smoke { 2 } else { 4 };
    if let (_, Some(e)) = closed_loop(state.as_mut(), comm, t, warm) {
        return Err(e);
    }
    let block = pipeline_block_ops(kind, smoke);
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    for on in [false, true, false, true] {
        comm.barrier().map_err(err)?;
        t.set_on(on);
        let (op_s, error) = closed_loop(state.as_mut(), comm, t, block);
        if let Some(e) = error {
            return Err(e);
        }
        if on { &mut on_s } else { &mut off_s }.extend(op_s);
    }
    t.set_on(true);
    let verified = state.verify(false);
    if verified.mismatches > 0 {
        return Err(format!(
            "traced pipeline failed the oracle: {} mismatches",
            verified.mismatches
        ));
    }
    let jpeg_bytes = verified.extra.num("jpeg_bytes");
    drop(state);

    let mut images_read = None;
    if kind == Kind::TiffStackLoad {
        // The paper's Table II columns on this stack: the other two loaders.
        let dir = inputs.stack_dir.as_deref().ok_or("no stack directory")?;
        for (name, method) in [
            ("loader.roundrobin", Method::RoundRobin),
            ("loader.consecutive", Method::Consecutive),
            ("loader.noddr", Method::NoDdr),
        ] {
            for _ in 0..if smoke { 1 } else { 3 } {
                comm.barrier().map_err(err)?;
                let loaded = t.span(name, |_| load_stack(comm, dir, spec::TIFF_VOL, method));
                let (_, _, stats) = loaded.map_err(err)?;
                if method == Method::RoundRobin {
                    images_read = Some(stats.images_read as f64);
                }
            }
        }
    }
    if kind == Kind::LbmFrames {
        // The stream hop the two-rank collapse leaves out: a producer slab
        // sent as a frame and returned, timed on rank 0.
        let slab = workloads::layout(kind, inputs.seed, 0).owned[0];
        let trips = if smoke { 4 } else { 40 };
        // Payloads are made before the clock starts: `send_frame` takes them
        // by value.
        let mut payloads = vec![vec![0.5f32; slab.count() as usize]; trips];
        comm.barrier().map_err(err)?;
        for step in 1..=trips as u64 {
            let payload = payloads.pop().expect("one payload per trip");
            t.span("intransit.frame_rtt", |_| {
                if comm.rank() == 0 {
                    send_frame(comm, 1, step, slab, payload)?;
                    recv_frames(comm, &[1], Some(step)).map(drop)
                } else {
                    recv_frames(comm, &[0], Some(step)).map(drop)?;
                    send_frame(comm, 0, step, slab, payload)
                }
            })
            .map_err(err)?;
        }
    }
    Ok(PipelineOut { off_s, on_s, images_read, jpeg_bytes })
}

/// Everything the `layers` child measures, from its span log.
pub fn run(
    kind: Kind,
    seed: u64,
    stack_dir: Option<PathBuf>,
    spans_out: Option<PathBuf>,
    smoke: bool,
) -> Result<Json, String> {
    let shapes = Shapes::of(kind, seed)?;
    let msg = shapes.message_bytes();
    let epoch = Instant::now();

    let mut main_t = Tracer::new(true, epoch, RANKS as u32);
    let batch = single_thread_rungs(&shapes, &mut main_t)?;

    let gen_start = Instant::now();
    let inputs = Inputs::generate(kind, seed, stack_dir);
    let inputgen_s = gen_start.elapsed().as_secs_f64();

    let outs = Universe::builder().run(RANKS, |comm| {
        let mut t = Tracer::new(true, epoch, comm.rank() as u32);
        universe_rungs(&shapes, comm, &mut t)?;
        let pipe = pipeline(&inputs, comm, &mut t, smoke)?;
        Ok::<_, String>((t.into_spans(), pipe))
    });
    let mut logs: Vec<Vec<Span>> = vec![main_t.into_spans()];
    let mut pipes = Vec::new();
    for out in outs {
        let (log, pipe) = out?;
        logs.push(log);
        pipes.push(pipe);
    }
    if let Some(path) = &spans_out {
        std::fs::write(path, spans::to_json(&logs).to_line())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    // Rung stages are root spans; pipeline layers sit under a `harness.op`.
    let in_op = |s: &Span| s.parent.is_some() || s.name == "harness.op";
    let rungs: Vec<_> =
        logs.iter().map(|l| spans::totals_where(std::slice::from_ref(l), |s| !in_op(s))).collect();
    let ops = spans::totals_where(&logs, in_op);
    // Median seconds per call of a rung stage on one track (0 = main thread,
    // 1 + r = rank r), or — a collective completes when its slowest rank
    // does — the largest per-rank median.
    let on_track = |name: &str, track: usize, batch: usize| median_s(&rungs[track], name, batch);
    let slowest = |name: &str| (0..RANKS).filter_map(|r| on_track(name, 1 + r, 1)).reduce(f64::max);
    let kernel_gb_s = |name: &str| on_track(name, 0, batch).map(|s| msg as f64 / s / 1e9);
    let op_layer = |name: &str| median_s(&ops, name, 1);
    let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?).filter(|r| r.is_finite());
    let scaled = |v: Option<f64>, k: f64| v.map(|v| v * k);

    let mut out = Metrics::new();
    out.insert("roofline.memcpy_gb_s", kernel_gb_s("roofline.memcpy"));
    out.insert("roofline.strided_gb_s", kernel_gb_s("roofline.strided"));
    out.insert("kernels.pack_gb_s", kernel_gb_s("kernels.pack"));
    out.insert("kernels.unpack_gb_s", kernel_gb_s("kernels.unpack"));
    out.insert("kernels.copy_to_gb_s", kernel_gb_s("kernels.copy_to"));
    out.insert(
        "kernels.pack_frac_roofline",
        ratio(out["kernels.pack_gb_s"], out["roofline.strided_gb_s"]),
    );
    // Timed on rank 0, which sees the whole round trip; the message on rank
    // 1, whose call returns when the payload has arrived.
    out.insert("p2p.rtt_us", scaled(on_track("p2p.rtt", 1, 1), 1e6 / 2.0));
    let msg_s = on_track("p2p.msg", 2, 1);
    out.insert("p2p.msg_gb_s", msg_s.map(|s| msg as f64 / s / 1e9));
    out.insert("alltoallw.round_ms", scaled(slowest("alltoallw.round"), 1e3));
    // The round's peer message at p2p speed, over what the round took.
    out.insert("alltoallw.eff_vs_p2p", ratio(msg_s, slowest("alltoallw.round")));
    out.insert("mapping.setup_us", scaled(slowest("mapping.setup"), 1e6));
    out.insert("mapping.setup_validated_us", scaled(slowest("mapping.setup_validated"), 1e6));
    out.insert("mapping.compute_plan_us", scaled(slowest("mapping.compute_plan"), 1e6));
    let sum = |f: fn(&Plan) -> f64| Some(shapes.plans.iter().map(f).sum::<f64>());
    let rounds = shapes.plans[0].num_rounds() as f64;
    out.insert("mapping.rounds", Some(rounds));
    out.insert(
        "mapping.transfers",
        sum(|p| p.rounds().iter().map(|r| r.sends.len()).sum::<usize>() as f64),
    );
    out.insert("mapping.sent_mb", sum(|p| p.total_sent_bytes() as f64 / 1e6));
    out.insert("mapping.local_mb", sum(|p| p.total_local_bytes() as f64 / 1e6));
    out.insert("exec.reorganize_ms", scaled(slowest("exec.reorganize"), 1e3));
    out.insert(
        "exec.eff_vs_alltoallw",
        ratio(scaled(slowest("alltoallw.round"), rounds), slowest("exec.reorganize")),
    );

    // Traced ÷ untraced op time, same process, alternating blocks.
    let off: Vec<f64> = pipes.iter().flat_map(|p| p.off_s.iter().copied()).collect();
    let on: Vec<f64> = pipes.iter().flat_map(|p| p.on_s.iter().copied()).collect();
    out.insert("harness.span_overhead_ratio", ratio(median(&on), median(&off)));
    out.insert("harness.inputgen_s", Some(inputgen_s));

    let op_share = |name: &str| {
        let op = ops.get("harness.op")?.total_ns as f64;
        Some(ops.get(name)?.self_ns as f64 / op).filter(|r| r.is_finite())
    };
    if kind == Kind::TiffStackLoad {
        let file_bytes = (spec::TIFF_VOL[0] * spec::TIFF_VOL[1] * 2) as f64;
        out.insert("dtiff.decode_ms_per_image", scaled(op_layer("dtiff.decode"), 1e3));
        out.insert("dtiff.decode_mb_s", op_layer("dtiff.decode").map(|s| file_bytes / s / 1e6));
        out.insert("loader.roundrobin_ms", scaled(slowest("loader.roundrobin"), 1e3));
        out.insert("loader.consecutive_ms", scaled(slowest("loader.consecutive"), 1e3));
        out.insert("loader.noddr_ms", scaled(slowest("loader.noddr"), 1e3));
        // The same loader re-assembled in this directory, recorder off: what
        // `loader.roundrobin_ms` is to be read against.
        out.insert("loader.reassembled_ms", scaled(median(&off), 1e3));
        out.insert(
            "loader.ddr_speedup",
            ratio(slowest("loader.noddr"), slowest("loader.roundrobin")),
        );
        out.insert("loader.images_read_per_rank", pipes[0].images_read);
        out.insert("loader.decode_share", op_share("dtiff.decode"));
        out.insert("loader.mapping_share", op_share("mapping.setup"));
        out.insert("loader.reorganize_share", op_share("exec.reorganize"));
    }
    if kind == Kind::LbmFrames {
        let cells = (spec::LBM_NX * spec::LBM_NY) as f64;
        let tile = cells / RANKS as f64;
        out.insert("lbm.step_ms", scaled(op_layer("lbm.step"), 1e3));
        out.insert("lbm.mlups", op_layer("lbm.step").map(|s| cells / s / 1e6));
        out.insert("lbm.vorticity_ms", scaled(op_layer("lbm.vorticity"), 1e3));
        out.insert("intransit.redistribute_ms", scaled(op_layer("intransit.redistribute"), 1e3));
        out.insert(
            "intransit.frame_rtt_us",
            scaled(on_track("intransit.frame_rtt", 1, 1), 1e6 / 2.0),
        );
        out.insert("jimage.colormap_ms", scaled(op_layer("jimage.colormap"), 1e3));
        out.insert("jimage.encode_ms", scaled(op_layer("jimage.encode"), 1e3));
        out.insert("jimage.encode_mpix_s", op_layer("jimage.encode").map(|s| tile / s / 1e6));
        out.insert(
            "jimage.bytes_per_frame",
            pipes.iter().map(|p| p.jpeg_bytes).sum::<Option<f64>>(),
        );
    }

    // Self time per layer inside the traced ops: where the op's time went.
    let by_layer = spans::self_by_layer(&ops);
    let span_counts: BTreeMap<&str, u64> =
        logs.iter().flatten().fold(BTreeMap::new(), |mut m, s| {
            *m.entry(s.name).or_default() += 1;
            m
        });
    Ok(Json::obj([
        ("message_bytes", Json::Num(msg as f64)),
        ("metrics", Json::obj(out.into_iter().map(|(k, v)| (k, Json::opt(v))))),
        (
            "self_time_by_layer_ns",
            Json::obj(by_layer.into_iter().map(|(k, v)| (k, Json::Num(v as f64)))),
        ),
        ("span_counts", Json::obj(span_counts.into_iter().map(|(k, v)| (k, Json::Num(v as f64))))),
    ]))
}

/// The `p2p` child: rung 2b alone, under whatever environment the parent
/// set — the staged / loaned / checksum-off variants.
pub fn run_p2p(kind: Kind, seed: u64) -> Result<Json, String> {
    let shapes = Shapes::of(kind, seed)?;
    let epoch = Instant::now();
    let outs = Universe::builder().run(RANKS, |comm| {
        let mut t = Tracer::new(true, epoch, comm.rank() as u32);
        p2p_messages(comm, &mut t, shapes.message_bytes())?;
        Ok::<_, String>(t.into_spans())
    });
    let logs: Vec<Vec<Span>> = outs.into_iter().collect::<Result<_, _>>()?;
    let receiver = spans::totals_where(&logs[1..2], |_| true);
    Ok(Json::obj([
        ("msg_s", Json::opt(median_s(&receiver, "p2p.msg", 1))),
        ("message_bytes", Json::Num(shapes.message_bytes() as f64)),
    ]))
}
