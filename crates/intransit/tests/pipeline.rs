//! Full in-transit pipeline test: M LBM simulation ranks stream vorticity to
//! N analysis ranks, which repartition with DDR and render — and the
//! assembled field must match a serial simulation exactly.

use ddr_core::{Block, DdrError};
use ddr_lbm::{barrier_line, Config, DistributedLbm, Lattice};
use intransit::{
    analysis_block, consumer_sources, producer_targets, recv_frames, send_frame, split_resources,
    Repartitioner, Role, FRAME_TAG,
};
use jimage::{jpeg, Colormap, RgbImage};
use minimpi::{Error as MpiError, FaultPlan, Universe};
use std::time::{Duration, Instant};

const M: usize = 6; // simulation ranks
const N: usize = 4; // analysis ranks
const NX: usize = 48;
const NY: usize = 24;
const STEPS: usize = 30;
const OUTPUT_EVERY: usize = 10;

/// Serial reference: the vorticity fields the analysis side must see.
fn serial_vorticity_frames() -> Vec<Vec<f32>> {
    let cfg = Config::wind_tunnel(NX, NY);
    let barrier = barrier_line(12, 8, 16);
    let mut lat = Lattice::new(cfg, 0, NY, &barrier);
    let mut outputs = Vec::new();
    for step in 1..=STEPS {
        lat.step_serial();
        if step % OUTPUT_EVERY == 0 {
            outputs.push(lat.vorticity(None, None));
        }
    }
    outputs
}

#[test]
fn lbm_to_analysis_in_transit_matches_serial() {
    let reference = serial_vorticity_frames();
    let cfg = Config::wind_tunnel(NX, NY);

    let results = Universe::run(M + N, |world| {
        let (role, group) = split_resources(world, M).unwrap();
        match role {
            Role::Simulation => {
                let barrier = barrier_line(12, 8, 16);
                let mut sim = DistributedLbm::new(cfg, &group, &barrier);
                let consumer = producer_targets(M, N)[group.rank()];
                let consumer_world = M + consumer;
                for step in 1..=STEPS {
                    sim.step(&group).unwrap();
                    if step % OUTPUT_EVERY == 0 {
                        let (y0, rows) = sim.slab();
                        let vort = sim.vorticity(&group).unwrap();
                        let block = Block::d2([0, y0], [NX, rows]).unwrap();
                        send_frame(world, consumer_world, step as u64, block, vort).unwrap();
                    }
                }
                Vec::new()
            }
            Role::Analysis => {
                let c = group.rank();
                let need = analysis_block(NX, NY, N, c).unwrap();
                let mut rep = Repartitioner::new(need);
                let sources: Vec<usize> = consumer_sources(M, N, c); // world ranks 0..M
                let mut assembled = Vec::new();
                for step in 1..=STEPS {
                    if step % OUTPUT_EVERY == 0 {
                        let frames = recv_frames(world, &sources, Some(step as u64)).unwrap();
                        let field = rep.redistribute(&group, &frames).unwrap();
                        assembled.push((need, field));
                    }
                }
                assembled
            }
        }
    });

    // Stitch the analysis ranks' outputs back together per output step and
    // compare against the serial reference.
    let n_outputs = STEPS / OUTPUT_EVERY;
    for out_idx in 0..n_outputs {
        let mut stitched = vec![f32::NAN; NX * NY];
        for r in results.iter().skip(M) {
            let (need, field) = &r[out_idx];
            for (v, co) in field.iter().zip(need.coords()) {
                stitched[co[1] * NX + co[0]] = *v;
            }
        }
        assert!(stitched.iter().all(|v| !v.is_nan()), "holes in assembled field");
        assert_eq!(stitched, reference[out_idx], "output {out_idx} differs from serial");
    }
}

/// Sends are eager: a consumer that takes its first frame only after every
/// producer has sent its whole stream still gets every frame, in step order,
/// and repartitions each step bit-exactly. The shape is `lbm_in_transit`'s:
/// 10 producers, 4 consumers, a 640x256 field, 10 frames per producer, so
/// about 0.67 MB waits in each consumer's mailbox per producer before the
/// first receive.
#[test]
fn consumer_that_starts_after_the_whole_stream_gets_every_frame() {
    let (m, n, nx, ny, frames) = (10usize, 4usize, 640usize, 256usize, 10u64);
    let value = |x: usize, y: usize, step: u64| (x + nx * y) as f32 * 0.25 + step as f32;
    let out = Universe::run(m + n, |world| {
        let (role, group) = split_resources(world, m).unwrap();
        match role {
            Role::Simulation => {
                let p = group.rank();
                let (y0, rows) = ddr_core::decompose::split_axis(ny, m, p);
                let block = Block::d2([0, y0], [nx, rows]).unwrap();
                let consumer_world = m + producer_targets(m, n)[p];
                for step in 0..frames {
                    let data = block.coords().map(|c| value(c[0], c[1], step)).collect();
                    send_frame(world, consumer_world, step, block, data).unwrap();
                }
                // Every frame is queued before any consumer leaves this barrier.
                world.barrier().unwrap();
                0
            }
            Role::Analysis => {
                world.barrier().unwrap();
                let c = group.rank();
                let need = analysis_block(nx, ny, n, c).unwrap();
                let mut rep = Repartitioner::new(need);
                let sources = consumer_sources(m, n, c);
                for step in 0..frames {
                    let got = recv_frames(world, &sources, Some(step)).unwrap();
                    assert_eq!(got.len(), sources.len(), "step {step}");
                    let field = rep.redistribute(&group, &got).unwrap();
                    let want: Vec<f32> =
                        need.coords().map(|co| value(co[0], co[1], step)).collect();
                    assert_eq!(field, want, "consumer {c} step {step}");
                }
                sources.len() * frames as usize
            }
        }
    });
    assert_eq!(out.iter().sum::<usize>(), m * frames as usize, "every frame arrived");
}

#[test]
fn analysis_side_renders_and_compresses() {
    // The paper's Table IV path on a small scale: assembled vorticity ->
    // colormap -> JPEG, with a large size reduction vs the raw floats.
    let reference = serial_vorticity_frames();
    let field = &reference[reference.len() - 1];
    let img = RgbImage::from_scalar_field(NX, NY, field, -0.05, 0.05, &Colormap::blue_white_red());
    let bytes = jpeg::encode(&img, 75).unwrap();
    let raw = field.len() * 4;
    assert!(bytes.len() * 2 < raw, "jpeg {} should be far below raw {raw}", bytes.len());
    // And it must remain decodable.
    let back = jpeg::decode(&bytes).unwrap();
    assert_eq!((back.width, back.height), (NX, NY));
}

/// How one rank's run of [`faulty_stream`] ended.
#[derive(Debug)]
enum Ended {
    /// Every step was received and redistributed.
    Done,
    /// `recv_frames` failed at this step.
    Recv(u64, MpiError),
    /// `redistribute` failed at this step.
    Redistribute(u64, DdrError),
    /// A producer, whatever became of it.
    Producer,
}

/// M=2 producers stream 3 steps of an 8x6 field to N=2 consumers under
/// `plan`, and every rank meets at a world barrier at the end, so a producer
/// is still alive while its consumer waits. A consumer stops at its first
/// error. Returns how each rank ended and how long the run took.
fn faulty_stream(plan: FaultPlan) -> (Vec<Ended>, Duration) {
    let (m, n) = (2usize, 2usize);
    let (nx, ny) = (8usize, 6usize);
    let value = |x: usize, y: usize, step: u64| (x + 10 * y) as f32 + 1000.0 * step as f32;
    let start = Instant::now();
    let out = Universe::builder().timeout(UNIVERSE_TIMEOUT).fault_plan(plan).run(m + n, |world| {
        let (role, group) = split_resources(world, m).unwrap();
        match role {
            Role::Simulation => {
                let p = group.rank();
                let (y0, rows) = ddr_core::decompose::split_axis(ny, m, p);
                let block = Block::d2([0, y0], [nx, rows]).unwrap();
                let consumer_world = m + producer_targets(m, n)[p];
                for step in 1..=3 {
                    let data = block.coords().map(|c| value(c[0], c[1], step)).collect();
                    if send_frame(world, consumer_world, step, block, data).is_err() {
                        return Ended::Producer;
                    }
                }
                let _ = world.barrier();
                Ended::Producer
            }
            Role::Analysis => {
                // A frame that never comes is the watchdog's to report: bound
                // this rank's waits on the world handle well inside the
                // universe's timeout, which the analysis group keeps.
                world.set_timeout(FRAME_WAIT);
                let c = group.rank();
                let need = analysis_block(nx, ny, n, c).unwrap();
                let mut rep = Repartitioner::new(need);
                let sources = consumer_sources(m, n, c);
                for step in 1..=3 {
                    let frames = match recv_frames(world, &sources, Some(step)) {
                        Ok(frames) => frames,
                        Err(e) => return Ended::Recv(step, e),
                    };
                    match rep.redistribute(&group, &frames) {
                        Ok(field) => {
                            for (v, co) in field.iter().zip(need.coords()) {
                                assert_eq!(*v, value(co[0], co[1], step), "step {step} at {co:?}");
                            }
                        }
                        Err(e) => return Ended::Redistribute(step, e),
                    }
                }
                let _ = world.barrier();
                Ended::Done
            }
        }
    });
    (out, start.elapsed())
}

const UNIVERSE_TIMEOUT: Duration = Duration::from_secs(20);
const FRAME_WAIT: Duration = Duration::from_millis(500);

/// The consumer not fed by the fault ends `Ok`, or in a named error from
/// `redistribute` at the step its peer failed on; never in a hang or a
/// wrong field.
fn other_consumer_is_ok_or_named(ended: &Ended, step: u64) {
    let named = match ended {
        Ended::Done => true,
        Ended::Redistribute(at, e) => {
            *at == step && matches!(e, DdrError::Mpi(MpiError::PeerDead { .. }))
        }
        _ => false,
    };
    assert!(named, "{ended:?}");
}

/// The blocking frame path fails structurally, never silently: a killed
/// producer, a frame dropped mid-stream and a dropped last frame each end
/// their consumer in a named error, and the run ends well inside the
/// universe's timeout.
#[test]
fn blocking_frame_path_fails_structurally() {
    // World rank 0 (producer 0) feeds world rank 2 (consumer 0). Its ops 0-4
    // are `split_resources`' allgather, op 5 its step-1 send and op 6 its
    // step-2 send: step 1 arrives, step 2 never does.
    const KILL_OP: u64 = 6;
    let (out, took) = faulty_stream(FaultPlan::new().kill_rank_at_op(0, KILL_OP));
    assert!(matches!(out[2], Ended::Recv(2, MpiError::PeerDead { rank: 0 })), "{:?}", out[2]);
    other_consumer_is_ok_or_named(&out[3], 2);
    assert!(took < UNIVERSE_TIMEOUT / 4, "a dead producer took {took:?}");

    // Step 2's frame is lost: step 3's arrives in its place (per-source
    // delivery is FIFO), and the step check names both.
    let (out, took) = faulty_stream(FaultPlan::new().drop_message(0, 2, Some(FRAME_TAG), 1));
    match &out[2] {
        Ended::Recv(2, MpiError::CollectiveMismatch { detail }) => {
            assert_eq!(detail, "frame step 3 does not match expected 2")
        }
        other => panic!("{other:?}"),
    }
    other_consumer_is_ok_or_named(&out[3], 2);
    assert!(took < UNIVERSE_TIMEOUT / 4, "a dropped frame took {took:?}");

    // The last frame is lost: nothing can take its place, and the producer
    // is alive at the barrier, so the wait ends in the watchdog's Timeout.
    let (out, took) = faulty_stream(FaultPlan::new().drop_message(0, 2, Some(FRAME_TAG), 2));
    assert!(
        matches!(out[2], Ended::Recv(3, MpiError::Timeout { rank: 2, src: 0, .. })),
        "{:?}",
        out[2]
    );
    other_consumer_is_ok_or_named(&out[3], 3);
    assert!(took >= FRAME_WAIT && took < UNIVERSE_TIMEOUT / 4, "a lost last frame took {took:?}");
}

#[test]
fn idle_analysis_ranks_participate_in_redistribution() {
    // More consumers than producers: consumers with no incoming frames still
    // take part in the collective mapping and receive their needed block.
    let m = 2usize;
    let n = 5usize;
    let (nx, ny) = (20usize, 10usize);
    Universe::run(m + n, |world| {
        let (role, group) = split_resources(world, m).unwrap();
        match role {
            Role::Simulation => {
                let p = group.rank();
                let (y0, rows) = ddr_core::decompose::split_axis(ny, m, p);
                let block = Block::d2([0, y0], [nx, rows]).unwrap();
                let data: Vec<f32> = block.coords().map(|c| (c[0] + 100 * c[1]) as f32).collect();
                let consumer_world = m + producer_targets(m, n)[p];
                send_frame(world, consumer_world, 1, block, data).unwrap();
            }
            Role::Analysis => {
                let c = group.rank();
                let need = analysis_block(nx, ny, n, c).unwrap();
                let mut rep = Repartitioner::new(need);
                let sources = consumer_sources(m, n, c);
                let frames = recv_frames(world, &sources, Some(1)).unwrap();
                let out = rep.redistribute(&group, &frames).unwrap();
                for (v, co) in out.iter().zip(need.coords()) {
                    assert_eq!(*v, (co[0] + 100 * co[1]) as f32);
                }
            }
        }
    });
}
