//! Full in-transit pipeline test: M LBM simulation ranks stream vorticity to
//! N analysis ranks, which repartition with DDR and render — and the
//! assembled field must match a serial simulation exactly.

use ddr_core::Block;
use ddr_lbm::{barrier_line, Config, DistributedLbm, Lattice};
use intransit::{
    analysis_block, consumer_sources, producer_targets, recv_frames, send_frame, split_resources,
    FrameReceiver, FrameRecvConfig, Repartitioner, Role, FRAME_TAG,
};
use jimage::{jpeg, Colormap, RgbImage};
use minimpi::{FaultPlan, Universe};
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

#[test]
fn dropped_frame_skips_ahead_and_later_steps_are_exact() {
    // Acceptance criterion: a dropped in-transit frame makes the consumer
    // skip ahead and keep streaming, with the skip visible in its stats.
    // M=2 producers stream 3 steps to N=2 consumers; the injected fault
    // drops producer 0's step-2 frame (its 2nd message to world rank 2).
    let m = 2usize;
    let n = 2usize;
    let (nx, ny) = (8usize, 6usize);
    let steps = 3u64;
    let value = |x: usize, y: usize, step: u64| (x + 10 * y) as f32 + 1000.0 * step as f32;

    let start = Instant::now();
    let out = Universe::builder()
        .timeout(Duration::from_secs(20))
        .fault_plan(FaultPlan::new().drop_message(0, m, Some(FRAME_TAG), 1))
        .run(m + n, move |world| {
            let (role, group) = split_resources(world, m).unwrap();
            match role {
                Role::Simulation => {
                    let p = group.rank();
                    let (y0, rows) = ddr_core::decompose::split_axis(ny, m, p);
                    let block = Block::d2([0, y0], [nx, rows]).unwrap();
                    let consumer_world = m + producer_targets(m, n)[p];
                    for step in 1..=steps {
                        let data = block.coords().map(|c| value(c[0], c[1], step)).collect();
                        send_frame(world, consumer_world, step, block, data).unwrap();
                    }
                    (Vec::new(), 0u64)
                }
                Role::Analysis => {
                    let c = group.rank();
                    let need = analysis_block(nx, ny, n, c).unwrap();
                    let mut rep = Repartitioner::degraded(need);
                    let cfg = FrameRecvConfig {
                        deadline: Duration::from_millis(200),
                        retries: 1,
                        backoff: Duration::from_millis(20),
                        poll: Duration::from_micros(200),
                    };
                    let mut rx = FrameReceiver::new(consumer_sources(m, n, c), cfg);
                    let mut fields = Vec::new();
                    for step in 1..=steps {
                        let frames = rx.recv_step(world, step).unwrap();
                        let covered: Vec<Block> = frames.iter().map(|f| f.block).collect();
                        let field = rep.redistribute(&group, &frames).unwrap();
                        fields.push((covered, field));
                    }
                    (fields, rx.stats().skipped)
                }
            }
        });
    // Nothing stalled for the watchdog.
    assert!(start.elapsed() < Duration::from_secs(10));

    // Exactly one skip, on the consumer fed by producer 0.
    let skipped: Vec<u64> = out.iter().skip(m).map(|(_, s)| *s).collect();
    assert_eq!(skipped.iter().sum::<u64>(), 1, "one dropped frame, one skip");

    for step0 in 0..steps as usize {
        let step = step0 as u64 + 1;
        // What the analysis resource collectively received this step: the
        // redistribution spreads it to whoever needs it.
        let covered: Vec<Block> =
            out.iter().skip(m).flat_map(|(fields, _)| fields[step0].0.clone()).collect();
        for (ci, (fields, _)) in out.iter().skip(m).enumerate() {
            assert_eq!(fields.len() as u64, steps, "consumer kept streaming");
            let need = analysis_block(nx, ny, n, ci).unwrap();
            let field = &fields[step0].1;
            for (v, co) in field.iter().zip(need.coords()) {
                let delivered = covered.iter().any(|b| {
                    (0..2).all(|d| co[d] >= b.offset[d] && co[d] < b.offset[d] + b.dims[d])
                });
                if delivered {
                    assert_eq!(*v, value(co[0], co[1], step), "step {step} at {co:?}");
                } else {
                    assert_eq!(*v, 0.0, "lost cell {co:?} must stay zero-filled");
                }
            }
        }
    }
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
