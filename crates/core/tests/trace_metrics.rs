//! The elastic-membership counters must land in the ddrtrace metrics
//! registry (and therefore in the `ddr-trace report` summary table, which
//! renders every entry of the trace's metrics snapshot).

use ddr_core::{Block, DataKind, Descriptor, ValidationPolicy};
use minimpi::Universe;
use std::sync::Mutex;
use std::time::Duration;

/// The capture window is process-global: one test at a time.
static CAPTURE: Mutex<()> = Mutex::new(());

#[test]
fn elastic_recovery_counters_reach_the_metrics_registry() {
    let _one_at_a_time = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    ddrtrace::capture::start();
    let domain = Block::d1(0, 32).unwrap();
    Universe::builder().timeout(Duration::from_secs(30)).run(4, move |comm| {
        let rec = if comm.epoch() == 0 {
            if comm.rank() == 1 {
                return; // dies holding nothing; respawned into epoch 1
            }
            Some(comm.reconfigure().unwrap())
        } else {
            None // replacement: already in epoch 1
        };
        let c = rec.as_ref().unwrap_or(comm);
        let desc = Descriptor::for_type::<u32>(4, DataKind::D1).unwrap();
        // Rank 0 owns the whole domain; everyone pulls their quarter.
        let owned: Vec<Block> = if c.rank() == 0 { vec![domain] } else { vec![] };
        let need = ddr_core::decompose::slab(&domain, 0, 4, c.rank()).unwrap();
        let (_plan, _stats) = desc.remap(c, &owned, need).unwrap();
        c.barrier().unwrap();
    });
    let trace = ddrtrace::capture::stop();
    let get = |k: &str| trace.metrics.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    assert_eq!(get("recover.epoch"), Some(1));
    assert_eq!(get("recover.respawns"), Some(1));
    assert!(get("recover.fenced_msgs").is_some(), "fenced counter must be registered");
    // All four ranks remap: ranks 1..4 each move their 8-element (32-byte)
    // quarter; rank 0's quarter is already resident.
    assert_eq!(get("remap.moved_bytes"), Some(3 * 32));
    assert_eq!(get("remap.retained_bytes"), Some(32));
    // The report renders exactly this snapshot, so presence here is
    // presence in `ddr-trace report`.
    let rendered = ddrtrace::metrics::render(&trace.metrics);
    for key in ["recover.epoch", "recover.respawns", "remap.moved_bytes"] {
        assert!(rendered.contains(key), "{key} missing from rendered summary:\n{rendered}");
    }
}

/// A multi-need exchange runs in the one round loop, so it is accounted and
/// traced like any other: three row slabs, each needing its slab plus the
/// neighbouring rows that exist.
#[test]
fn multi_need_reorganize_publishes_redist_metrics_and_exchange_spans() {
    let _one_at_a_time = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    ddrtrace::capture::start();
    let (nx, ny, n) = (8usize, 12, 3usize);
    let domain = Block::d2([0, 0], [nx, ny]).unwrap();
    let sent = Universe::run(n, move |comm| {
        let slab = ddr_core::decompose::slab(&domain, 1, n, comm.rank()).unwrap();
        let (y0, y1) = (slab.offset[1], slab.offset[1] + slab.dims[1]);
        let mut needs = vec![slab];
        needs.extend((y0 > 0).then(|| Block::d2([0, y0 - 1], [nx, 1]).unwrap()));
        needs.extend((y1 < ny).then(|| Block::d2([0, y1], [nx, 1]).unwrap()));
        let desc = Descriptor::for_type::<u32>(n, DataKind::D2).unwrap();
        let plan =
            desc.setup_multi_mapping(comm, &[slab], &needs, ValidationPolicy::Strict).unwrap();
        let data = vec![7u32; slab.count() as usize];
        let mut bufs: Vec<Vec<u32>> = needs.iter().map(|b| vec![0; b.count() as usize]).collect();
        let mut refs: Vec<&mut [u32]> = bufs.iter_mut().map(|v| v.as_mut_slice()).collect();
        plan.reorganize(comm, &[&data], &mut refs).unwrap();
        comm.barrier().unwrap();
        plan.total_sent_bytes()
    });
    let trace = ddrtrace::capture::stop();
    let get = |k: &str| trace.metrics.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    // Four halo rows cross a rank boundary: 0↔1 and 1↔2, one each way.
    assert_eq!(sent.iter().sum::<u64>(), 4 * (nx * 4) as u64);
    assert_eq!(get("redist.sent_bytes"), Some(sent.iter().sum()));
    assert_eq!(get("redist.messages_sent"), Some(4));
    // One exchange per (rank, need index), up to the most needs any rank
    // has: the plan has one round.
    let exchanges =
        trace.events.iter().filter(|e| (e.cat, e.name) == ("redist", "exchange")).count();
    assert_eq!(exchanges, n * 3);
    assert_eq!(get("redist.exchanges"), Some((n * 3) as u64));
}
