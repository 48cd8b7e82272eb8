//! Redistribution counters must land in the ddrtrace metrics registry (and
//! therefore in the `ddr-trace report` summary table, which renders every
//! entry of the trace's metrics snapshot).

use ddr_core::{Block, DataKind, Descriptor, ValidationPolicy};
use minimpi::Universe;

/// A multi-need exchange runs in the one round loop, so it is accounted and
/// traced like any other: three row slabs, each needing its slab plus the
/// neighbouring rows that exist.
#[test]
fn multi_need_reorganize_publishes_redist_metrics_and_exchange_spans() {
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
        let mut bufs = vec![Vec::new(); needs.len()];
        plan.reorganize_needs(comm, &[&data], &mut bufs).unwrap();
        comm.barrier().unwrap();
        plan.total_sent_bytes()
    });
    let trace = ddrtrace::capture::stop();
    let get = |k: &str| trace.metrics.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    // Four halo rows cross a rank boundary: 0↔1 and 1↔2, one each way.
    assert_eq!(sent.iter().sum::<u64>(), 4 * (nx * 4) as u64);
    assert_eq!(get("redist.sent_bytes"), Some(sent.iter().sum()));
    assert_eq!(get("redist.messages_sent"), Some(4));
    // One exchange per rank, whatever its need count: every need's parts
    // ride the plan's one round.
    let exchanges =
        trace.events.iter().filter(|e| (e.cat, e.name) == ("redist", "exchange")).count();
    assert_eq!(exchanges, n);
    assert_eq!(get("redist.exchanges"), Some(n as u64));
}
