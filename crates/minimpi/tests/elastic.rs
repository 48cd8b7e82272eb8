//! Elastic membership: epoch-fenced reconfiguration and rank respawn.
//!
//! The universe closure doubles as the respawn entry point: a replacement
//! rank re-runs it with `comm.epoch() > 0`, so every test body is written as
//! "epoch 0: run phase 1, casualties leave, survivors reconfigure; any
//! epoch: run phase 2 on the reconfigured communicator".

use minimpi::{Error, FaultPlan, Universe};
use std::time::Duration;

/// A rank killed mid-collective is respawned into a new epoch and the full
/// communicator carries on: the post-recovery allgather sees all four ranks
/// again, each reporting epoch 1.
#[test]
fn killed_rank_is_respawned_into_new_epoch() {
    let out = Universe::builder()
        .fault_plan(FaultPlan::new().kill_rank_at_op(2, 3))
        .timeout(Duration::from_secs(30))
        .run(4, |comm| {
            let comm2 = if comm.epoch() == 0 {
                // Phase 1: collectives until the kill bites somewhere. Short
                // watchdog so a survivor stuck behind an aborted peer cascades
                // into its own failure quickly instead of stalling the
                // rendezvous below.
                comm.set_timeout(Duration::from_millis(800));
                for _ in 0..3 {
                    let failed = comm.try_allreduce(&[1u64], |a, b| a + b).is_err();
                    if !comm.is_alive(comm.rank()) {
                        return None; // the casualty's original thread
                    }
                    if failed {
                        break;
                    }
                }
                comm.set_timeout(Duration::from_secs(30));
                match comm.reconfigure() {
                    Ok(c) => Some(c),
                    // The agreement declared this rank dead (the kill raced
                    // the is_alive probe): the zombie thread exits and the
                    // replacement carries rank 2 forward.
                    Err(_) => return None,
                }
            } else {
                None // replacement: `comm` is already the reconfigured one
            };
            let c = comm2.as_ref().unwrap_or(comm);
            assert_eq!(c.epoch(), 1);
            assert_eq!(c.size(), 4);
            // Phase 2: prove the replacement participates.
            let vals = c.allgather(&[c.rank() as u64 * 10 + c.epoch()]).unwrap();
            Some((vals, c.recovery_counters()))
        });
    assert_eq!(out[2], None, "the killed rank's original thread must exit dead");
    for r in [0, 1, 3] {
        let (vals, counters) = out[r].as_ref().expect("survivor must finish");
        let flat: Vec<u64> = vals.iter().map(|v| v[0]).collect();
        assert_eq!(flat, vec![1, 11, 21, 31], "rank {r}: all four ranks in epoch 1");
        assert_eq!(counters.epoch, 1);
        assert_eq!(counters.respawns, 1);
    }
}

/// A message delayed across a reconfiguration arrives stamped with the old
/// epoch and must be fenced — counted, never delivered.
#[test]
fn stale_message_is_fenced_not_delivered() {
    let out = Universe::builder()
        .fault_plan(FaultPlan::new().delay_message(0, 1, Some(5), 0, Duration::from_millis(300)))
        .timeout(Duration::from_secs(30))
        .run(3, |comm| {
            assert_eq!(comm.epoch(), 0, "nobody dies, so nobody is respawned");
            if comm.rank() == 0 {
                // Lands in rank 1's mailbox just before the epoch bump.
                comm.send(1, 5, &[0xDEAD_u64]).unwrap();
            }
            let comm2 = comm.reconfigure().unwrap();
            // The pre-reconfigure handle is fenced off entirely.
            assert_eq!(comm.barrier(), Err(Error::StaleEpoch { comm_epoch: 0, world_epoch: 1 }));
            if comm2.rank() == 0 {
                comm2.send(1, 5, &[0xF00D_u64]).unwrap();
            }
            let got =
                if comm2.rank() == 1 { comm2.recv_vec::<u64>(0, 5).unwrap() } else { Vec::new() };
            comm2.barrier().unwrap();
            (got, comm2.recovery_counters())
        });
    let (got, counters) = &out[1];
    assert_eq!(got, &vec![0xF00D_u64], "only the new-epoch payload is delivered");
    assert_eq!(counters.fenced_msgs, 1, "the delayed old-epoch message was fenced");
    assert_eq!(counters.epoch, 1);
    assert_eq!(counters.respawns, 0);
    assert!(out[0].0.is_empty() && out[2].0.is_empty());
}

/// With respawn disabled, reconfigure degrades gracefully to an epoch-fenced
/// shrink: survivors get a smaller communicator in a new epoch and no
/// replacement thread ever runs.
#[test]
fn reconfigure_shrinks_when_respawn_disabled() {
    let out = Universe::builder().respawn(false).timeout(Duration::from_secs(30)).run(3, |comm| {
        assert_eq!(comm.epoch(), 0, "respawn is off: the closure runs once per rank");
        if comm.rank() == 1 {
            return None; // departs before the reconfigure
        }
        let comm2 = comm.reconfigure().unwrap();
        assert_eq!(comm2.size(), 2);
        assert_eq!(comm2.epoch(), 1);
        let vals = comm2.allgather(&[comm2.world_rank() as u64]).unwrap();
        Some((vals, comm2.recovery_counters()))
    });
    assert_eq!(out[1], None);
    for r in [0, 2] {
        let (vals, counters) = out[r].as_ref().expect("survivor must finish");
        let flat: Vec<u64> = vals.iter().map(|v| v[0]).collect();
        assert_eq!(flat, vec![0, 2], "survivors keep world-rank order");
        assert_eq!(counters.respawns, 0);
        assert_eq!(counters.epoch, 1);
    }
}

/// Two reconfigurations back to back: epochs stack, and each one invalidates
/// every handle from the epoch before it.
#[test]
fn epochs_stack_across_repeated_reconfiguration() {
    let out = Universe::builder().timeout(Duration::from_secs(30)).run(2, |comm| {
        let c1 = comm.reconfigure().unwrap();
        let c2 = c1.reconfigure().unwrap();
        assert_eq!(
            c1.reconfigure().err(),
            Some(Error::StaleEpoch { comm_epoch: 1, world_epoch: 2 })
        );
        let sum = c2.try_allreduce(&[1u64], |a, b| a + b).unwrap()[0];
        (c2.epoch(), sum)
    });
    assert_eq!(out, vec![(2, 2), (2, 2)]);
}
