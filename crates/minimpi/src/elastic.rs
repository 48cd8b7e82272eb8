//! Elastic membership: epoch-fenced reconfiguration and rank respawn.
//!
//! PR 1's fault story was shrink-only: a dead rank permanently degrades
//! capacity, because [`crate::Comm::shrink`] can only agree on the survivor
//! subset. This module adds the other half — growing the rank set back — as
//! an explicit membership protocol:
//!
//! 1. **Agreement.** Every surviving member of the communicator enters
//!    [`crate::Comm::reconfigure`], which rendezvouses exactly like shrink
//!    (via shared state, so the agreement itself cannot deadlock or be
//!    fault-killed) and produces the agreed survivor list.
//! 2. **Epoch bump.** The lowest-ranked survivor acts as leader: it bumps
//!    the world's membership **epoch**, sweeps every mailbox of messages
//!    stamped with the old epoch (revoking any stale zero-copy loans, which
//!    releases their blocked senders), and — when respawn is enabled —
//!    revives each dead rank and queues a respawn request for the supervisor running on the
//!    main thread.
//! 3. **Fencing.** Every envelope carries the epoch of the communicator
//!    handle that sent it. Stale envelopes are rejected at three points:
//!    swept at reconfigure time, dropped at match time by receivers, and
//!    (for fault-delayed messages still in flight) dropped at deposit time.
//!    A communicator handle from a previous epoch fails every operation
//!    with [`crate::Error::StaleEpoch`] instead of producing stale traffic.
//! 4. **Respawn.** The universe's main thread runs a supervisor loop: each
//!    queued request spawns a fresh rank thread that re-runs the user
//!    closure with a communicator handle already in the new epoch. The
//!    closure can detect that it is a replacement via `comm.epoch() > 0`
//!    and skip to its recovery path.
//!
//! Every survivor (and every respawned rank) ends up with a communicator of
//! the **same id, membership, and epoch**, so post-reconfigure collectives
//! match exactly as if the universe had just started.

use crate::comm::{Comm, WorldState, RECONFIG_TAG};
use crate::error::{Error, Result};
use crate::fault::mix64;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Salt mixed into reconfigured communicator ids so they can never collide
/// with split/shrink children or with other epochs ("EPOCH!").
const EPOCH_SALT: u64 = 0x4550_4f43_4821;

/// A queued request for the supervisor to spawn a replacement rank thread.
pub(crate) struct RespawnRequest {
    /// World rank to respawn.
    pub world_rank: usize,
    /// Incarnation of that rank the replacement thread runs as.
    pub incarnation: u64,
    /// Epoch the replacement joins in.
    pub epoch: u64,
    /// Communicator id of the reconfigured communicator it starts with.
    pub comm_id: u64,
    /// Members of that communicator (world ranks, rank order).
    pub members: Arc<Vec<usize>>,
}

/// What the supervisor loop should do next.
pub(crate) enum SupervisorEvent {
    /// Spawn a replacement rank thread.
    Spawn(RespawnRequest),
    /// Every rank thread (initial and respawned) has finished.
    AllDone,
}

#[derive(Default)]
struct Supervisor {
    /// Rank threads currently running (initial + respawned). The universe is
    /// done when this reaches zero with no queued requests; a reconfigure
    /// increments it *before* the requester could possibly finish, so the
    /// count can never dip to zero with a respawn still owed.
    running: usize,
    requests: VecDeque<RespawnRequest>,
}

/// Membership-epoch state shared by all ranks of one universe: the current
/// epoch, recovery counters, and the respawn supervisor queue.
pub(crate) struct ElasticState {
    epoch: AtomicU64,
    respawns: AtomicU64,
    sup: Mutex<Supervisor>,
    cv: Condvar,
}

impl ElasticState {
    pub fn new(n: usize) -> Self {
        ElasticState {
            epoch: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            sup: Mutex::new(Supervisor { running: n, requests: VecDeque::new() }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Supervisor> {
        self.sup.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Total replacement ranks spawned so far.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Leader side: publish the new epoch and wake everyone parked in
    /// [`ElasticState::wait_for_epoch`].
    fn set_epoch(&self, epoch: u64) {
        let _g = self.lock();
        self.epoch.store(epoch, Ordering::Release);
        self.cv.notify_all();
    }

    /// Non-leader side: block until the world epoch reaches `target`. The
    /// leader is guaranteed to publish (it cannot be fault-killed between
    /// agreement and publication). Returns `false` on timeout.
    fn wait_for_epoch(&self, target: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.lock();
        loop {
            if self.epoch.load(Ordering::Acquire) >= target {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) =
                self.cv.wait_timeout(g, deadline - now).unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
    }

    /// A rank thread (initial or respawned) finished.
    pub fn rank_finished(&self) {
        let mut g = self.lock();
        g.running = g.running.saturating_sub(1);
        drop(g);
        self.cv.notify_all();
    }

    /// Leader side, before the epoch is published: account for the
    /// replacements this reconfigure has committed to spawn. Non-leaders
    /// wake the moment the epoch lands, so the counter must already cover
    /// the requests that are queued right after publication.
    fn add_respawns(&self, n: u64) {
        self.respawns.fetch_add(n, Ordering::Relaxed);
    }

    /// Queue a replacement rank for the supervisor to spawn (already counted
    /// by [`ElasticState::add_respawns`]). Increments the running count in
    /// the same critical section so the supervisor cannot observe "all done"
    /// with this respawn still pending.
    fn request_respawn(&self, req: RespawnRequest) {
        let mut g = self.lock();
        g.running += 1;
        g.requests.push_back(req);
        drop(g);
        self.cv.notify_all();
    }

    /// Supervisor side (universe main thread): block for the next event.
    pub fn next_event(&self) -> SupervisorEvent {
        let mut g = self.lock();
        loop {
            if let Some(req) = g.requests.pop_front() {
                return SupervisorEvent::Spawn(req);
            }
            if g.running == 0 {
                return SupervisorEvent::AllDone;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Snapshot of the recovery counters, for tests and diagnostics (also
/// exported to the `ddrtrace` metrics registry as `recover.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Current membership epoch (number of completed reconfigurations).
    pub epoch: u64,
    /// Replacement rank threads spawned.
    pub respawns: u64,
    /// Stale-epoch messages fenced instead of delivered.
    pub fenced_msgs: u64,
}

impl Comm {
    /// Snapshot of the universe's recovery counters.
    pub fn recovery_counters(&self) -> RecoveryCounters {
        RecoveryCounters {
            epoch: self.world.epoch(),
            respawns: self.world.elastic.respawns(),
            fenced_msgs: self.world.transport.snapshot().fenced_msgs,
        }
    }

    /// Collective over the *surviving* members: agree on who is still alive,
    /// open a new membership epoch, and return this rank's handle onto the
    /// reconfigured communicator.
    ///
    /// With respawn enabled (the default; see
    /// [`crate::UniverseBuilder::respawn`]), every dead member is revived
    /// and a replacement thread re-running the universe closure is spawned
    /// into the new epoch, so the returned communicator has the **same
    /// size** as this one. With respawn disabled the returned communicator
    /// contains only the survivors, like [`Comm::shrink`] — but still in a
    /// new epoch, with stale traffic fenced.
    ///
    /// The epoch fence means all communicator handles from before the call —
    /// including this one, the world communicator, and any splits — are
    /// dead after it returns: they fail every operation with
    /// [`Error::StaleEpoch`]. Reconfigure is therefore a job-wide event:
    /// call it on a communicator containing every rank that will continue
    /// (normally the world communicator or a reconfigured descendant), and
    /// re-derive sub-communicators from the handle it returns.
    ///
    /// Like shrink, the agreement runs over shared state: it sends no
    /// messages, cannot be fault-killed mid-protocol, and is re-evaluated on
    /// every death, so survivors never wait out the watchdog on a casualty.
    pub fn reconfigure(&self) -> Result<Comm> {
        let me_world = self.world_rank();
        if !self.world.is_alive(me_world) {
            return Err(Error::PeerDead { rank: self.rank });
        }
        let entry_epoch = self.world.epoch();
        if entry_epoch != self.epoch {
            return Err(Error::StaleEpoch { comm_epoch: self.epoch, world_epoch: entry_epoch });
        }
        let timeout = self.timeout();
        let generation = self.reconfig_seq.get();
        self.reconfig_seq.set(generation + 1);
        let span = ddrtrace::span("minimpi", "reconfigure");
        let survivors = self
            .world
            .reconfig
            .enter(
                (self.comm_id, generation),
                &self.members,
                me_world,
                &self.world.liveness,
                timeout,
            )
            .ok_or(self.timed_out(None, RECONFIG_TAG))?;
        // The agreement may have declared *this* rank dead (its kill raced
        // this call — by now it may even have been revived for a respawned
        // replacement). The zombie thread must exit instead of rejoining and
        // racing its own replacement for the rank's identity.
        if !survivors.contains(&me_world) {
            return Err(Error::PeerDead { rank: self.rank });
        }
        let respawn = self.world.respawn;
        let new_epoch = entry_epoch + 1;
        let new_members: Arc<Vec<usize>> = if respawn {
            Arc::new((*self.members).clone())
        } else {
            Arc::new((*survivors).clone())
        };
        let mut comm_id = mix64(self.comm_id ^ mix64(EPOCH_SALT ^ new_epoch));
        for &w in new_members.iter() {
            comm_id = mix64(comm_id ^ w as u64);
        }

        if survivors.first() == Some(&me_world) {
            // Leader duties, in a deliberate order. Revive the dead *before* publishing the epoch, so no survivor can wake up and
            // fail a send to a replacement that still reads as dead. Sweep
            // after publishing: the sweep keeps only new-epoch messages, and
            // publishing first closes the window where a fault-delayed
            // deposit could slip in behind the sweep (its deposit-time fence
            // only fires once the epoch has moved).
            let dead: Vec<usize> =
                self.members.iter().copied().filter(|w| !survivors.contains(w)).collect();
            let mut revived = Vec::new();
            if respawn {
                revived.extend(dead.iter().map(|&w| (w, self.world.liveness.revive(w))));
                self.world.elastic.add_respawns(dead.len() as u64);
            }
            self.world.elastic.set_epoch(new_epoch);
            let fenced = self.world.sweep_stale(new_epoch);
            for (world_rank, incarnation) in revived {
                self.world.elastic.request_respawn(RespawnRequest {
                    world_rank,
                    incarnation,
                    epoch: new_epoch,
                    comm_id,
                    members: Arc::clone(&new_members),
                });
            }
            if ddrtrace::enabled() {
                ddrtrace::instant_arg("minimpi", "epoch_bump", "epoch", new_epoch as i64);
                if fenced > 0 {
                    ddrtrace::instant_arg("minimpi", "epoch_fence", "msgs", fenced as i64);
                }
                if !dead.is_empty() {
                    ddrtrace::instant_arg("minimpi", "respawn", "ranks", dead.len() as i64);
                }
            }
        } else if !self.world.elastic.wait_for_epoch(new_epoch, timeout) {
            return Err(self.timed_out(None, RECONFIG_TAG));
        }
        drop(span);

        let rank =
            new_members.iter().position(|&w| w == me_world).ok_or_else(|| Error::Internal {
                detail: format!(
                    "reconfigure: world rank {me_world} absent from the agreed member set"
                ),
            })?;
        Ok(Comm::derived(
            Arc::clone(&self.world),
            comm_id,
            rank,
            new_members,
            new_epoch,
            self.timeout(),
        ))
    }

    /// Entry handle for a respawned rank thread: a communicator identical
    /// (id, members, epoch, fresh sequence counters) to what every survivor
    /// got back from the reconfigure that requested this respawn.
    pub(crate) fn respawned_comm(world: Arc<WorldState>, req: &RespawnRequest) -> Comm {
        let rank = req
            .members
            .iter()
            .position(|&w| w == req.world_rank)
            .expect("respawn request names a member of its own communicator");
        let timeout = world.default_timeout;
        Comm::derived(world, req.comm_id, rank, Arc::clone(&req.members), req.epoch, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervisor_counts_down_to_all_done() {
        let e = ElasticState::new(2);
        e.rank_finished();
        e.rank_finished();
        assert!(matches!(e.next_event(), SupervisorEvent::AllDone));
    }

    #[test]
    fn respawn_request_keeps_supervisor_alive() {
        let e = ElasticState::new(1);
        e.add_respawns(1);
        e.request_respawn(RespawnRequest {
            world_rank: 0,
            incarnation: 1,
            epoch: 1,
            comm_id: 7,
            members: Arc::new(vec![0]),
        });
        e.rank_finished(); // the original rank exits
        match e.next_event() {
            SupervisorEvent::Spawn(req) => assert_eq!(req.world_rank, 0),
            SupervisorEvent::AllDone => panic!("respawn request lost"),
        }
        // The replacement finishes; now the universe is done.
        e.rank_finished();
        assert!(matches!(e.next_event(), SupervisorEvent::AllDone));
        assert_eq!(e.respawns(), 1);
    }

    #[test]
    fn wait_for_epoch_times_out_and_completes() {
        let e = Arc::new(ElasticState::new(1));
        assert!(!e.wait_for_epoch(1, Duration::from_millis(20)));
        let e2 = Arc::clone(&e);
        let h = std::thread::spawn(move || e2.wait_for_epoch(1, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        e.set_epoch(1);
        assert!(h.join().unwrap());
        assert_eq!(e.epoch(), 1);
    }
}
