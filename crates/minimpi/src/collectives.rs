//! Collective operations over a [`Comm`].
//!
//! All collectives are built on point-to-point messages in a private tag
//! namespace keyed by a per-communicator sequence number, so user traffic and
//! concurrent collectives on *different* communicators can never interfere.
//! Every member of a communicator must call each collective in the same
//! order — the standard MPI contract. The key tag also names the collective
//! ([`Coll`]), so a rank that breaks the contract is never matched across
//! collectives.

use crate::comm::{coll_key_tag, elems_agree, Coll, Comm};
use crate::counters::Counter;
use crate::datatype::{copy_selection, Datatype};
use crate::error::{Error, Result};
use crate::mailbox::{Envelope, Payload};
use crate::pod::{as_uninit_mut, bytes_of, vec_from_bytes, Pod};
use crate::zerocopy::{await_loans, Loan, Step, ZcCell};
use std::mem::MaybeUninit;
use std::sync::Arc;
use std::time::Instant;

impl Comm {
    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Block until every rank in the communicator has entered the barrier.
    /// Dissemination algorithm: `ceil(log2 n)` rounds.
    pub fn barrier(&self) -> Result<()> {
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let seq = self.next_coll_seq();
        let _coll = ddrtrace::span("minimpi", "barrier");
        let mut dist = 1usize;
        let mut phase = 0u64;
        while dist < n {
            let to = (self.rank() + dist) % n;
            let from = (self.rank() + n - dist) % n;
            self.deposit_to(to, coll_key_tag(seq, Coll::Barrier, phase), Vec::new())?;
            self.take_from(from, coll_key_tag(seq, Coll::Barrier, phase))?;
            dist <<= 1;
            phase += 1;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Allgather
    // ------------------------------------------------------------------

    /// Allgather: every rank receives every rank's (variable-length) slice,
    /// indexed by rank. Each rank sends its slice straight to every peer,
    /// then takes one from each: `2(n − 1)` ops, one phase.
    ///
    /// A send that fails — this rank was killed, or the peer is dead — does
    /// not stop the sends to the other peers, so a survivor waiting on this
    /// rank still gets its slice; the first such error is returned once all
    /// were tried.
    pub fn allgather<T: Pod>(&self, data: &[T]) -> Result<Vec<Vec<T>>> {
        let (n, me) = (self.size(), self.rank());
        let tag = coll_key_tag(self.next_coll_seq(), Coll::Allgather, 0);
        let bytes = bytes_of(data);
        let mut sent = Ok(());
        for d in (0..n).filter(|&d| d != me) {
            sent = sent.and(self.deposit_to(d, tag, bytes.to_vec()));
        }
        sent?;
        (0..n)
            .map(|s| {
                if s == me {
                    return Ok(data.to_vec());
                }
                let p = self.take_from(s, tag)?;
                vec_from_bytes(&p)
                    .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: p.len() })
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Alltoallw
    // ------------------------------------------------------------------

    /// `MPI_Alltoallw` over derived datatypes: for every destination `d`,
    /// `send_types[d]` selects the part of `send_buf` to ship; for every
    /// source `s`, `recv_types[s]` places the incoming bytes into `recv_buf`.
    ///
    /// Unlike MPI, zero-length transfers are elided entirely — the contract
    /// is that `send_types[d]` on rank `r` is non-empty **iff** `recv_types[r]`
    /// on rank `d` is non-empty (DDR's mapping guarantees this by
    /// construction). The self-transfer is a direct selection-to-selection
    /// copy.
    ///
    /// Every message, whatever its size, is a zero-copy loan: the
    /// *receiver* copies straight out of the sender's `send_buf`, and no
    /// pack/unpack staging buffer exists anywhere. A fault plan's message
    /// rules act on the loan.
    ///
    /// This is the one-part case of [`Comm::alltoallw_parts_uninit`], the
    /// same engine, into one receive buffer: a failed source is reported
    /// only after every other source was drained.
    pub fn alltoallw(
        &self,
        send_buf: &[u8],
        send_types: &[Datatype],
        recv_buf: &mut [u8],
        recv_types: &[Datatype],
    ) -> Result<()> {
        // Every selection is a part of buffer 0; an empty one is no part.
        fn one_part_each(parts: &[(usize, Datatype)]) -> Vec<&[(usize, Datatype)]> {
            parts.chunks(1).map(|p| if p[0].1 == Datatype::Empty { &p[..0] } else { p }).collect()
        }
        let parts = |types: &[Datatype]| types.iter().map(|dt| (0, *dt)).collect::<Vec<_>>();
        let (send_parts, recv_parts) = (parts(send_types), parts(recv_types));
        let (sends, recvs) = (one_part_each(&send_parts), one_part_each(&recv_parts));
        // SAFETY: the receive engine only stores initialized bytes.
        let recv_buf = unsafe { as_uninit_mut(recv_buf) };
        self.alltoallw_parts_uninit(&[send_buf], &sends, &mut [recv_buf], &recvs)
    }

    /// `MPI_Alltoallw` whose messages are lists of parts, into storage that
    /// may be uninitialized, such as a fresh `Vec`'s spare capacity (see
    /// [`crate::uninit_bytes_of_mut`]). For every destination `d`,
    /// `sends[d]` is an ordered list of `(buffer index, selection)` parts,
    /// each selecting from `bufs[index]`, packed back to back into one
    /// message; for every source `s`, `recvs[s]` is the ordered list of
    /// `(buffer index, selection)` parts of `recv_bufs` that source's
    /// message unpacks into. The self parts are copied pairwise, in order.
    /// The contract of [`Comm::alltoallw`] carries over per message:
    /// `sends[d]` on rank `r` packs to as many bytes as `recvs[r]` on rank
    /// `d` expects.
    ///
    /// The lists are borrowed, so a caller that runs the same exchange many
    /// times keeps them and binds only the buffers per call. A part naming an
    /// index past `bufs` or `recv_bufs`, or a selection reaching past its
    /// send buffer, is an error before anything is sent.
    ///
    /// Every message is one loan of all its parts, whatever its size, and
    /// the receiver copies part `i` of the loan into its receive part `i`,
    /// so `sends[d]` and `recvs[r]` must also agree part by part (count, and
    /// each part's packed length and element size), as the self parts always
    /// must. A loan that does not is refused uncopied: the receiver reports
    /// [`Error::DatatypeMismatch`] and the sender counts the loan revoked.
    ///
    /// The exchange only stores into `recv_bufs` and never reads them: a
    /// loan claim and the self-copy each write their receive parts and
    /// nothing else. So when the call returns `Ok`, every byte of every
    /// selection in `recvs` is initialized; bytes outside them are left as
    /// they were. On `Err`, which selections were written is unspecified.
    ///
    /// A source that fails to deliver (it died, its loan was withheld or
    /// revoked, or the watchdog expired) does not end the exchange at once:
    /// every other source is still drained, and this rank's own loans wait
    /// for their claims until the watchdog's deadline, as on success. Only
    /// then does the call return the first failed source's error. So a rank
    /// does not revoke a loan a live peer is still draining towards, and
    /// every survivor of a death fails naming the dead rank, never another
    /// survivor. Errors that mean *this* rank cannot go on — it was
    /// fault-killed, or its own arguments are malformed — return at once.
    ///
    /// Post-then-wait on an `Exchange` guard: the send phase lends each
    /// message eagerly, then `wait` drains every source. Whichever way the
    /// call leaves — clean, failed, a mid-post error, a panic — the guard
    /// drains or revokes its zero-copy loans.
    pub fn alltoallw_parts_uninit<S, R>(
        &self,
        bufs: &[&[u8]],
        sends: &[S],
        recv_bufs: &mut [&mut [MaybeUninit<u8>]],
        recvs: &[R],
    ) -> Result<()>
    where
        S: AsRef<[(usize, Datatype)]>,
        R: AsRef<[(usize, Datatype)]>,
    {
        let n = self.size();
        if sends.len() != n || recvs.len() != n {
            return Err(Error::CollectiveMismatch {
                detail: format!(
                    "alltoallw: expected {n} send and recv types, got {} and {}",
                    sends.len(),
                    recvs.len()
                ),
            });
        }
        // Every part names one of its side's buffers, the self parts too:
        // checked before the first deposit, so a list naming a missing
        // buffer sends nothing.
        let missing =
            missing_buffer(sends, bufs.len()).map(|i| ("send", i, bufs.len())).or_else(|| {
                missing_buffer(recvs, recv_bufs.len()).map(|i| ("receive", i, recv_bufs.len()))
            });
        if let Some((side, i, of)) = missing {
            return Err(Error::CollectiveMismatch {
                detail: format!("alltoallw: a {side} part names buffer {i} of {of}"),
            });
        }
        let seq = self.next_coll_seq();
        let me = self.rank();
        // Both entries share one wire protocol, so both tag as one
        // collective: they may legitimately pair across ranks.
        let tag = coll_key_tag(seq, Coll::Alltoallw, 0);
        let span = ddrtrace::span_arg("minimpi", "alltoallw", "seq", seq as i64);

        // The guard is built before the send phase so that a mid-post error
        // drops it — and Drop drains whatever loans went out before the
        // failure.
        let mut xchg = Exchange {
            comm: self,
            tag,
            bufs,
            sends,
            recvs,
            loans: Vec::new(),
            settled: false,
            _span: span,
        };

        // Send phase (eager: a deposit never waits). A deposit fails only if
        // this rank itself is dead, or a part reaches past its buffer.
        for (d, parts) in sends.iter().enumerate() {
            let parts = parts.as_ref();
            if d == me || message_len(parts) == 0 {
                continue;
            }
            // A loan a fault rule withheld has no cell: nothing to wait on.
            // SAFETY: `xchg` borrows `bufs` and `sends` for its whole life
            // and drains every loan before it ends, on every exit path.
            if let Some(cell) = unsafe { self.deposit_shared(d, tag, bufs, parts) }? {
                xchg.loans.push((d, cell));
            }
        }
        xchg.wait(recv_bufs)
    }

    /// Place one received alltoallw message into `recv_bufs` through its
    /// parts `dts`, in order: claim the loan, and only then read its part
    /// list; copy each lent part straight out of the sender's buffers into
    /// the receive part it pairs with, or refuse the loan uncopied if the
    /// parts do not pair. **A claimed loan always reaches its finish or
    /// refuse**: the sender waits until then, so nothing may return early in
    /// between.
    fn deliver_alltoallw(
        &self,
        src: usize,
        env: Envelope,
        dts: &[(usize, Datatype)],
        recv_bufs: &mut [&mut [MaybeUninit<u8>]],
    ) -> Result<()> {
        // Only alltoallw deposits under an alltoallw tag, and it only lends.
        let Payload::Shared(loan) = env.payload else {
            return Err(Error::Internal {
                detail: format!("alltoallw: rank {src} sent owned bytes where a loan belongs"),
            });
        };
        if !loan.cell.take(Step::Claim) {
            // The sender revoked the loan (timeout / death) before we got
            // here; the payload is unrecoverable.
            return Err(Error::PeerDead { rank: src });
        }
        // SAFETY: the claim succeeded, so the sender waits until the settle
        // below, after the last use of the slices.
        let (bufs, parts) = unsafe { loan.lent() };
        let paired = pair_parts(src, parts, dts);
        let step = if paired.is_ok() { Step::Finish } else { Step::Refuse };
        let res = paired.and_then(|()| {
            let _zc = ddrtrace::span_arg("minimpi", "zc_copy", "bytes", message_len(dts) as i64);
            // Each part is counted in this rank's slot by the tier that moved it.
            parts.iter().zip(dts).try_for_each(|((b, dt), (k, want))| {
                let (tier, n) = copy_selection(bufs[*b], dt, &mut *recv_bufs[*k], want)?;
                self.count(tier, n);
                Ok(())
            })
        });
        // Store, then tell the lender, which waits on its own mailbox and
        // so sees the store on its next check.
        loan.cell.take(step);
        self.mailbox(src).notify();
        res
    }
}

/// Whether a loan's parts `lent` from `src` pair in order with the receive
/// parts `want`, as the self parts must: in count, and each part's packed
/// length and element size.
fn pair_parts(src: usize, lent: &[(usize, Datatype)], want: &[(usize, Datatype)]) -> Result<()> {
    let shape = |p: &(usize, Datatype)| (p.1.packed_len(), p.1.elem_size());
    let pairs = |(a, b): ((usize, u32), (usize, u32))| a.0 == b.0 && elems_agree(a.1, b.1);
    if lent.len() == want.len() && lent.iter().map(shape).zip(want.iter().map(shape)).all(pairs) {
        return Ok(());
    }
    let (lent, want): (Vec<_>, Vec<_>) =
        (lent.iter().map(shape).collect(), want.iter().map(shape).collect());
    Err(Error::DatatypeMismatch {
        detail: format!(
            "a loan of (bytes, element size) parts {lent:?} from rank {src} into parts {want:?}"
        ),
    })
}

/// Bytes one message of parts `parts` packs to.
fn message_len(parts: &[(usize, Datatype)]) -> usize {
    parts.iter().map(|(_, dt)| dt.packed_len()).sum()
}

/// The first buffer index a part of `lists` names at or past `count`.
fn missing_buffer<L: AsRef<[(usize, Datatype)]>>(lists: &[L], count: usize) -> Option<usize> {
    lists.iter().flat_map(|l| l.as_ref()).map(|p| p.0).find(|&i| i >= count)
}

/// One alltoallw exchange between its send phase and its completion.
///
/// Soundness anchor of the zero-copy loan: send buffers and their part
/// lists are lent to peers as raw pointers, so the borrows the guard holds
/// must stay alive while any peer might still read them — and *every* exit
/// path must drain the loans. [`Exchange::wait`] does so on completion; the
/// `Drop` impl covers early exits (a hard error, a mid-post error, a panic)
/// by revoking unclaimed loans immediately and waiting out claims already in
/// flight (a bounded memcpy).
struct Exchange<'a, S, R> {
    comm: &'a Comm,
    /// Key tag every message of this exchange travels under.
    tag: u64,
    bufs: &'a [&'a [u8]],
    sends: &'a [S],
    recvs: &'a [R],
    loans: Vec<(usize, Arc<ZcCell>)>,
    /// Every source was drained; Drop only drains loans. Left early, Drop
    /// sweeps the exchange's queued remainder first.
    settled: bool,
    /// Keeps the `minimpi/alltoallw` trace span open from post to
    /// completion, so phase tables attribute the full exchange lifetime.
    _span: ddrtrace::SpanGuard,
}

impl<S: AsRef<[(usize, Datatype)]>, R: AsRef<[(usize, Datatype)]>> Exchange<'_, S, R> {
    /// Block until every source resolved and the loans are drained, then
    /// return the first failed source's error. A hard error leaves at once
    /// through Drop, which sweeps this exchange's queued remainder —
    /// revoking each queued loan — and revokes this rank's own loans.
    fn wait(mut self, recv_bufs: &mut [&mut [MaybeUninit<u8>]]) -> Result<()> {
        let comm = self.comm;
        let me = comm.rank();
        self.self_copy(recv_bufs)?;
        // Receive phase: drain every source, keeping the first failure.
        let mut lost = Ok(());
        for (s, dts) in self.recvs.iter().enumerate() {
            let dts = dts.as_ref();
            if s == me || message_len(dts) == 0 {
                continue;
            }
            let res = comm
                .take_envelope_from(s, self.tag)
                .and_then(|env| comm.deliver_alltoallw(s, env, dts, recv_bufs));
            match res {
                Ok(()) => {}
                // Malformed local arguments are hard errors.
                Err(e @ (Error::DatatypeMismatch { .. } | Error::SizeMismatch { .. })) => {
                    return Err(e)
                }
                // Killed mid-drain: nothing more can arrive.
                Err(Error::PeerDead { rank }) if rank == me && !comm.is_alive(me) => {
                    return Err(Error::PeerDead { rank })
                }
                Err(e) => lost = lost.and(Err(e)),
            }
        }
        // Completion: wait until every lent region was consumed (or revoke
        // loans to receivers that can no longer claim them).
        {
            let _complete = ddrtrace::span("minimpi", "zc_complete");
            let revoked = self.drain_loans(Instant::now() + comm.timeout());
            comm.count(Counter::RevokedMsgs, revoked);
        }
        self.settled = true;
        lost
    }

    /// Self-transfer: the self parts paired in order, each a direct
    /// selection-to-selection copy (faults never apply to self-messages).
    fn self_copy(&self, recv_bufs: &mut [&mut [MaybeUninit<u8>]]) -> Result<()> {
        let me = self.comm.rank();
        let (sends, recvs) = (self.sends[me].as_ref(), self.recvs[me].as_ref());
        let (sent, expected) = (message_len(sends), message_len(recvs));
        if sent == 0 && expected == 0 {
            return Ok(());
        }
        let _copy = ddrtrace::span_arg("minimpi", "self_copy", "bytes", sent as i64);
        if sent != expected {
            return Err(Error::SizeMismatch { expected, got: sent });
        }
        if sends.len() != recvs.len() {
            return Err(Error::DatatypeMismatch {
                detail: format!(
                    "self-transfer of {} send parts into {} receive parts",
                    sends.len(),
                    recvs.len()
                ),
            });
        }
        for ((i, send_dt), (k, recv_dt)) in sends.iter().zip(recvs) {
            let (tier, n) = copy_selection(self.bufs[*i], send_dt, &mut *recv_bufs[*k], recv_dt)?;
            self.comm.count(tier, n);
        }
        Ok(())
    }
}

impl<S, R> Exchange<'_, S, R> {
    /// Wait, once for all of them, until every loan was copied, revoked or
    /// refused, giving receivers until `deadline`; a dead receiver's loan is
    /// revoked at once rather than burning the watchdog. Returns the number
    /// revoked or refused.
    fn drain_loans(&mut self, deadline: Instant) -> u64 {
        if self.loans.is_empty() {
            return 0;
        }
        let comm = self.comm;
        await_loans(comm.my_mailbox(), comm.waiter(), deadline, &self.loans, |d| !comm.is_alive(d));
        let mut revoked = 0;
        for (dest, cell) in self.loans.drain(..) {
            if cell.state() == Loan::Revoked {
                ddrtrace::instant_arg("minimpi", "zc_revoke", "dest", dest as i64);
                revoked += 1;
            }
        }
        revoked
    }
}

impl<S, R> Drop for Exchange<'_, S, R> {
    fn drop(&mut self) {
        if !self.settled {
            // Left early (a hard error, a mid-post error or a panic): nobody
            // will receive the rest of this exchange, so drop what is queued
            // under its tag. Each dropped loan is revoked and its sender
            // told, so a departing receiver cannot strand a healthy sender on
            // the watchdog.
            let (comm, id, tag) = (self.comm, self.comm.comm_id, self.tag);
            let mut swept = 0;
            while let Some((key, env)) = comm.my_mailbox().try_take(|k| (k.0, k.2) == (id, tag)) {
                drop(env);
                comm.mailbox(key.1).notify();
                swept += 1;
            }
            if swept > 0 {
                ddrtrace::instant_arg("minimpi", "exchange_sweep", "msgs", swept as i64);
            }
        }
        // Every exit path drains the zero-copy loans: revoke anything still
        // unclaimed *now*; claims already in flight are waited out so the
        // borrow of the send buffers stays sound.
        self.drain_loans(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::mix64;
    use crate::Universe;
    use std::time::Duration;

    /// A receiver that leaves an exchange early on a hard error must not
    /// strand a healthy sender's zero-copy loan until the watchdog fires,
    /// even while it stays alive. Seeded over several message sizes, with
    /// the loan under test of one part and of two.
    ///
    /// Geometry per run (3 ranks, ranks 0 and 1 lending only to rank 2):
    /// * rank 0 lends two parts where rank 2's `alltoallw` expects one, so
    ///   rank 2 refuses the loan with a `DatatypeMismatch` and leaves its
    ///   exchange before draining rank 1;
    /// * rank 1 lends `len` bytes, as one part or two. Rank 2 never looks at
    ///   that loan: only the early exit's sweep of its queued remainder
    ///   revokes it;
    /// * rank 2 waits until rank 1's loan is queued (making the stranding
    ///   deterministic) and stays alive until every rank has returned, so
    ///   without the sweep rank 1 sits in `Exchange::wait` for the full
    ///   watchdog.
    #[test]
    fn departing_receiver_revokes_unclaimed_loans() {
        for (seed, nparts) in (0..6u64).flat_map(|seed| [(seed, 1), (seed, 2)]) {
            let len = 32 + (mix64(seed ^ 0xA11_0C8) % 4096) as usize;
            let start = Instant::now();
            let all_returned = std::sync::Barrier::new(3);
            let out = Universe::builder().timeout(Duration::from_secs(30)).run(3, |comm| {
                let me = comm.rank();
                let contig = |offset, len_bytes| Datatype::Contiguous { len_bytes, offset };
                let res = if me < 2 {
                    let send = vec![me as u8; len];
                    let half = len / 2;
                    let lent = match (me, nparts) {
                        (1, 1) => vec![(0, contig(0, len))],
                        _ => vec![(0, contig(half, len - half)), (0, contig(0, half))],
                    };
                    let (sends, recvs): ([&[_]; 3], [&[_]; 3]) = ([&[], &[], &lent], [&[]; 3]);
                    comm.alltoallw_parts_uninit(&[&send], &sends, &mut [], &recvs)
                } else {
                    let tag = coll_key_tag(0, Coll::Alltoallw, 0);
                    while !comm.my_mailbox().contains((0, 1, tag)) {
                        std::thread::yield_now();
                    }
                    let mut recv = vec![0u8; 2 * len];
                    let empty = Datatype::Empty;
                    let rt = [contig(0, len), contig(len, len), empty];
                    comm.alltoallw(&[], &[empty; 3], &mut recv, &rt)
                };
                all_returned.wait();
                (res, comm.counters()[Counter::RevokedMsgs])
            });
            let elapsed = start.elapsed();
            let case = format!("seed {seed}, {nparts} part(s)");
            assert_eq!(out[0], (Ok(()), 2), "{case}: rank 0's loan is refused");
            assert_eq!(out[1], (Ok(()), 2), "{case}: rank 1's loan is revoked");
            assert!(matches!(out[2].0, Err(Error::DatatypeMismatch { .. })), "{case}: {out:?}");
            // Liveness: nowhere near the watchdog. Without the sweep, rank 1
            // burns the full 30 s waiting on its loan.
            assert!(
                elapsed < Duration::from_secs(10),
                "{case}: took {elapsed:?}, a loan was stranded"
            );
        }
    }

    /// An `alltoallw` in which rank 0 lends one 64-byte message to each
    /// other rank and receives none, and every other rank runs `receiver`
    /// instead of receiving; rank 0 returns its exchange's result and how
    /// its own waits resolved, (immediate + spin hits + parks).
    fn lend_from_rank_0(n: usize, receiver: impl Fn(&Comm) + Sync) -> (Result<()>, u64, Duration) {
        let start = Instant::now();
        let out = Universe::builder().timeout(Duration::from_secs(10)).run(n, |comm| {
            if comm.rank() != 0 {
                receiver(comm);
                return None;
            }
            let send = [7u8; 64];
            let lent = [(0, Datatype::Contiguous { len_bytes: 64, offset: 0 })];
            let sends: Vec<&[_]> = (0..n).map(|d| if d == 0 { &[][..] } else { &lent }).collect();
            let res = comm.alltoallw_parts_uninit(&[&send], &sends, &mut [], &vec![&[][..]; n]);
            let slot = &comm.world.counters[0];
            let waits = [Counter::WaitImmediate, Counter::WaitSpinHits, Counter::WaitParks];
            Some((res, waits.iter().map(|&c| slot.get(c)).sum()))
        });
        let (res, waits) = out.into_iter().next().flatten().unwrap();
        (res, waits, start.elapsed())
    }

    /// A lender waits for all its loans at once: three receivers, one wait
    /// resolution.
    #[test]
    fn a_lender_waits_once_per_exchange() {
        let (res, waits, _) = lend_from_rank_0(4, |comm| {
            let mut recv = [0u8; 64];
            let mut rt = [Datatype::Empty; 4];
            rt[0] = Datatype::Contiguous { len_bytes: 64, offset: 0 };
            comm.alltoallw(&[], &[Datatype::Empty; 4], &mut recv, &rt).unwrap();
            assert_eq!(recv, [7; 64]);
        });
        assert_eq!((res, waits), (Ok(()), 1));
    }

    /// A lender asleep on its mailbox is woken by its receiver's death: the
    /// receiver leaves without claiming once the lender sleeps, and its
    /// `mark_dead` notifies every mailbox — nothing polls, and the 10 s
    /// watchdog is far off.
    #[test]
    fn a_receivers_death_wakes_its_sleeping_lender() {
        let (res, waits, took) = lend_from_rank_0(2, |comm| {
            while comm.mailbox(0).sleepers() == 0 {
                std::thread::yield_now();
            }
        });
        assert_eq!((res, waits), (Ok(()), 1));
        assert!(took < Duration::from_secs(2), "took {took:?}");
    }
}
