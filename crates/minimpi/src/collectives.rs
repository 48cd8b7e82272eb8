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
use crate::zerocopy::{ZcCell, ZcWait};
use std::mem::MaybeUninit;
use std::sync::Arc;
use std::time::Instant;

/// Encode a list of byte buffers into one buffer (u64 count + u64 lengths +
/// concatenated payloads). Used to ship gathered results through broadcast.
fn encode_multi(parts: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(8 + 8 * parts.len() + total);
    out.extend_from_slice(&(parts.len() as u64).to_le_bytes());
    for p in parts {
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    }
    for p in parts {
        out.extend_from_slice(p);
    }
    out
}

fn decode_multi(buf: &[u8]) -> Result<Vec<Vec<u8>>> {
    let fail = || Error::SizeMismatch { expected: 8, got: buf.len() };
    let word = |i: usize| Some(u64::from_le_bytes(buf.get(8 * i..8 * i + 8)?.try_into().ok()?));
    // The header is input from the wire: a count or length it cannot back
    // with bytes is rejected before anything is sized or summed from it.
    let n = word(0).filter(|&n| n < (buf.len() / 8) as u64).ok_or_else(fail)? as usize;
    let mut parts = Vec::with_capacity(n);
    let mut cursor = 8 + 8 * n;
    for i in 0..n {
        let len = usize::try_from(word(1 + i).ok_or_else(fail)?).map_err(|_| fail())?;
        let end = cursor.checked_add(len).filter(|&e| e <= buf.len()).ok_or_else(fail)?;
        parts.push(buf[cursor..end].to_vec());
        cursor = end;
    }
    Ok(parts)
}

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
    // Broadcast
    // ------------------------------------------------------------------

    /// Broadcast bytes from `root` to all ranks. On non-root ranks the
    /// returned vector is the received payload; on the root it is a copy of
    /// `data`. Binomial tree, `O(log n)` depth.
    pub fn broadcast_bytes(&self, root: usize, data: &[u8]) -> Result<Vec<u8>> {
        self.broadcast_as(Coll::Broadcast, root, data)
    }

    /// [`Comm::broadcast_bytes`] under `coll`'s tags: allgather and
    /// allreduce broadcast as themselves.
    fn broadcast_as(&self, coll: Coll, root: usize, data: &[u8]) -> Result<Vec<u8>> {
        let n = self.size();
        if root >= n {
            return Err(Error::RankOutOfRange { rank: root, size: n });
        }
        let tag = coll_key_tag(self.next_coll_seq(), coll, 0);
        let relative = (self.rank() + n - root) % n;

        let mut payload: Option<Vec<u8>> = if relative == 0 { Some(data.to_vec()) } else { None };

        // Receive phase: find the bit that identifies our parent.
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src = (self.rank() + n - mask) % n;
                payload = Some(self.take_from(src, tag)?);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children below our identifying bit.
        let payload = payload.ok_or_else(|| Error::Internal {
            detail: format!(
                "bcast: rank {} has no payload after the receive phase (root {root}, n {n})",
                self.rank()
            ),
        })?;
        let mut mask = mask >> 1;
        while mask > 0 {
            if relative + mask < n {
                let dst = (self.rank() + mask) % n;
                self.deposit_to(dst, tag, payload.clone())?;
            }
            mask >>= 1;
        }
        Ok(payload)
    }

    // ------------------------------------------------------------------
    // Gather / Allgather
    // ------------------------------------------------------------------

    /// Gather each rank's (variable-length) bytes at `root`. Returns
    /// `Some(parts)` on the root (indexed by rank) and `None` elsewhere.
    pub fn gather_bytes(&self, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        self.gather_as(Coll::Gather, root, data)
    }

    /// [`Comm::gather_bytes`] under `coll`'s tags.
    fn gather_as(&self, coll: Coll, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        let n = self.size();
        if root >= n {
            return Err(Error::RankOutOfRange { rank: root, size: n });
        }
        let tag = coll_key_tag(self.next_coll_seq(), coll, 0);
        if self.rank() == root {
            let mut parts = vec![Vec::new(); n];
            parts[root] = data.to_vec();
            for (src, part) in parts.iter_mut().enumerate() {
                if src != root {
                    *part = self.take_from(src, tag)?;
                }
            }
            Ok(Some(parts))
        } else {
            self.deposit_to(root, tag, data.to_vec())?;
            Ok(None)
        }
    }

    /// Allgather of variable-length byte buffers: every rank receives every
    /// rank's contribution, indexed by rank. Gather-to-0 + broadcast.
    pub fn allgather_bytes(&self, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        let gathered = self.gather_as(Coll::Allgather, 0, data)?;
        let encoded = match gathered {
            Some(parts) => encode_multi(&parts),
            None => Vec::new(),
        };
        let all = self.broadcast_as(Coll::Allgather, 0, &encoded)?;
        decode_multi(&all)
    }

    /// Typed allgather: every rank receives every rank's slice.
    pub fn allgather<T: Pod>(&self, data: &[T]) -> Result<Vec<Vec<T>>> {
        self.allgather_bytes(bytes_of(data))?
            .iter()
            .map(|p| {
                vec_from_bytes(p)
                    .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: p.len() })
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Allreduce
    // ------------------------------------------------------------------

    /// Element-wise reduction delivered to all ranks: gathered at rank 0,
    /// folded there in rank order (deterministic for non-associative float
    /// ops) and broadcast. All ranks must contribute slices of the same
    /// length.
    pub fn allreduce<T: Pod>(&self, data: &[T], op: impl Fn(T, T) -> T) -> Result<Vec<T>> {
        let reduced = match self.gather_as(Coll::Allreduce, 0, bytes_of(data))? {
            None => Vec::new(),
            Some(parts) => {
                let mut acc = data.to_vec();
                for part in &parts[1..] {
                    let part = vec_from_bytes(part).filter(|p: &Vec<T>| p.len() == acc.len());
                    let part = part.ok_or_else(|| Error::CollectiveMismatch {
                        detail: "allreduce: contribution lengths differ across ranks".into(),
                    })?;
                    for (a, &b) in acc.iter_mut().zip(&part) {
                        *a = op(*a, b);
                    }
                }
                bytes_of(&acc).to_vec()
            }
        };
        let all = self.broadcast_as(Coll::Allreduce, 0, &reduced)?;
        vec_from_bytes(&all)
            .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: all.len() })
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
    /// This is the one-part case of [`Comm::alltoallw_parts`]: the same
    /// engine, aborting on the first failed source.
    pub fn alltoallw(
        &self,
        send_buf: &[u8],
        send_types: &[Datatype],
        recv_buf: &mut [u8],
        recv_types: &[Datatype],
    ) -> Result<()> {
        // An empty selection is no part at all; every other part lends the
        // one send buffer.
        fn part<'a, T>(x: &'a T, dt: &Datatype) -> &'a [T] {
            if *dt == Datatype::Empty {
                &[]
            } else {
                std::slice::from_ref(x)
            }
        }
        let parts: Vec<(usize, Datatype)> = send_types.iter().map(|dt| (0, *dt)).collect();
        let sends: Vec<&[(usize, Datatype)]> = parts.iter().map(|p| part(p, &p.1)).collect();
        let recvs: Vec<&[Datatype]> = recv_types.iter().map(|dt| part(dt, dt)).collect();
        // SAFETY: the receive engine only stores initialized bytes.
        let recv_buf = unsafe { as_uninit_mut(recv_buf) };
        self.alltoallw_impl(&[send_buf], &sends, recv_buf, &recvs, false).map(|_| ())
    }

    /// `MPI_Alltoallw` whose messages are lists of parts. For every
    /// destination `d`, `sends[d]` is an ordered list of `(buffer index,
    /// selection)` parts, each selecting from `bufs[index]`, packed back to
    /// back into one message; for every source `s`, `recvs[s]` is the
    /// ordered list of selections of `recv_buf` that source's message
    /// unpacks into. The self parts are copied pairwise, in order. The
    /// contract of [`Comm::alltoallw`] carries over per message: `sends[d]`
    /// on rank `r` packs to as many bytes as `recvs[r]` on rank `d` expects.
    ///
    /// The lists are slices, so a caller that runs the same exchange many
    /// times keeps them and binds only `bufs` per call. A part naming an
    /// index past `bufs`, or a selection reaching past its buffer, is an
    /// error before anything is sent.
    ///
    /// Every message is one loan of all its parts, whatever its size, and
    /// the receiver copies part `i` of the loan into its receive part `i`,
    /// so `sends[d]` and `recvs[r]` must also agree part by part (count, and
    /// each part's packed length and element size), as the self parts always
    /// must. A loan that does not is refused uncopied: the receiver reports
    /// [`Error::DatatypeMismatch`] and the sender counts the loan revoked.
    ///
    /// A failed receive from one source does not abort the exchange: the
    /// remaining sources are still drained so the maximum amount of data
    /// survives, and the per-source failures are reported in an
    /// [`ExchangeReport`]. Errors that indicate *this* rank cannot continue
    /// (it was fault-killed mid-exchange, or its own arguments are
    /// malformed) are still returned as `Err`.
    pub fn alltoallw_parts(
        &self,
        bufs: &[&[u8]],
        sends: &[&[(usize, Datatype)]],
        recv_buf: &mut [u8],
        recvs: &[&[Datatype]],
    ) -> Result<ExchangeReport> {
        // SAFETY: the receive engine only stores initialized bytes.
        self.alltoallw_impl(bufs, sends, unsafe { as_uninit_mut(recv_buf) }, recvs, true)
    }

    /// [`Comm::alltoallw_parts`] into storage that may be uninitialized, such
    /// as a fresh `Vec`'s spare capacity (see [`crate::uninit_bytes_of_mut`]).
    /// The exchange only stores into `recv_buf` and never reads it: a loan
    /// claim and the self-copy each write their receive parts and nothing
    /// else. So when the call returns `Ok` with a complete
    /// report, every byte of every selection in `recvs` is initialized;
    /// bytes outside them, or in the parts of a failed source, are left as
    /// they were.
    pub fn alltoallw_parts_uninit(
        &self,
        bufs: &[&[u8]],
        sends: &[&[(usize, Datatype)]],
        recv_buf: &mut [MaybeUninit<u8>],
        recvs: &[&[Datatype]],
    ) -> Result<ExchangeReport> {
        self.alltoallw_impl(bufs, sends, recv_buf, recvs, true)
    }

    /// The one engine behind [`Comm::alltoallw`] and
    /// [`Comm::alltoallw_parts`]: `salvage` decides whether a failed source
    /// aborts the exchange or is recorded in the report while the remaining
    /// sources are drained.
    ///
    /// Post-then-wait on an [`Exchange`] guard: the send phase lends each
    /// message eagerly, then `wait` drains every source.
    /// Whichever way the call leaves — clean, abort, a mid-post error, a
    /// panic — the guard drains or revokes its zero-copy loans.
    fn alltoallw_impl(
        &self,
        bufs: &[&[u8]],
        sends: &[&[(usize, Datatype)]],
        recv_buf: &mut [MaybeUninit<u8>],
        recvs: &[&[Datatype]],
        salvage: bool,
    ) -> Result<ExchangeReport> {
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
        // Every part names one of `bufs`, the self parts too: checked before
        // the first deposit, so a list naming a missing buffer sends nothing.
        if let Some((i, _)) =
            sends.iter().flat_map(|parts| parts.iter()).find(|p| p.0 >= bufs.len())
        {
            return Err(Error::CollectiveMismatch {
                detail: format!("alltoallw: a send part names buffer {i} of {}", bufs.len()),
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
            salvage,
            loans: Vec::new(),
            failed: Vec::new(),
            settled: false,
            _span: span,
        };

        // Send phase (buffered; parks only while a peer's mailbox holds this
        // pair's full depth). A deposit fails if this rank itself is dead —
        // a hard error even under salvage — or with a structured Timeout if
        // a full pair sees no pop for the whole watchdog window.
        for (d, parts) in sends.iter().enumerate() {
            if d == me || message_len(parts.iter().map(|(_, dt)| dt)) == 0 {
                continue;
            }
            // A loan a fault rule withheld has no cell: nothing to wait on.
            // SAFETY: `xchg` borrows `bufs` and `sends` for its whole life
            // and drains every loan before it ends, on every exit path.
            if let Some(cell) = unsafe { self.deposit_shared(d, tag, bufs, parts) }? {
                xchg.loans.push((d, cell));
            }
        }
        xchg.wait(recv_buf)
    }

    /// Place one received alltoallw message into `recv_buf` through its
    /// parts `dts`, in order: the loan is claimed once and each lent part
    /// copied straight out of the sender's buffers into the receive part it
    /// pairs with, in one traversal inside [`Comm::claim_loan`].
    fn deliver_alltoallw(
        &self,
        src: usize,
        env: Envelope,
        dts: &[Datatype],
        recv_buf: &mut [MaybeUninit<u8>],
    ) -> Result<()> {
        // Only alltoallw deposits under an alltoallw tag, and it only lends.
        let Payload::Shared(h) = env.payload else {
            return Err(Error::Internal {
                detail: format!("alltoallw: rank {src} sent owned bytes where a loan belongs"),
            });
        };
        // Parts pair in order, as the self parts do, so they must agree in
        // count, length and element size before anything is copied; a loan
        // that does not is refused under its claim, releasing its sender.
        let mut zc = None;
        let agree = |lent: &[(usize, Datatype)]| {
            let shape = |dt: &Datatype| (dt.packed_len(), dt.elem_size());
            let (lent, want) = (|| lent.iter().map(|p| shape(&p.1)), || dts.iter().map(shape));
            let pairs = |(a, b): ((usize, u32), (usize, u32))| a.0 == b.0 && elems_agree(a.1, b.1);
            if lent().count() != dts.len() || !lent().zip(want()).all(pairs) {
                let (lent, want): (Vec<_>, Vec<_>) = (lent().collect(), want().collect());
                return Err(Error::DatatypeMismatch {
                    detail: format!(
                        "a loan of (bytes, element size) parts {lent:?} from rank {src} into \
                         parts {want:?}"
                    ),
                });
            }
            zc = Some(ddrtrace::span_arg("minimpi", "zc_copy", "bytes", message_len(dts) as i64));
            Ok(())
        };
        // Each part is counted in this rank's slot by the tier that moved it.
        let copy = |i, lent: &[u8], dt: &Datatype| {
            copy_selection(lent, dt, recv_buf, &dts[i]).map(|(tier, n)| self.count(tier, n))
        };
        self.claim_loan(src, &h, agree, copy)
    }
}

/// Bytes one message of parts `dts` packs to.
fn message_len<'a>(dts: impl IntoIterator<Item = &'a Datatype>) -> usize {
    dts.into_iter().map(Datatype::packed_len).sum()
}

/// One alltoallw exchange between its send phase and its completion.
///
/// Soundness anchor of the zero-copy loan: send buffers and their part
/// lists are lent to peers as raw pointers, so the borrows the guard holds
/// must stay alive while any peer might still read them — and *every* exit
/// path must drain the loans. [`Exchange::wait`] does so on completion; the
/// `Drop` impl covers early exits (an abort, a mid-post error, a panic) by
/// revoking unclaimed loans immediately and waiting out claims already in
/// flight (a bounded memcpy).
struct Exchange<'a> {
    comm: &'a Comm,
    /// Key tag every message of this exchange travels under.
    tag: u64,
    bufs: &'a [&'a [u8]],
    sends: &'a [&'a [(usize, Datatype)]],
    recvs: &'a [&'a [Datatype]],
    salvage: bool,
    loans: Vec<(usize, Arc<ZcCell>)>,
    failed: Vec<(usize, Error)>,
    /// The exchange completed; Drop only drains loans. Left early, Drop
    /// sweeps the exchange's queued remainder first.
    settled: bool,
    /// Keeps the `minimpi/alltoallw` trace span open from post to
    /// completion, so phase tables attribute the full exchange lifetime.
    _span: ddrtrace::SpanGuard,
}

impl Exchange<'_> {
    /// Block until every source resolved, then drain the loans and report
    /// per-source failures (salvage mode), or abort on the first (plain
    /// mode) through Drop, which sweeps this exchange's queued remainder —
    /// revoking each queued loan — and revokes this rank's own loans.
    fn wait(mut self, recv_buf: &mut [MaybeUninit<u8>]) -> Result<ExchangeReport> {
        let comm = self.comm;
        let me = comm.rank();
        self.self_copy(recv_buf)?;
        // Receive phase: under salvage, drain every source and record
        // failures; otherwise abort on the first one.
        for (s, &dts) in self.recvs.iter().enumerate() {
            if s == me || message_len(dts) == 0 {
                continue;
            }
            let res = comm
                .take_envelope_from(s, self.tag)
                .and_then(|env| comm.deliver_alltoallw(s, env, dts, recv_buf));
            match res {
                Ok(()) => {}
                // Malformed local arguments are hard errors in both modes.
                Err(e @ (Error::DatatypeMismatch { .. } | Error::SizeMismatch { .. })) => {
                    return Err(e)
                }
                // Killed mid-drain: everything still missing is lost.
                Err(Error::PeerDead { rank }) if rank == me && !comm.is_alive(me) => {
                    return Err(Error::PeerDead { rank })
                }
                Err(e) if self.salvage => self.failed.push((s, e)),
                Err(e) => return Err(e),
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
        Ok(ExchangeReport { failed: std::mem::take(&mut self.failed) })
    }

    /// Self-transfer: the self parts paired in order, each a direct
    /// selection-to-selection copy (faults never apply to self-messages).
    fn self_copy(&self, recv_buf: &mut [MaybeUninit<u8>]) -> Result<()> {
        let me = self.comm.rank();
        let (sends, recvs) = (self.sends[me], self.recvs[me]);
        let (sent, expected) = (message_len(sends.iter().map(|(_, dt)| dt)), message_len(recvs));
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
        for ((i, send_dt), recv_dt) in sends.iter().zip(recvs) {
            let (tier, n) = copy_selection(self.bufs[*i], send_dt, recv_buf, recv_dt)?;
            self.comm.count(tier, n);
        }
        Ok(())
    }

    /// Wait until every loan was copied, revoked or refused, giving receivers
    /// until `deadline`. Returns the number revoked or refused.
    fn drain_loans(&mut self, deadline: Instant) -> u64 {
        let comm = self.comm;
        let mut revoked = 0;
        for (dest, cell) in self.loans.drain(..) {
            // A dead receiver can never claim the loan — revoke right away
            // rather than burning the watchdog.
            if cell.wait(comm.waiter(), deadline, || !comm.is_alive(dest)) == ZcWait::Revoked {
                ddrtrace::instant_arg("minimpi", "zc_revoke", "dest", dest as i64);
                revoked += 1;
            }
        }
        revoked
    }
}

impl Drop for Exchange<'_> {
    fn drop(&mut self) {
        if !self.settled {
            // Left early (an abort, a mid-post error or a panic): nobody will
            // receive the rest of this exchange, so drop what is queued under
            // its tag. Each dropped loan is revoked, so a departing receiver
            // cannot strand a healthy sender on the watchdog.
            let (id, tag) = (self.comm.comm_id, self.tag);
            let swept = self.comm.my_mailbox().discard(|key, _| (key.0, key.2) == (id, tag));
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

/// Per-source outcome of a salvaged exchange: which sources failed to
/// deliver, and why.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExchangeReport {
    /// `(source rank, error)` for every source whose contribution was lost.
    pub failed: Vec<(usize, Error)>,
}

impl ExchangeReport {
    /// True when every source delivered.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::mix64;
    use crate::Universe;
    use std::time::Duration;

    /// A damaged `encode_multi` header — a count that wraps `8 + 8 * n`, a
    /// length that overflows the cursor — is a structured error, not a panic.
    #[test]
    fn decode_multi_rejects_overflowing_headers() {
        let good = encode_multi(&[vec![1, 2, 3], vec![4]]);
        assert_eq!(decode_multi(&good).unwrap(), [vec![1, 2, 3], vec![4]]);
        for (word, value) in [(0, 1u64 << 61), (1, u64::MAX)] {
            let mut bad = good.clone();
            bad[8 * word..8 * word + 8].copy_from_slice(&value.to_le_bytes());
            assert!(matches!(decode_multi(&bad), Err(Error::SizeMismatch { .. })), "word {word}");
        }
    }

    /// A receiver that aborts an exchange early (because some *other*
    /// source died) must not strand a healthy sender's zero-copy loan until
    /// the watchdog fires. Seeded over several message sizes, with the loan
    /// under test of one part and of two.
    ///
    /// Geometry per run (3 ranks, zero-copy):
    /// * rank 0 hand-deposits a loan to rank 1 under the exchange's tag,
    ///   then departs — so rank 1's receive phase succeeds while rank 2's
    ///   aborts with `PeerDead { rank: 0 }`.
    /// * rank 1 lends `len` bytes to rank 2, as one part or two, and
    ///   completes cleanly; without the abort-path sweep it would sit in
    ///   `Exchange::wait` for the full watchdog, because rank 2 is alive but
    ///   has left the exchange with the loan still queued.
    /// * rank 2 waits until rank 1's loan is queued (making the stranding
    ///   deterministic), then aborts on the dead source.
    #[test]
    fn departing_receiver_revokes_unclaimed_loans() {
        for (seed, nparts) in (0..6u64).flat_map(|seed| [(seed, 1), (seed, 2)]) {
            let len = 32 + (mix64(seed ^ 0xA11_0C8) % 4096) as usize;
            let watchdog = Duration::from_secs(30);
            let start = Instant::now();
            // Rank 0's lent buffer and tables: owned out here, so they outlive
            // every rank thread of `run` and are freed after it returns.
            let lent = vec![0xAB; len];
            let lent_bufs: [&[u8]; 1] = [&lent];
            let lent_parts = [(0, Datatype::Contiguous { len_bytes: len, offset: 0 })];
            let out = Universe::builder().timeout(watchdog).run(3, |comm| {
                let me = comm.rank();
                let tag = coll_key_tag(0, Coll::Alltoallw, 0);
                let contig = |offset, len_bytes| Datatype::Contiguous { len_bytes, offset };
                if me == 0 {
                    // Loan to rank 1 only, then die with it outstanding.
                    // SAFETY: nobody waits on the cell, but `lent_bufs` and
                    // `lent_parts` outlive the run and so every read of them.
                    let cell = unsafe { comm.deposit_shared(1, tag, &lent_bufs, &lent_parts) };
                    drop(cell.unwrap());
                    return Ok(());
                }
                if me == 1 {
                    let send = vec![1u8; len];
                    let mut recv = vec![0u8; len];
                    // The loan under test → rank 2, in `nparts` parts.
                    let half = len / 2;
                    let lent = match nparts {
                        1 => vec![(0, contig(0, len))],
                        _ => vec![(0, contig(half, len - half)), (0, contig(0, half))],
                    };
                    let sends: [&[_]; 3] = [&[], &[], &lent];
                    let recvs: [&[_]; 3] = [&[contig(0, len)], &[], &[]]; // rank 0's hand deposit
                    let res = comm.alltoallw_parts(&[&send], &sends, &mut recv, &recvs);
                    assert_eq!(recv, vec![0xAB; len]);
                    // The loan to rank 2 must have come back *revoked* —
                    // this rank counted it on its own completion path.
                    assert!(comm.counters()[Counter::RevokedMsgs] >= 1);
                    return res.map(|report| assert!(report.is_complete(), "{report:?}"));
                }
                // Rank 2: make sure rank 1's loan is already queued, so the
                // abort below is what must release it.
                let key = (0u64, 1usize, tag);
                while !comm.my_mailbox().contains(key) {
                    std::thread::yield_now();
                }
                let mut recv = vec![0u8; 2 * len];
                let empty = Datatype::Empty;
                let rt = [contig(0, len), contig(len, len), empty];
                comm.alltoallw(&[], &[empty; 3], &mut recv, &rt)
            });
            let elapsed = start.elapsed();
            let case = format!("seed {seed}, {nparts} part(s)");
            assert_eq!(out[0], Ok(()), "{case}");
            assert_eq!(out[1], Ok(()), "{case}: sender must complete");
            assert_eq!(out[2], Err(Error::PeerDead { rank: 0 }), "{case}");
            // Liveness: nowhere near the watchdog. Without the sweep, rank 1
            // burns the full 30 s waiting on its loan.
            assert!(
                elapsed < Duration::from_secs(10),
                "{case}: took {elapsed:?}, a loan was stranded"
            );
        }
    }
}
