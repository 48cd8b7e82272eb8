//! End-to-end payload integrity: seeded envelope checksums.
//!
//! Every envelope of *staged* bytes a rank deposits — point-to-point sends
//! and collective fragments alike — carries a 64-bit checksum computed at
//! pack time over the *pristine* payload and verified at match time, so
//! corruption on the wire (modelled by [`crate::FaultPlan`]'s `Corrupt`
//! rules) is detected instead of sailing silently into the receiver's
//! buffer. Detection is all there is: a corrupt payload becomes
//! `Error::IntegrityFailure`, and nothing repairs it. A staged payload is a
//! pooled buffer that never leaves the process, so only an injected
//! `Corrupt` rule can damage one. A zero-copy loan is outside the plane: it
//! is a pointer hand-off with no wire copy to damage (see
//! `Comm::deposit_shared`), and any fault plan stages every message.
//!
//! The hash folds 8-byte chunks into four independent lanes (lane = absolute
//! chunk index mod 4) with one odd-constant multiply per chunk
//! (`lane = (lane ^ chunk) * FOLD`), then finishes the lanes through the
//! crate's standard splitmix64 finalizer. Four lanes break the serial
//! dependency that makes a single chained hash latency-bound — the fold runs
//! at memory bandwidth (~8× a chained `mix64` per chunk), which is what
//! keeps checksums affordable as the *default*. Every fold is a bijection of
//! its lane, so flipping any single payload bit changes exactly one lane —
//! and the final value — with certainty, which is what the single-bit-flip
//! property test pins down. The lanes are seeded per message stream
//! (communicator, sender, tag, epoch) so a payload replayed on the wrong
//! stream can never verify.
//!
//! Checksumming is **on by default**; `DDR_CHECKSUM=0` (or
//! [`crate::UniverseBuilder::checksum`]) disables it, and the disabled path
//! costs one branch per deposit. What the enabled path costs is the
//! benchmark's `p2p.checksum_ratio_staged`: staged message time with the
//! checksum ÷ with `DDR_CHECKSUM=0`, on each workload's own message size.

use crate::fault::mix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Streaming 64-bit checksum over a (possibly discontiguous) byte sequence.
///
/// Feeding the same bytes in different split points yields the same value,
/// so hashing a selection run-by-run equals hashing its packed form — the
/// property that lets the hash fold into the pack and unpack copies instead
/// of taking a pass of its own.
#[derive(Debug, Clone)]
pub(crate) struct Checksum {
    /// Four independent accumulation chains; chunk `i` folds into lane
    /// `i mod 4`, so the assignment depends only on absolute position, not
    /// on how callers split their `update` calls.
    lanes: [u64; 4],
    /// Absolute index of the next 8-byte chunk.
    chunk_idx: u64,
    /// Partial chunk not yet folded in (little-endian, low `pending_len`
    /// bytes valid).
    pending: u64,
    pending_len: u32,
    total: u64,
}

/// Per-chunk fold multiplier. Odd, so `lane -> (lane ^ chunk) * FOLD` is a
/// bijection in both the lane state and the chunk — the property the
/// single-bit-flip guarantee rests on. Diffusion across lanes happens once,
/// in [`Checksum::finish`].
const FOLD: u64 = 0x9E37_79B9_7F4A_7C15;

impl Checksum {
    /// Start a checksum for one message stream.
    pub fn new(seed: u64) -> Self {
        let base = mix64(seed ^ 0x1DE7_EC7E_D0C5);
        Checksum {
            lanes: [
                base,
                mix64(base ^ 0x9E37_79B9_7F4A_7C15),
                mix64(base ^ 0xC2B2_AE3D_27D4_EB4F),
                mix64(base ^ 0x1656_67B1_9E37_79F9),
            ],
            chunk_idx: 0,
            pending: 0,
            pending_len: 0,
            total: 0,
        }
    }

    #[inline]
    fn fold(&mut self, chunk: u64) {
        let l = (self.chunk_idx & 3) as usize;
        self.lanes[l] = (self.lanes[l] ^ chunk).wrapping_mul(FOLD);
        self.chunk_idx += 1;
    }

    /// Fold `bytes` into the running state.
    pub fn update(&mut self, bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        self.fold_bytes(bytes);
    }

    /// [`Checksum::update`] fused with a copy: appends `src` to `out` and
    /// folds it into the state in the same pass, loading each 32-byte group
    /// once for both the store and the lane multiplies. Bit-identical to
    /// `out.extend_from_slice(src); self.update(src)` — this is the kernel
    /// behind checksum-during-pack ([`crate::kernels`]), where the separate
    /// hash pass would double the memory traffic of a fused (single-run)
    /// pack.
    pub fn update_copying(&mut self, src: &[u8], out: &mut Vec<u8>) {
        self.total = self.total.wrapping_add(src.len() as u64);
        if self.pending_len > 0 {
            // Mid-chunk state: rare (only multi-run selections with non-8×
            // run lengths), and the realignment bookkeeping would dominate —
            // take the two-pass route.
            out.extend_from_slice(src);
            self.fold_bytes(src);
            return;
        }
        let p = (self.chunk_idx & 3) as usize;
        let mut l0 = self.lanes[p];
        let mut l1 = self.lanes[(p + 1) & 3];
        let mut l2 = self.lanes[(p + 2) & 3];
        let mut l3 = self.lanes[(p + 3) & 3];
        let start = out.len();
        out.reserve(src.len());
        let mut groups = src.chunks_exact(32);
        let ngroups = src.len() / 32;
        // SAFETY: `reserve` guarantees `src.len()` spare bytes after
        // `start`; the loop writes exactly `32 * ngroups` of them before
        // `set_len`. The stored bytes are the loaded bytes
        // (`from_le_bytes`/`to_le_bytes` round-trip), so the copy is exact.
        unsafe {
            let mut dst = out.as_mut_ptr().add(start);
            for g in &mut groups {
                let c0 = u64::from_le_bytes(g[0..8].try_into().unwrap());
                let c1 = u64::from_le_bytes(g[8..16].try_into().unwrap());
                let c2 = u64::from_le_bytes(g[16..24].try_into().unwrap());
                let c3 = u64::from_le_bytes(g[24..32].try_into().unwrap());
                (dst as *mut [u8; 8]).write_unaligned(c0.to_le_bytes());
                (dst.add(8) as *mut [u8; 8]).write_unaligned(c1.to_le_bytes());
                (dst.add(16) as *mut [u8; 8]).write_unaligned(c2.to_le_bytes());
                (dst.add(24) as *mut [u8; 8]).write_unaligned(c3.to_le_bytes());
                l0 = (l0 ^ c0).wrapping_mul(FOLD);
                l1 = (l1 ^ c1).wrapping_mul(FOLD);
                l2 = (l2 ^ c2).wrapping_mul(FOLD);
                l3 = (l3 ^ c3).wrapping_mul(FOLD);
                dst = dst.add(32);
            }
            out.set_len(start + 32 * ngroups);
        }
        self.lanes[p] = l0;
        self.lanes[(p + 1) & 3] = l1;
        self.lanes[(p + 2) & 3] = l2;
        self.lanes[(p + 3) & 3] = l3;
        self.chunk_idx += 4 * ngroups as u64;
        let tail = groups.remainder();
        out.extend_from_slice(tail);
        self.fold_tail(tail);
    }

    /// [`Checksum::update_copying`] for an initialized slice destination:
    /// copies `src` into `dst` (equal lengths) and folds it in the same
    /// pass. Bit-identical to `dst.copy_from_slice(src); self.update(src)`
    /// — the kernel behind verify-during-unpack when no installed fault plan
    /// can corrupt, where a second hash pass over the payload was the last
    /// remaining double traversal.
    pub fn update_copying_to(&mut self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "copy-fold length mismatch");
        self.total = self.total.wrapping_add(src.len() as u64);
        if self.pending_len > 0 {
            // Mid-chunk state: rare, take the two-pass route (see
            // `update_copying`).
            dst.copy_from_slice(src);
            self.fold_bytes(src);
            return;
        }
        let p = (self.chunk_idx & 3) as usize;
        let mut l0 = self.lanes[p];
        let mut l1 = self.lanes[(p + 1) & 3];
        let mut l2 = self.lanes[(p + 2) & 3];
        let mut l3 = self.lanes[(p + 3) & 3];
        let mut groups = src.chunks_exact(32);
        let ngroups = src.len() / 32;
        // SAFETY: `dst` is at least as long as `src` (asserted above); the
        // loop writes exactly `32 * ngroups <= src.len()` bytes. The stored
        // bytes are the loaded bytes (`from_le_bytes`/`to_le_bytes`
        // round-trip), so the copy is exact.
        unsafe {
            let mut out = dst.as_mut_ptr();
            for g in &mut groups {
                let c0 = u64::from_le_bytes(g[0..8].try_into().unwrap());
                let c1 = u64::from_le_bytes(g[8..16].try_into().unwrap());
                let c2 = u64::from_le_bytes(g[16..24].try_into().unwrap());
                let c3 = u64::from_le_bytes(g[24..32].try_into().unwrap());
                (out as *mut [u8; 8]).write_unaligned(c0.to_le_bytes());
                (out.add(8) as *mut [u8; 8]).write_unaligned(c1.to_le_bytes());
                (out.add(16) as *mut [u8; 8]).write_unaligned(c2.to_le_bytes());
                (out.add(24) as *mut [u8; 8]).write_unaligned(c3.to_le_bytes());
                l0 = (l0 ^ c0).wrapping_mul(FOLD);
                l1 = (l1 ^ c1).wrapping_mul(FOLD);
                l2 = (l2 ^ c2).wrapping_mul(FOLD);
                l3 = (l3 ^ c3).wrapping_mul(FOLD);
                out = out.add(32);
            }
        }
        self.lanes[p] = l0;
        self.lanes[(p + 1) & 3] = l1;
        self.lanes[(p + 2) & 3] = l2;
        self.lanes[(p + 3) & 3] = l3;
        self.chunk_idx += 4 * ngroups as u64;
        let tail = groups.remainder();
        dst[32 * ngroups..].copy_from_slice(tail);
        self.fold_tail(tail);
    }

    /// Fold `bytes` without touching the length accumulator (shared by
    /// [`Checksum::update`] and the fused-copy path, which account for the
    /// length themselves).
    fn fold_bytes(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        // Top up a partial chunk first so chunk boundaries are independent of
        // how the caller split the byte sequence.
        if self.pending_len > 0 {
            let need = (8 - self.pending_len) as usize;
            let take = need.min(rest.len());
            for &b in &rest[..take] {
                self.pending |= (b as u64) << (8 * self.pending_len);
                self.pending_len += 1;
            }
            rest = &rest[take..];
            if self.pending_len == 8 {
                let chunk = self.pending;
                self.fold(chunk);
                self.pending = 0;
                self.pending_len = 0;
            }
        }
        // Bulk: one 32-byte group per iteration touches each lane exactly
        // once, so the four multiplies are independent and pipeline — this
        // is what makes the hash memory-bound instead of latency-bound. The
        // lane phase `p` is invariant across groups (chunk_idx += 4), so the
        // four lanes live in registers for the whole loop instead of
        // round-tripping through `self.lanes` every group.
        let p = (self.chunk_idx & 3) as usize;
        let mut l0 = self.lanes[p];
        let mut l1 = self.lanes[(p + 1) & 3];
        let mut l2 = self.lanes[(p + 2) & 3];
        let mut l3 = self.lanes[(p + 3) & 3];
        let mut groups = rest.chunks_exact(32);
        let ngroups = rest.len() / 32;
        for g in &mut groups {
            let c0 = u64::from_le_bytes(g[0..8].try_into().unwrap());
            let c1 = u64::from_le_bytes(g[8..16].try_into().unwrap());
            let c2 = u64::from_le_bytes(g[16..24].try_into().unwrap());
            let c3 = u64::from_le_bytes(g[24..32].try_into().unwrap());
            l0 = (l0 ^ c0).wrapping_mul(FOLD);
            l1 = (l1 ^ c1).wrapping_mul(FOLD);
            l2 = (l2 ^ c2).wrapping_mul(FOLD);
            l3 = (l3 ^ c3).wrapping_mul(FOLD);
        }
        self.lanes[p] = l0;
        self.lanes[(p + 1) & 3] = l1;
        self.lanes[(p + 2) & 3] = l2;
        self.lanes[(p + 3) & 3] = l3;
        self.chunk_idx += 4 * ngroups as u64;
        self.fold_tail(groups.remainder());
    }

    /// Fold the sub-32-byte remainder of a bulk loop: whole 8-byte chunks,
    /// then buffer the partial chunk.
    fn fold_tail(&mut self, tail: &[u8]) {
        let mut chunks = tail.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().unwrap()));
        }
        for &b in chunks.remainder() {
            self.pending |= (b as u64) << (8 * self.pending_len);
            self.pending_len += 1;
        }
    }

    /// Finish the hash. Length is folded in so a truncated payload whose
    /// missing tail happened to be zeros still mismatches.
    pub fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            // Tag the tail with its length so `[0]` and `[0, 0]` differ even
            // before the final length fold.
            let chunk = self.pending ^ ((self.pending_len as u64) << 56);
            self.fold(chunk);
        }
        // Combine: bijective in each lane with the others held fixed, so a
        // change confined to one lane (e.g. a single flipped bit) always
        // reaches the final value.
        let mut h = self.total;
        for &l in &self.lanes {
            h = mix64(h ^ l);
        }
        h
    }
}

/// One-shot checksum of a contiguous payload.
pub(crate) fn checksum64(seed: u64, bytes: &[u8]) -> u64 {
    let mut c = Checksum::new(seed);
    c.update(bytes);
    c.finish()
}

/// Per-stream checksum seed: binds a payload to its communicator, sender,
/// tag, and membership epoch, so a (hypothetically) misrouted or replayed
/// envelope fails verification even if its bytes are intact.
pub(crate) fn stream_seed(comm_id: u64, src: usize, key_tag: u64, epoch: u64) -> u64 {
    mix64(mix64(comm_id ^ mix64(key_tag)) ^ mix64(src as u64 ^ (epoch << 32)))
}

/// Integrity-plane counters, snapshotted per universe (see
/// [`crate::Comm::integrity_counters`]) and exported as `integrity.*`
/// metrics in the ddr-trace report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityCounters {
    /// Staged-payload verifications performed (a loan carries no checksum).
    pub checked: u64,
    /// Verifications that failed — corruption detected before delivery.
    pub detected: u64,
}

/// Atomic backing store for [`IntegrityCounters`], kept on the world state.
#[derive(Debug, Default)]
pub(crate) struct IntegrityCells {
    pub checked: AtomicU64,
    pub detected: AtomicU64,
}

impl IntegrityCells {
    pub fn snapshot(&self) -> IntegrityCounters {
        IntegrityCounters {
            checked: self.checked.load(Ordering::Relaxed),
            detected: self.detected.load(Ordering::Relaxed),
        }
    }
}

/// `DDR_CHECKSUM`: envelope checksumming, **on** unless explicitly disabled.
pub(crate) fn checksum_env_default() -> bool {
    crate::env::flag("DDR_CHECKSUM").unwrap_or(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_points_do_not_change_the_hash() {
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        let whole = checksum64(42, &data);
        for split in [0usize, 1, 3, 7, 8, 9, 64, 255, 776, 777] {
            let mut c = Checksum::new(42);
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
        // Byte-at-a-time must agree too (the zero-copy run walk can produce
        // arbitrarily small runs).
        let mut c = Checksum::new(42);
        for b in &data {
            c.update(std::slice::from_ref(b));
        }
        assert_eq!(c.finish(), whole);
    }

    #[test]
    #[ignore = "manual throughput probe"]
    fn hash_throughput_probe() {
        let data = vec![0xA5u8; 1 << 16];
        let mut h = 0u64;
        let start = std::time::Instant::now();
        let iters = 4096u32;
        for i in 0..iters {
            h ^= checksum64(i as u64, &data);
        }
        let el = start.elapsed();
        let gbs = (data.len() as f64 * iters as f64) / el.as_secs_f64() / 1e9;
        println!("checksum64 64KiB: {gbs:.2} GB/s ({el:?} total, h={h})");
    }

    #[test]
    fn update_copying_matches_two_pass() {
        let data = gen_payload(5, 4097);
        // `pre` bytes fed first set up the interesting starting states:
        // chunk-aligned (fast path, phase 0), phase ≠ 0 (pre = 8, 24), and a
        // buffered partial chunk (pre = 3, 13 → two-pass fallback).
        for pre in [0usize, 3, 8, 13, 24, 32] {
            for len in [0usize, 1, 7, 8, 31, 32, 33, 64, 801, 4000] {
                let (head, body) = (&data[..pre], &data[pre..pre + len]);
                let mut reference = Checksum::new(77);
                reference.update(head);
                let mut fused = reference.clone();
                let mut out = vec![0xEEu8; 5];
                fused.update_copying(body, &mut out);
                assert_eq!(&out[..5], &[0xEE; 5], "pre {pre} len {len}");
                assert_eq!(&out[5..], body, "pre {pre} len {len}");
                reference.update(body);
                assert_eq!(fused.finish(), reference.finish(), "pre {pre} len {len}");
            }
        }
    }

    #[test]
    fn update_copying_to_matches_two_pass() {
        let data = gen_payload(6, 4097);
        for pre in [0usize, 3, 8, 13, 24, 32] {
            for len in [0usize, 1, 7, 8, 31, 32, 33, 64, 801, 4000] {
                let (head, body) = (&data[..pre], &data[pre..pre + len]);
                let mut reference = Checksum::new(78);
                reference.update(head);
                let mut fused = reference.clone();
                let mut dst = vec![0u8; len];
                fused.update_copying_to(body, &mut dst);
                assert_eq!(dst, body, "pre {pre} len {len}");
                reference.update(body);
                assert_eq!(fused.finish(), reference.finish(), "pre {pre} len {len}");
            }
        }
    }

    #[test]
    fn seed_and_length_are_bound() {
        assert_ne!(checksum64(1, b"hello"), checksum64(2, b"hello"));
        assert_ne!(checksum64(1, &[0u8; 4]), checksum64(1, &[0u8; 5]));
        assert_ne!(checksum64(1, &[]), checksum64(1, &[0]));
        // Tail content matters even when zero-padded chunks would collide.
        assert_ne!(checksum64(1, &[1, 0, 0]), checksum64(1, &[1, 0]));
    }

    #[test]
    fn stream_seed_separates_streams() {
        let base = stream_seed(7, 1, 99, 0);
        assert_ne!(base, stream_seed(8, 1, 99, 0), "comm");
        assert_ne!(base, stream_seed(7, 2, 99, 0), "src");
        assert_ne!(base, stream_seed(7, 1, 98, 0), "tag");
        assert_ne!(base, stream_seed(7, 1, 99, 1), "epoch");
    }

    #[test]
    fn single_bit_flips_always_detected_smoke() {
        // The randomized property tests follow below; this is the cheap,
        // exhaustive-over-a-small-payload smoke.
        let data = vec![0xA5u8; 96];
        let clean = checksum64(9, &data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut fl = data.clone();
                fl[byte] ^= 1 << bit;
                assert_ne!(checksum64(9, &fl), clean, "flip {byte}:{bit} undetected");
            }
        }
    }

    /// Deterministic pseudo-random payload so property cases over 100 KiB+
    /// payloads don't pay proptest's per-byte value-tree cost.
    fn gen_payload(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|i| {
                if i % 8 == 0 {
                    s = mix64(s);
                }
                (s >> (8 * (i % 8))) as u8
            })
            .collect()
    }

    mod props {
        use super::*;
        use crate::fault::Keystream;
        use proptest::prelude::*;

        /// Sizes spanning the zero-copy threshold (`DDR_ZC_THRESHOLD`,
        /// default 64 KiB): messages of every one of these lengths are
        /// staged, and hashed, whenever loans are off or a fault plan is
        /// installed. `size_class` picks the band, `len_seed` picks the
        /// exact length within it.
        fn pick_len(size_class: usize, len_seed: u64) -> usize {
            match size_class {
                0 => 1 + (len_seed as usize % 511),         // always staged
                1 => 60_000 + (len_seed as usize % 10_000), // around the threshold
                2 => 65_536,                                // exactly at threshold
                _ => 65_537,                                // first loan-sized length
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every single-bit flip changes the checksum: each chunk fold is
            /// a bijection of the running state, so there is no position or
            /// payload where one flipped bit cancels out.
            #[test]
            fn single_bit_flip_is_always_detected(
                seed in any::<u64>(),
                size_class in 0usize..4,
                len_seed in any::<u64>(),
                pos_seed in any::<u64>(),
                bit in 0u8..8,
            ) {
                let len = pick_len(size_class, len_seed);
                let data = gen_payload(seed, len);
                let clean = checksum64(seed ^ 1, &data);
                let mut fl = data;
                let at = pos_seed as usize % len;
                fl[at] ^= 1 << bit;
                prop_assert_ne!(checksum64(seed ^ 1, &fl), clean);
            }

            /// Every fault-injector keystream scramble is detected: keystream
            /// bytes are never zero (low bit forced), so at least the first
            /// payload byte always changes, and the hash with it.
            #[test]
            fn keystream_scramble_is_always_detected(
                seed in any::<u64>(),
                ks_init in any::<u64>(),
                size_class in 0usize..4,
                len_seed in any::<u64>(),
            ) {
                let len = pick_len(size_class, len_seed);
                let data = gen_payload(seed, len);
                let clean = checksum64(seed, &data);
                let mut scrambled = data;
                Keystream::new(ks_init).scramble(&mut scrambled);
                prop_assert_ne!(checksum64(seed, &scrambled), clean);
            }

            /// Split-point independence over arbitrary run boundaries — the
            /// exact property the pack- and unpack-fused folds rely on.
            #[test]
            fn arbitrary_run_splits_hash_identically(
                seed in any::<u64>(),
                len in 1usize..4096,
                cut_seeds in prop::collection::vec(any::<u64>(), 0..6),
            ) {
                let data = gen_payload(seed, len);
                let whole = checksum64(seed, &data);
                let mut offsets: Vec<usize> =
                    cut_seeds.iter().map(|c| *c as usize % (len + 1)).collect();
                offsets.push(0);
                offsets.push(len);
                offsets.sort_unstable();
                let mut c = Checksum::new(seed);
                for w in offsets.windows(2) {
                    c.update(&data[w[0]..w[1]]);
                }
                prop_assert_eq!(c.finish(), whole);
            }
        }
    }
}
