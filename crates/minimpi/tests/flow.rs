//! Integration tests for the per-pair mailbox bound: a full pair parks its
//! sender, a park that sees no pop fails structurally, a dead receiver
//! unparks it, and a shrink hands stranded slots back.

use minimpi::{Counter, Error, Universe};
use std::time::{Duration, Instant};

/// A sender whose window fills against a live but unresponsive peer must
/// fail with a *structured* error after bounded waiting — not hang until
/// the harness gives up, and not report the peer dead.
#[test]
fn full_window_with_no_progress_times_out_structurally() {
    let out = Universe::builder().flow_control(1, 1 << 20).timeout(Duration::from_millis(200)).run(
        2,
        |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, &[1u8; 32]).unwrap(); // fills the window
                let start = Instant::now();
                let err = comm.send(1, 9, &[2u8; 32]).unwrap_err();
                Some((err, start.elapsed()))
            } else {
                // Alive the whole time, never receiving.
                std::thread::sleep(Duration::from_secs(3));
                None
            }
        },
    );
    let (err, elapsed) = out[0].clone().unwrap();
    assert!(
        matches!(err, Error::Timeout { rank: 0, src: Some(1), tag: 9, .. }),
        "credit starvation must surface as a structured timeout, got: {err}"
    );
    // The parked op is a send: its message must not call it a receive.
    assert!(!err.to_string().contains("receive"), "{err}");
    assert!(elapsed >= Duration::from_millis(200), "gave up early: {elapsed:?}");
    assert!(elapsed < Duration::from_millis(400), "one timeout, not more: took {elapsed:?}");
}

/// A sender parked on a full pair whose receiver then dies must unpark with
/// `PeerDead` naming the receiver — promptly, not after the watchdog.
#[test]
fn parked_sender_unparks_into_peer_dead_when_the_receiver_dies() {
    let out = Universe::builder().flow_control(1, 1 << 20).timeout(Duration::from_secs(30)).run(
        2,
        |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, &[1u8; 32]).unwrap(); // fills the pair
                let start = Instant::now();
                let err = comm.send(1, 9, &[2u8; 32]).unwrap_err();
                Some((err, start.elapsed(), comm.counters()[Counter::CreditWaits]))
            } else {
                // Leave (= die) only once rank 0 is parked behind its first
                // message, which this rank never takes.
                while comm.counters()[Counter::CreditWaits] == 0 {
                    std::thread::yield_now();
                }
                None
            }
        },
    );
    let (err, elapsed, waits) = out[0].clone().unwrap();
    assert_eq!(err, Error::PeerDead { rank: 1 });
    assert_eq!(waits, 1);
    assert!(elapsed < Duration::from_secs(10), "death must unpark, took {elapsed:?}");
}

/// A shrink leaves no stranded credits: survivor→survivor messages still
/// queued on the parent communicator are discarded at the shrink and hand
/// their slots back, so a window filled on the parent is whole on the child —
/// no leaked credits (which would shrink the window forever), and nothing
/// from the parent is delivered on the child.
#[test]
fn shrink_returns_stranded_credits() {
    let out = Universe::builder().flow_control(2, 1 << 20).timeout(Duration::from_millis(500)).run(
        3,
        |comm| {
            if comm.rank() == 2 {
                return Vec::new(); // departs: the others shrink without it
            }
            if comm.rank() == 0 {
                // Fill the whole window with messages rank 1 never takes.
                comm.send(1, 7, &[1u8; 128]).unwrap();
                comm.send(1, 7, &[2u8; 128]).unwrap();
            }
            let child = comm.shrink().unwrap();
            assert_eq!(child.size(), 2);
            if child.rank() == 0 {
                // The shrink returned both slots: a full window's worth of
                // sends goes through without parking out the watchdog.
                let start = Instant::now();
                child.send(1, 7, &[3u8; 128]).unwrap();
                child.send(1, 7, &[4u8; 128]).unwrap();
                assert!(start.elapsed() < Duration::from_millis(400));
                Vec::new()
            } else {
                let a = child.recv_bytes(0, 7).unwrap();
                let b = child.recv_bytes(0, 7).unwrap();
                vec![a[0], b[0]]
            }
        },
    );
    assert_eq!(out[1], vec![3, 4], "only the child's messages are delivered");
}

/// Byte credits are a window too: a pair saturated by bytes (not message
/// count) parks and resumes exactly like the message window.
#[test]
fn byte_window_backpressures_independently_of_message_window() {
    let out = Universe::builder()
        .flow_control(1024, 256) // generous messages, tight bytes
        .timeout(Duration::from_secs(5))
        .run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..6u8 {
                    comm.send(1, 3, &[i; 200]).unwrap(); // 200 of 256 bytes
                }
                comm.counters()[Counter::CreditWaits]
            } else {
                std::thread::sleep(Duration::from_millis(100));
                for i in 0..6u8 {
                    let m = comm.recv_bytes(0, 3).unwrap();
                    assert_eq!(m, vec![i; 200]);
                }
                0
            }
        });
    assert!(out[0] >= 1, "200-byte sends through a 256-byte window must park");
}

/// Both ranks post two sends into 1-message windows before either receives,
/// so each parks on a full pair that only the other's receive could free.
/// The watchdog ends it in a structured `Timeout` naming the peer.
#[test]
fn head_of_line_credit_deadlock_times_out() {
    let out = Universe::builder().flow_control(1, 1 << 20).timeout(Duration::from_millis(300)).run(
        2,
        |comm| {
            let other = 1 - comm.rank();
            comm.send_bytes(other, 3, &[1u8; 32])?;
            comm.send_bytes(other, 3, &[2u8; 32])?;
            comm.recv_bytes(other, 3)?;
            comm.recv_bytes(other, 3).map(drop)
        },
    );
    let cause = Error::root_cause(out);
    assert!(matches!(cause, Err(Error::Timeout { src: Some(_), tag: 3, .. })), "{cause:?}");
}

/// A ring of sends through 1-message windows: each iteration's send races
/// the downstream drain and parks on losing interleavings, and each receive
/// gives the upstream pair its slot back, so every byte arrives. Repeated,
/// because which sends park varies from run to run.
#[test]
fn credit_gated_ring_delivers_exact_bytes() {
    let n = 3usize;
    for _ in 0..16 {
        let out = Universe::builder()
            .flow_control(1, 256)
            .timeout(Duration::from_secs(10))
            .try_run(n, |comm| {
                let me = comm.rank();
                let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
                for i in 0..4u8 {
                    comm.send_bytes(next, 5, &[(me as u8) ^ i; 96])?;
                    assert_eq!(comm.recv_bytes(prev, 5)?, vec![(prev as u8) ^ i; 96]);
                }
                Ok(())
            });
        assert_eq!(out, Ok(vec![(); n]));
    }
}
