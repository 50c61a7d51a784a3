//! Unit and randomized (seeded, deterministic) tests for the matching engine.

use std::sync::Arc;

use fairmpi_fabric::{Envelope, Packet, ANY_SOURCE, ANY_TAG};
use fairmpi_spc::{Counter, SpcSet};

use crate::{MatchEvent, Matcher, PostOutcome, PostedRecv};

fn matcher(overtaking: bool) -> Matcher {
    Matcher::new(Arc::new(SpcSet::new()), overtaking)
}

fn pkt(src: u32, tag: i32, comm: u32, seq: u64) -> Packet {
    Packet::eager(
        Envelope {
            src,
            dst: 0,
            comm,
            tag,
            seq,
        },
        vec![],
    )
}

fn recv(token: u64, src: i32, tag: i32, comm: u32) -> PostedRecv {
    PostedRecv {
        token,
        comm,
        src,
        tag,
    }
}

#[test]
fn in_sequence_message_matches_posted_receive() {
    let mut m = matcher(false);
    let (outcome, _) = m.post_recv(recv(7, 1, 5, 0));
    assert_eq!(outcome, PostOutcome::Posted);
    let mut out = Vec::new();
    let work = m.deliver(pkt(1, 5, 0, 0), &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].token, 7);
    assert_eq!(work.matches, 1);
    assert_eq!(work.seq_checks, 1);
    assert_eq!(m.posted_len(), 0);
}

#[test]
fn unmatched_message_goes_to_unexpected_queue() {
    let mut m = matcher(false);
    let mut out = Vec::new();
    let work = m.deliver(pkt(1, 5, 0, 0), &mut out);
    assert!(out.is_empty());
    assert_eq!(work.unexpected, 1);
    assert_eq!(m.unexpected_len(), 1);
    // Posting the receive later finds it.
    let (outcome, work) = m.post_recv(recv(9, 1, 5, 0));
    match outcome {
        PostOutcome::Matched(p) => assert_eq!(p.envelope.tag, 5),
        PostOutcome::Posted => panic!("should have matched the UMQ entry"),
    }
    assert_eq!(work.matches, 1);
    assert_eq!(m.unexpected_len(), 0);
}

#[test]
fn out_of_sequence_message_is_buffered_until_its_turn() {
    let mut m = matcher(false);
    let mut out = Vec::new();
    // seq 2 arrives first: parked, not matched, not unexpected.
    let work = m.deliver(pkt(1, 0, 0, 2), &mut out);
    assert!(out.is_empty());
    assert_eq!(work.oos_buffered, 1);
    assert_eq!(m.out_of_sequence_len(), 1);
    assert_eq!(m.unexpected_len(), 0);
    // seq 1: also parked.
    m.deliver(pkt(1, 0, 0, 1), &mut out);
    assert_eq!(m.out_of_sequence_len(), 2);
    // seq 0 arrives: the whole chain replays in order.
    let work = m.deliver(pkt(1, 0, 0, 0), &mut out);
    assert_eq!(work.oos_drained, 2);
    assert_eq!(m.out_of_sequence_len(), 0);
    assert_eq!(m.unexpected_len(), 3);
    assert_eq!(m.expected_seq(0, 1), 3);
}

#[test]
fn oos_replay_preserves_fifo_matching_order() {
    let mut m = matcher(false);
    let mut out = Vec::new();
    // Three receives, all wildcard-tag: must match in send order.
    for token in [10, 11, 12] {
        m.post_recv(recv(token, 1, ANY_TAG, 0));
    }
    // Arrivals scrambled: 2, 0, 1 (tags record the send order).
    m.deliver(pkt(1, 2, 0, 2), &mut out);
    m.deliver(pkt(1, 0, 0, 0), &mut out);
    m.deliver(pkt(1, 1, 0, 1), &mut out);
    let tags: Vec<i32> = out.iter().map(|e| e.packet.envelope.tag).collect();
    assert_eq!(tags, vec![0, 1, 2], "matched in sequence order");
    let tokens: Vec<u64> = out.iter().map(|e| e.token).collect();
    assert_eq!(tokens, vec![10, 11, 12], "receives consumed in post order");
}

#[test]
fn sequence_validation_is_per_source_and_per_comm() {
    let mut m = matcher(false);
    let mut out = Vec::new();
    // Sources 1 and 2 each start at seq 0; comm 1 is independent of comm 0.
    m.deliver(pkt(1, 0, 0, 0), &mut out);
    m.deliver(pkt(2, 0, 0, 0), &mut out);
    m.deliver(pkt(1, 0, 1, 0), &mut out);
    assert_eq!(m.unexpected_len(), 3, "all three admitted independently");
    assert_eq!(m.expected_seq(0, 1), 1);
    assert_eq!(m.expected_seq(0, 2), 1);
    assert_eq!(m.expected_seq(1, 1), 1);
}

#[test]
fn overtaking_skips_sequence_validation() {
    let mut m = matcher(true);
    let mut out = Vec::new();
    // With overtaking, seq 5 is admitted immediately.
    let work = m.deliver(pkt(1, 0, 0, 5), &mut out);
    assert_eq!(work.seq_checks, 0);
    assert_eq!(work.oos_buffered, 0);
    assert_eq!(m.unexpected_len(), 1);
    assert_eq!(m.spc().get(Counter::OvertakenMessages), 1);
    assert_eq!(m.spc().get(Counter::OutOfSequenceMessages), 0);
}

#[test]
fn overtaking_with_any_tag_matches_first_posted_receive() {
    // Paper §IV-D: overtaking + ANY_TAG forces every message to match the
    // first posted receive, skipping the queue search.
    let mut m = matcher(true);
    let mut out = Vec::new();
    for token in [1, 2, 3] {
        m.post_recv(recv(token, ANY_SOURCE, ANY_TAG, 0));
    }
    m.deliver(pkt(9, 42, 0, 77), &mut out);
    assert_eq!(out[0].token, 1, "first posted receive wins");
    // The queue search stopped at the first entry.
    let work = m.deliver(pkt(9, 43, 0, 3), &mut out);
    assert_eq!(work.traversed, 1);
}

#[test]
fn wildcard_source_matches_earliest_arrival() {
    let mut m = matcher(false);
    let mut out = Vec::new();
    m.deliver(pkt(3, 0, 0, 0), &mut out);
    m.deliver(pkt(5, 0, 0, 0), &mut out);
    let (outcome, _) = m.post_recv(recv(1, ANY_SOURCE, 0, 0));
    match outcome {
        PostOutcome::Matched(p) => assert_eq!(p.envelope.src, 3, "earliest arrival"),
        PostOutcome::Posted => panic!("should match"),
    }
}

#[test]
fn tag_mismatch_skips_queue_entries_but_counts_traversal() {
    let mut m = matcher(false);
    let mut out = Vec::new();
    for tag in 0..10 {
        m.post_recv(recv(tag as u64, 1, tag, 0));
    }
    // Message with tag 9 must traverse all 10 entries.
    let work = m.deliver(pkt(1, 9, 0, 0), &mut out);
    assert_eq!(work.traversed, 10);
    assert_eq!(out[0].token, 9);
}

#[test]
fn cancel_removes_posted_receive() {
    let mut m = matcher(false);
    m.post_recv(recv(5, 1, 1, 0));
    assert!(m.cancel(5));
    assert!(!m.cancel(5), "second cancel finds nothing");
    let mut out = Vec::new();
    m.deliver(pkt(1, 1, 0, 0), &mut out);
    assert!(out.is_empty(), "cancelled receive must not match");
    assert_eq!(m.unexpected_len(), 1);
}

#[test]
fn iprobe_sees_unexpected_without_consuming() {
    let mut m = matcher(false);
    let mut out = Vec::new();
    assert!(m.iprobe(0, 1, 4).is_none());
    m.deliver(pkt(1, 4, 0, 0), &mut out);
    assert_eq!(m.iprobe(0, 1, 4).unwrap().tag, 4);
    assert_eq!(m.iprobe(0, ANY_SOURCE, ANY_TAG).unwrap().src, 1);
    assert!(m.iprobe(0, 2, 4).is_none());
    assert_eq!(m.unexpected_len(), 1, "probe does not consume");
}

#[test]
fn spc_counters_reflect_table_ii_quantities() {
    let spc = Arc::new(SpcSet::new());
    let mut m = Matcher::new(Arc::clone(&spc), false);
    let mut out = Vec::new();
    for token in 0..4 {
        m.post_recv(recv(token, 1, 0, 0));
    }
    // Deliver 0,2,3,1: two arrive out of sequence.
    for seq in [0u64, 2, 3, 1] {
        m.deliver(pkt(1, 0, 0, seq), &mut out);
    }
    assert_eq!(spc.get(Counter::OutOfSequenceMessages), 2);
    assert_eq!(spc.get(Counter::MessagesReceived), 4);
    assert_eq!(spc.get(Counter::ExpectedMessages), 4);
    let snap = spc.snapshot();
    assert!((snap.out_of_sequence_fraction() - 0.5).abs() < 1e-9);
}

mod properties {
    use super::*;
    use fairmpi_chaos::rng::Xoshiro256;

    /// Deterministic Fisher–Yates permutation of `0..n`.
    fn permutation(rng: &mut Xoshiro256, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
        v
    }

    /// Deliver a random permutation of seq 0..n and assert every message is
    /// admitted exactly once, in sequence order.
    fn scrambled_delivery(perm: Vec<usize>) {
        let n = perm.len();
        let mut m = matcher(false);
        let mut out = Vec::new();
        for token in 0..n as u64 {
            m.post_recv(recv(token, 0, ANY_TAG, 0));
        }
        for &seq in &perm {
            // tag encodes the seq so we can check admission order.
            m.deliver(pkt(0, seq as i32, 0, seq as u64), &mut out);
        }
        assert_eq!(out.len(), n);
        for (i, ev) in out.iter().enumerate() {
            assert_eq!(ev.packet.envelope.seq, i as u64);
            assert_eq!(ev.token, i as u64);
        }
        assert_eq!(m.out_of_sequence_len(), 0);
        assert_eq!(m.unexpected_len(), 0);
    }

    #[test]
    fn any_permutation_is_reordered_into_fifo() {
        for seed in 0..64u64 {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            scrambled_delivery(permutation(&mut rng, 32));
        }
    }

    /// Interleave posting receives and delivering a scrambled stream;
    /// regardless of interleaving, the k-th matched message must be the
    /// k-th sent (FIFO per source with identical tags).
    #[test]
    fn posts_and_delivers_interleaved_keep_fifo() {
        for seed in 0..64u64 {
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xF1F0);
            let order: Vec<bool> = (0..64).map(|_| rng.below(2) == 1).collect();
            let shuffle = rng.below(24) as usize;
            let n = 24usize;
            // A deterministic scramble parameterized by `shuffle`.
            let mut seqs: Vec<u64> = (0..n as u64).collect();
            seqs.rotate_left(shuffle % n);
            let mut m = matcher(false);
            // Matched sequence numbers in match order, from both paths:
            // PRQ hits during delivery and UMQ hits at post time.
            let mut matched: Vec<u64> = Vec::new();
            let mut out = Vec::new();
            let post = |m: &mut Matcher, matched: &mut Vec<u64>, token: u64| {
                if let PostOutcome::Matched(p) = m.post_recv(recv(token, 0, 7, 0)).0 {
                    matched.push(p.envelope.seq);
                }
            };
            let mut next_post = 0u64;
            let mut next_deliver = 0usize;
            for &post_first in &order {
                if post_first && next_post < n as u64 {
                    post(&mut m, &mut matched, next_post);
                    next_post += 1;
                } else if next_deliver < n {
                    m.deliver(pkt(0, 7, 0, seqs[next_deliver]), &mut out);
                    matched.extend(out.drain(..).map(|e| e.packet.envelope.seq));
                    next_deliver += 1;
                }
            }
            while next_post < n as u64 {
                post(&mut m, &mut matched, next_post);
                next_post += 1;
            }
            while next_deliver < n {
                m.deliver(pkt(0, 7, 0, seqs[next_deliver]), &mut out);
                matched.extend(out.drain(..).map(|e| e.packet.envelope.seq));
                next_deliver += 1;
            }
            assert_eq!(matched.len(), n);
            for (i, &seq) in matched.iter().enumerate() {
                assert_eq!(seq, i as u64);
            }
        }
    }

    /// Overtaking mode: messages match in *arrival* order instead.
    #[test]
    fn overtaking_matches_in_arrival_order() {
        for seed in 0..32u64 {
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x07E8);
            let perm = permutation(&mut rng, 16);
            let n = perm.len();
            let mut m = matcher(true);
            let mut out = Vec::new();
            for token in 0..n as u64 {
                m.post_recv(recv(token, 0, ANY_TAG, 0));
            }
            for &seq in &perm {
                m.deliver(pkt(0, seq as i32, 0, seq as u64), &mut out);
            }
            assert_eq!(out.len(), n);
            for (i, ev) in out.iter().enumerate() {
                // i-th arrival matched i-th posted receive, whatever its seq.
                assert_eq!(ev.token, i as u64);
                assert_eq!(ev.packet.envelope.seq, perm[i] as u64);
            }
        }
    }

    #[test]
    fn interleaved_posts_cover_umq_path() {
        // Directed version of the random interleaving: all delivers first,
        // then posts.
        let n = 8;
        let mut m = matcher(false);
        let mut out = Vec::new();
        for seq in (0..n as u64).rev() {
            m.deliver(pkt(0, 7, 0, seq), &mut out);
        }
        assert_eq!(m.unexpected_len(), n);
        let mut matched = Vec::new();
        for token in 0..n as u64 {
            match m.post_recv(recv(token, 0, 7, 0)).0 {
                PostOutcome::Matched(p) => matched.push(p.envelope.seq),
                PostOutcome::Posted => panic!("UMQ should satisfy the post"),
            }
        }
        assert_eq!(matched, (0..n as u64).collect::<Vec<_>>());
    }

    /// Multi-source scramble: each source's stream is independently
    /// permuted and interleaved; every stream must be re-serialized in
    /// its own sequence order.
    #[test]
    fn multi_source_streams_reorder_independently() {
        for seed in 0..32u64 {
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x50_0C);
            let perm_a = permutation(&mut rng, 12);
            let perm_b = permutation(&mut rng, 12);
            let interleave: Vec<bool> = (0..24).map(|_| rng.below(2) == 1).collect();
            let mut m = matcher(false);
            let mut out = Vec::new();
            let (mut ia, mut ib) = (0usize, 0usize);
            for &pick_a in &interleave {
                if pick_a && ia < perm_a.len() {
                    m.deliver(pkt(1, 0, 0, perm_a[ia] as u64), &mut out);
                    ia += 1;
                } else if ib < perm_b.len() {
                    m.deliver(pkt(2, 0, 0, perm_b[ib] as u64), &mut out);
                    ib += 1;
                }
            }
            while ia < perm_a.len() {
                m.deliver(pkt(1, 0, 0, perm_a[ia] as u64), &mut out);
                ia += 1;
            }
            while ib < perm_b.len() {
                m.deliver(pkt(2, 0, 0, perm_b[ib] as u64), &mut out);
                ib += 1;
            }
            // All 24 admitted to the UMQ (no receives posted), and each
            // source's admission order is exactly 0..12.
            assert_eq!(m.unexpected_len(), 24);
            assert_eq!(m.out_of_sequence_len(), 0);
            assert_eq!(m.expected_seq(0, 1), 12);
            assert_eq!(m.expected_seq(0, 2), 12);
        }
    }

    /// Work receipts always balance: every delivered message is
    /// eventually matched or queued, never both, never lost.
    #[test]
    fn work_receipts_balance() {
        for seed in 0..32u64 {
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xBA1A);
            let perm = permutation(&mut rng, 20);
            let posted = rng.below(20) as usize;
            let mut m = matcher(false);
            let mut out = Vec::new();
            let mut work = crate::MatchWork::default();
            for token in 0..posted as u64 {
                let (_, w) = m.post_recv(recv(token, 0, 7, 0));
                work.absorb(w);
            }
            for &seq in &perm {
                work.absorb(m.deliver(pkt(0, 7, 0, seq as u64), &mut out));
            }
            assert_eq!(work.matches + work.unexpected, perm.len());
            assert_eq!(work.oos_buffered, work.oos_drained);
            assert_eq!(out.len() + m.unexpected_len(), perm.len());
        }
    }

    #[test]
    fn match_event_fields_are_consistent() {
        let mut m = matcher(false);
        let mut out: Vec<MatchEvent> = Vec::new();
        m.post_recv(recv(3, 1, 2, 0));
        m.deliver(pkt(1, 2, 0, 0), &mut out);
        let ev = &out[0];
        assert_eq!(ev.token, 3);
        assert_eq!(ev.packet.envelope.src, 1);
    }
}

/// `deliver_batch` against per-packet `deliver`: every case must produce
/// the same events in the same order, the same summed receipt and the
/// same value in every counter, watermark and histogram cell.
mod batch_equivalence {
    use super::*;
    use crate::MatchWork;
    use fairmpi_spc::{Histogram, SpcSnapshot, Watermark, HISTOGRAM_BUCKETS};

    /// Everything an `SpcSet` holds.
    type SpcState = (
        SpcSnapshot,
        Vec<(u64, u64)>,
        Vec<([u64; HISTOGRAM_BUCKETS], u64, u64)>,
    );

    fn spc_state(spc: &SpcSet) -> SpcState {
        let watermarks = Watermark::ALL
            .iter()
            .map(|&w| (spc.watermark(w).high(), spc.watermark(w).low()))
            .collect();
        let histograms = Histogram::ALL
            .iter()
            .map(|&h| {
                let cell = spc.histogram(h);
                (cell.snapshot(), cell.sum(), cell.count())
            })
            .collect();
        (spc.snapshot(), watermarks, histograms)
    }

    /// Run `packets` through a fresh matcher prepared by `posts`, either
    /// one `deliver` per packet or `deliver_batch` over chunks of `chunk`.
    fn run(
        overtaking: bool,
        posts: &[PostedRecv],
        packets: &[Packet],
        chunk: Option<usize>,
    ) -> (Vec<MatchEvent>, MatchWork, SpcState) {
        let mut m = matcher(overtaking);
        for &r in posts {
            m.post_recv(r);
        }
        let mut out = Vec::new();
        let mut work = MatchWork::default();
        match chunk {
            None => {
                for p in packets {
                    work.absorb(m.deliver(p.clone(), &mut out));
                }
            }
            Some(n) => {
                for batch in packets.chunks(n) {
                    work.absorb(m.deliver_batch(batch.iter().cloned(), &mut out));
                }
            }
        }
        (out, work, spc_state(m.spc()))
    }

    fn assert_equivalent(overtaking: bool, posts: &[PostedRecv], packets: &[Packet]) {
        let expected = run(overtaking, posts, packets, None);
        for chunk in [packets.len().max(1), 7, 1] {
            let got = run(overtaking, posts, packets, Some(chunk));
            assert_eq!(got.0, expected.0, "events, batches of {chunk}");
            assert_eq!(got.1, expected.1, "work, batches of {chunk}");
            assert!(got.2 == expected.2, "SPC state, batches of {chunk}");
        }
    }

    fn posts(n: u64, src: i32, comm: u32) -> Vec<PostedRecv> {
        (0..n).map(|t| recv(t, src, ANY_TAG, comm)).collect()
    }

    #[test]
    fn in_order() {
        let packets: Vec<_> = (0..128).map(|s| pkt(0, s as i32, 0, s)).collect();
        assert_equivalent(false, &posts(100, 0, 0), &packets);
    }

    #[test]
    fn reversed_window_parks_then_replays() {
        let packets: Vec<_> = (0..128).rev().map(|s| pkt(0, s as i32, 0, s)).collect();
        let expected = run(false, &posts(128, 0, 0), &packets, None);
        assert_eq!(expected.1.oos_buffered, 127, "the case exercises OOS");
        assert_eq!(expected.1.oos_drained, 127);
        assert_equivalent(false, &posts(128, 0, 0), &packets);
    }

    #[test]
    fn unexpected_first() {
        let packets: Vec<_> = (0..64).map(|s| pkt(0, 3, 0, s)).collect();
        assert_equivalent(false, &[], &packets);
        // Some receives posted, but for a tag nothing carries: every packet
        // searches the whole posted queue and lands unexpected.
        let misses: Vec<_> = (0..4).map(|t| recv(t, 0, 9, 0)).collect();
        assert_equivalent(false, &misses, &packets);
    }

    #[test]
    fn allow_overtaking() {
        let packets: Vec<_> = [5u64, 0, 3, 1, 4, 2, 9, 7, 8, 6]
            .iter()
            .map(|&s| pkt(1, s as i32, 0, s))
            .collect();
        assert_equivalent(true, &posts(6, 1, 0), &packets);
    }

    #[test]
    fn two_communicators_interleaved() {
        // Both communicators out of sequence, interleaved packet by packet.
        let order = [2u64, 0, 1, 5, 3, 4, 7, 6];
        let packets: Vec<_> = order
            .iter()
            .flat_map(|&s| [pkt(0, s as i32, 0, s), pkt(0, s as i32, 1, s)])
            .collect();
        let mut recvs = posts(5, 0, 1);
        recvs.extend(posts(3, ANY_SOURCE, 0));
        assert_equivalent(false, &recvs, &packets);
    }
}

#[test]
fn out_of_sequence_count_is_kept_across_sources_and_communicators() {
    let mut m = matcher(false);
    let mut out = Vec::new();
    // Park 3 from (comm 0, src 1) and 2 from (comm 1, src 2).
    for seq in [3, 1, 2] {
        m.deliver(pkt(1, 0, 0, seq), &mut out);
    }
    for seq in [2, 1] {
        m.deliver(pkt(2, 0, 1, seq), &mut out);
    }
    assert_eq!(m.out_of_sequence_len(), 5);
    // Releasing comm 0's chain replays its three.
    m.deliver(pkt(1, 0, 0, 0), &mut out);
    assert_eq!(m.out_of_sequence_len(), 2);
    m.deliver(pkt(1, 0, 0, 6), &mut out);
    assert_eq!(m.out_of_sequence_len(), 3);
    m.deliver(pkt(2, 0, 1, 0), &mut out);
    assert_eq!(m.out_of_sequence_len(), 1);
    let spc = m.spc();
    assert_eq!(spc.get(Counter::MaxOutOfSequenceBuffered), 5);
    let level = spc.watermark(fairmpi_spc::Watermark::OutOfSequenceBuffered);
    assert_eq!((level.low(), level.high()), (1, 5));
}
