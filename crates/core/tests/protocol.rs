//! End-to-end protocol tests: every mode × reliability combination, the
//! attacks §3 defends against, and the relay's on-path behaviour.

use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{
    Association, Config, DropReason, Mode, ProtocolError, Relay, RelayConfig, RelayDecision,
    RelayEvent, Reliability, SignerEvent, Timestamp,
};
use alpha_crypto::Algorithm;
use alpha_pk::Signer;
use alpha_wire::Body;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn cfg(alg: Algorithm) -> Config {
    Config::new(alg).with_chain_len(64)
}

const T0: Timestamp = Timestamp::ZERO;

fn pair(cfg: Config, seed: u64) -> (Association, Association, StdRng) {
    let mut r = rng(seed);
    let (a, b) = Association::pair(cfg, 1, &mut r);
    (a, b, r)
}

#[test]
fn base_unreliable_roundtrip_all_algorithms() {
    for alg in Algorithm::ALL {
        let (mut alice, mut bob, mut r) = pair(cfg(alg), 1);
        let s1 = alice.sign(b"hello multi-hop world", T0).unwrap();
        let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
        let s2s = alice.handle(&a1, T0, &mut r).unwrap();
        assert_eq!(s2s.packets.len(), 1);
        assert!(s2s.signer_events.contains(&SignerEvent::ExchangeComplete));
        let resp = bob.handle(&s2s.packets[0], T0, &mut r).unwrap();
        assert_eq!(resp.payload().unwrap(), b"hello multi-hop world");
        assert!(resp.bundle_complete);
        assert!(resp.packets.is_empty(), "unreliable mode sends no A2");
    }
}

#[test]
fn multiple_sequential_exchanges() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 2);
    for i in 0..10u32 {
        let msg = format!("message number {i}");
        let s1 = alice.sign(msg.as_bytes(), T0).unwrap();
        let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
        let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
        let resp = bob.handle(&s2, T0, &mut r).unwrap();
        assert_eq!(resp.payload().unwrap(), msg.as_bytes());
    }
}

#[test]
fn base_reliable_ack_flow() {
    let c = cfg(Algorithm::Sha1).with_reliability(Reliability::Reliable);
    let (mut alice, mut bob, mut r) = pair(c, 3);
    let s1 = alice.sign(b"needs confirmation", T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    // A1 must carry a flat pre-(n)ack commitment.
    match &a1.body {
        Body::A1 {
            commit: alpha_wire::AckCommit::Flat { .. },
            ..
        } => {}
        other => panic!("expected flat commit, got {other:?}"),
    }
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    let resp = bob.handle(&s2, T0, &mut r).unwrap();
    assert_eq!(resp.payload().unwrap(), b"needs confirmation");
    let a2 = resp.packets[0].clone();
    let fin = alice.handle(&a2, T0, &mut r).unwrap();
    assert!(fin.signer_events.contains(&SignerEvent::Acked(0)));
    assert!(fin.signer_events.contains(&SignerEvent::ExchangeComplete));
    assert!(alice.signer().is_idle());
}

#[test]
fn cumulative_batch_out_of_order_delivery() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 4);
    let msgs: Vec<Vec<u8>> = (0..8).map(|i| format!("chunk {i}").into_bytes()).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let s1 = alice.sign_batch(&refs, Mode::Cumulative, T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let mut s2s = alice.handle(&a1, T0, &mut r).unwrap().packets;
    assert_eq!(s2s.len(), 8);
    // Deliver in reverse order: each S2 is independently verifiable.
    s2s.reverse();
    let mut delivered = Vec::new();
    for s2 in &s2s {
        let resp = bob.handle(s2, T0, &mut r).unwrap();
        delivered.extend(resp.deliveries);
    }
    assert_eq!(delivered.len(), 8);
    let mut seqs: Vec<u32> = delivered.iter().map(|(s, _)| *s).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..8).collect::<Vec<_>>());
    for (seq, payload) in &delivered {
        assert_eq!(payload, &msgs[*seq as usize]);
    }
}

#[test]
fn merkle_batch_loss_tolerance() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 5);
    let msgs: Vec<Vec<u8>> = (0..16)
        .map(|i| format!("block {i:04}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let s1 = alice.sign_batch(&refs, Mode::Merkle, T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let s2s = alice.handle(&a1, T0, &mut r).unwrap().packets;
    assert_eq!(s2s.len(), 16);
    // Drop half the S2s; every survivor still verifies independently.
    for (i, s2) in s2s.iter().enumerate() {
        if i % 2 == 0 {
            continue; // lost
        }
        let resp = bob.handle(s2, T0, &mut r).unwrap();
        assert_eq!(resp.deliveries.len(), 1);
    }
}

#[test]
fn merkle_reliable_selective_repeat() {
    let c = cfg(Algorithm::Sha1).with_reliability(Reliability::Reliable);
    let (mut alice, mut bob, mut r) = pair(c, 6);
    let msgs: Vec<Vec<u8>> = (0..4)
        .map(|i| format!("reliable {i}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let s1 = alice.sign_batch(&refs, Mode::Merkle, T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    match &a1.body {
        Body::A1 {
            commit: alpha_wire::AckCommit::Amt { leaves: 4, .. },
            ..
        } => {}
        other => panic!("expected AMT commit, got {other:?}"),
    }
    let s2s = alice.handle(&a1, T0, &mut r).unwrap().packets;
    // Deliver only seq 0 and 2; bob acks each individually.
    let mut acked = Vec::new();
    for s2 in [&s2s[0], &s2s[2]] {
        let resp = bob.handle(s2, T0, &mut r).unwrap();
        let a2 = resp.packets[0].clone();
        let out = alice.handle(&a2, T0, &mut r).unwrap();
        for ev in out.signer_events {
            if let SignerEvent::Acked(seq) = ev {
                acked.push(seq);
            }
        }
    }
    assert_eq!(acked, vec![0, 2]);
    assert!(!alice.signer().is_idle(), "seqs 1 and 3 unconfirmed");
    // Timer fires: signer retransmits exactly the unacked seqs.
    let later = Timestamp::from_millis(300);
    let re = alice.poll(later);
    let reseqs: Vec<u32> = re
        .packets
        .iter()
        .map(|p| match &p.body {
            Body::S2 { seq, .. } => *seq,
            _ => panic!("expected S2"),
        })
        .collect();
    assert_eq!(reseqs, vec![1, 3]);
    for s2 in &re.packets {
        let resp = bob.handle(s2, later, &mut r).unwrap();
        for a2 in &resp.packets {
            alice.handle(a2, later, &mut r).unwrap();
        }
    }
    assert!(alice.signer().is_idle(), "all seqs confirmed after repeat");
}

#[test]
fn tampered_payload_rejected_unreliable() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 7);
    let s1 = alice.sign(b"authentic", T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let mut s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    if let Body::S2 { payload, .. } = &mut s2.body {
        payload[0] ^= 0xff;
    }
    assert_eq!(
        bob.handle(&s2, T0, &mut r).unwrap_err(),
        ProtocolError::BadMac
    );
}

#[test]
fn tampered_payload_nacked_then_repaired_reliable() {
    let c = cfg(Algorithm::Sha1).with_reliability(Reliability::Reliable);
    let (mut alice, mut bob, mut r) = pair(c, 8);
    let s1 = alice.sign(b"will be tampered", T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    let mut bad = s2.clone();
    if let Body::S2 { payload, .. } = &mut bad.body {
        payload[3] ^= 1;
    }
    // Verifier answers the forged S2 with a nack instead of delivering.
    let resp = bob.handle(&bad, T0, &mut r).unwrap();
    assert!(resp.deliveries.is_empty());
    let nack = resp.packets[0].clone();
    let out = alice.handle(&nack, T0, &mut r).unwrap();
    assert!(out.signer_events.contains(&SignerEvent::Nacked(0)));
    // The nack triggered an immediate retransmission of the genuine S2.
    assert_eq!(out.packets.len(), 1);
    let resp = bob.handle(&out.packets[0], T0, &mut r).unwrap();
    assert_eq!(resp.payload().unwrap(), b"will be tampered");
    let a2 = resp.packets[0].clone();
    let fin = alice.handle(&a2, T0, &mut r).unwrap();
    assert!(fin.signer_events.contains(&SignerEvent::ExchangeComplete));
}

#[test]
fn duplicate_s1_replays_same_a1() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 9);
    let s1 = alice.sign(b"msg", T0).unwrap();
    let a1a = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let a1b = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    assert_eq!(a1a, a1b, "A1 must be idempotent for S1 retransmissions");
}

#[test]
fn duplicate_s2_delivers_once() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 10);
    let s1 = alice.sign(b"once", T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    assert_eq!(bob.handle(&s2, T0, &mut r).unwrap().deliveries.len(), 1);
    assert_eq!(bob.handle(&s2, T0, &mut r).unwrap().deliveries.len(), 0);
}

#[test]
fn s1_retransmission_after_lost_a1() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 11);
    let s1 = alice.sign(b"lost a1", T0).unwrap();
    let _a1_lost = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    // RTO fires: alice resends the identical S1.
    let later = Timestamp::from_millis(250);
    let out = alice.poll(later);
    assert_eq!(out.packets, vec![s1.clone()]);
    // Bob replays the A1, the exchange proceeds.
    let a1 = bob
        .handle(&out.packets[0], later, &mut r)
        .unwrap()
        .packet()
        .unwrap();
    let s2 = alice.handle(&a1, later, &mut r).unwrap().packets.remove(0);
    assert_eq!(
        bob.handle(&s2, later, &mut r).unwrap().payload().unwrap(),
        b"lost a1"
    );
}

#[test]
fn exchange_abandoned_after_max_retries() {
    let c = cfg(Algorithm::Sha1).with_rto_micros(1000);
    let (mut alice, _bob, _r) = pair(c, 12);
    alice.sign(b"into the void", T0).unwrap();
    let mut t = T0;
    let mut abandoned = false;
    for _ in 0..20 {
        t = t.plus_micros(1500);
        let out = alice.poll(t);
        if out.signer_events.contains(&SignerEvent::ExchangeAbandoned) {
            abandoned = true;
            break;
        }
    }
    assert!(abandoned);
    assert!(alice.signer().is_idle());
}

#[test]
fn unwilling_verifier_sends_no_a1() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 13);
    bob.verifier().set_accepting(false);
    let s1 = alice.sign(b"unsolicited", T0).unwrap();
    let resp = bob.handle(&s1, T0, &mut r).unwrap();
    assert!(resp.packets.is_empty(), "no willingness, no A1 (§3.5)");
    bob.verifier().set_accepting(true);
}

#[test]
fn wrong_association_and_algorithm_rejected() {
    let (mut alice, _bob, mut r) = pair(cfg(Algorithm::Sha1), 14);
    let (mut eve_a, eve_b) = Association::pair(cfg(Algorithm::Sha1), 2, &mut r);
    let foreign_s1 = eve_a.sign(b"foreign", T0).unwrap();
    let _ = eve_b; // unused second endpoint
    assert_eq!(
        alice.handle(&foreign_s1, T0, &mut r).unwrap_err(),
        ProtocolError::WrongAssociation
    );
}

#[test]
fn replayed_s1_element_rejected_on_fresh_exchange() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 15);
    // Exchange 1 completes.
    let s1_first = alice.sign(b"one", T0).unwrap();
    let a1 = bob.handle(&s1_first, T0, &mut r).unwrap().packet().unwrap();
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    bob.handle(&s2, T0, &mut r).unwrap();
    // Exchange 2 starts (advances bob's tracker past exchange 1).
    let s1_second = alice.sign(b"two", T0).unwrap();
    bob.handle(&s1_second, T0, &mut r).unwrap();
    // Replaying exchange 1's S1 now fails chain authentication.
    let err = bob.handle(&s1_first, T0, &mut r).unwrap_err();
    assert!(matches!(err, ProtocolError::Chain(_)), "got {err:?}");
}

#[test]
fn chain_exhaustion_reported() {
    // A chain of 4 elements publishes its anchor (element 4) and leaves
    // one usable (announce, key) pair: elements (3, 2).
    let c = cfg(Algorithm::Sha1).with_chain_len(4);
    let (mut alice, mut bob, mut r) = pair(c, 16);
    assert_eq!(alice.signer().remaining_exchanges(), 1);
    let s1 = alice.sign(b"x", T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    bob.handle(&s2, T0, &mut r).unwrap();
    assert_eq!(
        alice.sign(b"y", T0).unwrap_err(),
        ProtocolError::ChainExhausted
    );
}

// ---------------------------------------------------------------------
// Relay behaviour
// ---------------------------------------------------------------------

/// Run a full handshake through a relay and return everything.
fn relayed_pair(c: Config, seed: u64) -> (Association, Association, Relay, StdRng) {
    let mut r = rng(seed);
    let mut relay = Relay::new(RelayConfig::default());
    let (hs, init_pkt) = bootstrap::initiate(c, 9, None, &mut r);
    let (dec, _) = relay.observe(&init_pkt, T0);
    assert_eq!(dec, RelayDecision::Forward);
    let (responder, reply_pkt, _) =
        bootstrap::respond(c, &init_pkt, None, AuthRequirement::None, &mut r).unwrap();
    let (dec, events) = relay.observe(&reply_pkt, T0);
    assert_eq!(dec, RelayDecision::Forward);
    assert!(events.contains(&RelayEvent::AssociationLearned(9)));
    let (initiator, _) = hs.complete(&reply_pkt, AuthRequirement::None).unwrap();
    (initiator, responder, relay, r)
}

#[test]
fn relay_learns_forwards_and_extracts() {
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(cfg(Algorithm::Sha1), 20);
    let s1 = alice.sign(b"signal to middlebox", T0).unwrap();
    assert_eq!(relay.observe(&s1, T0).0, RelayDecision::Forward);
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    assert_eq!(relay.observe(&a1, T0).0, RelayDecision::Forward);
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    let (dec, events) = relay.observe(&s2, T0);
    assert_eq!(dec, RelayDecision::Forward);
    // The relay verified the payload *before* the destination had to —
    // this is the "secure extraction of signed data" capability.
    assert!(events.iter().any(|e| matches!(
        e,
        RelayEvent::VerifiedPayload { payload, .. } if payload == b"signal to middlebox"
    )));
    bob.handle(&s2, T0, &mut r).unwrap();
}

/// A retransmitted HS1 arriving *after* the relay has learned the
/// association (the initiator resent because the reply was slow) must
/// not knock the association back into the handshake-incomplete state:
/// the exchange that follows still verifies at the relay.
#[test]
fn relay_survives_retransmitted_handshake_init() {
    let c = cfg(Algorithm::Sha1);
    let mut r = rng(21);
    let mut relay = Relay::new(RelayConfig::default());
    let (hs, init_pkt) = bootstrap::initiate(c, 9, None, &mut r);
    relay.observe(&init_pkt, T0);
    let (mut bob, reply_pkt, _) =
        bootstrap::respond(c, &init_pkt, None, AuthRequirement::None, &mut r).unwrap();
    let (_, events) = relay.observe(&reply_pkt, T0);
    assert!(events.contains(&RelayEvent::AssociationLearned(9)));
    let (mut alice, _) = hs.complete(&reply_pkt, AuthRequirement::None).unwrap();

    // The duplicate init crosses the already-forwarded reply on the wire.
    assert_eq!(relay.observe(&init_pkt, T0).0, RelayDecision::Forward);

    let s1 = alice.sign(b"after the dup", T0).unwrap();
    assert_eq!(relay.observe(&s1, T0).0, RelayDecision::Forward);
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    assert_eq!(relay.observe(&a1, T0).0, RelayDecision::Forward);
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    let (dec, events) = relay.observe(&s2, T0);
    assert_eq!(dec, RelayDecision::Forward);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RelayEvent::VerifiedPayload { .. })),
        "relay must still verify the exchange after a duplicate HS1"
    );
    bob.handle(&s2, T0, &mut r).unwrap();
}

/// The batched S2 verification path must be decision-for-decision
/// identical to packet-by-packet observation: same forwards, same drops,
/// same verified-payload outcomes, including a tampered packet mid-run
/// and a control (signal) payload that forms a single-shot barrier.
#[test]
fn relay_s2_batch_matches_sequential() {
    use alpha_core::signal::Signal;
    use alpha_core::S2BatchItem;
    use alpha_wire::PacketView;

    for mode in [Mode::Cumulative, Mode::Merkle] {
        let c = cfg(Algorithm::Sha256);
        let mut r = rng(77);
        let mut relay_seq = Relay::new(RelayConfig::default());
        let mut relay_bat = Relay::new(RelayConfig::default());
        let (hs, init_pkt) = bootstrap::initiate(c, 9, None, &mut r);
        let (mut bob, reply_pkt, _) =
            bootstrap::respond(c, &init_pkt, None, AuthRequirement::None, &mut r).unwrap();
        let (mut alice, _) = hs.complete(&reply_pkt, AuthRequirement::None).unwrap();

        // Exchange A: a four-message bundle. Exchange B: a rate-limit
        // signal, whose S2 payload is magic-prefixed control data.
        let msgs: Vec<Vec<u8>> = (0..4)
            .map(|i| format!("batched {i}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let s1a = alice.sign_batch(&refs, mode, T0).unwrap();
        let a1a = bob.handle(&s1a, T0, &mut r).unwrap().packet().unwrap();
        let mut s2s = alice.handle(&a1a, T0, &mut r).unwrap().packets;
        let s1b = alice
            .send_signal(&Signal::RateLimit { bytes_per_sec: 512 }, T0)
            .unwrap();
        let a1b = bob.handle(&s1b, T0, &mut r).unwrap().packet().unwrap();
        let s2b = alice.handle(&a1b, T0, &mut r).unwrap().packets.remove(0);
        for relay in [&mut relay_seq, &mut relay_bat] {
            for pkt in [&init_pkt, &reply_pkt, &s1a, &a1a, &s1b, &a1b] {
                assert_eq!(relay.observe(pkt, T0).0, RelayDecision::Forward);
            }
        }
        // Tamper one mid-run payload: exactly it must drop.
        if let Body::S2 { payload, .. } = &mut s2s[2].body {
            payload[0] ^= 1;
        }
        s2s.push(s2b);

        let emitted: Vec<Vec<u8>> = s2s.iter().map(alpha_wire::Packet::emit).collect();
        let seq_results: Vec<_> = emitted
            .iter()
            .map(|bytes| {
                let view = PacketView::parse(bytes).unwrap();
                relay_seq.observe_view(&view, bytes.len(), T0)
            })
            .collect();

        let items: Vec<S2BatchItem<'_>> = s2s
            .iter()
            .map(|p| {
                let Body::S2 {
                    key,
                    seq,
                    path,
                    payload,
                } = &p.body
                else {
                    panic!("expected S2");
                };
                S2BatchItem {
                    alg: p.alg,
                    chain_index: p.chain_index,
                    key,
                    seq: *seq,
                    path: path.as_slice().into(),
                    payload,
                }
            })
            .collect();
        let bat_results = relay_bat.observe_s2_batch(9, &items, T0);
        assert_eq!(seq_results, bat_results, "mode {mode:?}");
        assert_eq!(
            bat_results[2].0,
            RelayDecision::Drop(DropReason::BadMac),
            "mode {mode:?}"
        );
        let forwarded = bat_results
            .iter()
            .filter(|(d, _)| *d == RelayDecision::Forward)
            .count();
        assert_eq!(forwarded, 4, "mode {mode:?}");
        // The signal rode last and still verified through the barrier.
        assert!(bat_results[4].1.verified_s2.is_some(), "mode {mode:?}");
    }
}

#[test]
fn relay_drops_tampered_s2() {
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(cfg(Algorithm::Sha1), 21);
    let s1 = alice.sign(b"genuine bytes", T0).unwrap();
    relay.observe(&s1, T0);
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    relay.observe(&a1, T0);
    let mut s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    if let Body::S2 { payload, .. } = &mut s2.body {
        payload[0] ^= 1;
    }
    assert_eq!(
        relay.observe(&s2, T0).0,
        RelayDecision::Drop(DropReason::BadMac)
    );
}

#[test]
fn relay_drops_unsolicited_s2() {
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(cfg(Algorithm::Sha1), 22);
    // Build a complete exchange *without* letting the relay see S1/A1.
    let s1 = alice.sign(b"sneak", T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    // The relay never saw the announcement: unsolicited data is dropped
    // (flooding cannot propagate past the first ALPHA-aware relay).
    assert_eq!(
        relay.observe(&s2, T0).0,
        RelayDecision::Drop(DropReason::Unsolicited)
    );
}

#[test]
fn relay_rate_limits_s1_floods() {
    let cfg_relay = RelayConfig {
        s1_bytes_per_sec: Some(100),
        ..RelayConfig::default()
    };
    let c = cfg(Algorithm::Sha1);
    let mut r = rng(23);
    let mut relay = Relay::new(cfg_relay);
    let (hs, init_pkt) = bootstrap::initiate(c, 9, None, &mut r);
    relay.observe(&init_pkt, T0);
    let (mut responder, reply_pkt, _) =
        bootstrap::respond(c, &init_pkt, None, AuthRequirement::None, &mut r).unwrap();
    relay.observe(&reply_pkt, T0);
    let (mut initiator, _) = hs.complete(&reply_pkt, AuthRequirement::None).unwrap();

    // A base-mode S1 is 64 bytes; the 100-byte budget admits one per second.
    let s1a = initiator.sign(b"a", T0).unwrap();
    assert_eq!(relay.observe(&s1a, T0).0, RelayDecision::Forward);
    let a1 = responder
        .handle(&s1a, T0, &mut r)
        .unwrap()
        .packet()
        .unwrap();
    relay.observe(&a1, T0);
    let s2 = initiator.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    relay.observe(&s2, T0);
    responder.handle(&s2, T0, &mut r).unwrap();

    let s1b = initiator.sign(b"b", T0).unwrap();
    assert_eq!(
        relay.observe(&s1b, T0).0,
        RelayDecision::Drop(DropReason::RateLimited)
    );
    // After a second of refill the same S1 passes.
    let later = Timestamp::from_millis(1000);
    assert_eq!(relay.observe(&s1b, later).0, RelayDecision::Forward);
}

#[test]
fn relay_verifies_verdicts() {
    let c = cfg(Algorithm::Sha1).with_reliability(Reliability::Reliable);
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(c, 24);
    let s1 = alice.sign(b"confirmed through relay", T0).unwrap();
    relay.observe(&s1, T0);
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    relay.observe(&a1, T0);
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    relay.observe(&s2, T0);
    let resp = bob.handle(&s2, T0, &mut r).unwrap();
    let a2 = resp.packets[0].clone();
    let (dec, events) = relay.observe(&a2, T0);
    assert_eq!(dec, RelayDecision::Forward);
    assert!(events
        .iter()
        .any(|e| matches!(e, RelayEvent::VerifiedVerdict { ack: true, .. })));
}

/// AMT verdicts (§3.3.3) through the relay: each disclosure verifies
/// against the buffered AMT root and surfaces with its own packet index;
/// a disclosure that does not verify is a bad verdict, and an A2 whose
/// chain element is forged is turned away on the element alone.
#[test]
fn relay_verifies_amt_verdicts_per_packet() {
    let c = cfg(Algorithm::Sha1).with_reliability(Reliability::Reliable);
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(c, 27);
    let msgs: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let s1 = alice.sign_batch(&refs, Mode::Merkle, T0).unwrap();
    relay.observe(&s1, T0);
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    relay.observe(&a1, T0);
    let s2s = alice.handle(&a1, T0, &mut r).unwrap().packets;
    for (want, s2) in [(2u32, &s2s[2]), (0, &s2s[0])] {
        relay.observe(s2, T0);
        let a2 = bob.handle(s2, T0, &mut r).unwrap().packets.remove(0);

        let mut forged = a2.clone();
        let Body::A2 { element, .. } = &mut forged.body else {
            panic!("expected A2");
        };
        *element = Algorithm::Sha1.hash(b"not on the chain");
        assert_eq!(
            relay.observe(&forged, T0).0,
            RelayDecision::Drop(DropReason::BadChainElement)
        );

        let (dec, events) = relay.observe(&a2, T0);
        assert_eq!(dec, RelayDecision::Forward);
        assert_eq!(
            events,
            vec![RelayEvent::VerifiedVerdict {
                assoc_id: 9,
                seq: want,
                ack: true
            }]
        );

        let mut flipped = a2;
        let Body::A2 {
            disclosure: alpha_wire::A2Disclosure::Amt(items),
            ..
        } = &mut flipped.body
        else {
            panic!("expected AMT disclosure");
        };
        items[0].ack = false;
        assert_eq!(
            relay.observe(&flipped, T0),
            (RelayDecision::Drop(DropReason::BadVerdict), Vec::new())
        );
    }
}

#[test]
fn relay_unknown_association_policy() {
    let (mut alice, mut bob, _relay, mut r) = relayed_pair(cfg(Algorithm::Sha1), 25);
    let s1 = alice.sign(b"x", T0).unwrap();
    let _ = bob.handle(&s1, T0, &mut r);
    // A relay that never saw the handshake:
    let mut strict = Relay::new(RelayConfig {
        forward_unknown: false,
        ..RelayConfig::default()
    });
    assert_eq!(
        strict.observe(&s1, T0).0,
        RelayDecision::Drop(DropReason::UnknownAssociation)
    );
    let mut loose = Relay::new(RelayConfig::default());
    assert_eq!(loose.observe(&s1, T0).0, RelayDecision::Forward);
}

/// `Relay::observe` judges an owned packet through its wire encoding. A
/// packet no relay could receive — its encoding is one the decoder
/// rejects — is malformed whether or not the relay knows the association,
/// and the genuine S1 behind it still passes.
#[test]
fn relay_drops_owned_packets_the_decoder_rejects() {
    use alpha_wire::PreSignature;
    let (mut alice, _bob, mut relay, _r) = relayed_pair(cfg(Algorithm::Sha1), 26);
    let s1 = alice.sign(b"x", T0).unwrap();
    let Body::S1 { element, .. } = s1.body else {
        panic!("expected S1");
    };
    let mut stranger = Relay::new(RelayConfig::default());
    for presig in [
        PreSignature::MerkleRoot {
            root: element,
            leaves: 0,
        },
        PreSignature::Cumulative(Vec::new()),
    ] {
        let bad = alpha_wire::Packet {
            body: Body::S1 { element, presig },
            ..s1.clone()
        };
        assert!(alpha_wire::Packet::parse(&bad.emit()).is_err());
        for relay in [&mut relay, &mut stranger] {
            assert_eq!(
                relay.observe(&bad, T0),
                (RelayDecision::Drop(DropReason::Malformed), Vec::new())
            );
        }
    }
    assert_eq!(relay.observe(&s1, T0).0, RelayDecision::Forward);
}

// ---------------------------------------------------------------------
// Bootstrap
// ---------------------------------------------------------------------

#[test]
fn protected_bootstrap_rsa_pinned() {
    let mut r = rng(30);
    let alice_key = alpha_pk::rsa::RsaPrivateKey::generate(512, &mut r);
    let bob_key = alpha_pk::rsa::RsaPrivateKey::generate(512, &mut r);
    let c = cfg(Algorithm::Sha1);
    let (hs, init) = bootstrap::initiate(c, 5, Some(&alice_key), &mut r);
    let alice_pub = alpha_pk::PublicKey::Rsa(alice_key.public_key().clone());
    let bob_pub = alpha_pk::PublicKey::Rsa(bob_key.public_key().clone());
    let (_responder, reply, peer) = bootstrap::respond(
        c,
        &init,
        Some(&bob_key),
        AuthRequirement::Pinned(&alice_pub),
        &mut r,
    )
    .unwrap();
    assert_eq!(peer, Some(alice_pub));
    let (_initiator, peer) = hs
        .complete(&reply, AuthRequirement::Pinned(&bob_pub))
        .unwrap();
    assert_eq!(peer, Some(bob_pub));
}

#[test]
fn protected_bootstrap_ecdsa_tofu() {
    let mut r = rng(31);
    let key = alpha_pk::ecdsa::EcdsaPrivateKey::generate(&mut r);
    let c = cfg(Algorithm::Sha1);
    let (_hs, init) = bootstrap::initiate(c, 5, Some(&key), &mut r);
    let (_resp, _reply, peer) =
        bootstrap::respond(c, &init, None, AuthRequirement::AnyKey, &mut r).unwrap();
    assert!(matches!(peer, Some(alpha_pk::PublicKey::Ecdsa(_))));
}

#[test]
fn unauthenticated_handshake_rejected_when_auth_required() {
    let mut r = rng(32);
    let c = cfg(Algorithm::Sha1);
    let (_hs, init) = bootstrap::initiate(c, 5, None, &mut r);
    let err = bootstrap::respond(c, &init, None, AuthRequirement::AnyKey, &mut r)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, ProtocolError::BadAuth);
}

#[test]
fn tampered_handshake_signature_rejected() {
    let mut r = rng(33);
    let key = alpha_pk::ecdsa::EcdsaPrivateKey::generate(&mut r);
    let c = cfg(Algorithm::Sha1);
    let (_hs, mut init) = bootstrap::initiate(c, 5, Some(&key), &mut r);
    if let Body::Handshake(hs) = &mut init.body {
        // Attacker substitutes its own anchor but keeps the signature.
        hs.sig_anchor_index += 2;
    }
    let err = bootstrap::respond(c, &init, None, AuthRequirement::AnyKey, &mut r)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, ProtocolError::BadAuth);
}

#[test]
fn wrong_pinned_key_rejected() {
    let mut r = rng(34);
    let key = alpha_pk::ecdsa::EcdsaPrivateKey::generate(&mut r);
    let other = alpha_pk::ecdsa::EcdsaPrivateKey::generate(&mut r);
    let other_pub = other.verifying_key();
    let c = cfg(Algorithm::Sha1);
    let (_hs, init) = bootstrap::initiate(c, 5, Some(&key), &mut r);
    let err = bootstrap::respond(c, &init, None, AuthRequirement::Pinned(&other_pub), &mut r)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, ProtocolError::BadAuth);
}

// ---------------------------------------------------------------------
// Memory accounting (Tables 2 / 3 ground truth)
// ---------------------------------------------------------------------

#[test]
fn signer_buffer_matches_table2_shape() {
    let (mut alice, _bob, _r) = pair(cfg(Algorithm::Sha1), 40);
    assert_eq!(alice.signer().buffered_bytes(), 0);
    let msgs: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 100]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    alice.sign_batch(&refs, Mode::Cumulative, T0).unwrap();
    // n messages of m bytes + one h-byte key: n·m + h (the key is shared,
    // the paper's n(m+h) upper-bounds per-message keys).
    assert_eq!(alice.signer().buffered_bytes(), 4 * 100 + 20);
}

#[test]
fn verifier_buffer_matches_table2_shape() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 41);
    let msgs: Vec<Vec<u8>> = (0..8).map(|_| vec![7u8; 50]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    // ALPHA-C: verifier holds n·h.
    let s1 = alice.sign_batch(&refs, Mode::Cumulative, T0).unwrap();
    bob.handle(&s1, T0, &mut r).unwrap();
    assert_eq!(bob.verifier().buffered_bytes(), 8 * 20);
}

#[test]
fn merkle_verifier_buffer_is_constant() {
    let c = cfg(Algorithm::Sha1);
    for n in [2usize, 8, 32] {
        let mut r = rng(42);
        let (mut alice, mut bob) = Association::pair(c, 1, &mut r);
        let msgs: Vec<Vec<u8>> = (0..n).map(|_| vec![7u8; 50]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let s1 = alice.sign_batch(&refs, Mode::Merkle, T0).unwrap();
        bob.handle(&s1, T0, &mut r).unwrap();
        // ALPHA-M: one root regardless of n (Table 2's verifier column).
        assert_eq!(bob.verifier().buffered_bytes(), 20, "n={n}");
    }
}

#[test]
fn relay_forwards_retransmitted_s1_and_replayed_a1() {
    // Regression: a lost A1 makes the signer retransmit its S1 verbatim;
    // relays must forward the duplicate (and the verifier's replayed A1)
    // instead of dropping them as chain replays — the paper stresses that
    // "especially S1 and A1 packets require robust and fast retransmission".
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(cfg(Algorithm::Sha1), 26);
    let s1 = alice.sign(b"retry me", T0).unwrap();
    assert_eq!(relay.observe(&s1, T0).0, RelayDecision::Forward);
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    assert_eq!(relay.observe(&a1, T0).0, RelayDecision::Forward);
    // A1 lost; the RTO fires and the identical S1 crosses the relay again.
    let retx = alice.poll(Timestamp::from_millis(250));
    assert_eq!(retx.packets, vec![s1.clone()]);
    assert_eq!(
        relay.observe(&retx.packets[0], T0).0,
        RelayDecision::Forward
    );
    // Bob replays the same A1; the relay forwards that too.
    let a1_again = bob
        .handle(&retx.packets[0], T0, &mut r)
        .unwrap()
        .packet()
        .unwrap();
    assert_eq!(a1_again, a1);
    assert_eq!(relay.observe(&a1_again, T0).0, RelayDecision::Forward);
    // The exchange then completes through the relay.
    let s2 = alice
        .handle(&a1_again, T0, &mut r)
        .unwrap()
        .packets
        .remove(0);
    assert_eq!(relay.observe(&s2, T0).0, RelayDecision::Forward);
    assert_eq!(
        bob.handle(&s2, T0, &mut r).unwrap().payload().unwrap(),
        b"retry me"
    );
}

#[test]
fn forged_duplicate_s1_still_dropped() {
    // The duplicate-S1 path must not become a bypass: same index but a
    // different element (or no matching exchange) is still rejected.
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(cfg(Algorithm::Sha1), 27);
    let s1 = alice.sign(b"x", T0).unwrap();
    relay.observe(&s1, T0);
    let _ = bob.handle(&s1, T0, &mut r);
    let mut forged = s1.clone();
    if let Body::S1 { element, .. } = &mut forged.body {
        *element = alpha_crypto::Algorithm::Sha1.hash(b"not the element");
    }
    assert_eq!(
        relay.observe(&forged, T0).0,
        RelayDecision::Drop(DropReason::BadChainElement)
    );
}

#[test]
fn cumulative_merkle_forest_roundtrip() {
    // The ALPHA-C + ALPHA-M combination: 16 messages across 4 trees of 4.
    // Paths shrink to depth 2 instead of depth 4.
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 50);
    let msgs: Vec<Vec<u8>> = (0..16)
        .map(|i| format!("forest {i:02}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let mode = Mode::CumulativeMerkle { leaves_per_tree: 4 };
    let s1 = alice.sign_batch(&refs, mode, T0).unwrap();
    match &s1.body {
        Body::S1 {
            presig: alpha_wire::PreSignature::MerkleForest(trees),
            ..
        } => {
            assert_eq!(trees.len(), 4);
            assert!(trees.iter().all(|t| t.leaves == 4));
        }
        other => panic!("expected forest, got {other:?}"),
    }
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let mut s2s = alice.handle(&a1, T0, &mut r).unwrap().packets;
    assert_eq!(s2s.len(), 16);
    for s2 in &s2s {
        if let Body::S2 { path, .. } = &s2.body {
            assert_eq!(path.len(), 2, "forest paths are log2(4) deep");
        }
    }
    s2s.reverse(); // out-of-order delivery still works
    let mut delivered = Vec::new();
    for s2 in &s2s {
        delivered.extend(bob.handle(s2, T0, &mut r).unwrap().deliveries);
    }
    delivered.sort_by_key(|(s, _)| *s);
    assert_eq!(delivered.len(), 16);
    for (i, (seq, payload)) in delivered.iter().enumerate() {
        assert_eq!(*seq as usize, i);
        assert_eq!(payload, &msgs[i]);
    }
}

#[test]
fn cumulative_merkle_uneven_last_tree() {
    // 10 messages across trees of 4: 4 + 4 + 2.
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 51);
    let msgs: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 40]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let s1 = alice
        .sign_batch(&refs, Mode::CumulativeMerkle { leaves_per_tree: 4 }, T0)
        .unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let s2s = alice.handle(&a1, T0, &mut r).unwrap().packets;
    let mut count = 0;
    for s2 in &s2s {
        count += bob.handle(s2, T0, &mut r).unwrap().deliveries.len();
    }
    assert_eq!(count, 10);
}

#[test]
fn cumulative_merkle_reliable_with_amt() {
    // The combined mode acknowledges with one AMT over all messages.
    let c = cfg(Algorithm::Sha1).with_reliability(Reliability::Reliable);
    let (mut alice, mut bob, mut r) = pair(c, 52);
    let msgs: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 64]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let s1 = alice
        .sign_batch(&refs, Mode::CumulativeMerkle { leaves_per_tree: 4 }, T0)
        .unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    match &a1.body {
        Body::A1 {
            commit: alpha_wire::AckCommit::Amt { leaves: 8, .. },
            ..
        } => {}
        other => panic!("expected 8-leaf AMT, got {other:?}"),
    }
    let s2s = alice.handle(&a1, T0, &mut r).unwrap().packets;
    for s2 in &s2s {
        let resp = bob.handle(s2, T0, &mut r).unwrap();
        for a2 in &resp.packets {
            alice.handle(a2, T0, &mut r).unwrap();
        }
    }
    assert!(alice.signer().is_idle());
}

#[test]
fn cumulative_merkle_tamper_rejected_per_tree() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 53);
    let msgs: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 64]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let s1 = alice
        .sign_batch(&refs, Mode::CumulativeMerkle { leaves_per_tree: 4 }, T0)
        .unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let mut s2s = alice.handle(&a1, T0, &mut r).unwrap().packets;
    if let Body::S2 { payload, .. } = &mut s2s[5].body {
        payload[0] ^= 1;
    }
    assert_eq!(
        bob.handle(&s2s[5], T0, &mut r).unwrap_err(),
        ProtocolError::BadMac
    );
    // Other trees unaffected.
    assert_eq!(bob.handle(&s2s[0], T0, &mut r).unwrap().deliveries.len(), 1);
}

#[test]
fn forest_with_mismatched_tree_sizes_rejected() {
    // A forged forest whose interior trees differ in size is rejected
    // (ambiguous seq -> (tree, leaf) mapping).
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 54);
    let msgs: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 8]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let mut s1 = alice
        .sign_batch(&refs, Mode::CumulativeMerkle { leaves_per_tree: 4 }, T0)
        .unwrap();
    if let Body::S1 {
        presig: alpha_wire::PreSignature::MerkleForest(trees),
        ..
    } = &mut s1.body
    {
        trees[0].leaves = 3; // interior tree no longer full
    }
    assert_eq!(
        bob.handle(&s1, T0, &mut r).unwrap_err(),
        ProtocolError::UnexpectedPacket
    );
}

#[test]
fn compact_chains_interoperate_transparently() {
    // A memory-constrained host with O(sqrt n) chain storage talks to a
    // full-storage host; the wire behaviour is identical.
    use alpha_core::ChainStorage;
    let mut r = rng(60);
    let small_cfg = cfg(Algorithm::Sha1)
        .with_chain_storage(ChainStorage::Sqrt)
        .with_chain_len(64);
    let full_cfg = cfg(Algorithm::Sha1).with_chain_len(64);
    let (hs, init) = bootstrap::initiate(small_cfg, 1, None, &mut r);
    let (mut bob, reply, _) =
        bootstrap::respond(full_cfg, &init, None, AuthRequirement::None, &mut r).unwrap();
    let (mut alice, _) = hs.complete(&reply, AuthRequirement::None).unwrap();
    for i in 0..5u32 {
        let msg = format!("compact {i}");
        let s1 = alice.sign(msg.as_bytes(), T0).unwrap();
        let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
        let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
        assert_eq!(
            bob.handle(&s2, T0, &mut r).unwrap().payload().unwrap(),
            msg.as_bytes()
        );
    }
}

// ---------------------------------------------------------------------
// Chain renewal
// ---------------------------------------------------------------------

#[test]
fn chain_renewal_end_to_end_through_relay() {
    // A short-chained association renews in-band; the peer AND the on-path
    // relay re-anchor from the verified renewal payload, and traffic
    // continues on the fresh chains.
    let c = cfg(Algorithm::Sha1)
        .with_chain_len(8)
        .with_reliability(Reliability::Reliable);
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(c, 70);

    // Exchange 1: ordinary traffic (consumes one pair).
    let s1 = alice.sign(b"before renewal", T0).unwrap();
    relay.observe(&s1, T0);
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    relay.observe(&a1, T0);
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    relay.observe(&s2, T0);
    let resp = bob.handle(&s2, T0, &mut r).unwrap();
    let a2 = resp.packets[0].clone();
    relay.observe(&a2, T0);
    alice.handle(&a2, T0, &mut r).unwrap();

    // Renewal exchange: alice announces fresh chains.
    let (offer, s1) = alice.begin_renewal(T0, &mut r).unwrap();
    assert_eq!(relay.observe(&s1, T0).0, RelayDecision::Forward);
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    relay.observe(&a1, T0);
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    let (dec, events) = relay.observe(&s2, T0);
    assert_eq!(dec, RelayDecision::Forward);
    assert!(!events.is_empty(), "relay verified the renewal payload");
    let resp = bob.handle(&s2, T0, &mut r).unwrap();
    assert!(resp.peer_renewed, "bob applied the renewal");
    assert!(
        resp.deliveries.is_empty(),
        "renewal payload is consumed internally"
    );
    let a2 = resp.packets[0].clone();
    relay.observe(&a2, T0);
    let fin = alice.handle(&a2, T0, &mut r).unwrap();
    assert!(fin.signer_events.contains(&SignerEvent::ExchangeComplete));
    alice.commit_renewal(offer).unwrap();

    // Bob renews too: each alice->bob exchange also consumes bob's
    // acknowledgment chain, so a long-lived association renews from both
    // ends.
    let (offer, s1) = bob.begin_renewal(T0, &mut r).unwrap();
    relay.observe(&s1, T0);
    let a1 = alice.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    relay.observe(&a1, T0);
    let s2 = bob.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    relay.observe(&s2, T0);
    let resp = alice.handle(&s2, T0, &mut r).unwrap();
    assert!(resp.peer_renewed, "alice applied bob's renewal");
    let a2 = resp.packets[0].clone();
    relay.observe(&a2, T0);
    bob.handle(&a2, T0, &mut r).unwrap();
    bob.commit_renewal(offer).unwrap();

    // Post-renewal traffic flows on the new chains, verified by bob AND
    // the relay.
    for i in 0..2u32 {
        let msg = format!("after renewal {i}");
        let s1 = alice.sign(msg.as_bytes(), T0).unwrap();
        assert_eq!(relay.observe(&s1, T0).0, RelayDecision::Forward, "i={i}");
        let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
        relay.observe(&a1, T0);
        let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
        let (dec, events) = relay.observe(&s2, T0);
        assert_eq!(dec, RelayDecision::Forward);
        assert!(events.iter().any(|e| matches!(
            e,
            alpha_core::RelayEvent::VerifiedPayload { payload, .. } if payload == msg.as_bytes()
        )));
        let resp = bob.handle(&s2, T0, &mut r).unwrap();
        assert_eq!(resp.payload().unwrap(), msg.as_bytes());
        let a2 = resp.packets[0].clone();
        relay.observe(&a2, T0);
        alice.handle(&a2, T0, &mut r).unwrap();
    }
}

#[test]
fn renewal_extends_chain_lifetime_past_exhaustion() {
    // chain_len 8 → 3 usable pairs per chain, and every alice→bob exchange
    // consumes a pair of alice's signature chain AND of bob's ack chain.
    // With both sides renewing every round, the association outlives its
    // original chains several times over.
    let c = cfg(Algorithm::Sha1).with_chain_len(8);
    let (mut alice, mut bob, mut r) = pair(c, 71);
    let mut delivered = 0;
    for round in 0..10 {
        // One data exchange.
        let msg = format!("round {round}");
        let s1 = alice.sign(msg.as_bytes(), T0).unwrap();
        let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
        let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
        delivered += bob.handle(&s2, T0, &mut r).unwrap().deliveries.len();
        // Alice renews (her sig + ack chains).
        let (offer, s1) = alice.begin_renewal(T0, &mut r).unwrap();
        let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
        let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
        let resp = bob.handle(&s2, T0, &mut r).unwrap();
        assert!(resp.peer_renewed, "round {round}");
        alice.commit_renewal(offer).unwrap();
        // Bob renews (his sig + ack chains).
        let (offer, s1) = bob.begin_renewal(T0, &mut r).unwrap();
        let a1 = alice.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
        let s2 = bob.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
        let resp = alice.handle(&s2, T0, &mut r).unwrap();
        assert!(resp.peer_renewed, "round {round}");
        bob.commit_renewal(offer).unwrap();
    }
    assert_eq!(delivered, 10, "far beyond the 3 exchanges one chain allows");
}

#[test]
fn renewal_cannot_be_committed_mid_exchange() {
    let (mut alice, _bob, mut r) = pair(cfg(Algorithm::Sha1), 72);
    let (offer, _s1) = alice.begin_renewal(T0, &mut r).unwrap();
    // The renewal exchange itself is still outstanding.
    assert_eq!(
        alice.commit_renewal(offer).map(|_| ()).unwrap_err(),
        ProtocolError::ExchangeInProgress
    );
}

#[test]
fn forged_renewal_payload_rejected_like_any_forgery() {
    // An attacker cannot inject a renewal: it rides in an ordinary S2 and
    // fails MAC verification like any tampered payload.
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 73);
    let (_offer, s1) = alice.begin_renewal(T0, &mut r).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let mut s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    if let Body::S2 { payload, .. } = &mut s2.body {
        // Attacker swaps in anchors of their own chains.
        let evil_cfg = cfg(Algorithm::Sha1);
        let (_evil, evil_payload) = alpha_core::renewal::offer(&evil_cfg, &mut r);
        *payload = evil_payload;
    }
    assert_eq!(
        bob.handle(&s2, T0, &mut r).unwrap_err(),
        ProtocolError::BadMac
    );
}

// ---------------------------------------------------------------------
// Control signalling (§1: end-host controlled, relay enforced)
// ---------------------------------------------------------------------

#[test]
fn signals_surface_to_application_not_deliveries() {
    use alpha_core::signal::Signal;
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 80);
    let sig = Signal::LocatorUpdate {
        locator: b"203.0.113.9:4500".to_vec(),
    };
    let s1 = alice.send_signal(&sig, T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    let resp = bob.handle(&s2, T0, &mut r).unwrap();
    assert!(resp.deliveries.is_empty());
    assert_eq!(resp.signals, vec![sig]);
}

#[test]
fn relay_enforces_signalled_rate_limit() {
    use alpha_core::signal::Signal;
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(cfg(Algorithm::Sha1), 81);

    // Bob signals: at most 300 payload bytes/second toward me.
    let s1 = bob
        .send_signal(&Signal::RateLimit { bytes_per_sec: 300 }, T0)
        .unwrap();
    relay.observe(&s1, T0);
    let a1 = alice.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    relay.observe(&a1, T0);
    let s2 = bob.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    assert_eq!(relay.observe(&s2, T0).0, RelayDecision::Forward);
    let resp = alice.handle(&s2, T0, &mut r).unwrap();
    assert_eq!(resp.signals.len(), 1);

    // Alice now pushes bundles; the relay forwards until the budget is
    // spent, then drops the excess *before* it reaches bob.
    let mut forwarded = 0u32;
    let mut dropped = 0u32;
    for i in 0..4 {
        let payload = vec![i as u8; 120];
        let s1 = alice.sign(&payload, T0).unwrap();
        relay.observe(&s1, T0);
        let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
        relay.observe(&a1, T0);
        let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
        match relay.observe(&s2, T0).0 {
            RelayDecision::Forward => {
                forwarded += 1;
                bob.handle(&s2, T0, &mut r).unwrap();
            }
            RelayDecision::Drop(DropReason::RateLimited) => dropped += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    // 300 B budget admits two 120 B payloads, not four.
    assert_eq!(forwarded, 2);
    assert_eq!(dropped, 2);
}

#[test]
fn relay_releases_state_on_verified_close() {
    use alpha_core::signal::Signal;
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(cfg(Algorithm::Sha1), 82);
    assert_eq!(relay.association_count(), 1);
    let s1 = alice.send_signal(&Signal::Close, T0).unwrap();
    relay.observe(&s1, T0);
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    relay.observe(&a1, T0);
    let s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    let (dec, events) = relay.observe(&s2, T0);
    assert_eq!(dec, RelayDecision::Forward, "the close itself is forwarded");
    assert!(!events.is_empty());
    assert_eq!(relay.association_count(), 0, "state released immediately");
    let resp = bob.handle(&s2, T0, &mut r).unwrap();
    assert_eq!(resp.signals, vec![Signal::Close]);
}

#[test]
fn forged_rate_limit_signal_cannot_be_injected() {
    use alpha_core::signal::Signal;
    // An attacker cannot throttle a flow by injecting a RateLimit: the
    // signal rides in an authenticated S2 like everything else.
    let (mut alice, mut bob, mut relay, mut r) = relayed_pair(cfg(Algorithm::Sha1), 83);
    let s1 = bob
        .send_signal(&Signal::RateLimit { bytes_per_sec: 1 }, T0)
        .unwrap();
    relay.observe(&s1, T0);
    let a1 = alice.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    relay.observe(&a1, T0);
    let mut s2 = bob.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    if let Body::S2 { payload, .. } = &mut s2.body {
        // Attacker rewrites the limit to zero.
        *payload = Signal::RateLimit { bytes_per_sec: 0 }.encode();
    }
    assert_eq!(
        relay.observe(&s2, T0).0,
        RelayDecision::Drop(DropReason::BadMac)
    );
}

// ---------------------------------------------------------------------
// State machine edge cases and size estimation
// ---------------------------------------------------------------------

#[test]
fn signer_rejects_out_of_state_packets() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 90);
    // A1 with no exchange outstanding.
    let s1 = alice.sign(b"x", T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let _ = alice.handle(&a1, T0, &mut r).unwrap(); // completes (unreliable)
    assert_eq!(
        alice.handle(&a1, T0, &mut r).unwrap_err(),
        ProtocolError::NoExchange
    );
    // A2 in unreliable mode.
    let s1 = alice.sign(b"y", T0).unwrap();
    let a2ish = alpha_wire::Packet {
        assoc_id: 1,
        alg: Algorithm::Sha1,
        chain_index: 1,
        body: Body::A2 {
            element: Algorithm::Sha1.hash(b"e"),
            disclosure: alpha_wire::A2Disclosure::Flat {
                ack: true,
                secret: [0; 16],
            },
        },
    };
    let err = alice.handle(&a2ish, T0, &mut r).unwrap_err();
    assert_eq!(err, ProtocolError::UnexpectedPacket);
    let _ = bob.handle(&s1, T0, &mut r);
}

#[test]
fn sign_input_validation() {
    let (mut alice, _bob, _r) = pair(cfg(Algorithm::Sha1), 91);
    assert_eq!(
        alice.sign_batch(&[], Mode::Cumulative, T0).unwrap_err(),
        ProtocolError::NoMessages
    );
    assert_eq!(
        alice.sign_batch(&[b"a", b"b"], Mode::Base, T0).unwrap_err(),
        ProtocolError::TooManyMessages
    );
    let huge = vec![0u8; alpha_wire::limits::MAX_PAYLOAD + 1];
    assert_eq!(
        alice.sign(&huge, T0).unwrap_err(),
        ProtocolError::PayloadTooLarge
    );
    assert_eq!(
        alice
            .sign_batch(&[b"a"], Mode::CumulativeMerkle { leaves_per_tree: 0 }, T0)
            .unwrap_err(),
        ProtocolError::TooManyMessages
    );
    // A second sign while one is outstanding.
    alice.sign(b"first", T0).unwrap();
    assert_eq!(
        alice.sign(b"second", T0).unwrap_err(),
        ProtocolError::ExchangeInProgress
    );
}

#[test]
fn s2_with_out_of_range_seq_rejected() {
    let (mut alice, mut bob, mut r) = pair(cfg(Algorithm::Sha1), 92);
    let s1 = alice
        .sign_batch(&[b"a", b"b"], Mode::Cumulative, T0)
        .unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let mut s2 = alice.handle(&a1, T0, &mut r).unwrap().packets.remove(0);
    if let Body::S2 { seq, .. } = &mut s2.body {
        *seq = 99;
    }
    assert_eq!(
        bob.handle(&s2, T0, &mut r).unwrap_err(),
        ProtocolError::BadSeq
    );
}

#[test]
fn s1_wire_len_estimates_match_reality() {
    let h = 20usize;
    for (mode, n) in [
        (Mode::Base, 1usize),
        (Mode::Cumulative, 20),
        (Mode::Merkle, 64),
        (Mode::CumulativeMerkle { leaves_per_tree: 8 }, 64),
    ] {
        let mut r = rng(93);
        let (mut alice, _bob) = Association::pair(cfg(Algorithm::Sha1), 1, &mut r);
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 64]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let s1 = alice.sign_batch(&refs, mode, T0).unwrap();
        assert_eq!(s1.wire_len(), mode.s1_wire_len(n, h), "{mode:?}");
    }
}

#[test]
fn s2_overhead_estimates_match_reality() {
    let h = 20usize;
    for (mode, n) in [
        (Mode::Cumulative, 16usize),
        (Mode::Merkle, 16),
        (Mode::CumulativeMerkle { leaves_per_tree: 4 }, 16),
    ] {
        let mut r = rng(94);
        let (mut alice, mut bob) = Association::pair(cfg(Algorithm::Sha1), 1, &mut r);
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 64]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let s1 = alice.sign_batch(&refs, mode, T0).unwrap();
        let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
        let s2 = &alice.handle(&a1, T0, &mut r).unwrap().packets[0];
        let (key_len, path_len) = match &s2.body {
            Body::S2 { key, path, .. } => (key.len(), path.iter().map(|d| d.len()).sum::<usize>()),
            _ => unreachable!(),
        };
        assert_eq!(key_len + path_len, mode.s2_overhead(n, h), "{mode:?}");
    }
}

#[test]
fn verifier_timeout_nacks_accelerate_repair() {
    // AMT mode: one S2 is lost. One RTO after the burst started, the
    // verifier nacks the missing seq on its own; the signer repairs
    // immediately instead of waiting out its (longer) timer.
    let c = cfg(Algorithm::Sha1)
        .with_reliability(Reliability::Reliable)
        .with_rto_micros(10_000);
    let (mut alice, mut bob, mut r) = pair(c, 95);
    let msgs: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 64]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let s1 = alice.sign_batch(&refs, Mode::Merkle, T0).unwrap();
    let a1 = bob.handle(&s1, T0, &mut r).unwrap().packet().unwrap();
    let s2s = alice.handle(&a1, T0, &mut r).unwrap().packets;
    // Deliver all but seq 2; feed the resulting acks to alice.
    for (i, s2) in s2s.iter().enumerate() {
        if i == 2 {
            continue; // lost
        }
        for a2 in bob.handle(s2, T0, &mut r).unwrap().packets {
            alice.handle(&a2, T0, &mut r).unwrap();
        }
    }
    // One RTO later the VERIFIER emits a nack for seq 2.
    let t1 = Timestamp::from_micros(12_000);
    let nacks = bob.poll(t1).packets;
    assert_eq!(nacks.len(), 1, "verifier nacks the gap");
    let out = alice.handle(&nacks[0], t1, &mut r).unwrap();
    assert!(out.signer_events.contains(&SignerEvent::Nacked(2)));
    assert_eq!(out.packets.len(), 1, "immediate retransmission of seq 2");
    // Delivery completes.
    for a2 in bob.handle(&out.packets[0], t1, &mut r).unwrap().packets {
        alice.handle(&a2, t1, &mut r).unwrap();
    }
    assert!(alice.signer().is_idle());
    // Nacks are paced: polling again immediately emits nothing.
    assert!(bob.poll(t1.plus_micros(1)).packets.is_empty());
}
