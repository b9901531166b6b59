//! Freeze → thaw equivalence: a hibernated association must be byte- and
//! decision-identical to one that never slept, across every chain storage
//! strategy and operating mode, including a thaw that lands mid-bundle
//! (the sender went quiet halfway through an S2 burst).
//!
//! The method is transcript comparison: the same fully deterministic
//! scenario runs twice — once straight through, once with freeze →
//! encode → decode → thaw injected at a chosen point — and every packet
//! byte and every delivered payload must match exactly.

use alpha_core::{
    Association, ChainStorage, Config, FrozenAssociation, Mode, ProtocolError, Reliability,
    Timestamp,
};
use alpha_crypto::Algorithm;
use alpha_wire::Packet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const STORAGES: [ChainStorage; 2] = [ChainStorage::Full, ChainStorage::Sqrt];

fn enc(p: &Packet) -> Vec<u8> {
    let mut v = Vec::new();
    p.encode_into(&mut v);
    v
}

/// Freeze, serialize, parse, thaw: the full hibernation round trip.
fn roundtrip(cfg: Config, assoc: &Association) -> Association {
    let frozen = assoc.freeze().expect("idle signer");
    let bytes = frozen.encode();
    let decoded = FrozenAssociation::decode(&bytes).expect("own record decodes");
    Association::thaw(cfg, &decoded)
}

/// Where (if anywhere) the hibernation round trip is injected in round 0.
#[derive(Clone, Copy, Debug, PartialEq)]
enum FreezePoint {
    Never,
    /// Both sides sleep between the two exchange rounds (fully idle flow).
    BetweenRounds,
    /// The verifier sleeps just before the `i`-th S2 of the burst lands
    /// (mid-bundle: buffered pre-signature, partial `received` bitmap,
    /// possibly undisclosed verdict secrets).
    BeforeS2(usize),
}

/// One exchange round at `now`: every wire byte and every delivery, in
/// order. `before_s2(i, bob)` runs just before the `i`-th S2 lands.
fn round(
    alice: &mut Association,
    bob: &mut Association,
    msgs: &[&[u8]],
    mode: Mode,
    now: Timestamp,
    r: &mut StdRng,
    mut before_s2: impl FnMut(usize, &mut Association),
) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::new();
    let s1 = alice.sign_batch(msgs, mode, now).expect("sign");
    out.push(enc(&s1));
    let a1 = bob.handle(&s1, now, r).expect("s1").packet().expect("a1");
    out.push(enc(&a1));
    let s2s = alice.handle(&a1, now, r).expect("a1").packets;
    for (i, s2) in s2s.iter().enumerate() {
        out.push(enc(s2));
        before_s2(i, bob);
        let resp = bob.handle(s2, now, r).expect("s2");
        for (seq, payload) in &resp.deliveries {
            let mut d = seq.to_be_bytes().to_vec();
            d.extend_from_slice(payload);
            out.push(d);
        }
        for a2 in &resp.packets {
            out.push(enc(a2));
            let sresp = alice.handle(a2, now, r).expect("a2");
            for p in &sresp.packets {
                out.push(enc(p));
            }
            out.push(vec![sresp.signer_events.len() as u8]);
        }
    }
    out
}

/// Run two exchange rounds and record every wire byte and delivery.
fn transcript(cfg: Config, mode: Mode, msgs: &[&[u8]], freeze: FreezePoint) -> Vec<Vec<u8>> {
    let mut r = StdRng::seed_from_u64(0xF10);
    let (mut alice, mut bob) = Association::pair(cfg, 9, &mut r);
    let mut out: Vec<Vec<u8>> = Vec::new();
    for n in 0..2u64 {
        let now = Timestamp::from_millis(n * 10);
        out.extend(round(
            &mut alice,
            &mut bob,
            msgs,
            mode,
            now,
            &mut r,
            |i, bob| {
                if n == 0 && freeze == FreezePoint::BeforeS2(i) {
                    *bob = roundtrip(cfg, bob);
                }
            },
        ));
        if n == 0 && freeze == FreezePoint::BetweenRounds {
            alice = roundtrip(cfg, &alice);
            bob = roundtrip(cfg, &bob);
        }
    }
    out
}

fn scenarios() -> Vec<(Mode, Vec<Vec<u8>>)> {
    let msgs = |n: usize| -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("payload number {i}").into_bytes())
            .collect()
    };
    vec![
        (Mode::Base, msgs(1)),
        (Mode::Cumulative, msgs(4)),
        (Mode::Merkle, msgs(4)),
        (Mode::CumulativeMerkle { leaves_per_tree: 2 }, msgs(5)),
    ]
}

#[test]
fn thaw_is_decision_identical_across_storages_modes_and_freeze_points() {
    for storage in STORAGES {
        for reliability in [Reliability::Unreliable, Reliability::Reliable] {
            for (mode, msgs) in scenarios() {
                let cfg = Config::new(Algorithm::Sha1)
                    .with_chain_len(64)
                    .with_chain_storage(storage)
                    .with_reliability(reliability);
                let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                let baseline = transcript(cfg, mode, &refs, FreezePoint::Never);
                for freeze in [
                    FreezePoint::BetweenRounds,
                    FreezePoint::BeforeS2(0),
                    FreezePoint::BeforeS2(refs.len() / 2),
                    FreezePoint::BeforeS2(refs.len() - 1),
                ] {
                    let frozen = transcript(cfg, mode, &refs, freeze);
                    assert_eq!(
                        baseline, frozen,
                        "diverged: {storage:?} {reliability:?} {mode:?} {freeze:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn thaw_is_decision_identical_across_algorithms() {
    for alg in Algorithm::ALL {
        let cfg = Config::new(alg)
            .with_chain_len(64)
            .with_reliability(Reliability::Reliable);
        let msgs: Vec<&[u8]> = vec![b"one", b"two", b"three"];
        let baseline = transcript(cfg, Mode::Cumulative, &msgs, FreezePoint::Never);
        let frozen = transcript(cfg, Mode::Cumulative, &msgs, FreezePoint::BeforeS2(1));
        assert_eq!(baseline, frozen, "diverged on {alg:?}");
    }
}

#[test]
fn flow_frozen_after_every_exchange_matches_a_never_frozen_twin() {
    // The duty-cycled sender: both ends sleep between any two exchanges,
    // down most of a default-length chain, so every wake starts from the
    // one checkpoint its record carries and the cursor crosses its
    // checkpoint boundaries asleep.
    for reliability in [Reliability::Unreliable, Reliability::Reliable] {
        let cfg = Config::new(Algorithm::Sha1)
            .with_chain_storage(ChainStorage::Sqrt)
            .with_reliability(reliability);
        let mut worlds = [false, true].map(|churn| {
            let mut r = StdRng::seed_from_u64(0xC4);
            let (alice, bob) = Association::pair(cfg, 9, &mut r);
            (churn, alice, bob, r)
        });
        for n in 0..500u64 {
            let now = Timestamp::from_millis(n * 10);
            let payload = format!("reading {n}").into_bytes();
            let mut outs = worlds.iter_mut().map(|(churn, alice, bob, r)| {
                let out = round(alice, bob, &[&payload], Mode::Base, now, r, |_, _| {});
                if *churn {
                    *alice = roundtrip(cfg, alice);
                    *bob = roundtrip(cfg, bob);
                }
                out
            });
            let (twin, churned) = (outs.next(), outs.next());
            assert_eq!(twin, churned, "diverged at exchange {n} ({reliability:?})");
        }
    }
}

#[test]
fn idle_record_is_compact_regardless_of_chain_length() {
    // The whole point of hibernation: chain cursors and anchors, not
    // element vectors. A 4096-element SHA-1 flow must freeze to well under
    // a quarter kilobyte.
    for storage in STORAGES {
        let cfg = Config::new(Algorithm::Sha1)
            .with_chain_len(4096)
            .with_chain_storage(storage);
        let mut r = StdRng::seed_from_u64(4);
        let (alice, _) = Association::pair(cfg, 1, &mut r);
        let bytes = alice.freeze().expect("idle").encode();
        assert!(
            bytes.len() < 256,
            "{storage:?} record is {} bytes",
            bytes.len()
        );
    }
}

#[test]
fn freeze_refused_while_signer_exchange_outstanding() {
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
    let mut r = StdRng::seed_from_u64(5);
    let (mut alice, _) = Association::pair(cfg, 1, &mut r);
    alice.sign(b"in flight", Timestamp::ZERO).expect("sign");
    assert!(matches!(
        alice.freeze(),
        Err(ProtocolError::ExchangeInProgress)
    ));
}

#[test]
fn truncated_records_are_rejected_not_panicked() {
    let cfg = Config::new(Algorithm::Sha1)
        .with_chain_len(64)
        .with_reliability(Reliability::Reliable);
    let mut r = StdRng::seed_from_u64(6);
    let (mut alice, mut bob) = Association::pair(cfg, 1, &mut r);
    // Put the verifier mid-bundle so the record exercises every section.
    let msgs: Vec<&[u8]> = vec![b"a", b"b", b"c"];
    let s1 = alice
        .sign_batch(&msgs, Mode::Cumulative, Timestamp::ZERO)
        .expect("sign");
    let a1 = bob
        .handle(&s1, Timestamp::ZERO, &mut r)
        .expect("s1")
        .packet()
        .expect("a1");
    let s2s = alice
        .handle(&a1, Timestamp::ZERO, &mut r)
        .expect("a1")
        .packets;
    bob.handle(&s2s[0], Timestamp::ZERO, &mut r).expect("s2");
    let bytes = bob.freeze().expect("idle").encode();
    assert!(FrozenAssociation::decode(&bytes).is_some());
    for cut in 0..bytes.len() {
        assert!(
            FrozenAssociation::decode(&bytes[..cut]).is_none(),
            "prefix of {cut} bytes decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized version of the transcript equivalence: arbitrary bundle
    /// shapes, payload sizes, storages, reliability and freeze points.
    #[test]
    fn freeze_thaw_transcripts_match(
        n in 1usize..6,
        payload_len in 0usize..48,
        storage_ix in 0usize..2,
        reliable in any::<bool>(),
        merkle in any::<bool>(),
        freeze_ix in 0usize..6,
    ) {
        let mode = if merkle { Mode::Merkle } else { Mode::Cumulative };
        let cfg = Config::new(Algorithm::Sha1)
            .with_chain_len(64)
            .with_chain_storage(STORAGES[storage_ix])
            .with_reliability(if reliable { Reliability::Reliable } else { Reliability::Unreliable });
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; payload_len]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let baseline = transcript(cfg, mode, &refs, FreezePoint::Never);
        let frozen = transcript(cfg, mode, &refs, FreezePoint::BeforeS2(freeze_ix % n));
        prop_assert_eq!(baseline, frozen);
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = FrozenAssociation::decode(&bytes);
    }
}
