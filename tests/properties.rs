//! Property-based tests (proptest) over the core data structures and
//! protocol invariants.

use alpha::core::{Association, Config, Mode, Reliability, Timestamp};
use alpha::crypto::chain::{ChainKind, ChainVerifier, HashChain};
use alpha::crypto::merkle::{self, MerkleTree};
use alpha::crypto::{amt, Algorithm, Digest};
use alpha::wire::limits::MAX_BUNDLE;
use alpha::wire::{
    bundle, A2Disclosure, AckCommit, Body, Handshake, HandshakeAuth, HandshakeRole, Packet,
    PacketView, PreSignature,
};
use proptest::prelude::*;
use rand::SeedableRng;

const T0: Timestamp = Timestamp::ZERO;

fn algorithms() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::Sha1),
        Just(Algorithm::Sha256),
        Just(Algorithm::MmoAes)
    ]
}

fn digest(alg: Algorithm) -> impl Strategy<Value = Digest> {
    proptest::collection::vec(any::<u8>(), alg.digest_len())
        .prop_map(move |v| Digest::from_slice(&v))
}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

fn arbitrary_packet() -> impl Strategy<Value = Packet> {
    algorithms().prop_flat_map(|alg| {
        let body = prop_oneof![
            // S1 cumulative
            (digest(alg), proptest::collection::vec(digest(alg), 1..32)).prop_map(
                move |(element, macs)| Body::S1 {
                    element,
                    presig: PreSignature::Cumulative(macs),
                }
            ),
            // S1 merkle
            (digest(alg), digest(alg), 1u32..1_000_000).prop_map(move |(element, root, leaves)| {
                Body::S1 {
                    element,
                    presig: PreSignature::MerkleRoot { root, leaves },
                }
            }),
            // S1 merkle forest (ALPHA-C + ALPHA-M combination)
            (
                digest(alg),
                proptest::collection::vec((digest(alg), 1u32..64), 1..16)
            )
                .prop_map(move |(element, trees)| Body::S1 {
                    element,
                    presig: PreSignature::MerkleForest(
                        trees
                            .into_iter()
                            .map(|(root, leaves)| alpha::wire::TreeDescriptor { root, leaves })
                            .collect(),
                    ),
                }),
            // A1 variants
            (digest(alg), digest(alg), digest(alg), any::<u8>()).prop_map(
                move |(element, a, b, pick)| Body::A1 {
                    element,
                    commit: match pick % 3 {
                        0 => AckCommit::None,
                        1 => AckCommit::Flat {
                            pre_ack: a,
                            pre_nack: b
                        },
                        _ => AckCommit::Amt { root: a, leaves: 7 },
                    },
                }
            ),
            // S2
            (
                digest(alg),
                any::<u32>(),
                proptest::collection::vec(digest(alg), 0..12),
                proptest::collection::vec(any::<u8>(), 0..300)
            )
                .prop_map(move |(key, seq, path, payload)| Body::S2 {
                    key,
                    seq,
                    path,
                    payload
                }),
            // A2 flat
            (digest(alg), any::<bool>(), any::<[u8; 16]>()).prop_map(
                move |(element, ack, secret)| {
                    Body::A2 {
                        element,
                        disclosure: A2Disclosure::Flat { ack, secret },
                    }
                }
            ),
            // A2 AMT: selective verdicts, each with its own path
            (
                digest(alg),
                proptest::collection::vec(
                    (
                        any::<u32>(),
                        any::<bool>(),
                        any::<[u8; 16]>(),
                        proptest::collection::vec(digest(alg), 0..6)
                    ),
                    1..8
                )
            )
                .prop_map(move |(element, items)| Body::A2 {
                    element,
                    disclosure: A2Disclosure::Amt(
                        items
                            .into_iter()
                            .map(|(packet_index, ack, secret, path)| amt::AmtDisclosure {
                                packet_index,
                                ack,
                                secret,
                                path,
                            })
                            .collect(),
                    ),
                }),
            // Handshake
            (
                digest(alg),
                digest(alg),
                any::<u64>(),
                any::<u64>(),
                any::<bool>(),
                proptest::collection::vec(any::<u8>(), 0..64),
            )
                .prop_map(move |(sa, aa, si, ai, init, blob)| {
                    Body::Handshake(Handshake {
                        role: if init {
                            HandshakeRole::Init
                        } else {
                            HandshakeRole::Reply
                        },
                        sig_anchor: sa,
                        sig_anchor_index: si,
                        ack_anchor: aa,
                        ack_anchor_index: ai,
                        auth: if blob.is_empty() {
                            None
                        } else {
                            Some(HandshakeAuth {
                                scheme: 1,
                                public_key: blob.clone(),
                                signature: blob,
                            })
                        },
                    })
                }),
        ];
        (any::<u64>(), any::<u64>(), body).prop_map(move |(assoc_id, chain_index, body)| Packet {
            assoc_id,
            alg,
            chain_index,
            body,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_roundtrip(pkt in arbitrary_packet()) {
        let bytes = pkt.emit();
        let parsed = Packet::parse(&bytes).expect("own encodings parse");
        prop_assert_eq!(parsed, pkt);
    }

    #[test]
    fn wire_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Packet::parse(&bytes); // must not panic, leak, or loop
    }

    #[test]
    fn wire_truncation_always_errors(pkt in arbitrary_packet(), cut in 0usize..64) {
        let bytes = pkt.emit();
        if cut < bytes.len() {
            let prefix = &bytes[..bytes.len() - 1 - cut % bytes.len().max(1)];
            prop_assert!(Packet::parse(prefix).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Piggyback bundles of arbitrary packets round-trip, and arbitrary
    /// bytes never panic the bundle parser.
    #[test]
    fn bundle_roundtrip_and_robustness(
        pkts in proptest::collection::vec(arbitrary_packet(), 1..16),
        junk in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let frame = alpha::wire::bundle::emit(&pkts).expect("1..=16 packets fit a bundle");
        prop_assert_eq!(alpha::wire::bundle::parse(&frame).unwrap(), pkts);
        let _ = alpha::wire::bundle::parse(&junk); // must not panic
        // A bundle-tagged prefix over junk must not panic either.
        let mut tagged = vec![0xB1];
        tagged.extend_from_slice(&junk);
        let _ = alpha::wire::bundle::parse(&tagged);
    }
}

// The decoder has no second implementation to be compared with
// (`Packet::parse` is `PacketView::parse` copied out), so its oracle is
// its own encoder and its own totality: the three properties below are
// what ci.sh's "decoder robustness" step runs in release.

/// The fixed header of some packet type and algorithm over an arbitrary
/// body, so random bytes reach the body decoders instead of dying on the
/// magic. Three body bytes in four are below 4: tags, flags, counts and
/// length fields then come out plausible often enough that some prefix of
/// the body is a packet nobody's encoder wrote.
fn plausible_bytes() -> impl Strategy<Value = Vec<u8>> {
    let byte = (any::<u8>(), any::<u8>()).prop_map(|(sel, b)| if sel < 192 { b % 4 } else { b });
    (1u8..=6, 1u8..=3, proptest::collection::vec(byte, 0..160)).prop_map(|(ptype, alg, body)| {
        let mut bytes = vec![0xA1, 0xFA, 1, ptype, alg];
        bytes.extend_from_slice(&[0; 16]);
        bytes.extend_from_slice(&body);
        bytes
    })
}

/// `bytes` decodes only to a packet that encodes back to `bytes`.
fn check_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(view) = PacketView::parse(bytes) {
        let owned = view.to_packet();
        prop_assert_eq!(owned.emit(), bytes);
        prop_assert_eq!(owned.wire_len(), bytes.len());
        prop_assert_eq!(view.packet_type(), owned.packet_type());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Every byte string the decoder accepts is canonical — it re-encodes
    /// to itself — so a relay that forwards the slice it judged and one
    /// that re-encodes the parsed packet put the same bytes on the wire.
    /// Driven by single flipped bytes of real encodings (nine in ten stay
    /// decodable) and by every prefix of an arbitrary body under a
    /// plausible header (one case in nine holds a decodable prefix, spread
    /// over all six packet types).
    #[test]
    fn accepted_bytes_are_canonical(
        pkt in arbitrary_packet(),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
        arbitrary in plausible_bytes(),
    ) {
        let mut flipped = pkt.emit();
        let pos = ((pos_frac * flipped.len() as f64) as usize).min(flipped.len() - 1);
        flipped[pos] ^= xor;
        check_canonical(&flipped)?;
        for end in 0..=arbitrary.len() {
            check_canonical(&arbitrary[..end])?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of an encoding — a bare packet's or a bundle
    /// frame's — is an error, never a panic and never a shorter packet.
    #[test]
    fn every_strict_prefix_is_an_error(
        pkts in proptest::collection::vec(arbitrary_packet(), 1..4),
    ) {
        let bytes = pkts[0].emit();
        for cut in 0..bytes.len() {
            prop_assert!(PacketView::parse(&bytes[..cut]).is_err(), "prefix of {} bytes decoded", cut);
        }
        let frame = bundle::emit(&pkts).expect("1..=3 packets fit a bundle");
        for cut in 0..frame.len() {
            prop_assert!(bundle::parse(&frame[..cut]).is_err(), "bundle prefix of {} bytes decoded", cut);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary bytes, bare or behind a bundle tag, never panic the
    /// decoder, the splitter or the two composed.
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 1..2048),
        plausible in plausible_bytes(),
    ) {
        let mut tagged = bytes.clone();
        tagged[0] = bundle::BUNDLE_TAG;
        let mut slices: [&[u8]; MAX_BUNDLE] = [&[]; MAX_BUNDLE];
        for frame in [&plausible, &bytes, &tagged] {
            let _ = PacketView::parse(frame);
            let _ = bundle::split(frame, &mut slices);
            let _ = bundle::parse(frame);
        }
    }
}

// ---------------------------------------------------------------------
// Hash chains
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chain_any_element_verifies_against_anchor(
        seed in any::<[u8; 16]>(),
        len in 2u64..80,
        idx_frac in 0.0f64..1.0,
    ) {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, &seed);
        let n = chain.anchor_index();
        let idx = 1 + ((idx_frac * (n - 1) as f64) as u64).min(n - 2);
        let verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            n,
        ).with_max_skip(n);
        prop_assert!(verifier.check(idx, &chain.element(idx)).is_ok());
    }

    #[test]
    fn chain_cross_seed_never_verifies(
        seed_a in any::<[u8; 16]>(),
        seed_b in any::<[u8; 16]>(),
        idx in 1u64..15,
    ) {
        prop_assume!(seed_a != seed_b);
        let a = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 16, &seed_a);
        let b = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 16, &seed_b);
        let verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            a.anchor(),
            a.anchor_index(),
        ).with_max_skip(64);
        prop_assert!(verifier.check(idx, &b.element(idx)).is_err());
    }

    #[test]
    fn chain_disclosure_order_strictly_descends(seed in any::<[u8; 16]>(), len in 4u64..64) {
        let mut chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundAck, len, &seed);
        let mut last = u64::MAX;
        while let Ok((announce, key)) = chain.disclose_pair() {
            prop_assert!(announce.0 < last);
            prop_assert_eq!(key.0, announce.0 - 1);
            last = key.0;
        }
    }
}

// ---------------------------------------------------------------------
// Merkle trees / AMT
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merkle_every_leaf_proves(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..40),
        alg in algorithms(),
    ) {
        let tree = MerkleTree::from_messages(alg, &msgs);
        let key = alg.hash(b"key");
        let root = tree.keyed_root(&key);
        for (j, m) in msgs.iter().enumerate() {
            let leaf = alg.hash(m);
            prop_assert!(merkle::verify_keyed(alg, &key, &leaf, j, &tree.auth_path(j), &root));
        }
    }

    #[test]
    fn merkle_wrong_index_or_message_fails(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 2..20),
        wrong in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let alg = Algorithm::Sha1;
        let tree = MerkleTree::from_messages(alg, &msgs);
        let key = alg.hash(b"key");
        let root = tree.keyed_root(&key);
        // Message swap fails unless identical.
        if !msgs.contains(&wrong) {
            let leaf = alg.hash(&wrong);
            prop_assert!(!merkle::verify_keyed(alg, &key, &leaf, 0, &tree.auth_path(0), &root));
        }
        // Index swap fails unless leaves identical.
        if msgs[0] != msgs[1] {
            let leaf = alg.hash(&msgs[0]);
            prop_assert!(!merkle::verify_keyed(alg, &key, &leaf, 1, &tree.auth_path(1), &root));
        }
    }

    #[test]
    fn capacity_formula_matches_real_trees(n in 1u64..300) {
        // Per-packet signature bytes from a real tree == the formula term.
        let alg = Algorithm::Sha1;
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; 4]).collect();
        let tree = MerkleTree::from_messages(alg, &msgs);
        let sig = (tree.auth_path(0).len() as u64 + 1) * 20;
        prop_assert_eq!(sig, 20 * (merkle::log2_ceil(n) + 1));
    }

    #[test]
    fn amt_verdicts_are_unforgeable_across_indices(
        n in 1usize..40,
        j in 0usize..40,
        k in 0usize..40,
        ack in any::<bool>(),
    ) {
        prop_assume!(j < n && k < n && j != k);
        let alg = Algorithm::Sha1;
        let mut rng = rand::rngs::StdRng::seed_from_u64((n * 41 + j) as u64);
        let tree = amt::AckMerkleTree::generate(alg, n, &mut rng);
        let key = alg.hash(b"ack element");
        let root = tree.keyed_root(&key);
        // The real verdict verifies…
        let d = tree.disclose(j, ack);
        prop_assert_eq!(amt::verify_disclosure(alg, &key, n, &d, &root), Some(ack));
        // …and cannot be re-targeted to another packet or flipped.
        let mut retarget = d.clone();
        retarget.packet_index = k as u32;
        prop_assert_eq!(amt::verify_disclosure(alg, &key, n, &retarget, &root), None);
        let mut flip = d;
        flip.ack = !ack;
        prop_assert_eq!(amt::verify_disclosure(alg, &key, n, &flip, &root), None);
    }
}

// ---------------------------------------------------------------------
// Wire ⇄ core size formulas
// ---------------------------------------------------------------------

/// Drive one unreliable exchange and check every serialized packet
/// against the planning formulas [`Mode::s1_wire_len`] and
/// [`Mode::s2_overhead`] (the adaptation plane budgets bytes with these,
/// so they must track the real wire exactly).
///
/// The S2 constant 28 is header (21) + seq (4) + path count (1) +
/// payload length (2); key and path are the `s2_overhead` term.
fn check_exchange_sizes(alg: Algorithm, mode: Mode, payloads: &[Vec<u8>]) {
    let n = payloads.len();
    let h = alg.digest_len();
    let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
    let cfg = Config::new(alg).with_chain_len(8);
    let (mut alice, mut bob) = Association::pair(cfg, 1, &mut rng);
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();

    let s1 = alice.sign_batch(&refs, mode, T0).unwrap();
    assert_eq!(
        s1.wire_len(),
        mode.s1_wire_len(n, h),
        "S1 size for {mode:?} n={n} alg={alg:?}"
    );
    assert_eq!(s1.emit().len(), s1.wire_len());

    let a1 = bob.handle(&s1, T0, &mut rng).unwrap().packet().unwrap();
    let s2s = alice.handle(&a1, T0, &mut rng).unwrap().packets;
    assert_eq!(s2s.len(), n, "one S2 per message");
    for s2 in &s2s {
        let Body::S2 { seq, payload, .. } = &s2.body else {
            panic!("expected S2, got {s2:?}")
        };
        let sig_bytes = s2.wire_len() - payload.len() - 28;
        let bound = mode.s2_overhead(n, h);
        assert!(
            sig_bytes <= bound,
            "S2 overhead for {mode:?} n={n}: {sig_bytes} > formula {bound}"
        );
        // The formula is exact except for messages in a ragged final
        // CumulativeMerkle tree, whose path is shallower.
        let exact = match mode {
            Mode::CumulativeMerkle { leaves_per_tree } => {
                let lpt = leaves_per_tree.max(1);
                let tree_size = lpt.min(n - (*seq as usize / lpt) * lpt);
                tree_size == lpt.min(n)
            }
            _ => true,
        };
        if exact {
            assert_eq!(sig_bytes, bound, "S2 overhead for {mode:?} n={n} seq={seq}");
        }
        assert_eq!(s2.emit().len(), s2.wire_len());
    }
}

#[test]
fn s1_and_s2_sizes_match_formulas_for_all_modes_and_bundle_sizes() {
    // Exhaustive sweep: every mode at every bundle size 1..=64 (Base is
    // single-message by definition, so it runs at n = 1 only).
    check_exchange_sizes(Algorithm::Sha1, Mode::Base, &[vec![7u8; 33]]);
    for n in 1..=64usize {
        let payloads: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 17 + i % 5]).collect();
        check_exchange_sizes(Algorithm::Sha1, Mode::Cumulative, &payloads);
        check_exchange_sizes(Algorithm::Sha1, Mode::Merkle, &payloads);
        for lpt in [1, 3, 4, 8] {
            check_exchange_sizes(
                Algorithm::Sha1,
                Mode::CumulativeMerkle {
                    leaves_per_tree: lpt,
                },
                &payloads,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same size laws under arbitrary algorithms, bundle sizes,
    /// tree widths and payload lengths.
    #[test]
    fn s1_and_s2_sizes_match_formulas(
        alg in algorithms(),
        mode_pick in 0u8..3,
        lpt in 1usize..=8,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..=64),
    ) {
        let mode = match mode_pick {
            0 => Mode::Cumulative,
            1 => Mode::Merkle,
            _ => Mode::CumulativeMerkle { leaves_per_tree: lpt },
        };
        check_exchange_sizes(alg, mode, &payloads);
    }
}

// ---------------------------------------------------------------------
// Protocol invariants under random schedules
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bundles through random modes with random S2 delivery orders
    /// and random duplication: every message delivered exactly once, with
    /// exactly its original bytes.
    #[test]
    fn exchange_delivers_exactly_once_any_order(
        seed in any::<u64>(),
        mode_pick in 0u8..3,
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..12),
        order_seed in any::<u64>(),
    ) {
        let mode = match mode_pick {
            0 => Mode::Base,
            1 => Mode::Cumulative,
            _ => Mode::Merkle,
        };
        let msgs = if mode == Mode::Base { vec![msgs[0].clone()] } else { msgs };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(32);
        let (mut alice, mut bob) = Association::pair(cfg, 1, &mut rng);
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let s1 = alice.sign_batch(&refs, mode, T0).unwrap();
        let a1 = bob.handle(&s1, T0, &mut rng).unwrap().packet().unwrap();
        let mut s2s = alice.handle(&a1, T0, &mut rng).unwrap().packets;
        // Shuffle and duplicate the S2s.
        let mut order_rng = rand::rngs::StdRng::seed_from_u64(order_seed);
        use rand::seq::SliceRandom;
        let dups: Vec<_> = s2s.clone();
        s2s.extend(dups);
        s2s.shuffle(&mut order_rng);
        let mut delivered: Vec<(u32, Vec<u8>)> = Vec::new();
        for s2 in &s2s {
            let resp = bob.handle(s2, T0, &mut rng).unwrap();
            delivered.extend(resp.deliveries);
        }
        prop_assert_eq!(delivered.len(), msgs.len(), "exactly-once");
        delivered.sort_by_key(|(seq, _)| *seq);
        for (i, (seq, payload)) in delivered.iter().enumerate() {
            prop_assert_eq!(*seq as usize, i);
            prop_assert_eq!(payload, &msgs[i]);
        }
    }

    /// Any single-byte corruption of an S2 payload or MAC key is rejected.
    #[test]
    fn any_s2_corruption_rejected(
        seed in any::<u64>(),
        flip_byte in any::<u8>(),
        flip_pos_frac in 0.0f64..1.0,
    ) {
        prop_assume!(flip_byte != 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(16);
        let (mut alice, mut bob) = Association::pair(cfg, 1, &mut rng);
        let s1 = alice.sign(b"integrity protected payload", T0).unwrap();
        let a1 = bob.handle(&s1, T0, &mut rng).unwrap().packet().unwrap();
        let s2 = alice.handle(&a1, T0, &mut rng).unwrap().packets.remove(0);
        let mut bytes = s2.emit();
        // Flip one byte anywhere beyond the 21-byte header.
        let pos = 21 + ((flip_pos_frac * (bytes.len() - 21) as f64) as usize).min(bytes.len() - 22);
        bytes[pos] ^= flip_byte;
        match Packet::parse(&bytes) {
            Err(_) => {} // parser caught it
            Ok(corrupted) => {
                // Protocol layer must reject; never deliver wrong bytes.
                match bob.handle(&corrupted, T0, &mut rng) {
                    Err(_) => {}
                    Ok(resp) => {
                        for (_, p) in &resp.deliveries {
                            prop_assert_eq!(p.as_slice(), b"integrity protected payload".as_slice());
                        }
                    }
                }
            }
        }
    }

    /// Reliable-mode exchanges complete under arbitrary loss patterns once
    /// retransmission is driven long enough.
    #[test]
    fn reliable_exchange_converges_under_loss(
        seed in any::<u64>(),
        loss_mask in any::<u32>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = Config::new(Algorithm::Sha1)
            .with_chain_len(16)
            .with_reliability(Reliability::Reliable)
            .with_rto_micros(1_000);
        let (mut alice, mut bob) = Association::pair(cfg, 1, &mut rng);
        let msgs: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 50]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mut wire: Vec<Packet> = vec![alice.sign_batch(&refs, Mode::Merkle, T0).unwrap()];
        let mut t = T0;
        let mut drop_idx = 0u32;
        for _ in 0..400 {
            if alice.signer().is_idle() {
                break;
            }
            let mut next = Vec::new();
            for pkt in wire.drain(..) {
                // Drop packets per the loss mask (cycled).
                let lose = (loss_mask >> (drop_idx % 32)) & 1 == 1;
                drop_idx += 1;
                if lose {
                    continue;
                }
                let resp = match pkt.packet_type() {
                    alpha::wire::PacketType::S1 | alpha::wire::PacketType::S2 => {
                        bob.handle(&pkt, t, &mut rng)
                    }
                    _ => alice.handle(&pkt, t, &mut rng),
                };
                if let Ok(resp) = resp {
                    next.extend(resp.packets);
                }
            }
            t = t.plus_micros(1_100);
            next.extend(alice.poll(t).packets);
            bob.verifier().poll(t);
            wire = next;
        }
        // With ≤50% structured loss and 400 rounds, the exchange converges
        // unless the mask drops everything.
        if loss_mask.count_ones() < 30 {
            prop_assert!(alice.signer().is_idle(), "exchange converged");
        }
    }
}

// ---------------------------------------------------------------------
// Relay robustness: arbitrary packets never panic, never forge
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A relay with a live association fed arbitrary well-formed packets:
    /// must never panic, and must never emit a VerifiedPayload for content
    /// the signer did not send.
    #[test]
    fn relay_survives_arbitrary_packets(pkt in arbitrary_packet(), seed in any::<u64>()) {
        use alpha::core::{bootstrap, Relay, RelayConfig, RelayEvent};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = Config::new(pkt.alg).with_chain_len(16);
        let (hs, init) = bootstrap::initiate(cfg, pkt.assoc_id, None, &mut rng);
        let mut relay = Relay::new(RelayConfig { s1_bytes_per_sec: None, ..RelayConfig::default() });
        relay.observe(&init, T0);
        let (_bob, reply, _) = bootstrap::respond(
            cfg,
            &init,
            None,
            bootstrap::AuthRequirement::None,
            &mut rng,
        )
        .unwrap();
        relay.observe(&reply, T0);
        let _ = hs;
        // The arbitrary packet claims this association: whatever happens,
        // no panic, and no extraction of unverified payloads.
        let (_decision, events) = relay.observe(&pkt, T0);
        for ev in events {
            prop_assert!(
                !matches!(ev, RelayEvent::VerifiedPayload { .. }),
                "relay extracted a payload from an arbitrary packet"
            );
        }
    }

    /// Endpoints fed arbitrary packets for their own association id and
    /// algorithm never panic and never deliver unverified payloads.
    #[test]
    fn endpoint_survives_arbitrary_packets(pkt in arbitrary_packet(), seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = Config::new(pkt.alg).with_chain_len(16);
        let (mut alice, mut bob) = Association::pair(cfg, pkt.assoc_id, &mut rng);
        for host in [&mut alice, &mut bob] {
            match host.handle(&pkt, T0, &mut rng) {
                Err(_) => {}
                Ok(resp) => prop_assert!(
                    resp.deliveries.is_empty(),
                    "arbitrary packet produced a delivery"
                ),
            }
        }
    }
}
