//! The chain walker against an element-by-element reference.
//!
//! Every chain this crate builds — any kind, storage layout, algorithm,
//! one lane or a lockstep pair — comes out of one fixed-block walker. The
//! reference here derives each element the slow way, one ordinary
//! `hash_parts` call per step, and the suite demands the same bytes *and*
//! the same [`counting`] record (invocations, input bytes, long inputs):
//! the Table 1 harness and the benchmark's `hashes_per_msg` read those
//! counters, so a walker that skipped or recounted a hash would move them.
//!
//! ci.sh runs the suite under every forced `ALPHA_DIGEST_BACKEND` tier.

use alpha_crypto::chain::{ChainKind, FrozenChain, HashChain, StorageKind};
use alpha_crypto::counting::{self, Counts};
use alpha_crypto::{Algorithm, Digest};

const KINDS: [ChainKind; 3] = [
    ChainKind::Plain,
    ChainKind::RoleBoundSignature,
    ChainKind::RoleBoundAck,
];
const STORAGES: [StorageKind; 3] = [StorageKind::Full, StorageKind::Compact, StorageKind::Dyadic];

/// `h_0 ..= h_steps` derived one ordinary hash call at a time.
fn reference(alg: Algorithm, kind: ChainKind, seed: &[u8], steps: u64) -> Vec<Digest> {
    let mut elements = vec![alg.hash(seed)];
    for i in 1..=steps {
        let prev = elements[elements.len() - 1];
        elements.push(match kind.tag(i) {
            Some(tag) => alg.hash_parts(&[tag, prev.as_bytes()]),
            None => alg.hash(prev.as_bytes()),
        });
    }
    elements
}

/// Forward hashes a fresh build performs: the whole chain, except that
/// dyadic pebbles stop at the first disclosure cursor `len - 1`.
fn build_steps(storage: StorageKind, len: u64) -> u64 {
    match storage {
        StorageKind::Full | StorageKind::Compact => len,
        StorageKind::Dyadic => len - 1,
    }
}

fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let scope = counting::Scope::start();
    let value = f();
    (value, scope.finish())
}

/// `chain` holds exactly `expect[..=len]`: anchor, random access at both
/// ends, and the whole descending disclosure sequence.
fn assert_chain_is(mut chain: HashChain, expect: &[Digest], what: &str) {
    let len = chain.len();
    assert_eq!(len as usize + 1, expect.len(), "{what}");
    assert_eq!(chain.anchor(), expect[len as usize], "{what} anchor");
    assert_eq!(chain.element(0), expect[0], "{what} h_0");
    assert_eq!(chain.element(1), expect[1], "{what} h_1");
    for i in (1..len).rev() {
        assert_eq!(
            chain.disclose().expect("not exhausted"),
            (i, expect[i as usize]),
            "{what} element {i}"
        );
    }
    assert!(chain.disclose().is_err(), "{what} exhausted");
}

#[test]
fn walker_matches_reference_bytes_and_counts() {
    for alg in Algorithm::ALL {
        for storage in STORAGES {
            for len in [2u64, 3, 30, 1024] {
                let even = len.next_multiple_of(2);
                let steps = build_steps(storage, even);
                for (k, &kind) in KINDS.iter().enumerate() {
                    let what = format!("{alg} {storage:?} {kind:?} len={len}");
                    // Counts from the steps a build takes, bytes up to the anchor.
                    let (_, ref_counts) = counted(|| reference(alg, kind, b"lane a", steps));
                    let expect = reference(alg, kind, b"lane a", even);

                    // One lane.
                    let (chain, counts) = counted(|| {
                        let mut one =
                            HashChain::from_seeds_batch(alg, len, storage, &[(kind, b"lane a")]);
                        one.pop().expect("one chain requested")
                    });
                    assert_eq!(counts, ref_counts, "{what} one lane");
                    assert_eq!(chain.storage_kind(), storage, "{what}");
                    assert_chain_is(chain, &expect, &what);

                    // Two lanes, the partner of another kind.
                    let partner = KINDS[(k + 1) % KINDS.len()];
                    let (_, ref_counts_b) = counted(|| reference(alg, partner, b"lane b", steps));
                    let expect_b = reference(alg, partner, b"lane b", even);
                    let (mut pair, counts) = counted(|| {
                        HashChain::from_seeds_batch(
                            alg,
                            len,
                            storage,
                            &[(kind, b"lane a"), (partner, b"lane b")],
                        )
                    });
                    assert_eq!(
                        counts.invocations,
                        ref_counts.invocations + ref_counts_b.invocations,
                        "{what} pair invocations"
                    );
                    assert_eq!(
                        counts.input_bytes,
                        ref_counts.input_bytes + ref_counts_b.input_bytes,
                        "{what} pair bytes"
                    );
                    assert_eq!(
                        counts.long_input_invocations,
                        ref_counts.long_input_invocations + ref_counts_b.long_input_invocations,
                        "{what} pair long inputs"
                    );
                    let chain_b = pair.pop().expect("two chains requested");
                    let chain_a = pair.pop().expect("two chains requested");
                    assert_chain_is(chain_a, &expect, &format!("{what} lane a"));
                    assert_chain_is(chain_b, &expect_b, &format!("{what} lane b"));
                }
            }
        }
    }
}

/// A chain of `storage` with `disclosed` elements already given out.
fn spent(
    alg: Algorithm,
    kind: ChainKind,
    storage: StorageKind,
    len: u64,
    seed: &[u8],
    disclosed: u64,
) -> HashChain {
    let mut chain = HashChain::from_seeds_batch(alg, len, storage, &[(kind, seed)])
        .pop()
        .expect("one chain requested");
    for _ in 0..disclosed {
        chain.disclose().expect("within the chain");
    }
    chain
}

#[test]
fn thaw_pair_equals_two_thaws_for_every_layout_and_cursor() {
    // (storage a, len a, storage b, len b): same layout, mixed layouts,
    // and mismatched lengths, where the lanes part ways mid-walk.
    let shapes = [
        (StorageKind::Compact, 64, StorageKind::Compact, 64),
        (StorageKind::Dyadic, 64, StorageKind::Dyadic, 64),
        (StorageKind::Full, 64, StorageKind::Dyadic, 64),
        (StorageKind::Compact, 64, StorageKind::Full, 64),
        (StorageKind::Dyadic, 64, StorageKind::Compact, 30),
        (StorageKind::Full, 30, StorageKind::Full, 64),
    ];
    for alg in Algorithm::ALL {
        for (storage_a, len_a, storage_b, len_b) in shapes {
            // Cursors: fresh, mid-chain, exhausted — and unequal between
            // the lanes, so dyadic lanes rebuild to different depths.
            for (spent_a, spent_b) in [(0, 0), (len_a / 2, 3), (len_a - 1, len_b - 1), (0, 7)] {
                let what = format!(
                    "{alg} {storage_a:?}/{len_a}-{spent_a} {storage_b:?}/{len_b}-{spent_b}"
                );
                let a = spent(
                    alg,
                    ChainKind::RoleBoundSignature,
                    storage_a,
                    len_a,
                    b"sig",
                    spent_a,
                );
                let b = spent(
                    alg,
                    ChainKind::RoleBoundAck,
                    storage_b,
                    len_b,
                    b"ack",
                    spent_b,
                );
                let (fa, fb) = (a.freeze(), b.freeze());
                let ((mut solo_a, mut solo_b), solo_counts) = counted(|| (fa.thaw(), fb.thaw()));
                let ((mut pair_a, mut pair_b), pair_counts) =
                    counted(|| FrozenChain::thaw_pair(&fa, &fb));
                assert_eq!(pair_counts, solo_counts, "{what} counts");
                for (pair, solo) in [(&mut pair_a, &mut solo_a), (&mut pair_b, &mut solo_b)] {
                    assert_eq!(pair.storage_kind(), solo.storage_kind(), "{what}");
                    assert_eq!(pair.remaining(), solo.remaining(), "{what}");
                    assert_eq!(pair.anchor(), solo.anchor(), "{what}");
                    while let Ok(next) = solo.disclose() {
                        assert_eq!(pair.disclose(), Ok(next), "{what}");
                    }
                    assert!(pair.disclose().is_err(), "{what} exhausted together");
                }
            }
        }
    }
}

#[test]
fn thaw_pair_of_different_algorithms_falls_back_to_two_thaws() {
    let a = HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::RoleBoundSignature, 16, b"a");
    let b = HashChain::from_seed_dyadic(Algorithm::MmoAes, ChainKind::RoleBoundAck, 16, b"b");
    let (ta, tb) = FrozenChain::thaw_pair(&a.freeze(), &b.freeze());
    assert_eq!(ta.anchor(), a.anchor());
    assert_eq!(tb.anchor(), b.anchor());
    assert_eq!(ta.algorithm(), Algorithm::Sha1);
    assert_eq!(tb.algorithm(), Algorithm::MmoAes);
}
