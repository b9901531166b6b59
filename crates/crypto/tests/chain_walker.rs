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
//! The second half holds a chain thawed from the checkpoint and
//! super-checkpoint its frozen record carries to the same standard. Every
//! layout thaws without a hash and discloses the never-frozen bytes from
//! every cursor, and a chain that keeps every element discloses without
//! one. A √n-checkpointed chain walks from the super-checkpoint the first
//! time a disclosure needs a lower checkpoint and at most once from the
//! seed; and a flow frozen after every exchange pays the hash budget
//! those walks imply, pinned exactly.
//!
//! ci.sh runs the suite under every forced `ALPHA_DIGEST_BACKEND` tier.

use alpha_crypto::chain::{ChainKind, ChainStorage, FrozenChain, HashChain};
use alpha_crypto::counting::{self, Counts};
use alpha_crypto::{Algorithm, Digest};

const KINDS: [ChainKind; 3] = [
    ChainKind::Plain,
    ChainKind::RoleBoundSignature,
    ChainKind::RoleBoundAck,
];
const STORAGES: [ChainStorage; 2] = [ChainStorage::Full, ChainStorage::Sqrt];

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
                // A build walks the whole chain, whatever the layout.
                let even = len.next_multiple_of(2);
                for (k, &kind) in KINDS.iter().enumerate() {
                    let what = format!("{alg} {storage:?} {kind:?} len={len}");
                    let (expect, ref_counts) = counted(|| reference(alg, kind, b"lane a", even));

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
                    let (expect_b, ref_counts_b) =
                        counted(|| reference(alg, partner, b"lane b", even));
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
    storage: ChainStorage,
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

/// The record a chain of `storage` frozen with `cursor` undisclosed
/// elements carries, written down from the reference `elements`: layout,
/// length, cursor, seed hash, then the checkpoint under the cursor and —
/// tag 2 — the super-checkpoint under that, or tag 1 without one.
fn record(storage: ChainStorage, cursor: u64, elements: &[Digest]) -> Vec<u8> {
    let len = elements.len() as u64 - 1;
    let step = match storage {
        ChainStorage::Full => 1,
        ChainStorage::Sqrt => interval(len),
    };
    let c = cursor / step;
    let sup = super_number(len, step, c);
    let mut bytes = vec![u8::from(storage == ChainStorage::Sqrt)];
    bytes.extend(len.to_be_bytes());
    bytes.extend(cursor.to_be_bytes());
    bytes.extend(elements[0].as_bytes());
    bytes.push(if sup > 0 { 2 } else { 1 });
    bytes.extend(elements[(c * step) as usize].as_bytes());
    if sup > 0 {
        bytes.extend(elements[(sup * step) as usize].as_bytes());
    }
    bytes
}

#[test]
fn every_layout_thaws_without_hashing_and_discloses_the_reference() {
    for alg in Algorithm::ALL {
        for storage in STORAGES {
            for len in [2u64, 30, 64, 4096] {
                for kind in KINDS {
                    let expect = reference(alg, kind, b"thaw", len);
                    let mut live = spent(alg, kind, storage, len, b"thaw", 0);
                    // Cursors: fresh, mid-chain and exhausted.
                    for cursor in [len - 1, len / 2, 0] {
                        let what = format!("{alg} {storage:?} {kind:?} len={len} at {cursor}");
                        let bytes = record(storage, cursor, &expect);
                        // Walking a long √n chain down costs n·√n / 2
                        // hashes (MMO is slow unoptimised): its record is
                        // checked against `freeze` where the walk is free.
                        if storage == ChainStorage::Full || len <= 64 || cursor == len - 1 {
                            while live.remaining() > cursor {
                                let (got, counts) = counted(|| live.disclose());
                                assert!(got.is_ok(), "{what}");
                                if storage == ChainStorage::Full {
                                    assert_eq!(counts, Counts::default(), "{what}: held");
                                }
                            }
                            let mut frozen = Vec::new();
                            live.freeze().encode_into(&mut frozen);
                            assert_eq!(frozen, bytes, "{what}: freeze writes the record");
                        }
                        let mut rest = bytes.as_slice();
                        let frozen = FrozenChain::decode(&mut rest, alg, kind).expect("decodes");
                        assert!(rest.is_empty(), "{what}");
                        let (mut thawed, counts) = counted(|| frozen.thaw());
                        assert_eq!(counts, Counts::default(), "{what}: thaw hashes nothing");
                        assert_eq!(thawed.algorithm(), alg, "{what}");
                        assert_eq!(thawed.storage_kind(), storage, "{what}");
                        assert_eq!(thawed.remaining(), cursor, "{what}");
                        // A long chain is followed past a checkpoint of
                        // its own, a short one to exhaustion.
                        let stop = if len > 64 {
                            cursor.saturating_sub(interval(len) + 3)
                        } else {
                            0
                        };
                        for i in (stop + 1..=cursor).rev() {
                            let got = thawed.disclose();
                            assert_eq!(got, Ok((i, expect[i as usize])), "{what} element {i}");
                        }
                        if stop == 0 {
                            assert!(thawed.disclose().is_err(), "{what} exhausted");
                        }
                    }
                }
            }
        }
    }
}

/// `⌈√len⌉`: how far apart a compact chain's checkpoints sit.
fn interval(len: u64) -> u64 {
    (len as f64).sqrt().ceil() as u64
}

/// Number of the super-checkpoint a record frozen with its cursor over
/// checkpoint `c` carries, 0 for none (the seed hash serves), when
/// checkpoints sit every `step` elements: the tier sits every `⌈√top⌉`
/// checkpoints down from the top checkpoint `top`, and the record holds
/// the highest of them strictly below `c`.
fn super_number(len: u64, step: u64, c: u64) -> u64 {
    let top = len / step;
    let spacing = interval(top);
    (1..=top)
        .map(|j| top as i64 - (j * spacing) as i64)
        .find(|&k| k < c as i64)
        .map_or(0, |k| k.max(0) as u64)
}

/// Cursors to freeze at: every one on a short chain; on a long one the
/// fresh and the exhausted chain, segment 0 (where the checkpoint under
/// the cursor *is* the seed hash) and both sides of a few checkpoints.
fn cursors(len: u64) -> Vec<u64> {
    if len <= 30 {
        return (0..len).collect();
    }
    let step = interval(len);
    let mut at = vec![0, 1, step - 1, len - 1];
    for k in [1, 2, len / step / 2, len / step - 1] {
        at.extend([k * step - 1, k * step, k * step + 1]);
    }
    at.sort_unstable();
    at.dedup();
    at
}

/// Chain lengths for the lazy-floor properties; 80 is there for its odd
/// interval (9), where a pair's key lies under the checkpoint its
/// announce element sits on.
const LAZY_LENS: [u64; 4] = [2, 30, 80, 1024];

#[test]
fn compact_thaw_hashes_nothing_and_walks_from_the_seed_once() {
    for alg in Algorithm::ALL {
        for kind in KINDS {
            for len in LAZY_LENS {
                let step = interval(len);
                // O(1) element access: the oracle for every disclosure.
                let full = HashChain::from_seed(alg, kind, len, b"lazy");
                // Never frozen; walks down the chain once, beside the oracle.
                let mut live = HashChain::from_seed_compact(alg, kind, len, b"lazy");
                for cursor in cursors(len).into_iter().rev() {
                    while live.remaining() > cursor {
                        let (i, el) = live.disclose().expect("above the cursor");
                        assert_eq!(el, full.element(i), "{alg} {kind:?} len={len} live {i}");
                    }
                    let what = format!("{alg} {kind:?} len={len} frozen at {cursor}");
                    let frozen = live.freeze();
                    let floor = cursor / step;
                    let sup = super_number(len, step, floor);
                    assert_eq!(frozen.checkpoint(), full.element(floor * step), "{what}");
                    assert_eq!(
                        frozen.super_checkpoint(),
                        (sup > 0).then(|| full.element(sup * step)),
                        "{what}"
                    );
                    let (mut thawed, counts) = counted(|| frozen.thaw());
                    assert_eq!(counts, Counts::default(), "{what}: thaw hashes nothing");
                    assert_eq!(thawed.storage_kind(), ChainStorage::Sqrt, "{what}");
                    assert_eq!((thawed.len(), thawed.remaining()), (len, cursor), "{what}");
                    // Above the one checkpoint held: derived from it.
                    let above = (cursor + step + 1).min(len);
                    assert_eq!(thawed.element(above), full.element(above), "{what}");
                    // Under the floor, without keeping anything: from the
                    // super-checkpoint inside its super-segment, from the
                    // seed below it.
                    if floor > 0 {
                        for at in [sup * step, floor * step - 1, sup * step / 2] {
                            let origin = if at >= sup * step { sup * step } else { 0 };
                            let (el, counts) = counted(|| thawed.element(at));
                            assert_eq!(el, full.element(at), "{what} under the floor at {at}");
                            assert_eq!(counts.invocations, at - origin, "{what} from {origin}");
                        }
                    }

                    // Each disclosure is one walk up from its checkpoint,
                    // plus — the first time one lies under the thawed
                    // floor — the walk that makes the checkpoints from its
                    // origin up live: from the super-checkpoint when the
                    // disclosure lies in its super-segment, else from the
                    // seed; and the first time one lies under that origin,
                    // the walk from the seed. A short chain is followed
                    // down to exhaustion, a long one to two disclosures
                    // under its floor (the churn test below takes thawed
                    // chains the whole way down; unoptimised MMO hashing
                    // is what this suite's time goes to).
                    let (mut held_from, mut sup) = (floor, sup);
                    let stop = if len <= 30 {
                        0
                    } else {
                        (floor * step).saturating_sub(3)
                    };
                    for i in (stop + 1..=cursor).rev() {
                        let (got, counts) = counted(|| thawed.disclose());
                        assert_eq!(got, Ok((i, full.element(i))), "{what} element {i}");
                        let mut expect = i % step;
                        if i / step < held_from {
                            let origin = if i / step >= sup { sup } else { 0 };
                            expect += (held_from - 1 - origin) * step;
                            (held_from, sup) = (origin, 0);
                        }
                        assert_eq!(counts.invocations, expect, "{what} hashes at {i}");
                    }
                    if stop == 0 {
                        assert!(thawed.disclose().is_err(), "{what} exhausted");
                    }
                }
            }
        }
    }
}

/// Hashes one wake of a chain frozen after every pair costs: thawed at
/// cursor `announce`, the pair `(announce, announce − 1)`, then the
/// freeze at `announce − 2`. Every element the wake needs is derived
/// from the nearest one the thawed chain holds — its checkpoint `c`, the
/// super-checkpoint `sup` under it, or the seed hash — and a disclosure
/// under `c` (an odd interval puts the key there when the announce
/// element sits on `c`) makes the checkpoints from its origin up live.
fn churn_wake_hashes(len: u64, announce: u64) -> u64 {
    let step = interval(len);
    let c = announce / step;
    let (mut held_from, mut sup) = (c, super_number(len, step, c));
    // Hashes to derive checkpoint `k` from the nearest origin held.
    let from_origin = |k: u64, held_from: u64, sup: u64| {
        if k >= held_from {
            0
        } else if k >= sup {
            (k - sup) * step
        } else {
            k * step
        }
    };
    let key = announce - 1;
    let mut hashes = key % step + 1;
    if key / step < held_from {
        hashes += from_origin(held_from - 1, held_from, sup);
        held_from = if key / step >= sup { sup } else { 0 };
        sup = 0;
    }
    let after = (announce - 2) / step;
    hashes += from_origin(after, held_from, sup);
    let next_sup = super_number(len, step, after);
    if next_sup > 0 {
        hashes += from_origin(next_sup, held_from, sup);
    }
    hashes
}

#[test]
fn compact_pair_costs_one_walk_frozen_after_every_pair_or_never() {
    for alg in Algorithm::ALL {
        for kind in KINDS {
            for len in LAZY_LENS {
                let step = interval(len);
                let full = HashChain::from_seed(alg, kind, len, b"churn");
                let mut never = HashChain::from_seed_compact(alg, kind, len, b"churn");
                let mut record = never.freeze();
                let (mut wakes, mut churn_hashes) = (0, 0);
                let mut announce = len - 1;
                while announce >= 2 {
                    let what = format!("{alg} {kind:?} len={len} pair at {announce}");
                    let expect = Ok((
                        (announce, full.element(announce)),
                        (announce - 1, full.element(announce - 1)),
                    ));
                    // The key from its checkpoint, the announce element
                    // one step above it.
                    let (pair, counts) = counted(|| never.disclose_pair());
                    assert_eq!(pair, expect, "{what} never frozen");
                    assert_eq!(counts.invocations, (announce - 1) % step + 1, "{what}");

                    // The churn pattern: wake, one exchange, sleep.
                    let (mut churned, counts) = counted(|| record.thaw());
                    assert_eq!(counts, Counts::default(), "{what}: thaw hashes nothing");
                    let (pair, pair_counts) = counted(|| churned.disclose_pair());
                    assert_eq!(pair, expect, "{what} churned");
                    let freeze_counts;
                    (record, freeze_counts) = counted(|| churned.freeze());
                    let after = (announce - 2) / step;
                    let sup = super_number(len, step, after);
                    assert_eq!(record.checkpoint(), full.element(after * step));
                    assert_eq!(
                        record.super_checkpoint(),
                        (sup > 0).then(|| full.element(sup * step)),
                        "{what}"
                    );
                    let costs = (pair_counts.invocations, freeze_counts.invocations);
                    assert_eq!(
                        costs.0 + costs.1,
                        churn_wake_hashes(len, announce),
                        "{what}"
                    );
                    if len == 1024 {
                        // Checkpoints every 32 elements, numbered 0 (the
                        // seed hash) to 32; super-checkpoints every
                        // ⌈√32⌉ = 6 down from the top: 26, 20, 14, 8, 2.
                        // A normal crossing, onto checkpoint 30 from a
                        // record of 31 and 26: derived from 26, four
                        // checkpoints up. A super crossing, onto 26
                        // itself: a copy, and the next super-checkpoint
                        // down, 20, walked from the seed.
                        match announce {
                            1013 => assert_eq!(costs, (21, 0), "{what} within a segment"),
                            993 => assert_eq!(costs, (1, 4 * 32), "{what} normal crossing"),
                            865 => assert_eq!(costs, (1, 20 * 32), "{what} super crossing"),
                            _ => {}
                        }
                    }
                    wakes += 1;
                    churn_hashes += costs.0 + costs.1;
                    announce -= 2;
                }
                assert!(never.disclose_pair().is_err());
                assert!(record.thaw().disclose_pair().is_err());
                if len == 1024 {
                    // ≤ 24 hashes a wake over the chain's life, against
                    // 16 for a chain that never sleeps.
                    let what = format!("{alg} {kind:?} {churn_hashes} hashes / {wakes} wakes");
                    assert!(churn_hashes <= 24 * wakes, "{what}");
                }
            }
        }
    }
}
