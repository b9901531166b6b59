//! Backend equivalence properties: every digest backend must produce
//! output byte-identical to the scalar reference for every input shape.
//!
//! This suite is the test-coverage half of the safety argument for the
//! `unsafe` intrinsic blocks (see `crates/crypto/src/shani.rs` and
//! DESIGN.md §10): the intrinsics are only trusted because these sweeps
//! pin them to the scalar implementation across lane counts (1..9,
//! covering partial final sweeps), input lengths (0..3 blocks), and the
//! MD-padding block boundaries (55/56/63/64/65 bytes). ci.sh runs the
//! suite once with `ALPHA_DIGEST_BACKEND=scalar` and once auto-detected.

use alpha_crypto::backend;
use alpha_crypto::{hmac, Algorithm, Digest};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const ALGS: [Algorithm; 3] = [Algorithm::Sha1, Algorithm::Sha256, Algorithm::MmoAes];

/// Block-boundary message lengths for 64-byte-block algorithms: 55/56
/// straddle the point where the MD length field no longer fits the final
/// block, 63/64/65 the block edge itself; 0/1 and multi-block round it out.
const EDGE_LENS: [usize; 9] = [0, 1, 55, 56, 63, 64, 65, 128, 192];

fn rand_msg(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut m = vec![0u8; len];
    rng.fill_bytes(&mut m);
    m
}

/// `digest_batch_using` vs the scalar one-shot hash, for every supported
/// backend, every algorithm, every edge length, lane counts 1..9.
#[test]
fn batched_digests_match_scalar_at_block_edges() {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    for kind in backend::available() {
        for alg in ALGS {
            for len in EDGE_LENS {
                for lanes in 1..9usize {
                    let msgs: Vec<Vec<u8>> = (0..lanes).map(|_| rand_msg(&mut rng, len)).collect();
                    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                    let mut out = vec![Digest::zero(alg); lanes];
                    backend::digest_batch_using(kind, alg, &refs, &mut out);
                    for (msg, got) in msgs.iter().zip(&out) {
                        assert_eq!(
                            *got,
                            alg.hash(msg),
                            "{kind:?} {alg} len={len} lanes={lanes}"
                        );
                    }
                }
            }
        }
    }
}

/// Random sweep: lengths drawn from 0..3 blocks, random lane counts.
#[test]
fn batched_digests_match_scalar_random_shapes() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for kind in backend::available() {
        for alg in ALGS {
            for _ in 0..64 {
                let lanes = rng.gen_range(1..9usize);
                let msgs: Vec<Vec<u8>> = (0..lanes)
                    .map(|_| {
                        let len = rng.gen_range(0..192usize); // 0..3 blocks
                        rand_msg(&mut rng, len)
                    })
                    .collect();
                let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                let mut out = vec![Digest::zero(alg); lanes];
                backend::digest_batch_using(kind, alg, &refs, &mut out);
                for (msg, got) in msgs.iter().zip(&out) {
                    assert_eq!(*got, alg.hash(msg), "{kind:?} {alg} len={}", msg.len());
                }
            }
        }
    }
}

/// `mac_parts_batch_using` vs scalar `hmac::mac_parts`, all backends,
/// chain-element-sized keys, 1..=3 message parts, edge + random lengths.
#[test]
fn batched_hmacs_match_scalar() {
    let mut rng = StdRng::seed_from_u64(0xac5);
    for kind in backend::available() {
        for alg in ALGS {
            for _ in 0..48 {
                let lanes = rng.gen_range(1..9usize);
                // In ALPHA an HMAC key is always one chain element.
                let keys: Vec<Vec<u8>> = (0..lanes)
                    .map(|_| rand_msg(&mut rng, alg.digest_len()))
                    .collect();
                let parts: Vec<Vec<Vec<u8>>> = (0..lanes)
                    .map(|_| {
                        let n = rng.gen_range(1..=3usize);
                        (0..n)
                            .map(|_| {
                                let len = *EDGE_LENS
                                    .get(rng.gen_range(0..EDGE_LENS.len() + 1))
                                    .unwrap_or(&rng.gen_range(0..192usize));
                                rand_msg(&mut rng, len)
                            })
                            .collect()
                    })
                    .collect();
                let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                let part_refs: Vec<Vec<&[u8]>> = parts
                    .iter()
                    .map(|p| p.iter().map(Vec::as_slice).collect())
                    .collect();
                let msg_refs: Vec<&[&[u8]]> = part_refs.iter().map(Vec::as_slice).collect();
                let mut out = vec![Digest::zero(alg); lanes];
                backend::mac_parts_batch_using(kind, alg, &key_refs, &msg_refs, &mut out);
                for i in 0..lanes {
                    assert_eq!(
                        out[i],
                        hmac::mac_parts(alg, &keys[i], &part_refs[i]),
                        "{kind:?} {alg} lane {i}"
                    );
                }
            }
        }
    }
}

/// The convenience wrappers over the *active* backend agree with scalar
/// too (whatever `ALPHA_DIGEST_BACKEND` resolves to in this run).
#[test]
fn active_backend_wrappers_match_scalar() {
    let mut rng = StdRng::seed_from_u64(0xac71);
    for alg in ALGS {
        let msgs: Vec<Vec<u8>> = EDGE_LENS.iter().map(|&l| rand_msg(&mut rng, l)).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mut out = vec![Digest::zero(alg); msgs.len()];
        backend::digest_batch(alg, &refs, &mut out);
        for (msg, got) in msgs.iter().zip(&out) {
            assert_eq!(*got, alg.hash(msg), "{alg} len={}", msg.len());
        }

        let keys: Vec<Vec<u8>> = msgs
            .iter()
            .map(|_| rand_msg(&mut rng, alg.digest_len()))
            .collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let msg_parts: Vec<[&[u8]; 1]> = refs.iter().map(|m| [*m]).collect();
        let msg_refs: Vec<&[&[u8]]> = msg_parts.iter().map(|p| &p[..]).collect();
        let mut macs = vec![Digest::zero(alg); msgs.len()];
        backend::mac_parts_batch(alg, &key_refs, &msg_refs, &mut macs);
        for i in 0..msgs.len() {
            assert_eq!(macs[i], hmac::mac(alg, &keys[i], &msgs[i]), "{alg} mac {i}");
        }
    }
}

/// Items per chunk `merkle::keyed_roots` walks at once (a bundle).
const KEYED_CHUNK: usize = 16;

/// One S2 as `keyed_roots` takes it, owned: key, message, leaf index
/// and path as packed wire bytes.
#[derive(Clone)]
struct Owned {
    key: Digest,
    message: Vec<u8>,
    index: usize,
    packed: Vec<u8>,
}

/// `merkle::keyed_roots` over `run` against two references: each root
/// equals the per-item walk `keyed_root_from_path`, and the hashes
/// `counting` records equal one per leaf plus, per chunk and level, the
/// number of *distinct* node input byte strings (a set of the inputs
/// the per-item walk hashes at that level). Even items give their path
/// as packed wire bytes, odd ones as digests.
fn check_keyed_roots(alg: Algorithm, run: &[Owned], what: &str) {
    use alpha_crypto::counting;
    use alpha_crypto::merkle::{self, KeyedLeaf, Siblings};
    use std::collections::HashSet;
    let paths: Vec<Vec<Digest>> = run
        .iter()
        .map(|o| {
            o.packed
                .chunks_exact(alg.digest_len())
                .map(Digest::from_slice)
                .collect()
        })
        .collect();
    let items: Vec<KeyedLeaf<'_>> = run
        .iter()
        .zip(&paths)
        .enumerate()
        .map(|(k, (o, path))| KeyedLeaf {
            key: &o.key,
            message: &o.message,
            index: o.index,
            path: if k % 2 == 0 {
                Siblings::packed(alg, &o.packed)
            } else {
                Siblings::from(path.as_slice())
            },
        })
        .collect();
    let mut want_hashes = 0;
    for (chunk, paths) in run.chunks(KEYED_CHUNK).zip(paths.chunks(KEYED_CHUNK)) {
        let mut node: Vec<Digest> = chunk.iter().map(|o| alg.hash(&o.message)).collect();
        let mut index: Vec<usize> = chunk.iter().map(|o| o.index).collect();
        want_hashes += chunk.len();
        let levels = paths.iter().map(|p| p.len().max(1)).max().unwrap_or(0);
        for level in 0..levels {
            let mut distinct = HashSet::new();
            for k in 0..chunk.len() {
                let depth = paths[k].len();
                if level >= depth.max(1) {
                    continue;
                }
                let key = chunk[k].key.as_bytes();
                let mut input = Vec::new();
                if depth == 0 {
                    input.extend_from_slice(key);
                    input.extend_from_slice(node[k].as_bytes());
                } else {
                    if level + 1 == depth {
                        input.extend_from_slice(key);
                    }
                    let (l, r) = if index[k].is_multiple_of(2) {
                        (node[k], paths[k][level])
                    } else {
                        (paths[k][level], node[k])
                    };
                    input.extend_from_slice(l.as_bytes());
                    input.extend_from_slice(r.as_bytes());
                }
                node[k] = alg.hash(&input);
                index[k] >>= 1;
                distinct.insert(input);
            }
            want_hashes += distinct.len();
        }
    }
    let mut got = vec![Digest::zero(alg); items.len()];
    let scope = counting::Scope::start();
    merkle::keyed_roots(alg, &items, &mut got);
    let hashes = scope.finish().invocations as usize;
    for (k, (item, path)) in items.iter().zip(&paths).enumerate() {
        let want =
            merkle::keyed_root_from_path(alg, item.key, &alg.hash(item.message), item.index, path);
        assert_eq!(got[k], want, "{alg} {what}: item {k}");
    }
    assert_eq!(hashes, want_hashes, "{alg} {what}: hashes");
}

/// A tree of `leaves` random messages under a random key, as S2s.
fn keyed_tree(alg: Algorithm, rng: &mut StdRng, leaves: usize) -> Vec<Owned> {
    use alpha_crypto::merkle::MerkleTree;
    let msgs: Vec<Vec<u8>> = (0..leaves)
        .map(|_| {
            let len = rng.gen_range(0..300usize);
            rand_msg(rng, len)
        })
        .collect();
    let tree = MerkleTree::from_messages(alg, &msgs);
    let key = alg.hash(&rand_msg(rng, 8));
    msgs.into_iter()
        .enumerate()
        .map(|(j, message)| Owned {
            key,
            message,
            index: j,
            packed: tree
                .auth_path(j)
                .iter()
                .flat_map(|d| d.as_bytes().to_vec())
                .collect(),
        })
        .collect()
}

/// `merkle::keyed_roots` (each distinct node hashed once, on the active
/// backend) against the per-item walk and the distinct-input hash count
/// ([`check_keyed_roots`]), on seeded runs the verifiers see: a
/// bundle's leaves in order, shuffled, descending, duplicated, spanning
/// trees of up to 256 leaves under other keys (so mixed depths and
/// single-leaf trees in one chunk), longer than one chunk, with one
/// item forged by a flipped message, sibling or key byte or a wrong
/// index. SHA-256's top node is two blocks, as is SHA-1's.
#[test]
fn keyed_roots_match_the_per_item_walk() {
    let mut rng = StdRng::seed_from_u64(0x7ee5);
    for alg in ALGS {
        for round in 0..64 {
            let trees: Vec<Vec<Owned>> = (0..3)
                .map(|t| {
                    let leaves = match t {
                        0 => rng.gen_range(1..=40usize),
                        1 => rng.gen_range(1..=256usize),
                        _ => 1,
                    };
                    keyed_tree(alg, &mut rng, leaves)
                })
                .collect();
            // An in-order stretch of tree 0, then per round shuffled,
            // descending, duplicated or mixed with trees 1 and 2.
            let start = rng.gen_range(0..trees[0].len());
            let len = rng.gen_range(1..=(trees[0].len() - start).min(20));
            let mut run: Vec<Owned> = trees[0][start..start + len].to_vec();
            match round % 5 {
                1 => {
                    for i in (1..run.len()).rev() {
                        run.swap(i, rng.gen_range(0..=i));
                    }
                }
                2 => run.reverse(),
                3 => {
                    for _ in 0..rng.gen_range(1..=3) {
                        let dup = run[rng.gen_range(0..run.len())].clone();
                        run.insert(rng.gen_range(0..=run.len()), dup);
                    }
                }
                4 => {
                    let from = rng.gen_range(0..trees[1].len());
                    let take = (trees[1].len() - from).min(24);
                    run.extend_from_slice(&trees[1][from..from + take]);
                    run.insert(rng.gen_range(0..=run.len()), trees[2][0].clone());
                    for i in (1..run.len()).rev() {
                        run.swap(i, rng.gen_range(0..=i));
                    }
                }
                _ => {}
            }
            // Forge one item (some rounds leave the run clean).
            let victim = rng.gen_range(0..run.len());
            let v = &mut run[victim];
            match rng.gen_range(0..5) {
                0 if !v.message.is_empty() => v.message[0] ^= 1,
                1 if !v.packed.is_empty() => {
                    let at = rng.gen_range(0..v.packed.len());
                    v.packed[at] ^= 0x80;
                }
                2 => v.key = alg.hash(b"guessed"),
                3 => v.index ^= 1,
                _ => {}
            }
            check_keyed_roots(alg, &run, &format!("round {round}"));
        }
        // A single-leaf tree's S2 twice, once claiming index 1: both
        // hash the same `key | leaf`, whatever the index says.
        let lone = keyed_tree(alg, &mut rng, 1).remove(0);
        let mut odd = lone.clone();
        odd.index = 1;
        check_keyed_roots(alg, &[lone, odd], "single leaf, both parities");
    }
}

/// A sibling forged at every level and every position of an in-order
/// bundle (16 leaves of a 32- and a 256-leaf tree), alone and with a
/// second forgery of the same sibling bytes in the item beside it.
#[test]
fn keyed_roots_forged_at_every_level_and_position() {
    let mut rng = StdRng::seed_from_u64(0xf0f0);
    for alg in ALGS {
        for leaves in [32usize, 256] {
            let tree = keyed_tree(alg, &mut rng, leaves);
            let start = rng.gen_range(0..=leaves - 16);
            let run = &tree[start..start + 16];
            check_keyed_roots(alg, run, "honest");
            let depth = run[0].packed.len() / alg.digest_len();
            let dl = alg.digest_len();
            for victim in 0..run.len() {
                for level in 0..depth {
                    let mut forged = run.to_vec();
                    forged[victim].packed[level * dl] ^= 1;
                    check_keyed_roots(
                        alg,
                        &forged,
                        &format!("{leaves} item {victim} level {level}"),
                    );
                    let twin = victim ^ 1;
                    if forged[twin].packed[level * dl..(level + 1) * dl]
                        == run[victim].packed[level * dl..(level + 1) * dl]
                    {
                        forged[twin].packed[level * dl] ^= 1;
                        check_keyed_roots(
                            alg,
                            &forged,
                            &format!("{leaves} twin {victim} level {level}"),
                        );
                    }
                }
            }
        }
    }
}

/// Long keys (beyond one block) take the scalar pre-hash fallback; they
/// must still agree with scalar HMAC on every backend.
#[test]
fn long_key_hmac_fallback_matches_scalar() {
    let mut rng = StdRng::seed_from_u64(0x10f);
    for kind in backend::available() {
        for alg in [Algorithm::Sha1, Algorithm::Sha256] {
            let keys: Vec<Vec<u8>> = (0..4).map(|_| rand_msg(&mut rng, 100)).collect();
            let msgs: Vec<Vec<u8>> = (0..4).map(|_| rand_msg(&mut rng, 64)).collect();
            let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            let parts: Vec<[&[u8]; 1]> = msgs.iter().map(|m| [m.as_slice()]).collect();
            let msg_refs: Vec<&[&[u8]]> = parts.iter().map(|p| p.as_slice()).collect();
            let mut out = vec![Digest::zero(alg); 4];
            backend::mac_parts_batch_using(kind, alg, &key_refs, &msg_refs, &mut out);
            for i in 0..4 {
                assert_eq!(out[i], hmac::mac(alg, &keys[i], &msgs[i]), "{kind:?} {alg}");
            }
        }
    }
}
