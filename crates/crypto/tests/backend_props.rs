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

/// `merkle::keyed_roots` (shared nodes hashed once, on the active
/// backend) vs the per-item reference walk `keyed_root_from_path`, on
/// seeded runs the verifiers see: a bundle's leaves in order, shuffled,
/// duplicated, spanning two trees or two keys, longer than one sweep,
/// with one item forged by a flipped message, sibling or key byte or a
/// wrong index — and paths given as digests or as packed wire bytes.
#[test]
fn keyed_roots_match_the_per_item_walk() {
    use alpha_crypto::merkle::{self, KeyedLeaf, MerkleTree, Siblings};
    let mut rng = StdRng::seed_from_u64(0x7ee5);
    for alg in ALGS {
        for round in 0..48 {
            let trees: Vec<(Digest, Vec<Vec<u8>>, MerkleTree)> = (0..2)
                .map(|_| {
                    let leaves = rng.gen_range(1..=40usize);
                    let msgs: Vec<Vec<u8>> = (0..leaves)
                        .map(|_| {
                            let len = rng.gen_range(0..300usize);
                            rand_msg(&mut rng, len)
                        })
                        .collect();
                    let tree = MerkleTree::from_messages(alg, &msgs);
                    (alg.hash(&rand_msg(&mut rng, 8)), msgs, tree)
                })
                .collect();
            // (tree, leaf) pairs: an in-order stretch of tree 0, then
            // per round shuffled, duplicated or mixed in tree 1.
            let (_, msgs0, _) = &trees[0];
            let start = rng.gen_range(0..msgs0.len());
            let len = rng.gen_range(1..=(msgs0.len() - start).min(20));
            let mut picks: Vec<(usize, usize)> = (start..start + len).map(|j| (0, j)).collect();
            match round % 4 {
                1 => {
                    for i in (1..picks.len()).rev() {
                        picks.swap(i, rng.gen_range(0..=i));
                    }
                }
                2 => {
                    let dup = picks[rng.gen_range(0..picks.len())];
                    picks.insert(rng.gen_range(0..=picks.len()), dup);
                }
                3 => picks.extend((0..trees[1].1.len().min(24)).map(|j| (1, j))),
                _ => {}
            }
            let mut packed: Vec<Vec<u8>> = picks
                .iter()
                .map(|&(t, j)| {
                    let path = trees[t].2.auth_path(j);
                    path.iter().flat_map(|d| d.as_bytes().to_vec()).collect()
                })
                .collect();
            let mut msgs: Vec<Vec<u8>> =
                picks.iter().map(|&(t, j)| trees[t].1[j].clone()).collect();
            let mut keys: Vec<Digest> = picks.iter().map(|&(t, _)| trees[t].0).collect();
            let mut index: Vec<usize> = picks.iter().map(|&(_, j)| j).collect();
            // Forge one item (some rounds leave the run clean).
            let victim = rng.gen_range(0..picks.len());
            match rng.gen_range(0..5) {
                0 if !msgs[victim].is_empty() => msgs[victim][0] ^= 1,
                1 if !packed[victim].is_empty() => {
                    let at = rng.gen_range(0..packed[victim].len());
                    packed[victim][at] ^= 0x80;
                }
                2 => keys[victim] = alg.hash(b"guessed"),
                3 => index[victim] ^= 1,
                _ => {}
            }
            let paths: Vec<Vec<Digest>> = packed
                .iter()
                .map(|p| {
                    p.chunks_exact(alg.digest_len())
                        .map(Digest::from_slice)
                        .collect()
                })
                .collect();
            let items: Vec<KeyedLeaf<'_>> = (0..picks.len())
                .map(|k| KeyedLeaf {
                    key: &keys[k],
                    message: &msgs[k],
                    index: index[k],
                    path: if k % 2 == 0 {
                        Siblings::packed(alg, &packed[k])
                    } else {
                        Siblings::from(paths[k].as_slice())
                    },
                })
                .collect();
            let mut got = vec![Digest::zero(alg); items.len()];
            merkle::keyed_roots(alg, &items, &mut got);
            for (k, item) in items.iter().enumerate() {
                let want = merkle::keyed_root_from_path(
                    alg,
                    item.key,
                    &alg.hash(item.message),
                    item.index,
                    &paths[k],
                );
                assert_eq!(got[k], want, "{alg} round {round} item {k}");
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
