//! Criterion microbenchmarks for the cryptographic substrate: the
//! primitives whose per-operation costs drive every number in the paper's
//! evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;

use alpha_crypto::chain::{ChainKind, ChainVerifier, HashChain};
use alpha_crypto::merkle::{self, KeyedLeaf, MerkleTree, Siblings};
use alpha_crypto::{amt, backend, hmac, preack, Algorithm, Digest};

fn bench_hashes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    for alg in Algorithm::ALL {
        for len in [20usize, 100, 1024] {
            let data = vec![0xA5u8; len];
            g.throughput(Throughput::Bytes(len as u64));
            g.bench_with_input(BenchmarkId::new(format!("{alg}"), len), &data, |b, d| {
                b.iter(|| alg.hash(std::hint::black_box(d)));
            });
        }
    }
    g.finish();
}

fn bench_macs(c: &mut Criterion) {
    let mut g = c.benchmark_group("mac");
    let key = Algorithm::Sha1.hash(b"chain element");
    for len in [100usize, 1024] {
        let data = vec![1u8; len];
        g.bench_with_input(BenchmarkId::new("hmac-sha1", len), &data, |b, d| {
            b.iter(|| hmac::mac(Algorithm::Sha1, key.as_bytes(), std::hint::black_box(d)));
        });
        g.bench_with_input(BenchmarkId::new("prefix-sha1", len), &data, |b, d| {
            b.iter(|| {
                hmac::prefix_mac(Algorithm::Sha1, key.as_bytes(), &[std::hint::black_box(d)])
            });
        });
    }
    g.finish();
}

fn bench_chains(c: &mut Criterion) {
    let mut g = c.benchmark_group("chain");
    for len in [64u64, 1024] {
        g.bench_with_input(BenchmarkId::new("generate", len), &len, |b, &len| {
            b.iter(|| {
                HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, b"seed")
            });
        });
    }
    let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 1024, b"s");
    g.bench_function("verify-adjacent", |b| {
        let v = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        b.iter(|| v.check(1023, std::hint::black_box(&chain.element(1023))));
    });
    g.bench_function("verify-skip-16", |b| {
        let v = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        b.iter(|| v.check(1008, std::hint::black_box(&chain.element(1008))));
    });
    g.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut g = c.benchmark_group("merkle");
    for n in [16usize, 256, 1024] {
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 64]).collect();
        g.bench_with_input(BenchmarkId::new("build", n), &msgs, |b, m| {
            b.iter(|| MerkleTree::from_messages(Algorithm::Sha1, std::hint::black_box(m)));
        });
        let tree = MerkleTree::from_messages(Algorithm::Sha1, &msgs);
        let key = Algorithm::Sha1.hash(b"k");
        let root = tree.keyed_root(&key);
        let leaf = Algorithm::Sha1.hash(&msgs[0]);
        let path = tree.auth_path(0);
        g.bench_with_input(BenchmarkId::new("verify_path", n), &path, |b, p| {
            b.iter(|| {
                alpha_crypto::merkle::verify_keyed(
                    Algorithm::Sha1,
                    &key,
                    std::hint::black_box(&leaf),
                    0,
                    p,
                    &root,
                )
            });
        });
    }
    // One 16-S2 frame of a 32-leaf ALPHA-M tree, as a verifier walks it:
    // the leaf hashes alone, then leaves plus the level walk; the tree
    // build's 31 node compressions price the walk's 17.
    let alg = Algorithm::Sha1;
    let leaves: Vec<_> = (0..32u8).map(|i| alg.hash(&[i])).collect();
    g.bench_function("build-32", |b| {
        b.iter(|| MerkleTree::build(alg, std::hint::black_box(&leaves)));
    });
    for len in [16usize, 1024] {
        let msgs: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; len]).collect();
        let tree = MerkleTree::from_messages(alg, &msgs);
        let key = alg.hash(b"disclosed key");
        let paths: Vec<Vec<u8>> = (0..16)
            .map(|j| {
                let path = tree.auth_path(j);
                path.iter().flat_map(|d| d.as_bytes().to_vec()).collect()
            })
            .collect();
        let items: Vec<KeyedLeaf<'_>> = (0..16)
            .map(|j| KeyedLeaf {
                key: &key,
                message: &msgs[j],
                index: j,
                path: Siblings::packed(alg, &paths[j]),
            })
            .collect();
        let mut out = vec![Digest::zero(alg); 16];
        g.throughput(Throughput::Elements(16));
        g.bench_function(BenchmarkId::new("leaves-16", len), |b| {
            let inputs: Vec<&[u8]> = msgs[..16].iter().map(Vec::as_slice).collect();
            b.iter(|| backend::digest_batch(alg, std::hint::black_box(&inputs), &mut out));
        });
        g.bench_function(BenchmarkId::new("keyed-roots-16", len), |b| {
            b.iter(|| merkle::keyed_roots(alg, std::hint::black_box(&items), &mut out));
        });
    }
    g.finish();
}

fn bench_acks(c: &mut Criterion) {
    let mut g = c.benchmark_group("ack");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let key = Algorithm::Sha1.hash(b"ack key");
    g.bench_function("preack-generate", |b| {
        b.iter(|| preack::generate(Algorithm::Sha1, &key, &mut rng));
    });
    for n in [8usize, 64] {
        g.bench_with_input(BenchmarkId::new("amt-generate", n), &n, |b, &n| {
            b.iter(|| amt::AckMerkleTree::generate(Algorithm::Sha1, n, &mut rng));
        });
        let tree = amt::AckMerkleTree::generate(Algorithm::Sha1, n, &mut rng);
        let root = tree.keyed_root(&key);
        let d = tree.disclose(0, true);
        g.bench_with_input(BenchmarkId::new("amt-verify", n), &d, |b, d| {
            b.iter(|| {
                amt::verify_disclosure(Algorithm::Sha1, &key, n, std::hint::black_box(d), &root)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_hashes,
    bench_macs,
    bench_chains,
    bench_merkle,
    bench_acks
);
criterion_main!(benches);
