//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! - MAC construction: HMAC (two passes) vs prefix MAC (one pass; the
//!   paper's sensor cost model).
//! - Hash algorithm: SHA-1 (paper) vs SHA-256 (modern) vs MMO-AES
//!   (sensor) for the same exchange.
//! - Merkle bundle size: per-message cost as ALPHA-M trees deepen.
//! - RSA CRT vs plain exponentiation (signature-side speedup).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;

use alpha_core::{Association, Config, MacScheme, Mode, Timestamp};
use alpha_crypto::Algorithm;

const T: Timestamp = Timestamp::ZERO;

fn run_exchange(cfg: Config, msgs: &[&[u8]], mode: Mode, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (mut alice, mut bob) = Association::pair(cfg, 1, &mut rng);
    let s1 = alice.sign_batch(msgs, mode, T).unwrap();
    let a1 = bob.handle(&s1, T, &mut rng).unwrap().packet().unwrap();
    let s2s = alice.handle(&a1, T, &mut rng).unwrap().packets;
    for s2 in &s2s {
        bob.handle(s2, T, &mut rng).unwrap();
    }
}

fn bench_mac_scheme(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/mac-scheme");
    g.sample_size(20);
    let msgs: Vec<Vec<u8>> = (0..20).map(|i| vec![i as u8; 1024]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    for (name, scheme) in [("hmac", MacScheme::Hmac), ("prefix", MacScheme::Prefix)] {
        g.bench_function(name, |b| {
            let cfg = Config::new(Algorithm::Sha1)
                .with_chain_len(8)
                .with_mac_scheme(scheme);
            b.iter(|| run_exchange(cfg, &refs, Mode::Cumulative, 1));
        });
    }
    g.finish();
}

fn bench_algorithms(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/algorithm");
    g.sample_size(20);
    let msgs: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 512]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    for alg in Algorithm::ALL {
        g.bench_function(format!("{alg}"), |b| {
            let cfg = Config::new(alg).with_chain_len(8);
            b.iter(|| run_exchange(cfg, &refs, Mode::Cumulative, 2));
        });
    }
    g.finish();
}

fn bench_merkle_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/merkle-depth");
    g.sample_size(15);
    for n in [8usize, 64, 256] {
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 256]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        g.throughput(criterion::Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &refs, |b, refs| {
            let cfg = Config::new(Algorithm::Sha1).with_chain_len(8);
            b.iter(|| run_exchange(cfg, refs, Mode::Merkle, 3));
        });
    }
    g.finish();
}

fn bench_chain_storage(c: &mut Criterion) {
    use alpha_crypto::chain::{ChainKind, HashChain};
    let mut g = c.benchmark_group("ablation/chain-storage");
    for len in [256u64, 4096] {
        g.bench_with_input(
            BenchmarkId::new("full-disclose-all", len),
            &len,
            |b, &len| {
                b.iter_batched(
                    || {
                        HashChain::from_seed(
                            Algorithm::Sha1,
                            ChainKind::RoleBoundSignature,
                            len,
                            b"s",
                        )
                    },
                    |mut chain| while chain.disclose_pair().is_ok() {},
                    criterion::BatchSize::SmallInput,
                );
            },
        );
        g.bench_with_input(
            BenchmarkId::new("sqrt-disclose-all", len),
            &len,
            |b, &len| {
                b.iter_batched(
                    || {
                        HashChain::from_seed_compact(
                            Algorithm::Sha1,
                            ChainKind::RoleBoundSignature,
                            len,
                            b"s",
                        )
                    },
                    |mut chain| while chain.disclose_pair().is_ok() {},
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    g.finish();
}

fn bench_forest_vs_single_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/forest");
    g.sample_size(15);
    let n = 64usize;
    let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 256]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    g.bench_function("single-tree-64", |b| {
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(8);
        b.iter(|| run_exchange(cfg, &refs, Mode::Merkle, 5));
    });
    g.bench_function("forest-8x8", |b| {
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(8);
        b.iter(|| run_exchange(cfg, &refs, Mode::CumulativeMerkle { leaves_per_tree: 8 }, 5));
    });
    g.finish();
}

fn bench_rsa_crt(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/rsa-crt");
    g.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let key = alpha_pk::rsa::RsaPrivateKey::generate(1024, &mut rng);
    g.bench_function("crt", |b| {
        b.iter(|| key.sign(Algorithm::Sha1, std::hint::black_box(b"anchor")));
    });
    g.bench_function("no-crt", |b| {
        b.iter(|| key.sign_no_crt(Algorithm::Sha1, std::hint::black_box(b"anchor")));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_mac_scheme,
    bench_algorithms,
    bench_merkle_depth,
    bench_chain_storage,
    bench_forest_vs_single_tree,
    bench_rsa_crt
);
criterion_main!(benches);
