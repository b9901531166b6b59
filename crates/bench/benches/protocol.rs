//! Criterion benchmarks for full protocol exchanges in every mode, for
//! the relay's per-packet verification path, and for a host engine's S2
//! step.

use std::net::SocketAddr;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;

use alpha_core::{Association, Config, Mode, Relay, RelayConfig, Reliability, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore, EngineOutput, FlowKey};
use alpha_wire::{Packet, PacketView};

const T: Timestamp = Timestamp::ZERO;

/// Drive one full exchange between `alice` and `bob`.
fn exchange(
    alice: &mut Association,
    bob: &mut Association,
    msgs: &[&[u8]],
    mode: Mode,
    rng: &mut rand::rngs::StdRng,
) {
    let s1 = alice.sign_batch(msgs, mode, T).unwrap();
    let a1 = bob.handle(&s1, T, rng).unwrap().packet().unwrap();
    let s2s = alice.handle(&a1, T, rng).unwrap().packets;
    for s2 in &s2s {
        let resp = bob.handle(s2, T, rng).unwrap();
        for a2 in &resp.packets {
            let _ = alice.handle(a2, T, rng).unwrap();
        }
    }
}

fn bench_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange");
    g.sample_size(20);
    for (name, mode, n) in [
        ("base", Mode::Base, 1usize),
        ("cumulative", Mode::Cumulative, 20),
        ("merkle", Mode::Merkle, 64),
    ] {
        for reliability in [Reliability::Unreliable, Reliability::Reliable] {
            let rel = if reliability == Reliability::Reliable {
                "reliable"
            } else {
                "unreliable"
            };
            let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 512]).collect();
            let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            g.throughput(Throughput::Bytes((n * 512) as u64));
            g.bench_function(BenchmarkId::new(name, rel), |b| {
                // Chains are sized so one bench run never exhausts them;
                // rebuild per iteration batch via iter_batched.
                let mut rng = rand::rngs::StdRng::seed_from_u64(9);
                b.iter_batched(
                    || {
                        let cfg = Config::new(Algorithm::Sha1)
                            .with_chain_len(8)
                            .with_reliability(reliability);
                        Association::pair(cfg, 1, &mut rng)
                    },
                    |(mut alice, mut bob)| {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
                        exchange(&mut alice, &mut bob, &refs, mode, &mut rng);
                    },
                    criterion::BatchSize::SmallInput,
                );
            });
        }
    }
    g.finish();
}

/// One packet as a relay meets it: decode the bytes, judge the view.
fn observe(relay: &mut Relay, bytes: &[u8]) -> alpha_core::RelayDecision {
    let view = PacketView::parse(bytes).expect("own encoding");
    relay.observe_view(&view, bytes.len(), T).0
}

fn bench_relay(c: &mut Criterion) {
    let mut g = c.benchmark_group("relay-observe");
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    for n in [1usize, 20] {
        // Prepare a verified exchange's packets once.
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(8);
        let t = T;
        let (hs, init) = alpha_core::bootstrap::initiate(cfg, 1, None, &mut rng);
        let (mut bob, reply, _) = alpha_core::bootstrap::respond(
            cfg,
            &init,
            None,
            alpha_core::bootstrap::AuthRequirement::None,
            &mut rng,
        )
        .unwrap();
        let (mut alice, _) = hs
            .complete(&reply, alpha_core::bootstrap::AuthRequirement::None)
            .unwrap();
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 1024]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mode = if n == 1 { Mode::Base } else { Mode::Cumulative };
        let s1 = alice.sign_batch(&refs, mode, t).unwrap();
        let a1 = bob.handle(&s1, t, &mut rng).unwrap().packet().unwrap();
        let s2s = alice.handle(&a1, t, &mut rng).unwrap().packets;

        // What a relay is handed: encoded packets. Decode and judgment
        // are timed together, as `engine/relay.rs` runs them.
        let [init, reply, s1, a1] = [&init, &reply, &s1, &a1].map(Packet::emit);
        let s2s: Vec<Vec<u8>> = s2s.iter().map(Packet::emit).collect();

        g.throughput(Throughput::Bytes((n * 1024) as u64));
        g.bench_function(BenchmarkId::new("s1-a1-s2s", n), |b| {
            b.iter_batched(
                || {
                    let mut relay = Relay::new(RelayConfig {
                        s1_bytes_per_sec: None,
                        ..RelayConfig::default()
                    });
                    observe(&mut relay, &init);
                    observe(&mut relay, &reply);
                    relay
                },
                |mut relay| {
                    observe(&mut relay, &s1);
                    observe(&mut relay, &a1);
                    for s2 in &s2s {
                        assert_eq!(observe(&mut relay, s2), alpha_core::RelayDecision::Forward);
                    }
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

/// Deliver `out`'s datagrams, sent from `from`, to whichever of the two
/// engines they are addressed to, and their answers back, until quiet.
fn pump(ends: [(SocketAddr, &EngineCore); 2], from: SocketAddr, out: EngineOutput) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut queue: Vec<(SocketAddr, SocketAddr, Vec<u8>)> = out
        .datagrams
        .iter()
        .map(|(dst, frame)| (from, *dst, frame.to_vec()))
        .collect();
    while let Some((src, dst, bytes)) = queue.pop() {
        let engine = ends.iter().find(|(at, _)| *at == dst).expect("an end").1;
        let out = engine.handle_datagram(src, &bytes, T, &mut rng);
        queue.extend(out.datagrams.iter().map(|(d, f)| (dst, *d, f.to_vec())));
    }
}

/// A host engine verifying one 16-S2 ALPHA-M frame, the first of a
/// 32-message bundle's two (as `host_merkle_1k` sends them), through
/// the live worker's path: one output, cleared and reused per frame.
/// Each frame is of its own flow's fresh exchange (signed, announced and
/// acknowledged outside the timing), so every S2 verifies and delivers.
fn bench_host(c: &mut Criterion) {
    const FLOWS: u64 = 512;
    let mut g = c.benchmark_group("host-verify");
    let client: SocketAddr = "127.0.0.1:4000".parse().expect("address");
    let server: SocketAddr = "127.0.0.1:5000".parse().expect("address");
    for len in [16usize, 1024] {
        let cfg = EngineConfig::new(Config::new(Algorithm::Sha1));
        let (signer, verifier) = (EngineCore::new(cfg), EngineCore::new(cfg));
        let ends = [(client, &signer), (server, &verifier)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let keys: Vec<FlowKey> = (1..=FLOWS)
            .map(|id| {
                let (key, out) = signer.connect(server, id, T, &mut rng);
                pump(ends, client, out);
                key
            })
            .collect();
        let msgs: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; len]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mut next = 0;
        let mut out = EngineOutput::default();
        let mut verify_rng = rand::rngs::StdRng::seed_from_u64(14);
        g.throughput(Throughput::Elements(16));
        g.bench_function(BenchmarkId::new("merkle-16", len), |b| {
            b.iter_batched(
                || {
                    let key = keys[next % keys.len()];
                    next += 1;
                    let s1 = signer
                        .sign_batch(key, &refs, Mode::Merkle, T)
                        .expect("sign");
                    let (_, s1) = &s1.datagrams[0];
                    let a1 = verifier.handle_datagram(client, s1, T, &mut rng);
                    let (_, a1) = &a1.datagrams[0];
                    let s2s = signer.handle_datagram(server, a1, T, &mut rng);
                    s2s.datagrams[0].1.to_vec()
                },
                |frame| {
                    out.clear();
                    let frame = [(client, frame.as_slice())];
                    verifier.handle_datagrams_into(&frame, T, &mut verify_rng, &mut out);
                    assert_eq!(out.delivered.len(), 16);
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_modes, bench_relay, bench_host);
criterion_main!(benches);
