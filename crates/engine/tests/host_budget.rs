//! What an exchange costs a host engine in allocations, as counts that
//! hold on any machine: in steady state, one exchange allocates the same
//! number of times whatever its message count, on the signing engine
//! (its `sign_batch` call and its handling of the A1 and of every A2)
//! and on the verifying engine (its handling of the S1 and of every S2
//! datagram) alike — in Base, ALPHA-C and ALPHA-M, unreliable and
//! reliable. Datagrams are handed over through
//! `EngineCore::handle_datagrams_into` on one reused output per engine,
//! as the live worker calls it. What an exchange still allocates is
//! per exchange, not per message: the signer's encoded S1, ack flags,
//! Merkle tree or pre-signature and the output of the `sign_batch` call
//! (its encoded S2s go into the last exchange's buffer); the verifier's
//! buffered S1 and its verdict commitment.
//!
//! Payloads are 16 bytes, so every S2 bundle fits one pooled frame as
//! checked out, and frame growth is not in the count.

mod common;

use std::net::SocketAddr;

use alpha_core::{Config, Mode, Reliability};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineOutput, FlowKey};
use common::net::{client, server, Datagram, Net};
use common::CountingAlloc;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The two engines' reused outputs and what each allocated.
struct Ends {
    outs: [EngineOutput; 2],
    allocs: [u64; 2],
    delivered: usize,
    rng: StdRng,
}

fn end(at: SocketAddr) -> usize {
    usize::from(at == server())
}

/// One exchange of `n` messages from the client, every datagram handed
/// over in order; returns the allocations of the signing and the
/// verifying engine.
fn exchange(net: &mut Net, ends: &mut Ends, key: FlowKey, mode: Mode, n: usize) -> [u64; 2] {
    let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 16]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    ends.allocs = [0; 2];
    ends.delivered = 0;
    let engine = net.engine(client());
    let (out, allocs) = common::allocations(|| engine.sign_batch(key, &refs, mode, net.now));
    ends.allocs[0] += allocs;
    let sent: Vec<Datagram> = out
        .expect("sign")
        .datagrams
        .iter()
        .map(|(dst, frame)| Datagram {
            src: client(),
            dst: *dst,
            frame: frame.to_vec(),
        })
        .collect();
    net.flight.extend(sent);
    while !net.flight.is_empty() {
        let d = net.flight.remove(0);
        let at = end(d.dst);
        let (out, rng) = (&mut ends.outs[at], &mut ends.rng);
        out.clear();
        let engine = net.engine(d.dst);
        let ((), allocs) = common::allocations(|| {
            engine.handle_datagrams_into(&[(d.src, &d.frame)], net.now, rng, out)
        });
        ends.allocs[at] += allocs;
        ends.delivered += out.delivered.len();
        for (dst, frame) in &out.datagrams {
            net.flight.push(Datagram {
                src: d.dst,
                dst: *dst,
                frame: frame.to_vec(),
            });
        }
    }
    assert_eq!(ends.delivered, n, "every message delivered once");
    assert!(net.engine(client()).flow_is_idle(key), "exchange complete");
    ends.allocs
}

/// Allocations of a warm exchange of each size in `sizes`, per engine.
fn budget(mode: Mode, reliability: Reliability, sizes: [usize; 2]) -> [[u64; 2]; 2] {
    let proto = Config::new(Algorithm::Sha1)
        .with_reliability(reliability)
        .with_chain_len(256);
    // No renewal: every exchange is the protocol's alone.
    let cfg = EngineConfig::new(proto).with_renew_below(0);
    let (mut net, hop) = Net::path(17, cfg, cfg, None);
    let key = net.connect(client(), hop, 3);
    let mut ends = Ends {
        outs: [EngineOutput::default(), EngineOutput::default()],
        allocs: [0; 2],
        delivered: 0,
        rng: StdRng::seed_from_u64(17),
    };
    // Warm-up: both sizes, twice, fill the reused outputs, the frame
    // caches and the channels' scratch buffers.
    for _ in 0..2 {
        for n in sizes {
            exchange(&mut net, &mut ends, key, mode, n);
        }
    }
    sizes.map(|n| exchange(&mut net, &mut ends, key, mode, n))
}

#[test]
fn an_exchange_allocates_the_same_whatever_its_message_count() {
    let cases = [
        (Mode::Base, [1, 1]),
        (Mode::Cumulative, [4, 16]),
        (Mode::Merkle, [3, 12]),
    ];
    for reliability in [Reliability::Unreliable, Reliability::Reliable] {
        for (mode, sizes) in cases {
            let [small, large] = budget(mode, reliability, sizes);
            assert_eq!(
                small, large,
                "{mode:?} {reliability:?}: [signer, verifier] allocations of {} vs {} messages",
                sizes[0], sizes[1]
            );
        }
    }
}
