//! Verifying a bundle allocates what it hands out and a constant per run:
//! one 16-S2 ALPHA-M datagram through `EngineCore::handle_datagrams` costs,
//! on a host, each delivered message its payload `Vec` (the type
//! `EngineOutput::delivered` carries) plus one reservation of that list,
//! and on a relay two lists whatever the bundle's size: the output's
//! datagram list and its extraction arena. No response, event list, path
//! copy or payload copy of its own per S2.

mod common;

use alpha_core::{Config, Mode};
use alpha_crypto::Algorithm;
use alpha_engine::EngineConfig;
use alpha_wire::bundle;
use common::net::{client, packets, Net};
use common::CountingAlloc;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RUN: u64 = 16;

/// Allocations made by handling each of an exchange's S2 bundles at
/// the verifying engine — the server, or the relay before it — after
/// it has seen the exchange's S1 (and, relayed, its A1).
fn allocs_per_bundle(relay: bool) -> Vec<u64> {
    let cfg = EngineConfig::new(Config::new(Algorithm::Sha1).with_chain_len(64));
    let (mut net, verifier) = Net::path(3, cfg, cfg, relay.then_some(cfg));
    let ca = client();
    let key = net.connect(ca, verifier, 5);
    let mut rng = StdRng::seed_from_u64(3);
    let payloads: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 1024]).collect();
    let mut counts = Vec::new();
    // Four 32-message exchanges, two bundles each; the first exchange
    // warms the frame pool and the flow's state.
    for msgs in payloads.chunks(32).chain(payloads.chunks(32)) {
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        net.sign(ca, key, &refs, Mode::Merkle).expect("sign");
        let held = net.pump_holding(|d| d.carries_s2());
        let s2s: Vec<&[u8]> = held.iter().flat_map(|d| packets(&d.frame)).collect();
        for chunk in s2s.chunks(RUN as usize) {
            let mut frame = Vec::new();
            bundle::emit_slices_into(chunk, &mut frame).expect("bundle");
            let engine = net.engine(verifier);
            let (out, allocs) =
                common::allocations(|| engine.handle_datagrams(&[(ca, &frame)], net.now, &mut rng));
            counts.push(allocs);
            assert_eq!(out.delivered.len() + out.extracted.len(), RUN as usize);
            net.send(verifier, out);
        }
        net.pump();
    }
    counts
}

#[test]
fn a_verified_bundle_allocates_its_payloads_and_a_constant() {
    // Before the batched step this bundle cost 51 allocations on a host
    // (a response, an event list and a delivery list per S2) and 34 on a
    // relay (a path copy list and a dozen working lists per run); before
    // the extraction arena, a relay's was RUN + 3 (a payload copy each,
    // a decision list and the growth of two lists).
    let host = allocs_per_bundle(false);
    assert!(host[2..].iter().all(|&n| n == RUN + 1), "host: {host:?}");
    let relay = allocs_per_bundle(true);
    assert!(relay[2..].iter().all(|&n| n == 2), "relay: {relay:?}");
}
