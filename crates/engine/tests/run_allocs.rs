//! Verifying a bundle allocates what it hands out and a constant per run:
//! one 16-S2 ALPHA-M datagram through `EngineCore::handle_datagrams` costs,
//! on a host, each delivered message its payload `Vec` (the type
//! `EngineOutput::delivered` carries) plus one reservation of that list,
//! and on a relay each extracted payload plus the run's decision list and
//! the growth of the extracted and datagram lists. No response, event
//! list or path copy per S2.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;

use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Association, Config, Mode, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore};
use alpha_wire::{bundle, Packet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// System allocator that counts the calling thread's `alloc`s (the
/// default `realloc` goes through `alloc`). Per thread, so the test
/// harness's own threads cannot disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's own
// arguments; the bookkeeping is a const-initialised thread-local `Cell`
// with no destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NOW: Timestamp = Timestamp(1_000);
const RUN: u64 = 16;

fn addr(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// Allocations made by handling each of `frames` from `from`, after the
/// verifying engine has seen the exchange's S1 (and, relayed, its A1).
fn allocs_per_bundle(relay: bool) -> Vec<u64> {
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
    let mut rng = StdRng::seed_from_u64(3);
    let (hs, hs1) = bootstrap::initiate(cfg, 5, None, &mut rng);
    let (bob, hs2, _) =
        bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut rng).expect("HS2");
    let (mut alice, _) = hs.complete(&hs2, AuthRequirement::None).expect("handshake");
    let engine = EngineCore::new(EngineConfig::new(cfg));
    let (ca, sa) = (addr(1), addr(2));
    let to_engine = |from: SocketAddr, bytes: &[u8], rng: &mut StdRng| {
        let out = engine.handle_datagrams(&[(from, bytes)], NOW, rng);
        out.datagrams
            .iter()
            .map(|(_, frame)| Packet::parse(frame).expect("one packet"))
            .collect::<Vec<_>>()
    };
    // The relay's far end, a bare host; a host engine holds it instead.
    let mut far_end: Option<Association> = None;
    if relay {
        engine.add_route(ca, sa);
        to_engine(ca, &hs1.emit(), &mut rng);
        to_engine(sa, &hs2.emit(), &mut rng);
        far_end = Some(bob);
    } else {
        engine.add_host(ca, bob, NOW);
    }
    let payloads: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 1024]).collect();
    let mut counts = Vec::new();
    // Four 32-message exchanges, two bundles each; the first exchange
    // warms the frame pool and the flow's state.
    for msgs in payloads.chunks(32).chain(payloads.chunks(32)) {
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let s1 = alice.sign_batch(&refs, Mode::Merkle, NOW).expect("sign");
        let mut a1 = to_engine(ca, &s1.emit(), &mut rng).remove(0);
        if let Some(bob) = &mut far_end {
            let reply = bob.handle(&a1, NOW, &mut rng).expect("A1").packets;
            a1 = to_engine(sa, &reply[0].emit(), &mut rng).remove(0);
        }
        let s2s = alice.handle(&a1, NOW, &mut rng).expect("S2s").packets;
        for chunk in s2s.chunks(RUN as usize) {
            let frame = bundle::emit(chunk).expect("bundle");
            let before = ALLOCS.with(Cell::get);
            let out = engine.handle_datagrams(&[(ca, &frame)], NOW, &mut rng);
            counts.push(ALLOCS.with(Cell::get) - before);
            assert_eq!(out.delivered.len() + out.extracted.len(), RUN as usize);
            drop(out);
        }
    }
    counts
}

#[test]
fn a_verified_bundle_allocates_its_payloads_and_a_constant() {
    // Before the batched step this bundle cost 51 allocations on a host
    // (a response, an event list and a delivery list per S2) and 34 on a
    // relay (a path copy list and a dozen working lists per run).
    let host = allocs_per_bundle(false);
    assert!(host[2..].iter().all(|&n| n == RUN + 1), "host: {host:?}");
    let relay = allocs_per_bundle(true);
    assert!(relay[2..].iter().all(|&n| n == RUN + 3), "relay: {relay:?}");
}
