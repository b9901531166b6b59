//! The four sleeping associations the hibernation suites share: Base
//! unreliable after an exchange, ALPHA-C reliable with a flat
//! pre-(n)ack, ALPHA-M reliable mid-bundle with an AMT, and an ALPHA-C +
//! ALPHA-M forest behind a superseded exchange. `freeze_golden.rs` pins
//! the verifier's record of each byte for byte; `record_fuzz.rs` mutates
//! them. Also the counting allocator the allocation suites install.

// Each suite that includes this module reads only part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use alpha_core::{Association, ChainStorage, Config, Mode, Reliability, Timestamp};
use alpha_crypto::Algorithm;
use alpha_wire::Packet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// System allocator that counts the calling thread's `alloc`s and the
/// bytes they ask for (the default `realloc` goes through `alloc`). Per
/// thread, so the test harness's own threads cannot disturb the count.
/// A suite installs it with `#[global_allocator]`.
pub struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

// SAFETY: both methods forward to `System` with the caller's own
// arguments; the bookkeeping is a const-initialised thread-local `Cell`
// with no destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| {
            let (calls, bytes) = n.get();
            n.set((calls + 1, bytes + layout.size()));
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// `f`'s value, with the `alloc` calls the calling thread made while it
/// ran and the bytes they asked for.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    let (calls, bytes) = ALLOCATED.with(Cell::get);
    let value = f();
    let (calls_after, bytes_after) = ALLOCATED.with(Cell::get);
    (value, calls_after - calls, bytes_after - bytes)
}

pub fn ms(t: u64) -> Timestamp {
    Timestamp::from_millis(t)
}

/// Run one exchange of `msgs` from `alice` to `bob`: S1 at `t`, A1, then
/// the first `delivered` S2s (and any verdict A2 back) at `t + 2` ms.
/// Returns the S2s left undelivered.
pub fn exchange(
    alice: &mut Association,
    bob: &mut Association,
    msgs: &[&[u8]],
    mode: Mode,
    delivered: usize,
    t: u64,
    rng: &mut StdRng,
) -> Vec<Packet> {
    let s1 = alice.sign_batch(msgs, mode, ms(t)).expect("sign");
    let a1 = bob.handle(&s1, ms(t + 1), rng).expect("S1").packets;
    let mut s2s: Vec<Packet> = a1
        .iter()
        .flat_map(|a1| alice.handle(a1, ms(t + 1), rng).expect("A1").packets)
        .collect();
    let undelivered = s2s.split_off(delivered);
    for s2 in &s2s {
        for a2 in bob.handle(s2, ms(t + 2), rng).expect("S2").packets {
            alice.handle(&a2, ms(t + 2), rng).expect("A2");
        }
    }
    undelivered
}

/// A pair put to sleep: the signer `alice`, the verifier `bob` whose
/// record is the case, and the S2s `alice` has sent that `bob` has not
/// yet seen.
pub struct Sleeping {
    pub cfg: Config,
    pub alice: Association,
    pub bob: Association,
    pub undelivered: Vec<Packet>,
    pub rng: StdRng,
}

/// A fresh pair under `cfg` after `run`.
fn sleeping(
    cfg: Config,
    seed: u64,
    run: impl FnOnce(&mut Association, &mut Association, &mut StdRng) -> Vec<Packet>,
) -> Sleeping {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut alice, mut bob) = Association::pair(cfg, 0x00A1_FA00 + seed, &mut rng);
    let undelivered = run(&mut alice, &mut bob, &mut rng);
    Sleeping {
        cfg,
        alice,
        bob,
        undelivered,
        rng,
    }
}

fn base_unreliable() -> Sleeping {
    let cfg = Config::new(Algorithm::Sha1)
        .with_chain_len(64)
        .with_chain_storage(ChainStorage::Sqrt);
    sleeping(cfg, 1, |alice, bob, rng| {
        exchange(alice, bob, &[b"base"], Mode::Base, 1, 5, rng)
    })
}

fn c_reliable_flat() -> Sleeping {
    let cfg = Config::new(Algorithm::Sha256)
        .with_chain_len(32)
        .with_reliability(Reliability::Reliable);
    sleeping(cfg, 2, |alice, bob, rng| {
        let msgs: [&[u8]; 3] = [b"c0", b"c1", b"c2"];
        exchange(alice, bob, &msgs, Mode::Cumulative, 3, 7, rng)
    })
}

fn m_reliable_amt_mid_bundle() -> Sleeping {
    let cfg = Config::new(Algorithm::Sha1)
        .with_chain_len(16)
        .with_reliability(Reliability::Reliable);
    sleeping(cfg, 3, |alice, bob, rng| {
        let msgs: [&[u8]; 4] = [b"m0", b"m1", b"m2", b"m3"];
        exchange(alice, bob, &msgs, Mode::Merkle, 1, 11, rng)
    })
}

fn forest() -> Sleeping {
    let cfg = Config::new(Algorithm::MmoAes).with_chain_len(16);
    sleeping(cfg, 4, |alice, bob, rng| {
        exchange(alice, bob, &[b"first"], Mode::Base, 1, 13, rng);
        let msgs: [&[u8]; 5] = [b"f0", b"f1", b"f2", b"f3", b"f4"];
        let mode = Mode::CumulativeMerkle { leaves_per_tree: 2 };
        exchange(alice, bob, &msgs, mode, 2, 17, rng)
    })
}

/// A case's name and how to put its pair to sleep.
pub type Case = (&'static str, fn() -> Sleeping);

/// The cases, in the order `freeze_golden.rs` lists their bytes.
pub const SLEEPING: [Case; 4] = [
    ("base unreliable", base_unreliable),
    ("ALPHA-C reliable, flat", c_reliable_flat),
    (
        "ALPHA-M reliable, AMT mid-bundle",
        m_reliable_amt_mid_bundle,
    ),
    ("forest behind a superseded exchange", forest),
];
