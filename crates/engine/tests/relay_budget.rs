//! What a relayed datagram costs the engine, as counts that hold on any
//! host: a burst of exchanges from one source through
//! `EngineCore::handle_datagrams` allocates a constant per call — the
//! output's datagram list and its extraction arena — however long the
//! burst, however its S2s are bundled and however its payload lengths
//! vary; each datagram takes exactly one shard lock (debug builds count
//! them per thread); and the counters the call publishes once equal
//! what the same datagrams publish fed one call each.

mod common;

use std::net::SocketAddr;
use std::sync::atomic::Ordering::Relaxed;

use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{Config, DropReason, Mode, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::shard::{locks_taken_on_thread, reset_thread_lock_count};
use alpha_engine::{EngineConfig, EngineCore};
use alpha_wire::bundle;
use common::CountingAlloc;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NOW: Timestamp = Timestamp(1_000);

fn addr(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// How the client sends each exchange.
#[derive(Clone, Copy)]
enum Shape {
    /// One Base message, `message {x:04}`: an S1 and an S2 datagram.
    Base,
    /// One Base message of 12 bytes every eighth exchange, the first of
    /// each burst, and of 144 bytes otherwise.
    MixedLengths,
    /// [`RUN`] ALPHA-M messages of mixed lengths: an S1 datagram, then
    /// their S2s bundled in one datagram.
    MerkleRuns,
}

/// Messages per exchange in [`Shape::MerkleRuns`].
const RUN: usize = 8;

/// A relay engine that has learned one association between a client
/// and a server, and the client's side of `exchanges` exchanges as the
/// relay sees them: S1, S2(s), S1, S2(s), … (the server's A1s go the
/// other way and are not needed to verify).
struct Setup {
    relay: EngineCore,
    client: SocketAddr,
    datagrams: Vec<Vec<u8>>,
}

fn setup(exchanges: usize) -> Setup {
    setup_shaped(exchanges, Shape::Base)
}

fn setup_shaped(exchanges: usize, shape: Shape) -> Setup {
    let cfg = Config::new(Algorithm::Sha1).with_chain_len(2 * exchanges as u64 + 8);
    let mut rng = StdRng::seed_from_u64(29);
    let (hs, hs1) = bootstrap::initiate(cfg, 7, None, &mut rng);
    let (mut server, hs2, _) =
        bootstrap::respond(cfg, &hs1, None, AuthRequirement::None, &mut rng).expect("HS2");
    let (mut client, _) = hs.complete(&hs2, AuthRequirement::None).expect("handshake");
    let relay = EngineCore::new(EngineConfig::new(cfg));
    let (ca, sa) = (addr(1), addr(2));
    relay.add_route(ca, sa);
    relay.handle_datagram(ca, &hs1.emit(), NOW, &mut rng);
    relay.handle_datagram(sa, &hs2.emit(), NOW, &mut rng);
    assert_eq!(relay.metrics().handshakes.load(Relaxed), 1);
    let mut datagrams = Vec::with_capacity(2 * exchanges);
    for x in 0..exchanges {
        let message = format!("message {x:04}");
        let s1 = match shape {
            Shape::Base => client.sign(message.as_bytes(), NOW),
            Shape::MixedLengths => {
                let repeat = if x % 8 == 0 { 1 } else { 12 };
                client.sign(message.repeat(repeat).as_bytes(), NOW)
            }
            Shape::MerkleRuns => {
                let messages: Vec<String> =
                    (0..RUN).map(|i| message.repeat(1 + (x + i) % 4)).collect();
                let refs: Vec<&[u8]> = messages.iter().map(String::as_bytes).collect();
                client.sign_batch(&refs, Mode::Merkle, NOW)
            }
        }
        .expect("sign");
        let a1 = server.handle(&s1, NOW, &mut rng).expect("S1").packets;
        let s2 = client.handle(&a1[0], NOW, &mut rng).expect("A1").packets;
        for p in &s2 {
            server.handle(p, NOW, &mut rng).expect("S2");
        }
        datagrams.push(s1.emit());
        datagrams.push(match shape {
            Shape::MerkleRuns => bundle::emit(&s2).expect("one bundle"),
            _ => s2[0].emit(),
        });
    }
    Setup {
        relay,
        client: ca,
        datagrams,
    }
}

/// `frames`, all from `from`, as one burst.
fn batch_of(from: SocketAddr, frames: &[Vec<u8>]) -> Vec<(SocketAddr, &[u8])> {
    frames.iter().map(|f| (from, &f[..])).collect()
}

/// The engine's datagram-path totals.
fn totals(engine: &EngineCore) -> [i64; 9] {
    let m = engine.metrics();
    [
        m.packets_in.load(Relaxed) as i64,
        m.bytes_in.load(Relaxed) as i64,
        m.packets_out.load(Relaxed) as i64,
        m.bytes_out.load(Relaxed) as i64,
        m.s2_verified.load(Relaxed) as i64,
        m.total_drops() as i64,
        m.drops(DropReason::BadChainElement) as i64,
        m.admission_drops.load(Relaxed) as i64,
        engine.buffered_bytes(),
    ]
}

#[test]
fn a_relayed_burst_allocates_a_constant_and_takes_one_lock_per_datagram() {
    // Warm-up: a burst as long as the longest fills the flow's spare
    // buffers and leaves this thread's frame cache holding a frame for
    // every datagram. Then a 32- and a 64-datagram burst.
    let Setup {
        relay,
        client,
        datagrams,
    } = setup(32 + 16 + 32);
    let mut rng = StdRng::seed_from_u64(3);
    let (warm, rest) = datagrams.split_at(64);
    let (short, long) = rest.split_at(32);
    let burst = |frames| batch_of(client, frames);
    drop(relay.handle_datagrams(&burst(warm), NOW, &mut rng));

    let mut allocs = Vec::new();
    for frames in [short, long] {
        let batch = burst(frames);
        let contended = relay.lock_contended();
        reset_thread_lock_count();
        let (out, n) = common::allocations(|| relay.handle_datagrams(&batch, NOW, &mut rng));
        allocs.push(n);
        assert_eq!(
            out.datagrams.len(),
            frames.len(),
            "every datagram forwarded"
        );
        assert_eq!(out.extracted.len(), frames.len() / 2, "every S2 verified");
        if cfg!(debug_assertions) {
            assert_eq!(
                locks_taken_on_thread(),
                frames.len() as u64,
                "one shard lock per relayed datagram"
            );
        }
        assert_eq!(relay.lock_contended(), contended, "uncontended");
        drop(out);
    }
    assert_eq!(allocs[0], allocs[1], "32 vs 64 datagrams: {allocs:?}");
    assert!(allocs[1] <= 2, "the two lists of one output: {allocs:?}");
}

/// One warmed-up burst of `shape`, then a longer one: both allocate
/// only the output's two lists, however their S2s are bundled and
/// however their payload lengths vary.
fn burst_allocations(shape: Shape) -> [u64; 2] {
    let Setup {
        relay,
        client,
        datagrams,
    } = setup_shaped(24 + 8 + 24, shape);
    let mut rng = StdRng::seed_from_u64(3);
    let (warm, rest) = datagrams.split_at(48);
    let (short, long) = rest.split_at(16);
    let s2s = |frames: &[Vec<u8>]| match shape {
        Shape::MerkleRuns => frames.len() / 2 * RUN,
        _ => frames.len() / 2,
    };
    drop(relay.handle_datagrams(&batch_of(client, warm), NOW, &mut rng));
    [short, long].map(|frames| {
        let batch = batch_of(client, frames);
        let (out, n) = common::allocations(|| relay.handle_datagrams(&batch, NOW, &mut rng));
        assert_eq!(
            out.datagrams.len(),
            frames.len(),
            "every datagram forwarded"
        );
        assert_eq!(out.extracted.len(), s2s(frames), "every S2 verified");
        n
    })
}

#[test]
fn bundled_runs_and_mixed_lengths_size_the_arena_once() {
    for shape in [Shape::MerkleRuns, Shape::MixedLengths] {
        let allocs = burst_allocations(shape);
        assert_eq!(allocs[0], allocs[1], "16 vs 48 datagrams: {allocs:?}");
        assert!(allocs[1] <= 2, "the two lists of one output: {allocs:?}");
    }
}

#[test]
fn burst_totals_equal_the_per_datagram_sums() {
    let burst = setup(40);
    let single = setup(40);
    let mut rng = StdRng::seed_from_u64(5);
    // Two bursts, so the second starts from published totals.
    for half in burst.datagrams.chunks(40) {
        let out = burst
            .relay
            .handle_datagrams(&batch_of(burst.client, half), NOW, &mut rng);
        assert_eq!(out.extracted.len(), 20);
    }
    let mut sums = [0i64; 9];
    for frame in &single.datagrams {
        let before = totals(&single.relay);
        drop(
            single
                .relay
                .handle_datagram(single.client, frame, NOW, &mut rng),
        );
        let after = totals(&single.relay);
        for (sum, (a, b)) in sums.iter_mut().zip(after.iter().zip(before)) {
            *sum += a - b;
        }
    }
    let start = totals(&setup(40).relay);
    let burst_delta: Vec<i64> = totals(&burst.relay)
        .iter()
        .zip(start)
        .map(|(a, b)| a - b)
        .collect();
    assert_eq!(burst_delta, sums);
    assert_eq!(sums[0], 80, "packets in");
    assert_eq!(sums[4], 40, "S2s verified");
    assert_eq!(sums[5], 0, "nothing dropped");
}
