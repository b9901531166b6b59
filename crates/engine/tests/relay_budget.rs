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

use alpha_core::{Config, DropReason, Mode, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::shard::{locks_taken_on_thread, reset_thread_lock_count};
use alpha_engine::{EngineConfig, EngineCore};
use common::net::{client, relay, Net};
use common::CountingAlloc;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NOW: Timestamp = Timestamp(1_000);

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
/// and a server engine, and the client's side of `exchanges` exchanges
/// as the relay sees them: S1, S2(s), S1, S2(s), … (the server's A1s go
/// the other way and are not needed to verify). The relay carries the
/// handshake, then is bypassed while the exchanges are made.
struct Setup {
    net: Net,
    datagrams: Vec<Vec<u8>>,
}

impl Setup {
    fn relay(&self) -> &EngineCore {
        self.net.engine(relay())
    }
}

fn setup(exchanges: usize) -> Setup {
    setup_shaped(exchanges, Shape::Base)
}

fn setup_shaped(exchanges: usize, shape: Shape) -> Setup {
    let proto = Config::new(Algorithm::Sha1).with_chain_len(2 * exchanges as u64 + 8);
    // No renewal: the trace holds the exchanges and nothing else.
    let host = EngineConfig::new(proto).with_renew_below(0);
    let (mut net, ra) = Net::path(29, host, host, Some(EngineConfig::new(proto)));
    let ca = client();
    let key = net.connect(ca, ra, 7);
    assert_eq!(net.engine(ra).metrics().handshakes.load(Relaxed), 1);
    net.bypass(ra);
    for x in 0..exchanges {
        let message = format!("message {x:04}");
        match shape {
            Shape::Base => net.sign(ca, key, &[message.as_bytes()], Mode::Base),
            Shape::MixedLengths => {
                let repeat = if x % 8 == 0 { 1 } else { 12 };
                net.sign(ca, key, &[message.repeat(repeat).as_bytes()], Mode::Base)
            }
            Shape::MerkleRuns => {
                let messages: Vec<String> =
                    (0..RUN).map(|i| message.repeat(1 + (x + i) % 4)).collect();
                let refs: Vec<&[u8]> = messages.iter().map(String::as_bytes).collect();
                net.sign(ca, key, &refs, Mode::Merkle)
            }
        }
        .expect("sign");
        net.pump();
    }
    let datagrams = std::mem::take(&mut net.bypassed)
        .into_iter()
        .filter(|d| d.src == ca)
        .map(|d| d.frame)
        .collect();
    Setup { net, datagrams }
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
    let setup = setup(32 + 16 + 32);
    let (relay, datagrams) = (setup.relay(), &setup.datagrams);
    let mut rng = StdRng::seed_from_u64(3);
    let (warm, rest) = datagrams.split_at(64);
    let (short, long) = rest.split_at(32);
    let burst = |frames| batch_of(client(), frames);
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
    let setup = setup_shaped(24 + 8 + 24, shape);
    let (relay, datagrams) = (setup.relay(), &setup.datagrams);
    let mut rng = StdRng::seed_from_u64(3);
    let (warm, rest) = datagrams.split_at(48);
    let (short, long) = rest.split_at(16);
    let s2s = |frames: &[Vec<u8>]| match shape {
        Shape::MerkleRuns => frames.len() / 2 * RUN,
        _ => frames.len() / 2,
    };
    drop(relay.handle_datagrams(&batch_of(client(), warm), NOW, &mut rng));
    [short, long].map(|frames| {
        let batch = batch_of(client(), frames);
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
    let (burst_relay, single_relay) = (burst.relay(), single.relay());
    let mut rng = StdRng::seed_from_u64(5);
    // Two bursts, so the second starts from published totals.
    for half in burst.datagrams.chunks(40) {
        let out = burst_relay.handle_datagrams(&batch_of(client(), half), NOW, &mut rng);
        assert_eq!(out.extracted.len(), 20);
    }
    let mut sums = [0i64; 9];
    for frame in &single.datagrams {
        let before = totals(single_relay);
        drop(single_relay.handle_datagram(client(), frame, NOW, &mut rng));
        let after = totals(single_relay);
        for (sum, (a, b)) in sums.iter_mut().zip(after.iter().zip(before)) {
            *sum += a - b;
        }
    }
    let fresh = setup(40);
    let start = totals(fresh.relay());
    let burst_delta: Vec<i64> = totals(burst_relay)
        .iter()
        .zip(start)
        .map(|(a, b)| a - b)
        .collect();
    assert_eq!(burst_delta, sums);
    assert_eq!(sums[0], 80, "packets in");
    assert_eq!(sums[4], 40, "S2s verified");
    assert_eq!(sums[5], 0, "nothing dropped");
}
