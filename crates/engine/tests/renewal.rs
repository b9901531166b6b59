//! Chains do not end mid-flow. Every ALPHA exchange discloses a pair of
//! the signer's signature chain and a pair of the verifier's
//! acknowledgment chain, so a one-way flow runs both ends' chains down
//! together and both ends must renew. The engine renews on the datagram
//! path — the verified datagram that leaves a flow idle under
//! `renew_below` begins the renewal — and never defers a flow on its
//! last spare exchange. Each case runs 64-element chains (31 exchanges
//! each) through many renewals, and every exchange must deliver exactly
//! its one payload — also across an on-path relay engine, which must
//! follow both ends' renewals without dropping a packet. ci.sh runs this
//! suite under each digest backend: renewal builds chains, so it hashes.

mod common;

use std::sync::atomic::Ordering;

use alpha_core::{Config, DropReason, Mode, Reliability};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore, FlowKey};
use alpha_store::PacerConfig;
use common::net::{client, relay, server, Net};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHAIN_LEN: u64 = 64;

fn proto() -> Config {
    Config::new(Algorithm::Sha1).with_chain_len(CHAIN_LEN)
}

/// A pacer that admits at once: no jitter, a deep bucket.
fn jitter_free() -> PacerConfig {
    PacerConfig {
        max_jitter_us: 0,
        ..PacerConfig::default()
    }
}

/// Poll both engines and carry what the timers sent: nothing may be
/// delivered by a timer.
fn poll(net: &mut Net) {
    net.poll(client());
    net.poll(server());
    net.pump();
    assert!(net.delivered(server()).is_empty() && net.delivered(client()).is_empty());
}

/// One exchange from the client: the server delivers exactly `msg`.
fn exchange(net: &mut Net, key: FlowKey, msg: &[u8]) {
    net.sign(client(), key, &[msg], Mode::Base)
        .unwrap_or_else(|e| panic!("sign {:?}: {e}", String::from_utf8_lossy(msg)));
    net.pump();
    assert_eq!(
        net.delivered(server()),
        vec![msg.to_vec()],
        "{:?} delivered exactly once",
        String::from_utf8_lossy(msg)
    );
    assert!(net.delivered(client()).is_empty());
}

fn renewals(net: &Net) -> (u64, u64) {
    let started = |e: &EngineCore| e.metrics().store.renewals_started.load(Ordering::Relaxed);
    (started(net.engine(client())), started(net.engine(server())))
}

/// Exchanges a 64-element chain affords.
fn budget() -> u64 {
    let (mut client, _) = alpha_core::Association::pair(proto(), 1, &mut StdRng::seed_from_u64(0));
    client.signer().remaining_exchanges()
}

/// (1) A one-way flow, both ends polled every 10 ms, runs ten chains'
/// worth of exchanges. The server renews its acknowledgment chain as the
/// client renews its signature chain; without that, the server refuses
/// every S1 once its own chain is spent.
#[test]
fn a_polled_one_way_flow_outlives_ten_chains() {
    let cfg = EngineConfig::new(proto()).with_pacer(jitter_free());
    let (mut net, hop) = Net::path(1, cfg, cfg, None);
    let key = net.connect(client(), hop, 1);
    for n in 0..320u32 {
        net.now = net.now.plus_micros(10_000);
        poll(&mut net);
        exchange(&mut net, key, format!("exchange {n}").as_bytes());
    }
    let (client, server) = renewals(&net);
    assert!(
        client >= 320 / budget() && server >= 320 / budget(),
        "renewals: client {client}, server {server}"
    );
}

/// (2) Churn's shape: the client is never polled, and the server is
/// polled only to freeze its flows between rounds, so every exchange
/// wakes a flow from the store. A pacer of one renewal a second defers
/// most renewals to a timer; a flow due to hibernate sleeps through it
/// (the freezing poll sends nothing) and renews on the datagram that
/// wakes it.
#[test]
fn never_polled_clients_and_a_hibernating_server_outlive_ten_chains() {
    const IDLE_US: u64 = 100_000;
    const FLOWS: u16 = 8;
    let stingy = PacerConfig {
        max_jitter_us: 300_000,
        rate_per_sec: 1,
        burst: 1,
    };
    let client_cfg = EngineConfig::new(proto()).with_pacer(stingy);
    let server_cfg = client_cfg.with_hibernate_after(Some(IDLE_US));
    let (mut net, hop) = Net::path(2, client_cfg, server_cfg, None);
    let flows: Vec<FlowKey> = (0..FLOWS)
        .map(|f| net.connect(client(), hop, u64::from(f) + 1))
        .collect();
    for round in 0..320u64 {
        net.now = net.now.plus_micros(IDLE_US + 50_000);
        assert_eq!(
            net.poll(server()),
            0,
            "round {round}: the freezing poll sends nothing"
        );
        let store = &net.engine(server()).metrics().store;
        let asleep = store.flows_hibernated.load(Ordering::Relaxed);
        assert_eq!(asleep, u64::from(FLOWS), "round {round}");
        for (f, &key) in flows.iter().enumerate() {
            exchange(&mut net, key, format!("wake {f}/{round}").as_bytes());
        }
        let store = &net.engine(server()).metrics().store;
        let thawed = store.thawed.load(Ordering::Relaxed);
        assert_eq!(thawed, (round + 1) * u64::from(FLOWS), "round {round}");
    }
    let (client, server) = renewals(&net);
    let chains = 320 / budget() * u64::from(FLOWS);
    assert!(
        client >= chains && server >= chains,
        "client {client}, server {server}"
    );
    let deferred = |at| {
        let e: &EngineCore = net.engine(at);
        e.metrics().store.renewals_deferred.load(Ordering::Relaxed)
    };
    assert!(deferred(self::client()) > 0 && deferred(self::server()) > 0);
}

/// (3) Both ends send every round, so all four chains run down together
/// and both ends renew in the same round: each renewal's S1 crosses the
/// other's on the wire, answered from chains that are about to be
/// replaced. Returns the network, for what a relay on it saw.
fn both_ends_renewing_at_once(
    mode: Mode,
    reliability: Reliability,
    seed: u64,
    relayed: bool,
) -> Net {
    let cfg = EngineConfig::new(proto().with_reliability(reliability)).with_pacer(jitter_free());
    let (mut net, hop) = Net::path(seed, cfg, cfg, relayed.then_some(cfg));
    let c_key = net.connect(client(), hop, 3);
    let s_key = FlowKey {
        peer: if relayed { hop } else { client() },
        assoc_id: c_key.assoc_id,
    };
    for n in 0..160u32 {
        net.now = net.now.plus_micros(10_000);
        poll(&mut net);
        let up = format!("up {n}");
        let down = format!("down {n}");
        let from_client = net.sign(client(), c_key, &[up.as_bytes()], mode);
        let from_server = net.sign(server(), s_key, &[down.as_bytes()], mode);
        if from_client.is_err() || from_server.is_err() {
            let (c, s) = (from_client.err(), from_server.err());
            panic!("round {n}: client {c:?}, server {s:?}");
        }
        net.pump();
        assert_eq!(net.delivered(server()), vec![up.into_bytes()], "round {n}");
        assert_eq!(
            net.delivered(client()),
            vec![down.into_bytes()],
            "round {n}"
        );
    }
    let (client, server) = renewals(&net);
    assert!(client >= 160 / budget() && server >= 160 / budget());
    net
}

#[test]
fn both_ends_renewing_at_once_base_unreliable() {
    both_ends_renewing_at_once(Mode::Base, Reliability::Unreliable, 3, false);
}

#[test]
fn both_ends_renewing_at_once_merkle_reliable() {
    both_ends_renewing_at_once(Mode::Merkle, Reliability::Reliable, 4, false);
}

/// (5) Case (3) across a relay engine, which re-anchors each end's
/// chains as its renewal passes. A renewing end answers the other's
/// exchange in flight from the acknowledgment chain it is replacing, so
/// the relay must still take that chain's elements: nothing may drop as
/// a bad chain element, and every payload is delivered exactly once.
#[test]
fn both_ends_renewing_at_once_through_a_relay() {
    for (mode, reliability, seed) in [
        (Mode::Base, Reliability::Unreliable, 6),
        (Mode::Merkle, Reliability::Reliable, 7),
    ] {
        let net = both_ends_renewing_at_once(mode, reliability, seed, true);
        let m = net.engine(relay()).metrics();
        let what = format!("{mode:?} {reliability:?}");
        assert_eq!(m.drops(DropReason::BadChainElement), 0, "{what}");
        assert_eq!(m.total_drops(), 0, "{what}");
        assert!(
            m.s2_verified.load(Ordering::Relaxed) >= 2 * 160,
            "{what}: the relay verified every payload"
        );
    }
}

/// (4) 1,024 flows reach the threshold in the same round under the
/// default pacer (64-renewal burst, 256/s): the pacer defers most, and
/// every deferred flow still renews — on its last spare exchange at the
/// latest — before its chain runs out.
#[test]
fn a_thousand_flows_renewing_in_lockstep_all_survive() {
    const FLOWS: u16 = 1024;
    let cfg = EngineConfig::new(proto());
    let (mut net, hop) = Net::path(5, cfg, cfg, None);
    let flows: Vec<FlowKey> = (0..FLOWS)
        .map(|f| net.connect(client(), hop, u64::from(f) + 1))
        .collect();
    // Past the first renewal of every flow, both ends.
    let rounds = budget() + 4;
    for round in 0..rounds {
        net.now = net.now.plus_micros(1_000);
        for (f, &key) in flows.iter().enumerate() {
            exchange(&mut net, key, format!("{f}/{round}").as_bytes());
        }
    }
    let (client, server) = renewals(&net);
    assert!(
        client >= u64::from(FLOWS) && server >= u64::from(FLOWS),
        "every flow renewed both ends: client {client}, server {server}"
    );
    let deferred = |at| {
        let e: &EngineCore = net.engine(at);
        e.metrics().store.renewals_deferred.load(Ordering::Relaxed)
    };
    assert!(deferred(self::client()) > 0 && deferred(self::server()) > 0);
}
