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

use std::net::SocketAddr;
use std::sync::atomic::Ordering;

use alpha_core::{Config, DropReason, Mode, Reliability, Timestamp};
use alpha_crypto::Algorithm;
use alpha_engine::{EngineConfig, EngineCore, EngineOutput, FlowKey};
use alpha_store::PacerConfig;
use alpha_wire::Frame;
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

fn addr(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// What each side delivered while a round was pumped.
#[derive(Default)]
struct Delivered {
    at_server: Vec<Vec<u8>>,
    at_client: Vec<Vec<u8>>,
}

/// A client engine and a server engine, every flow's client half at its
/// own address, and optionally a relay engine on the path between them.
struct Net {
    client: EngineCore,
    server: EngineCore,
    relay: Option<EngineCore>,
    sa: SocketAddr,
    rng: StdRng,
}

impl Net {
    fn new(client: EngineConfig, server: EngineConfig, seed: u64) -> Net {
        Net {
            client: EngineCore::new(client),
            server: EngineCore::new(server),
            relay: None,
            sa: addr(4000),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Route every datagram through a relay engine.
    fn relayed(mut self, relay: EngineConfig) -> Net {
        self.relay = Some(EngineCore::new(relay));
        self
    }

    /// Datagrams an end at `ca` or the server sent, as they leave the
    /// relay (all of them, when there is none).
    fn cross(
        &mut self,
        ca: SocketAddr,
        sent: Vec<(SocketAddr, Frame)>,
        now: Timestamp,
    ) -> Vec<(SocketAddr, Frame)> {
        let Some(relay) = &self.relay else {
            return sent;
        };
        let mut passed = Vec::new();
        for (dst, frame) in sent {
            let from = if dst == self.sa { ca } else { self.sa };
            passed.extend(
                relay
                    .handle_datagram(from, &frame, now, &mut self.rng)
                    .datagrams,
            );
        }
        passed
    }

    /// Carry datagrams between the client at `ca` and the server until
    /// both fall silent.
    fn pump(
        &mut self,
        ca: SocketAddr,
        from_client: EngineOutput,
        from_server: EngineOutput,
        now: Timestamp,
    ) -> Delivered {
        let mut got = Delivered::default();
        let mut pending = self.cross(ca, from_client.datagrams, now);
        pending.extend(self.cross(ca, from_server.datagrams, now));
        for _hop in 0..64 {
            if pending.is_empty() {
                return got;
            }
            let mut next = Vec::new();
            for (dst, frame) in pending.drain(..) {
                let out = if dst == self.sa {
                    let out = self.server.handle_datagram(ca, &frame, now, &mut self.rng);
                    got.at_server
                        .extend(out.delivered.iter().map(|(_, _, p)| p.clone()));
                    out
                } else {
                    assert_eq!(dst, ca, "a datagram for another flow");
                    let out = self
                        .client
                        .handle_datagram(self.sa, &frame, now, &mut self.rng);
                    got.at_client
                        .extend(out.delivered.iter().map(|(_, _, p)| p.clone()));
                    out
                };
                next.extend(self.cross(ca, out.datagrams, now));
            }
            pending = next;
        }
        panic!("flow at {ca}: the exchange did not converge");
    }

    fn connect(&mut self, ca: SocketAddr, assoc_id: u64, now: Timestamp) -> FlowKey {
        if let Some(relay) = &self.relay {
            relay.add_route(ca, self.sa);
        }
        let (key, out) = self.client.connect(self.sa, assoc_id, now, &mut self.rng);
        self.pump(ca, out, EngineOutput::default(), now);
        key
    }

    /// Poll both engines and carry what the timers sent: nothing may be
    /// delivered by a timer.
    fn poll(&mut self, ca: SocketAddr, now: Timestamp) {
        let from_client = self.client.poll(now, &mut self.rng);
        let from_server = self.server.poll(now, &mut self.rng);
        let got = self.pump(ca, from_client, from_server, now);
        assert!(got.at_server.is_empty() && got.at_client.is_empty());
    }

    /// One exchange from the client: the server delivers exactly `msg`.
    fn exchange(&mut self, ca: SocketAddr, key: FlowKey, mode: Mode, msg: &[u8], now: Timestamp) {
        let out = self
            .client
            .sign_batch(key, &[msg], mode, now)
            .unwrap_or_else(|e| panic!("sign {:?}: {e}", String::from_utf8_lossy(msg)));
        let got = self.pump(ca, out, EngineOutput::default(), now);
        assert_eq!(
            got.at_server,
            vec![msg.to_vec()],
            "{:?} delivered exactly once",
            String::from_utf8_lossy(msg)
        );
        assert!(got.at_client.is_empty());
    }

    fn renewals(&self) -> (u64, u64) {
        let started = |e: &EngineCore| e.metrics().store.renewals_started.load(Ordering::Relaxed);
        (started(&self.client), started(&self.server))
    }
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
    let mut net = Net::new(cfg, cfg, 1);
    let ca = addr(5000);
    let mut now = Timestamp::from_millis(1);
    let key = net.connect(ca, 1, now);
    for n in 0..320u32 {
        now = now.plus_micros(10_000);
        net.poll(ca, now);
        net.exchange(ca, key, Mode::Base, format!("exchange {n}").as_bytes(), now);
    }
    let (client, server) = net.renewals();
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
    let client = EngineConfig::new(proto()).with_pacer(stingy);
    let server = client.with_hibernate_after(Some(IDLE_US));
    let mut net = Net::new(client, server, 2);
    let mut now = Timestamp::from_millis(1);
    let flows: Vec<(SocketAddr, FlowKey)> = (0..FLOWS)
        .map(|f| {
            let ca = addr(5100 + f);
            (ca, net.connect(ca, u64::from(f) + 1, now))
        })
        .collect();
    for round in 0..320u64 {
        now = now.plus_micros(IDLE_US + 50_000);
        let out = net.server.poll(now, &mut net.rng);
        assert!(
            out.datagrams.is_empty(),
            "round {round}: the freezing poll sends nothing"
        );
        let store = &net.server.metrics().store;
        let asleep = store.flows_hibernated.load(Ordering::Relaxed);
        assert_eq!(asleep, u64::from(FLOWS), "round {round}");
        for (f, &(ca, key)) in flows.iter().enumerate() {
            net.exchange(
                ca,
                key,
                Mode::Base,
                format!("wake {f}/{round}").as_bytes(),
                now,
            );
        }
        let thawed = net.server.metrics().store.thawed.load(Ordering::Relaxed);
        assert_eq!(thawed, (round + 1) * u64::from(FLOWS), "round {round}");
    }
    let (client, server) = net.renewals();
    let chains = 320 / budget() * u64::from(FLOWS);
    assert!(
        client >= chains && server >= chains,
        "client {client}, server {server}"
    );
    let deferred = |e: &EngineCore| e.metrics().store.renewals_deferred.load(Ordering::Relaxed);
    assert!(deferred(&net.client) > 0 && deferred(&net.server) > 0);
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
    let mut net = Net::new(cfg, cfg, seed);
    if relayed {
        net = net.relayed(cfg);
    }
    let ca = addr(5002);
    let mut now = Timestamp::from_millis(1);
    let c_key = net.connect(ca, 3, now);
    let s_key = FlowKey {
        peer: ca,
        assoc_id: c_key.assoc_id,
    };
    for n in 0..160u32 {
        now = now.plus_micros(10_000);
        net.poll(ca, now);
        let up = format!("up {n}");
        let down = format!("down {n}");
        let from_client = net.client.sign_batch(c_key, &[up.as_bytes()], mode, now);
        let from_server = net.server.sign_batch(s_key, &[down.as_bytes()], mode, now);
        let (from_client, from_server) = match (from_client, from_server) {
            (Ok(c), Ok(s)) => (c, s),
            (c, s) => panic!("round {n}: client {:?}, server {:?}", c.err(), s.err()),
        };
        let got = net.pump(ca, from_client, from_server, now);
        assert_eq!(got.at_server, vec![up.into_bytes()], "round {n}");
        assert_eq!(got.at_client, vec![down.into_bytes()], "round {n}");
    }
    let (client, server) = net.renewals();
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
        let m = net.relay.as_ref().expect("relayed").metrics();
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
    let mut net = Net::new(cfg, cfg, 5);
    let mut now = Timestamp::from_millis(1);
    let flows: Vec<(SocketAddr, FlowKey)> = (0..FLOWS)
        .map(|f| {
            let ca = addr(6000 + f);
            (ca, net.connect(ca, u64::from(f) + 1, now))
        })
        .collect();
    // Past the first renewal of every flow, both ends.
    let rounds = budget() + 4;
    for round in 0..rounds {
        now = now.plus_micros(1_000);
        for (f, &(ca, key)) in flows.iter().enumerate() {
            net.exchange(ca, key, Mode::Base, format!("{f}/{round}").as_bytes(), now);
        }
    }
    let (client, server) = net.renewals();
    assert!(
        client >= u64::from(FLOWS) && server >= u64::from(FLOWS),
        "every flow renewed both ends: client {client}, server {server}"
    );
    let deferred = |e: &EngineCore| e.metrics().store.renewals_deferred.load(Ordering::Relaxed);
    assert!(deferred(&net.client) > 0 && deferred(&net.server) > 0);
}
