//! One virtual network for engine-level tests: `EngineCore`s bound at
//! addresses, an explicit multiset of datagrams in flight and one
//! virtual clock. A datagram is handed to the engine bound at its
//! destination, from its source, and what that engine sends joins the
//! flight with the engine's address as its source. A relay is an engine
//! with routes that the hosts beside it address, as in a deployment.
//!
//! Suites step it by hand (`deliver`, `drop`, `duplicate`, `advance`,
//! `freeze`) or let `pump` deliver in order until it falls quiet. What
//! each engine delivered, extracted and completed is kept until `take`.
//! A region that counts allocations or hashes calls the engine under
//! measurement directly (`engine`) and hands its output back with
//! `send` afterwards, so none of the network's bookkeeping is counted.
//!
//! The engine's unit tests and the root package's suites include this
//! file by path, so it names the crates it uses, never `crate`.
#![allow(dead_code)]

use std::net::SocketAddr;

use alpha_core::{Mode, Timestamp};
use alpha_engine::{EngineConfig, EngineCore, EngineError, EngineOutput, FlowKey};
use alpha_wire::limits::MAX_BUNDLE;
use alpha_wire::{bundle, PacketType};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A loopback address.
pub fn addr(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// Where [`Net::path`] binds its client, relay and server engines.
pub fn client() -> SocketAddr {
    addr(1)
}

pub fn relay() -> SocketAddr {
    addr(2)
}

pub fn server() -> SocketAddr {
    addr(3)
}

/// A datagram in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    pub src: SocketAddr,
    pub dst: SocketAddr,
    pub frame: Vec<u8>,
}

impl Datagram {
    /// Whether one of the datagram's packets is an S2.
    pub fn carries_s2(&self) -> bool {
        packets(&self.frame).iter().any(|p| is_s2(p))
    }
}

/// The packets of a datagram an engine sent.
pub fn packets(frame: &[u8]) -> Vec<&[u8]> {
    let mut slices: [&[u8]; MAX_BUNDLE] = [&[]; MAX_BUNDLE];
    let n = bundle::split(frame, &mut slices).expect("an engine's own framing");
    slices[..n].to_vec()
}

/// Whether an encoded packet is an S2 (its type byte follows the two
/// magic bytes and the version).
pub fn is_s2(packet: &[u8]) -> bool {
    packet.get(3) == Some(&(PacketType::S2 as u8))
}

struct Node {
    at: SocketAddr,
    engine: EngineCore,
    /// A relay's routes, which the network follows while it is bypassed.
    routes: Vec<(SocketAddr, SocketAddr)>,
    bypassed: bool,
    /// What the engine delivered, extracted and completed, not yet taken.
    out: EngineOutput,
}

/// Deliveries one `pump` may make before it calls the network wedged.
const QUIET_WITHIN: usize = 1 << 20;

pub struct Net {
    pub now: Timestamp,
    pub rng: StdRng,
    pub flight: Vec<Datagram>,
    /// What bypassed relays would have been handed, in arrival order.
    pub bypassed: Vec<Datagram>,
    nodes: Vec<Node>,
}

impl Net {
    /// An empty network at 1 ms, its engines' randomness seeded.
    pub fn new(seed: u64) -> Net {
        Net {
            now: Timestamp::from_millis(1),
            rng: StdRng::seed_from_u64(seed),
            flight: Vec::new(),
            bypassed: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// A client and a server engine, and a relay engine routing between
    /// them when `relay` is given. Returns the network and where the
    /// client's flows go: the relay, or the server.
    pub fn path(
        seed: u64,
        client: EngineConfig,
        server: EngineConfig,
        relay: Option<EngineConfig>,
    ) -> (Net, SocketAddr) {
        let mut net = Net::new(seed);
        net.host(self::client(), client);
        net.host(self::server(), server);
        let Some(relay) = relay else {
            return (net, self::server());
        };
        net.relay(self::relay(), relay, &[(self::client(), self::server())]);
        (net, self::relay())
    }

    /// Bind `engine` at `at`.
    pub fn add(&mut self, at: SocketAddr, engine: EngineCore) {
        assert!(self.find(at).is_none(), "{at} is bound twice");
        self.nodes.push(Node {
            at,
            engine,
            routes: Vec::new(),
            bypassed: false,
            out: EngineOutput::default(),
        });
    }

    /// A host engine at `at`.
    pub fn host(&mut self, at: SocketAddr, cfg: EngineConfig) {
        self.add(at, EngineCore::new(cfg));
    }

    /// A relay engine at `at` that carries each pair's datagrams to the
    /// pair's other end.
    pub fn relay(
        &mut self,
        at: SocketAddr,
        cfg: EngineConfig,
        routes: &[(SocketAddr, SocketAddr)],
    ) {
        let engine = EngineCore::new(cfg);
        for &(a, b) in routes {
            engine.add_route(a, b);
        }
        self.add(at, engine);
        self.node(at).routes = routes.to_vec();
    }

    /// The engine bound at `at`.
    pub fn engine(&self, at: SocketAddr) -> &EngineCore {
        &self.nodes[self.index(at)].engine
    }

    fn find(&self, at: SocketAddr) -> Option<usize> {
        self.nodes.iter().position(|n| n.at == at)
    }

    fn index(&self, at: SocketAddr) -> usize {
        self.find(at)
            .unwrap_or_else(|| panic!("a datagram for {at}, where nothing is bound"))
    }

    fn node(&mut self, at: SocketAddr) -> &mut Node {
        let i = self.index(at);
        &mut self.nodes[i]
    }

    /// From now on, carry what reaches `relay` along its routes without
    /// handing it over, and keep it in `bypassed` for the suite to feed
    /// the relay by hand.
    pub fn bypass(&mut self, relay: SocketAddr) {
        self.node(relay).bypassed = true;
    }

    /// Put the datagrams of `out`, an output of the engine at `src`, in
    /// flight, and keep the rest of it for `take`.
    pub fn send(&mut self, src: SocketAddr, mut out: EngineOutput) {
        // Copied, so each frame goes back to its engine's pool.
        let sent = out.datagrams.drain(..).map(|(dst, frame)| Datagram {
            src,
            dst,
            frame: frame.to_vec(),
        });
        self.flight.extend(sent);
        self.node(src).out.absorb(out);
    }

    /// What the engine at `at` delivered, extracted and completed since
    /// the last `take`.
    pub fn take(&mut self, at: SocketAddr) -> EngineOutput {
        std::mem::take(&mut self.node(at).out)
    }

    /// The payloads the engine at `at` delivered since they were last
    /// taken.
    pub fn delivered(&mut self, at: SocketAddr) -> Vec<Vec<u8>> {
        let out = &mut self.node(at).out;
        out.delivered.drain(..).map(|(_, _, p)| p).collect()
    }

    /// Hand in-flight datagram `i` to its destination.
    pub fn deliver(&mut self, i: usize) {
        let d = self.flight.remove(i);
        let node = &self.nodes[self.index(d.dst)];
        if node.bypassed {
            let onward = node.routes.iter().find_map(|&(a, b)| match d.src {
                s if s == a => Some(b),
                s if s == b => Some(a),
                _ => None,
            });
            let dst = onward.unwrap_or_else(|| panic!("{} is not routed at {}", d.src, d.dst));
            self.flight.push(Datagram {
                src: d.dst,
                dst,
                frame: d.frame.clone(),
            });
            self.bypassed.push(d);
            return;
        }
        let out = node
            .engine
            .handle_datagram(d.src, &d.frame, self.now, &mut self.rng);
        self.send(d.dst, out);
    }

    /// Lose in-flight datagram `i`.
    pub fn drop(&mut self, i: usize) -> Datagram {
        self.flight.remove(i)
    }

    /// Put a second copy of in-flight datagram `i` at the back.
    pub fn duplicate(&mut self, i: usize) {
        let copy = self.flight[i].clone();
        self.flight.push(copy);
    }

    /// Deliver in order until nothing is in flight.
    pub fn pump(&mut self) {
        self.pump_holding(|_| false);
    }

    /// Deliver in order until nothing is in flight, taking every
    /// datagram `hold` picks out of the flight instead of delivering it.
    pub fn pump_holding(&mut self, mut hold: impl FnMut(&Datagram) -> bool) -> Vec<Datagram> {
        let mut held = Vec::new();
        for _ in 0..QUIET_WITHIN {
            match self.flight.first() {
                None => return held,
                Some(d) if hold(d) => held.push(self.flight.remove(0)),
                Some(_) => self.deliver(0),
            }
        }
        panic!("the network did not fall quiet");
    }

    /// Run the timers of the engine at `at` up to now; returns how many
    /// datagrams they sent.
    pub fn poll(&mut self, at: SocketAddr) -> usize {
        let i = self.index(at);
        let out = self.nodes[i].engine.poll(self.now, &mut self.rng);
        let sent = out.datagrams.len();
        self.send(at, out);
        sent
    }

    /// Move the clock to the earliest deadline of any engine and poll
    /// them all. False, with nothing done, when no engine has one.
    pub fn advance(&mut self) -> bool {
        let due = self
            .nodes
            .iter()
            .filter_map(|n| n.engine.next_deadline())
            .min();
        let Some(due) = due else {
            return false;
        };
        self.now = self.now.max(due);
        let all: Vec<SocketAddr> = self.nodes.iter().map(|n| n.at).collect();
        for at in all {
            self.poll(at);
        }
        true
    }

    /// Move the clock past the hibernation threshold of the engine at
    /// `end` and poll it, so its idle flows freeze. The next datagram for
    /// one of them thaws it.
    pub fn freeze(&mut self, end: SocketAddr) {
        let idle = self.engine(end).config().hibernate_after;
        let idle = idle.unwrap_or_else(|| panic!("{end} does not hibernate"));
        self.now = self.now.plus_micros(idle + 1);
        self.poll(end);
    }

    /// Handshake from the host at `client` to `peer` (the server, or the
    /// relay before it) and pump until it completes.
    pub fn connect(&mut self, client: SocketAddr, peer: SocketAddr, assoc_id: u64) -> FlowKey {
        let i = self.index(client);
        let (key, out) = self.nodes[i]
            .engine
            .connect(peer, assoc_id, self.now, &mut self.rng);
        self.send(client, out);
        self.pump();
        let done = &self.nodes[self.index(client)].out.completed;
        assert!(
            done.contains(&key),
            "{key:?}: the handshake did not complete"
        );
        key
    }

    /// Sign `msgs` on the flow `key` of the host at `end`, and put the
    /// S1 in flight.
    pub fn sign(
        &mut self,
        end: SocketAddr,
        key: FlowKey,
        msgs: &[&[u8]],
        mode: Mode,
    ) -> Result<(), EngineError> {
        let out = self.engine(end).sign_batch(key, msgs, mode, self.now)?;
        self.send(end, out);
        Ok(())
    }
}
