//! The discrete-event engine: virtual clock, event queue, routing, CPU
//! accounting and metrics.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use alpha_core::Timestamp;
use alpha_crypto::counting;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::link::{Link, LinkConfig, Transit};
use crate::node::{Node, NodeCtx, NodeOutput};
use crate::trace::{Trace, TraceEvent};

/// Index of a node within the simulator.
pub type NodeId = usize;

/// A network-layer frame: ALPHA wire bytes plus the addressing the
/// underlay (IP in deployment) would provide.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Serialized `alpha_wire::Packet`.
    pub bytes: Vec<u8>,
}

#[derive(Debug)]
enum Event {
    Arrival {
        hop_from: NodeId,
        at_node: NodeId,
        frame: Frame,
    },
    Tick {
        node: NodeId,
    },
}

struct Scheduled {
    at: Timestamp,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Per-node counters.
#[derive(Debug, Clone, Default)]
pub struct NodeMetrics {
    /// Frames handed to the network by this node.
    pub sent_frames: u64,
    /// Bytes handed to the network.
    pub sent_bytes: u64,
    /// Frames that arrived at this node.
    pub recv_frames: u64,
    /// Bytes that arrived.
    pub recv_bytes: u64,
    /// Frames this node forwarded (relays).
    pub forwarded: u64,
    /// Frames this node dropped, by reason string (in label order, so
    /// every print of it reads the same run after run).
    pub drops: BTreeMap<&'static str, u64>,
    /// Application payload bytes verified and delivered on this node.
    pub delivered_bytes: u64,
    /// Application payload messages delivered.
    pub delivered_msgs: u64,
    /// Payloads a relay verified in transit (middlebox extraction).
    pub extracted_payloads: u64,
    /// Parse failures (corrupted frames).
    pub parse_errors: u64,
    /// Virtual CPU time consumed (ns), priced by the node's device model.
    pub cpu_ns: f64,
    /// Energy consumed (µJ): CPU work plus transmission, priced by the
    /// node's device model (nominal class parameters; see
    /// [`crate::DeviceModel::energy_uj`]).
    pub energy_uj: f64,
    /// End-to-end latencies of delivered app messages (µs).
    pub latencies_us: Vec<u64>,
}

impl NodeMetrics {
    /// Record a drop by reason.
    pub fn drop_reason(&mut self, reason: &'static str) {
        *self.drops.entry(reason).or_insert(0) += 1;
    }

    /// Total drops across reasons.
    #[must_use]
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }
}

/// The simulator.
pub struct Simulator {
    time: Timestamp,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    nodes: Vec<Node>,
    busy_until: Vec<Timestamp>,
    // BTreeMaps keep route computation deterministic (BFS tie-breaking
    // follows key order, not hash order).
    links: BTreeMap<(NodeId, NodeId), Link>,
    routes: BTreeMap<(NodeId, NodeId), NodeId>,
    /// Per-node metrics, indexable by `NodeId`.
    pub metrics: Vec<NodeMetrics>,
    rng: StdRng,
    tick_us: u64,
    processed_events: u64,
    trace: Option<Trace>,
}

impl Simulator {
    /// New simulator with a deterministic RNG seed.
    #[must_use]
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            time: Timestamp::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            busy_until: Vec::new(),
            links: BTreeMap::new(),
            routes: BTreeMap::new(),
            metrics: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            tick_us: 10_000,
            processed_events: 0,
            trace: None,
        }
    }

    /// Start recording a packet-level trace (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::default());
    }

    /// The recorded trace so far, if tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Change the timer-tick granularity (default 10 ms).
    pub fn set_tick_us(&mut self, tick_us: u64) {
        self.tick_us = tick_us.max(1);
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Timestamp {
        self.time
    }

    /// Events processed so far.
    #[must_use]
    pub fn processed_events(&self) -> u64 {
        self.processed_events
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.busy_until.push(Timestamp::ZERO);
        self.metrics.push(NodeMetrics::default());
        self.schedule(Timestamp::ZERO, Event::Tick { node: id });
        id
    }

    /// Access a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Mutable access to a node (e.g. to reconfigure an app mid-run).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Add a bidirectional link between `a` and `b`.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.links.insert((a, b), Link::new(cfg));
        self.links.insert((b, a), Link::new(cfg));
        self.routes.clear();
    }

    /// Change the loss probability of the bidirectional link between `a`
    /// and `b` mid-run (both directions). The lever for scripted loss
    /// traces driving the adaptation controller; burst state and
    /// serialization queues are preserved. Returns false if no such link
    /// exists.
    pub fn set_link_loss(&mut self, a: NodeId, b: NodeId, loss: f64) -> bool {
        let mut found = false;
        for key in [(a, b), (b, a)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.cfg.loss = loss;
                found = true;
            }
        }
        found
    }

    /// Remove the bidirectional link between `a` and `b` (link failure or
    /// mobility); routes are recomputed on the next transmission. ALPHA
    /// requires path stability for ~2 RTTs (§3.5) — this is the lever for
    /// testing what happens when that assumption breaks.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) {
        self.links.remove(&(a, b));
        self.links.remove(&(b, a));
        self.routes.clear();
    }

    /// Recompute shortest-path next-hop routes (BFS). Called lazily.
    fn ensure_routes(&mut self) {
        if !self.routes.is_empty() || self.links.is_empty() {
            return;
        }
        let n = self.nodes.len();
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(a, b) in self.links.keys() {
            adj[a].push(b);
        }
        for dst in 0..n {
            // BFS from dst; first hop toward dst from each node.
            let mut prev: Vec<Option<NodeId>> = vec![None; n];
            let mut visited = vec![false; n];
            let mut q = VecDeque::new();
            visited[dst] = true;
            q.push_back(dst);
            while let Some(u) = q.pop_front() {
                for &v in &adj[u] {
                    if !visited[v] {
                        visited[v] = true;
                        prev[v] = Some(u);
                        q.push_back(v);
                    }
                }
            }
            for (node, hop) in prev.iter().enumerate() {
                if node != dst {
                    if let Some(next) = hop {
                        self.routes.insert((node, dst), *next);
                    }
                }
            }
        }
    }

    fn schedule(&mut self, at: Timestamp, event: Event) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
    }

    /// Run until the virtual clock passes `until` or the queue drains.
    pub fn run_until(&mut self, until: Timestamp) {
        self.ensure_routes();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > until {
                break;
            }
            let Reverse(sch) = self.queue.pop().expect("peeked");
            self.time = sch.at;
            self.processed_events += 1;
            self.dispatch(sch.event);
        }
        self.time = self.time.max(until);
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Arrival {
                hop_from,
                at_node,
                frame,
            } => {
                self.metrics[at_node].recv_frames += 1;
                self.metrics[at_node].recv_bytes += frame.bytes.len() as u64;
                self.process_at_node(at_node, Some((hop_from, frame)));
            }
            Event::Tick { node } => {
                self.process_at_node(node, None);
                let next = self.time.plus_micros(self.tick_us);
                self.schedule(next, Event::Tick { node });
            }
        }
    }

    /// Run the node's handler under CPU accounting, then route its output.
    fn process_at_node(&mut self, id: NodeId, arrival: Option<(NodeId, Frame)>) {
        let start = self.time.max(self.busy_until[id]);
        let was_arrival = arrival.is_some();
        let scope = counting::Scope::start();
        let mut out = NodeOutput::default();
        {
            let node = &mut self.nodes[id];
            let mut ctx = NodeCtx {
                id,
                now: start,
                rng: &mut self.rng,
                metrics: &mut self.metrics[id],
            };
            match arrival {
                Some((hop_from, frame)) => node.on_frame(&mut ctx, hop_from, frame, &mut out),
                None => node.on_tick(&mut ctx, &mut out),
            }
        }
        let counts = scope.finish();
        let device = *self.nodes[id].device();
        let mut cpu_ns = device.price_counts_ns(counts);
        if was_arrival || !out.frames.is_empty() {
            cpu_ns += device.packet_overhead_ns;
        }
        self.metrics[id].cpu_ns += cpu_ns;
        let tx_bytes: u64 = out.frames.iter().map(|f| f.bytes.len() as u64).sum();
        self.metrics[id].energy_uj += device.energy_uj(cpu_ns, tx_bytes);
        let done = start.plus_micros((cpu_ns / 1000.0) as u64);
        self.busy_until[id] = done;
        for frame in out.frames {
            self.transmit(id, frame, done);
        }
    }

    /// Route `frame` from `from` toward `frame.dst` over the next-hop link.
    fn transmit(&mut self, from: NodeId, frame: Frame, now: Timestamp) {
        self.ensure_routes();
        if frame.dst == from {
            return;
        }
        let Some(&next) = self.routes.get(&(from, frame.dst)) else {
            self.metrics[from].drop_reason("no-route");
            return;
        };
        self.metrics[from].sent_frames += 1;
        self.metrics[from].sent_bytes += frame.bytes.len() as u64;
        let link = self
            .links
            .get_mut(&(from, next))
            .expect("route over existing link");
        if let Some(trace) = &mut self.trace {
            trace.record(
                now,
                TraceEvent::Transmit {
                    from,
                    next_hop: next,
                    dst: frame.dst,
                    bytes: frame.bytes.len(),
                    packet_type: Trace::classify(&frame.bytes),
                },
            );
        }
        match link.transmit(frame.bytes.clone(), now, &mut self.rng) {
            Transit::Dropped => {
                self.metrics[from].drop_reason("link-loss");
                if let Some(trace) = &mut self.trace {
                    trace.record(
                        now,
                        TraceEvent::Lost {
                            from,
                            next_hop: next,
                        },
                    );
                }
            }
            Transit::Deliver {
                at,
                bytes,
                duplicate_at,
            } => {
                let delivered = Frame {
                    bytes,
                    ..frame.clone()
                };
                if let Some(dup_at) = duplicate_at {
                    self.schedule(
                        dup_at,
                        Event::Arrival {
                            hop_from: from,
                            at_node: next,
                            frame: delivered.clone(),
                        },
                    );
                }
                self.schedule(
                    at,
                    Event::Arrival {
                        hop_from: from,
                        at_node: next,
                        frame: delivered,
                    },
                );
            }
        }
    }
}
