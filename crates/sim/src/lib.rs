#![warn(missing_docs)]

//! Discrete-event simulator for ALPHA over multi-hop networks.
//!
//! The paper evaluates ALPHA on hardware we do not have (Nokia 770, mesh
//! routers, AquisGrain sensor nodes) over real 802.11/802.15.4 links. This
//! crate substitutes both, faithfully to the paper's own methodology:
//!
//! - [`device`] — per-platform cost models calibrated to the paper's
//!   measured per-operation costs (Tables 4, 5, §4.1.3). Protocol code
//!   runs for real; its hash operations are counted and priced.
//! - [`link`] — lossy, jittery, rate-limited links with byte-level
//!   corruption and duplication (packets travel as real wire bytes, so
//!   corruption exercises the parsers).
//! - [`node`] — endpoint, relay, and attacker nodes: endpoints wrap the
//!   sans-io state machines from `alpha-core`, relays are the
//!   `alpha-engine` core the `alpha` binary runs.
//! - [`sim`] — the event queue, virtual clock, per-node CPU serialization
//!   (a busy CPU delays its own output — this is what makes verifiable
//!   throughput CPU-bound, as in §4.1.2), and metrics.
//! - [`topology`] — convenience builders for the paper's protected-path
//!   scenario (signer, n relays, verifier; Fig. 1) and attack layouts.

pub mod device;
pub mod link;
pub mod node;
pub mod sim;
pub mod topology;
pub mod trace;

pub use device::{AffineCost, DeviceModel};
pub use link::{GeChannel, GilbertElliott, LinkConfig};
pub use node::{
    sim_addr_node, sim_node_addr, App, Attacker, Endpoint, EngineRelayNode, MeshRelayNode, Node,
    SenderApp,
};
pub use sim::{Frame, NodeId, NodeMetrics, Simulator};
pub use topology::{chained_mesh_path, protected_path, star_through_engine, MeshChain};
pub use trace::{PacketKind, Trace, TraceEntry, TraceEvent};
