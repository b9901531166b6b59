//! alpha-mesh: the relay mesh subsystem.
//!
//! ALPHA's setting is a *multi-hop* network: every intermediate node
//! verifies traffic hop-by-hop before spending energy forwarding it
//! (PAPER §1, §3.5). The protocol crates give per-hop verification for
//! one relay; this crate turns that relay into a deployable mesh node:
//!
//! - [`Registry`] — the peer table: a static seed set plus runtime
//!   join/leave, per-peer liveness probes timed by the same RFC 6298
//!   SRTT/RTTVAR estimator host flows use for retransmission
//!   (`alpha_adapt::ChannelEstimator`).
//! - [`PathSelector`] — sticky priority failover over a candidate list:
//!   traffic stays on the active peer until the registry declares it
//!   down, then migrates to the best healthy candidate via
//!   `EngineCore::reroute` (live flows move with their state).
//! - [`MeshNode`] — the threaded supervisor tying both to an
//!   `alpha_transport::Engine`: it probes peers from a control socket,
//!   mirrors health into the engine's per-peer counters, and applies
//!   failovers to live traffic.
//!
//! The bypass defense (a relay only accepts traffic from its registered
//! upstream peer set) and the forwarding datapath itself live in
//! `alpha-engine` (`EngineCore::mesh_enable` and friends); this crate
//! is the control plane above them.
#![warn(missing_docs)]

pub mod node;
pub mod path;
pub mod registry;

pub use node::{MeshNode, MeshNodeConfig};
pub use path::PathSelector;
pub use registry::{MeshConfig, MeshEvent, Peer, PeerHealth, PeerRole, Registry};
