//! alpha-engine: a sharded multi-flow engine serving thousands of
//! concurrent ALPHA associations.
//!
//! The protocol crates give one association (or one relay) at a time;
//! this crate scales them out. [`EngineCore`] is a sans-io flow
//! multiplexer — sharded flow table, per-shard timer wheels, per-flow
//! admission control, a global buffer valve, and a metrics registry.
//! The threaded UDP front end (`alpha_transport::Engine`) lives in
//! `alpha-transport` with the batched socket I/O backends it is built
//! on; this crate stays sans-io. See the "Engine architecture" section
//! of `DESIGN.md` for the full picture.
#![warn(missing_docs)]

// The unit tests share the integration suites' virtual network, which
// names this crate by its external name.
#[cfg(test)]
extern crate self as alpha_engine;

pub mod backoff;
pub mod chainstore;
pub mod engine;
pub mod mesh;
pub mod metrics;
pub mod ring;
pub mod shard;
pub mod timer;

pub use alpha_adapt::{AdaptConfig, FlowAdapt};
pub use backoff::Backoff;
pub use engine::{EngineConfig, EngineCore, EngineError, EngineOutput, Extracted, ExtractedIter};
pub use metrics::{
    EngineMetrics, Histogram, IoMetrics, IoTotals, IoWorker, MeshMetrics, PeerCounters,
    StoreMetrics,
};
pub use ring::HandoffRing;
pub use shard::{
    addr_hash, jump_hash, locks_taken_on_thread, reset_thread_lock_count, AssignmentPolicy,
    FlowKey, ShardAssignment, ShardOwners, Sharded, UNOWNED,
};
pub use timer::TimerWheel;
