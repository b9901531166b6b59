//! Introspection: the engine's JSON stats view, read-only over the
//! flow table and the metrics registry.

use super::*;
use serde::Value;

impl EngineCore {
    /// Per-flow adaptation snapshots (sorted by peer then association,
    /// capped at `limit` entries). Empty when adaptation is disabled.
    fn adapt_snapshots(&self, limit: usize) -> Vec<Value> {
        let mut rows: Vec<(String, u64, Value)> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.read();
            for (key, state) in &shard.flows {
                if let FlowState::Host(HostFlow { adapt: Some(a), .. }) = state {
                    rows.push((key.peer.to_string(), key.assoc_id, a.snapshot()));
                }
            }
        }
        rows.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        rows.truncate(limit);
        rows.into_iter()
            .map(|(peer, assoc_id, snap)| {
                Value::object([
                    ("peer".to_owned(), Value::Str(peer)),
                    ("assoc_id".to_owned(), Value::U64(assoc_id)),
                    ("adapt".to_owned(), snap),
                ])
            })
            .collect()
    }

    /// Snapshot engine state + metrics as a JSON value. When adaptation
    /// is enabled, `adapt_flows` carries per-flow controller state (up
    /// to 64 flows, sorted by peer address).
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let count = |n: usize| Value::U64(n as u64);
        let name = |s: &str| Value::Str(s.to_owned());
        let io = &self.metrics.io;
        let chains = chainstore::name(self.cfg.protocol.chain_storage);
        Value::object([
            ("flows".to_owned(), count(self.flow_count())),
            ("shards".to_owned(), count(self.shards.len())),
            (
                "buffered_bytes".to_owned(),
                Value::I64(self.buffered_bytes()),
            ),
            (
                "digest_backend".to_owned(),
                name(alpha_crypto::backend::active().name()),
            ),
            ("udp_backend".to_owned(), name(io.backend_name())),
            ("wait_backend".to_owned(), name(io.wait_backend_name())),
            ("chain_storage".to_owned(), name(chains)),
            (
                "adapt_flows".to_owned(),
                Value::Array(self.adapt_snapshots(64)),
            ),
            ("runtime".to_owned(), self.runtime_snapshot()),
            ("metrics".to_owned(), self.metrics.snapshot()),
        ])
    }

    /// Live-runtime lock discipline: how many counted lock
    /// acquisitions ever found a shard held by another thread, that is,
    /// how often two workers met in one shard.
    fn runtime_snapshot(&self) -> Value {
        Value::object([(
            "lock_contended".to_owned(),
            Value::U64(self.shards.contended()),
        )])
    }

    /// Snapshot rendered as a JSON string.
    #[must_use]
    pub fn stats_json(&self) -> String {
        // Allowlist: serialising an in-memory value we just built; no
        // network input reaches this.
        serde_json::to_string(&self.snapshot()).expect("stats serialize")
    }
}
