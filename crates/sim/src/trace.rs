//! Packet-level trace recording (the simulator's pcap analogue).
//!
//! Enable with [`crate::Simulator::enable_trace`]; every transmission and
//! link loss is recorded with virtual time, hops, size and packet type.
//! Traces serialize to JSON lines via serde for offline analysis (plotting
//! exchange timelines, checking retransmission behaviour, feeding
//! experiment post-processing).

use alpha_core::Timestamp;
use alpha_wire::{PacketType, PacketView};
use serde::{Deserialize, Serialize};

use crate::sim::NodeId;

/// Packet classification for trace entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Pre-signature announcement.
    S1,
    /// Acknowledgment of willingness.
    A1,
    /// Key disclosure + message.
    S2,
    /// Verdict disclosure.
    A2,
    /// Bootstrap handshake.
    Handshake,
    /// A piggyback bundle of several packets (§3.2.1).
    Bundle,
    /// Bytes that do not parse as an ALPHA packet.
    Unparseable,
}

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A frame was offered to a link.
    Transmit {
        /// Transmitting node.
        from: NodeId,
        /// Next hop on the route.
        next_hop: NodeId,
        /// Final destination.
        dst: NodeId,
        /// Frame size in bytes.
        bytes: usize,
        /// Parsed packet type.
        packet_type: PacketKind,
    },
    /// The link dropped the frame.
    Lost {
        /// Transmitting node.
        from: NodeId,
        /// Next hop that never received it.
        next_hop: NodeId,
    },
}

/// A timestamped trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual time (µs).
    pub at_us: u64,
    /// What happened.
    pub event: TraceEvent,
}

// Serde impls are written by hand against the vendored value-tree serde
// (no derive macros offline). The external JSON shape matches what the
// derives produced: unit enums as strings, struct variants as
// single-key objects.

impl PacketKind {
    fn as_str(self) -> &'static str {
        match self {
            PacketKind::S1 => "S1",
            PacketKind::A1 => "A1",
            PacketKind::S2 => "S2",
            PacketKind::A2 => "A2",
            PacketKind::Handshake => "Handshake",
            PacketKind::Bundle => "Bundle",
            PacketKind::Unparseable => "Unparseable",
        }
    }
}

impl Serialize for PacketKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for PacketKind {
    fn from_value(v: &serde::Value) -> Option<PacketKind> {
        Some(match v.as_str()? {
            "S1" => PacketKind::S1,
            "A1" => PacketKind::A1,
            "S2" => PacketKind::S2,
            "A2" => PacketKind::A2,
            "Handshake" => PacketKind::Handshake,
            "Bundle" => PacketKind::Bundle,
            "Unparseable" => PacketKind::Unparseable,
            _ => return None,
        })
    }
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> serde::Value {
        match self {
            TraceEvent::Transmit {
                from,
                next_hop,
                dst,
                bytes,
                packet_type,
            } => serde::Value::object([(
                "Transmit".to_owned(),
                serde::Value::object([
                    ("from".to_owned(), from.to_value()),
                    ("next_hop".to_owned(), next_hop.to_value()),
                    ("dst".to_owned(), dst.to_value()),
                    ("bytes".to_owned(), bytes.to_value()),
                    ("packet_type".to_owned(), packet_type.to_value()),
                ]),
            )]),
            TraceEvent::Lost { from, next_hop } => serde::Value::object([(
                "Lost".to_owned(),
                serde::Value::object([
                    ("from".to_owned(), from.to_value()),
                    ("next_hop".to_owned(), next_hop.to_value()),
                ]),
            )]),
        }
    }
}

impl Deserialize for TraceEvent {
    fn from_value(v: &serde::Value) -> Option<TraceEvent> {
        let map = v.as_object()?;
        if let Some(body) = map.get("Transmit") {
            return Some(TraceEvent::Transmit {
                from: Deserialize::from_value(body.get("from")?)?,
                next_hop: Deserialize::from_value(body.get("next_hop")?)?,
                dst: Deserialize::from_value(body.get("dst")?)?,
                bytes: Deserialize::from_value(body.get("bytes")?)?,
                packet_type: Deserialize::from_value(body.get("packet_type")?)?,
            });
        }
        if let Some(body) = map.get("Lost") {
            return Some(TraceEvent::Lost {
                from: Deserialize::from_value(body.get("from")?)?,
                next_hop: Deserialize::from_value(body.get("next_hop")?)?,
            });
        }
        None
    }
}

impl Serialize for TraceEntry {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([
            ("at_us".to_owned(), self.at_us.to_value()),
            ("event".to_owned(), self.event.to_value()),
        ])
    }
}

impl Deserialize for TraceEntry {
    fn from_value(v: &serde::Value) -> Option<TraceEntry> {
        Some(TraceEntry {
            at_us: Deserialize::from_value(v.get("at_us")?)?,
            event: Deserialize::from_value(v.get("event")?)?,
        })
    }
}

/// A recorded trace.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Append an event.
    pub fn record(&mut self, at: Timestamp, event: TraceEvent) {
        self.entries.push(TraceEntry {
            at_us: at.micros(),
            event,
        });
    }

    /// All entries in order.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries of one packet kind.
    #[must_use]
    pub fn count_kind(&self, kind: PacketKind) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Transmit { packet_type, .. } if packet_type == kind))
            .count()
    }

    /// Serialize to JSON lines (one entry per line).
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&serde_json::to_string(e).expect("trace entries serialize"));
            out.push('\n');
        }
        out
    }

    /// Parse a JSON-lines trace back (round-trip for tooling).
    #[must_use]
    pub fn from_json_lines(s: &str) -> Option<Trace> {
        let mut entries = Vec::new();
        for line in s.lines() {
            if line.trim().is_empty() {
                continue;
            }
            entries.push(serde_json::from_str(line).ok()?);
        }
        Some(Trace { entries })
    }

    /// Classify wire bytes for tracing.
    #[must_use]
    pub fn classify(bytes: &[u8]) -> PacketKind {
        if bytes.first() == Some(&alpha_wire::bundle::BUNDLE_TAG) {
            return if alpha_wire::bundle::parse(bytes).is_ok() {
                PacketKind::Bundle
            } else {
                PacketKind::Unparseable
            };
        }
        match PacketView::parse(bytes).map(|v| v.packet_type()) {
            Ok(PacketType::S1) => PacketKind::S1,
            Ok(PacketType::A1) => PacketKind::A1,
            Ok(PacketType::S2) => PacketKind::S2,
            Ok(PacketType::A2) => PacketKind::A2,
            Ok(PacketType::Hs1 | PacketType::Hs2) => PacketKind::Handshake,
            Err(_) => PacketKind::Unparseable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_roundtrip() {
        let mut t = Trace::default();
        t.record(
            Timestamp::from_millis(1),
            TraceEvent::Transmit {
                from: 0,
                next_hop: 1,
                dst: 2,
                bytes: 64,
                packet_type: PacketKind::S1,
            },
        );
        t.record(
            Timestamp::from_millis(2),
            TraceEvent::Lost {
                from: 1,
                next_hop: 2,
            },
        );
        let json = t.to_json_lines();
        let back = Trace::from_json_lines(&json).unwrap();
        assert_eq!(back.entries(), t.entries());
    }

    #[test]
    fn classify_garbage() {
        assert_eq!(Trace::classify(b"not a packet"), PacketKind::Unparseable);
    }
}
