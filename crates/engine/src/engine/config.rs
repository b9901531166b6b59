//! Engine tunables, API errors and per-call output.

use std::net::SocketAddr;

use alpha_adapt::AdaptConfig;
use alpha_core::{Config, Outbox, ProtocolError, RelayConfig};
use alpha_store::PacerConfig;
use alpha_wire::Frame;

use crate::chainstore;
use crate::shard::FlowKey;

/// Engine-level tunables. Protocol behaviour stays in the wrapped
/// [`Config`] / [`RelayConfig`]; everything here is about serving many
/// flows at once.
#[derive(Clone, Copy)]
pub struct EngineConfig {
    /// Protocol configuration of the deployment: host-role flows run it
    /// (and the chains of handshakes this engine answers carry it), and
    /// relay-role flows verify with its MAC construction and skip bound.
    pub protocol: Config,
    /// Relay policy for relay-role flows.
    pub relay: RelayConfig,
    /// Flow-table shards. More shards = less lock contention; workers
    /// own disjoint shard sets.
    pub shards: usize,
    /// Per-flow admission budget of host flows, in S1/HS1 bytes per
    /// second (`None` disables). It is charged on arrival, under the
    /// shard lock the packet's judgment takes anyway, before the
    /// verifier sees the packet. Relay flows do not pass it: their one
    /// bucket is the relay's, charged only with authentic S1s
    /// ([`RelayConfig::s1_bytes_per_sec`]).
    pub s1_bytes_per_sec: Option<u64>,
    /// Global cap on bytes buffered across every relay flow's
    /// pre-signature stores. When exceeded, new S1s are shed until
    /// disclosure drains the buffers (backpressure valve).
    pub max_buffered_bytes: Option<u64>,
    /// Answer unknown-flow HS1 packets by standing up a new host
    /// association (server behaviour). Disable for pure relays.
    pub accept_handshakes: bool,
    /// Per-flow adaptation (`alpha-adapt`): when set, every host flow
    /// carries a channel estimator + mode controller, and
    /// [`sign_adaptive`](super::EngineCore::sign_adaptive) picks mode
    /// and bundle size online.
    pub adapt: Option<AdaptConfig>,
    /// Freeze a host flow that has seen no datagram for this many
    /// microseconds into the flow lifecycle store (`alpha-store`); the
    /// next verified datagram thaws it. `None` disables hibernation.
    pub hibernate_after: Option<u64>,
    /// Byte budget for frozen flow records. Past it, the coldest
    /// records are evicted (those flows are dropped for good). `None`
    /// disables eviction.
    pub frozen_budget: Option<u64>,
    /// Renewal-storm pacing: deterministic per-flow deadline jitter
    /// plus the global renewal token bucket.
    pub pacer: PacerConfig,
    /// Begin a paced chain renewal when a host flow has at most this
    /// many exchanges left on the shorter of its signature and
    /// acknowledgment chains.
    pub renew_below: u64,
}

impl EngineConfig {
    /// Defaults around a protocol config: 8 shards, 1 MiB/s per-flow S1
    /// budget, 64 MiB global buffer valve, handshakes accepted,
    /// hibernation off. Chains left on the default `Full` storage are
    /// switched to √n checkpointing from [`chainstore::SQRT_THRESHOLD`]
    /// elements up here; an explicit `Config::with_chain_storage` choice
    /// is kept.
    #[must_use]
    pub fn new(protocol: Config) -> EngineConfig {
        EngineConfig {
            protocol: chainstore::resolve(protocol),
            relay: RelayConfig::default(),
            shards: 8,
            s1_bytes_per_sec: Some(1 << 20),
            max_buffered_bytes: Some(64 << 20),
            accept_handshakes: true,
            adapt: None,
            hibernate_after: None,
            frozen_budget: Some(256 << 20),
            pacer: PacerConfig::default(),
            renew_below: 8,
        }
    }

    /// Set the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> EngineConfig {
        self.shards = shards.max(1);
        self
    }

    /// Set the relay policy.
    #[must_use]
    pub fn with_relay(mut self, relay: RelayConfig) -> EngineConfig {
        self.relay = relay;
        self
    }

    /// Set the per-flow S1/HS1 admission budget of host flows
    /// ([`EngineConfig::s1_bytes_per_sec`]).
    #[must_use]
    pub fn with_s1_budget(mut self, bytes_per_sec: Option<u64>) -> EngineConfig {
        self.s1_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Enable per-flow adaptation with the given tunables.
    #[must_use]
    pub fn with_adapt(mut self, adapt: AdaptConfig) -> EngineConfig {
        self.adapt = Some(adapt);
        self
    }

    /// Set the hibernation idle threshold (µs); `None` disables.
    #[must_use]
    pub fn with_hibernate_after(mut self, idle_us: Option<u64>) -> EngineConfig {
        self.hibernate_after = idle_us;
        self
    }

    /// Set the frozen-record byte budget; `None` disables eviction.
    #[must_use]
    pub fn with_frozen_budget(mut self, max_bytes: Option<u64>) -> EngineConfig {
        self.frozen_budget = max_bytes;
        self
    }

    /// Set the renewal pacing tunables.
    #[must_use]
    pub fn with_pacer(mut self, pacer: PacerConfig) -> EngineConfig {
        self.pacer = pacer;
        self
    }

    /// Set the remaining-exchange threshold for paced renewals.
    #[must_use]
    pub fn with_renew_below(mut self, exchanges: u64) -> EngineConfig {
        self.renew_below = exchanges;
        self
    }
}

/// Errors from engine API calls (not from network input, which is
/// counted in metrics and never raised).
#[derive(Debug)]
pub enum EngineError {
    /// No flow with this key.
    UnknownFlow(FlowKey),
    /// The flow exists but is not an established host association.
    NotAHostFlow(FlowKey),
    /// The protocol rejected the operation.
    Protocol(ProtocolError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownFlow(k) => write!(f, "no flow {}#{}", k.peer, k.assoc_id),
            EngineError::NotAHostFlow(k) => {
                write!(
                    f,
                    "flow {}#{} is not an established host",
                    k.peer, k.assoc_id
                )
            }
            EngineError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ProtocolError> for EngineError {
    fn from(e: ProtocolError) -> EngineError {
        EngineError::Protocol(e)
    }
}

/// Everything one engine call produced. The caller owns transmission
/// (`datagrams`) and consumption (`delivered` / `extracted`). What the
/// call counted on its datagram path — packets and bytes in and out,
/// verified S2s, the relay buffer gauge — reaches the metrics registry
/// once, when the call returns.
///
/// An output can be reused: [`EngineOutput::clear`] empties it but keeps
/// its lists, its extraction arena and its delivered payload buffers, so
/// a caller that feeds every burst into one output through
/// [`EngineCore::handle_datagrams_into`] allocates nothing for them once
/// they have grown to its bursts.
#[derive(Default)]
pub struct EngineOutput {
    /// Datagrams to transmit, already bundled/chunked at wire limits.
    /// Frames are on loan from the engine's pool and recycle themselves
    /// on drop, so steady-state TX does no per-datagram allocation.
    pub datagrams: Vec<(SocketAddr, Frame)>,
    /// Verified payloads delivered to host-role flows:
    /// `(assoc_id, message index, payload)`.
    pub delivered: Vec<(u64, u32, Vec<u8>)>,
    /// Payloads verified in transit by relay-role flows.
    pub extracted: Extracted,
    /// Handshakes that completed during this call.
    pub completed: Vec<FlowKey>,
    /// What the call has counted but not yet published.
    pub(super) pending: Pending,
    /// Payload buffers of deliveries [`EngineOutput::clear`] took back,
    /// for the next deliveries to copy into.
    spare: Vec<Vec<u8>>,
    /// The host paths' outbox, lent to one flow's protocol call at a
    /// time ([`EngineOutput::lend_outbox`]) and cleared on return, so its
    /// buffers serve every call the output does.
    outbox: Outbox,
}

impl EngineOutput {
    /// Merge `other` into `self`.
    pub fn absorb(&mut self, other: EngineOutput) {
        self.datagrams.extend(other.datagrams);
        self.delivered.extend(other.delivered);
        self.extracted.append(&other.extracted);
        self.completed.extend(other.completed);
    }

    /// Empty the output for reuse, keeping what it allocated: the lists'
    /// capacity, the extraction arena and the delivered payloads'
    /// buffers. Staged frames go back to the engine's pool.
    pub fn clear(&mut self) {
        self.datagrams.clear();
        self.spare
            .extend(self.delivered.drain(..).map(|(_, _, payload)| payload));
        self.extracted.arena.clear();
        self.extracted.count = 0;
        self.completed.clear();
    }

    /// Start a call handling `burst` datagrams of `bytes` in all: the
    /// datagram list and the extraction arena are sized for it when the
    /// call first uses them, so a burst grows neither.
    pub(super) fn begin_burst(&mut self, burst: usize, bytes: usize) {
        self.pending = Pending {
            burst,
            burst_bytes: bytes,
            ..Pending::default()
        };
    }

    /// The output's outbox, emptied, for one protocol call; hand it back
    /// with [`EngineOutput::return_outbox`].
    pub(super) fn lend_outbox(&mut self) -> Outbox {
        std::mem::take(&mut self.outbox)
    }

    /// Take back the outbox [`EngineOutput::lend_outbox`] lent, clearing
    /// it for the next call.
    pub(super) fn return_outbox(&mut self, mut outbox: Outbox) {
        outbox.clear();
        self.outbox = outbox;
    }

    /// Stage a datagram toward `dst`.
    pub(super) fn push_datagram(&mut self, dst: SocketAddr, frame: Frame) {
        if self.datagrams.is_empty() {
            self.datagrams.reserve(self.pending.burst);
        }
        self.pending.packets_out += 1;
        self.pending.bytes_out += frame.len() as u64;
        self.datagrams.push((dst, frame));
    }

    /// Deliver a payload verified on a host flow, copied into a buffer a
    /// [`EngineOutput::clear`] took back when there is one.
    pub(super) fn deliver(&mut self, assoc_id: u64, seq: u32, payload: &[u8]) {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(payload);
        self.delivered.push((assoc_id, seq, buf));
    }

    /// Record a payload verified in transit. The first one sizes the
    /// arena for the whole burst: every S2's wire header is longer than
    /// an arena entry's, so the burst's datagram bytes bound what it can
    /// extract, whatever its bundling and payload lengths.
    pub(super) fn extract(&mut self, assoc_id: u64, payload: &[u8]) {
        if self.extracted.is_empty() {
            self.extracted.arena.reserve(self.pending.burst_bytes);
        }
        self.extracted.push(assoc_id, payload);
        self.pending.s2_verified += 1;
    }
}

/// Counters one engine call accumulates on its datagram path and
/// publishes once, when it returns: a burst costs each shared counter one
/// atomic add, not one per datagram. Totals read between calls are
/// exact; a snapshot taken during one lags it by at most that call.
#[derive(Default, Debug, Clone, Copy)]
pub(super) struct Pending {
    /// Datagrams the call was handed (sizes the datagram list).
    pub(super) burst: usize,
    /// Their bytes in all (sizes the extraction arena).
    pub(super) burst_bytes: usize,
    pub(super) packets_in: u64,
    pub(super) bytes_in: u64,
    pub(super) packets_out: u64,
    pub(super) bytes_out: u64,
    pub(super) s2_verified: u64,
    /// Change to the global relay buffer gauge. Admission adds it to
    /// the published gauge, so the call's own S1s count against the
    /// valve at once.
    pub(super) buffered: i64,
}

/// The payloads relay-role flows verified in transit during one engine
/// call, in the order they verified, copied back to back into one
/// arena: a burst's extractions share one allocation.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct Extracted {
    /// Per payload: its association id (8 bytes), its length (4 bytes),
    /// then its bytes.
    arena: Vec<u8>,
    count: usize,
}

impl Extracted {
    /// Arena bytes ahead of each payload.
    const HEADER: usize = 12;

    fn push(&mut self, assoc_id: u64, payload: &[u8]) {
        // Allowlist: a payload came out of one datagram.
        let len = u32::try_from(payload.len()).expect("a datagram's payload");
        self.arena.extend_from_slice(&assoc_id.to_le_bytes());
        self.arena.extend_from_slice(&len.to_le_bytes());
        self.arena.extend_from_slice(payload);
        self.count += 1;
    }

    /// Number of payloads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when nothing was extracted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The payloads in order, as `(assoc_id, payload)`.
    #[must_use]
    pub fn iter(&self) -> ExtractedIter<'_> {
        ExtractedIter {
            rest: &self.arena,
            left: self.count,
        }
    }

    /// Append every payload of `other`.
    fn append(&mut self, other: &Extracted) {
        self.arena.extend_from_slice(&other.arena);
        self.count += other.count;
    }
}

/// Iterator over an [`Extracted`]'s payloads.
pub struct ExtractedIter<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for ExtractedIter<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<(u64, &'a [u8])> {
        let (header, rest) = self.rest.split_first_chunk::<{ Extracted::HEADER }>()?;
        let (id, len) = header.split_at(8);
        // Allowlist: `Extracted::push` wrote both fields at these widths.
        let assoc_id = u64::from_le_bytes(id.try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        let (payload, rest) = rest.split_at(len);
        self.rest = rest;
        self.left -= 1;
        Some((assoc_id, payload))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for ExtractedIter<'_> {}
