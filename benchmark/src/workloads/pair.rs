//! What the host-role workloads share: the message framing the
//! delivery checks rely on, and the single-thread passes of the traced
//! run that drive a client and a verifier against each other in memory.

use std::net::SocketAddr;
use std::time::Instant;

use alpha_core::{Association, Config, Mode, Timestamp};
use alpha_crypto::counting::{self, Counts};
use alpha_engine::{EngineConfig, EngineCore};
use alpha_wire::{bundle, BodyView, PacketView};
use rand::rngs::StdRng;
use rand::RngCore;

use crate::trace::Tracer;

/// Bytes of the header every benchmark message starts with.
pub const HEADER: usize = 16;

/// Seeded message bodies. A message is a 16-byte header — timestamp
/// (ns), flow, per-flow serial — followed by one of a few seeded filler
/// blocks picked by `(flow, serial)`, so a receiver can tell from the
/// header alone what every byte of the message must be.
pub struct Fill {
    blocks: Vec<Vec<u8>>,
    payload: usize,
}

impl Fill {
    /// Filler for messages of `payload` bytes.
    pub fn new(rng: &mut StdRng, payload: usize) -> Fill {
        assert!(
            payload >= HEADER,
            "a message carries a {HEADER}-byte header"
        );
        let blocks = (0..61)
            .map(|_| {
                let mut b = vec![0u8; payload];
                rng.fill_bytes(&mut b);
                b
            })
            .collect();
        Fill { blocks, payload }
    }

    fn block(&self, flow: u32, serial: u32) -> &[u8] {
        let i = (flow as usize)
            .wrapping_mul(131)
            .wrapping_add(serial as usize);
        &self.blocks[i % self.blocks.len()]
    }

    /// Write message `(flow, serial)` stamped `ts_ns` into `out`.
    pub fn write(&self, out: &mut Vec<u8>, flow: u32, serial: u32, ts_ns: u64) {
        out.clear();
        out.extend_from_slice(self.block(flow, serial));
        out[..8].copy_from_slice(&ts_ns.to_be_bytes());
        out[8..12].copy_from_slice(&flow.to_be_bytes());
        out[12..16].copy_from_slice(&serial.to_be_bytes());
    }

    /// Check a delivered message byte for byte; returns its
    /// `(flow, serial, ts_ns)` when it is exactly what [`Fill::write`]
    /// produced for that header.
    #[must_use]
    pub fn check(&self, msg: &[u8]) -> Option<(u32, u32, u64)> {
        if msg.len() != self.payload {
            return None;
        }
        let ts_ns = u64::from_be_bytes(msg[..8].try_into().ok()?);
        let flow = u32::from_be_bytes(msg[8..12].try_into().ok()?);
        let serial = u32::from_be_bytes(msg[12..16].try_into().ok()?);
        (msg[HEADER..] == self.block(flow, serial)[HEADER..]).then_some((flow, serial, ts_ns))
    }
}

/// Shape of an in-memory pass.
#[derive(Debug, Clone, Copy)]
pub struct PassShape {
    /// Flows driven round-robin.
    pub flows: usize,
    /// Exchanges per flow.
    pub exchanges: usize,
    /// Messages per exchange.
    pub bundle: usize,
    /// Signing mode.
    pub mode: Mode,
    /// Protocol configuration of both ends.
    pub proto: Config,
}

impl PassShape {
    /// Messages the pass signs.
    #[must_use]
    pub fn messages(&self) -> usize {
        self.flows * self.exchanges * self.bundle
    }
}

/// What a pass measured on the verifier's side (and, for the sign-side
/// price, on the client's).
#[derive(Debug, Default)]
pub struct PassResult {
    /// Nanoseconds inside verifier-side calls.
    pub server_ns: u64,
    /// Nanoseconds inside client-side calls (sign, A1 handling).
    pub client_ns: u64,
    /// Datagrams the verifier received.
    pub dgrams: u64,
    /// Messages the verifier delivered.
    pub delivered: u64,
    /// Hash activity inside verifier-side calls.
    pub hashes: Counts,
    /// One span per verifier-side call, in call order.
    pub spans: Vec<usize>,
    /// The verifier-bound datagrams, in call order.
    pub recorded: Vec<Vec<u8>>,
}

fn add(a: &mut Counts, b: Counts) {
    a.invocations += b.invocations;
    a.input_bytes += b.input_bytes;
    a.long_input_invocations += b.long_input_invocations;
    a.mac_invocations += b.mac_invocations;
    a.mac_raw_invocations += b.mac_raw_invocations;
}

/// Bracket one verifier-side call: span, time and hash counts.
fn server_call<T>(
    tracer: &mut Tracer,
    result: &mut PassResult,
    name: &'static str,
    root: usize,
    f: impl FnOnce() -> T,
) -> T {
    let id = result.dgrams;
    let hashes = counting::Scope::start();
    let (value, span) = tracer.span(name, Some(root), id, f);
    add(&mut result.hashes, hashes.finish());
    result.server_ns += tracer.spans()[span].duration_ns();
    result.spans.push(span);
    result.dgrams += 1;
    value
}

fn messages<'a>(
    fill: &Fill,
    scratch: &'a mut [Vec<u8>],
    flow: usize,
    serial: &mut u32,
) -> Vec<&'a [u8]> {
    for buf in scratch.iter_mut() {
        fill.write(buf, flow as u32, *serial, 0);
        *serial += 1;
    }
    scratch.iter().map(Vec::as_slice).collect()
}

/// Core pass: bare [`Association`] pairs, the verifier side doing what
/// the engine's host path does with a datagram — `PacketView::parse`,
/// then `handle_s2_fields` for an S2 or `handle` on the owned packet
/// for anything else.
pub fn assoc_pass(
    shape: &PassShape,
    fill: &Fill,
    rng: &mut StdRng,
    tracer: &mut Tracer,
) -> Result<PassResult, String> {
    let root = tracer.push("pass.core", 0, 0, None, 0);
    let mut result = PassResult::default();
    let mut pairs: Vec<(Association, Association)> = (0..shape.flows)
        .map(|f| Association::pair(shape.proto, f as u64 + 1, rng))
        .collect();
    let mut scratch = vec![Vec::new(); shape.bundle];
    let mut serials = vec![0u32; shape.flows];
    let now = Timestamp::from_millis(5);
    for _ in 0..shape.exchanges {
        for (flow, (client, server)) in pairs.iter_mut().enumerate() {
            let msgs = messages(fill, &mut scratch, flow, &mut serials[flow]);
            let started = Instant::now();
            let s1 = client
                .sign_batch(&msgs, shape.mode, now)
                .map_err(|e| format!("sign: {e}"))?
                .emit();
            result.client_ns += started.elapsed().as_nanos() as u64;
            let reply = server_call(tracer, &mut result, "core.handle", root, || {
                let view = PacketView::parse(&s1).map_err(|e| format!("S1: {e:?}"))?;
                server
                    .handle(&view.to_packet(), now, rng)
                    .map_err(|e| format!("S1: {e}"))
            })?;
            result.recorded.push(s1);
            let a1 = reply.packet().ok_or("S1 drew no A1")?;
            let started = Instant::now();
            // The client engine bundles a multi-packet answer into
            // frames of up to MAX_BUNDLE packets; so does this pass.
            let s2_frames: Vec<Vec<u8>> = client
                .handle(&a1, now, rng)
                .map_err(|e| format!("A1: {e}"))?
                .packets
                .chunks(alpha_wire::limits::MAX_BUNDLE)
                .map(|chunk| match chunk {
                    [one] => Ok(one.emit()),
                    many => bundle::emit(many).map_err(|e| format!("bundle: {e:?}")),
                })
                .collect::<Result<_, String>>()?;
            result.client_ns += started.elapsed().as_nanos() as u64;
            for frame in s2_frames {
                let delivered = server_call(tracer, &mut result, "core.handle", root, || {
                    let mut slices: [&[u8]; alpha_wire::limits::MAX_BUNDLE] =
                        [&[]; alpha_wire::limits::MAX_BUNDLE];
                    let n = bundle::split(&frame, &mut slices).map_err(|e| format!("S2: {e:?}"))?;
                    let mut delivered = Vec::new();
                    for slice in &slices[..n] {
                        let view = PacketView::parse(slice).map_err(|e| format!("S2: {e:?}"))?;
                        let BodyView::S2 {
                            key,
                            seq,
                            path,
                            payload,
                        } = &view.body
                        else {
                            return Err("client answered an A1 with a non-S2".to_owned());
                        };
                        let resp = server
                            .handle_s2_fields(
                                view.assoc_id,
                                view.chain_index,
                                key,
                                *seq,
                                path.to_path().as_slice(),
                                payload,
                                now,
                            )
                            .map_err(|e| format!("S2: {e}"))?;
                        delivered.extend(resp.deliveries.into_iter().map(|(_, p)| p));
                    }
                    Ok::<_, String>(delivered)
                })?;
                for payload in &delivered {
                    if fill.check(payload).is_none() {
                        return Err("core pass delivered a payload that was not signed".to_owned());
                    }
                }
                result.delivered += delivered.len() as u64;
                result.recorded.push(frame);
            }
        }
    }
    if result.delivered != shape.messages() as u64 {
        return Err(format!(
            "core pass delivered {} of {} messages",
            result.delivered,
            shape.messages()
        ));
    }
    Ok(result)
}

/// Wire pass: `bundle::split` + `PacketView::parse` over the recorded
/// verifier-bound datagrams, as the engine's intake does.
pub fn wire_pass(recorded: &[Vec<u8>], tracer: &mut Tracer) -> PassResult {
    let root = tracer.push("pass.wire", 0, 0, None, 0);
    let mut result = PassResult::default();
    for bytes in recorded {
        server_call(tracer, &mut result, "wire.parse", root, || {
            let mut slices: [&[u8]; alpha_wire::limits::MAX_BUNDLE] =
                [&[]; alpha_wire::limits::MAX_BUNDLE];
            let n = bundle::split(std::hint::black_box(bytes), &mut slices).unwrap_or(0);
            for slice in &slices[..n] {
                std::hint::black_box(PacketView::parse(slice).is_ok());
            }
        });
    }
    result
}

/// Synthetic client address of `flow` for the in-memory engine passes.
#[must_use]
pub fn flow_addr(flow: usize) -> SocketAddr {
    SocketAddr::from((
        [10, (flow >> 16) as u8, (flow >> 8) as u8, flow as u8],
        40_000,
    ))
}

/// Address the in-memory verifier engine is known by.
#[must_use]
pub fn server_addr() -> SocketAddr {
    SocketAddr::from(([10, 99, 0, 1], 50_000))
}

/// Runs one call on the verifier engine: it is handed the datagram and
/// a thunk that makes the call, and returns the thunk's output (after
/// timing or spanning it).
pub type OnServer<'a> = dyn FnMut(&[u8], &mut dyn FnMut() -> alpha_engine::EngineOutput) -> alpha_engine::EngineOutput
    + 'a;

/// A client engine and a verifier engine wired back to back in memory.
/// Every datagram for the verifier goes through `handle_datagrams`, a
/// call per datagram, bracketed by `on_server`.
pub struct EnginePair {
    /// The initiating side (the load generator's half).
    pub client: EngineCore,
    /// The system under test.
    pub server: EngineCore,
}

impl EnginePair {
    /// Fresh engines; `server_cfg` is the verifier's configuration and
    /// the client takes its protocol settings.
    #[must_use]
    pub fn new(server_cfg: EngineConfig) -> EnginePair {
        EnginePair {
            client: EngineCore::new(EngineConfig::new(server_cfg.protocol).with_shards(64)),
            server: EngineCore::new(server_cfg),
        }
    }

    /// Carry `pending` (datagrams leaving the client for the verifier)
    /// and every reply they cause back and forth until both sides fall
    /// silent. Returns what the verifier delivered. `on_server` runs
    /// each verifier call: it gets the datagram and a thunk doing the
    /// call, and returns the thunk's output.
    pub fn pump(
        &self,
        flow: usize,
        pending: alpha_engine::EngineOutput,
        now: Timestamp,
        rng: &mut StdRng,
        on_server: &mut OnServer<'_>,
    ) -> Result<Vec<Vec<u8>>, String> {
        let (ca, sa) = (flow_addr(flow), server_addr());
        let mut delivered = Vec::new();
        let mut to_server: Vec<Vec<u8>> =
            pending.datagrams.iter().map(|(_, f)| f.to_vec()).collect();
        for _hop in 0..64 {
            if to_server.is_empty() {
                return Ok(delivered);
            }
            let mut to_client: Vec<Vec<u8>> = Vec::new();
            for bytes in to_server.drain(..) {
                let out = on_server(&bytes, &mut || {
                    self.server.handle_datagrams(&[(ca, &bytes[..])], now, rng)
                });
                delivered.extend(out.delivered.iter().map(|(_, _, p)| p.clone()));
                to_client.extend(out.datagrams.iter().map(|(_, f)| f.to_vec()));
            }
            for bytes in to_client {
                let out = self.client.handle_datagram(sa, &bytes, now, rng);
                to_server.extend(out.datagrams.iter().map(|(_, f)| f.to_vec()));
            }
        }
        Err(format!("flow {flow}: exchange did not converge"))
    }

    /// Handshake `flows` flows through the engines' datagram path.
    pub fn connect(
        &self,
        flows: usize,
        now: Timestamp,
        rng: &mut StdRng,
    ) -> Result<Vec<alpha_engine::FlowKey>, String> {
        let mut keys = Vec::with_capacity(flows);
        for flow in 0..flows {
            let (key, out) = self
                .client
                .connect(server_addr(), flow as u64 + 1, now, rng);
            self.pump(flow, out, now, rng, &mut |_, call| call())?;
            keys.push(key);
        }
        let up = self
            .server
            .metrics()
            .handshakes
            .load(std::sync::atomic::Ordering::Relaxed);
        if up != flows as u64 {
            return Err(format!("verifier established {up} of {flows} associations"));
        }
        Ok(keys)
    }
}

/// Engine pass: the same exchanges as [`assoc_pass`], through two
/// [`EngineCore`]s. With a tracer every verifier call is a span;
/// without, only the clock brackets it (the tracing-overhead baseline).
pub fn engine_pass(
    shape: &PassShape,
    fill: &Fill,
    rng: &mut StdRng,
    mut tracer: Option<&mut Tracer>,
) -> Result<PassResult, String> {
    let pair = EnginePair::new(EngineConfig::new(shape.proto).with_shards(64));
    let now = Timestamp::from_millis(5);
    let keys = pair.connect(shape.flows, now, rng)?;
    let root = tracer
        .as_mut()
        .map(|t| t.push("pass.engine", 0, 0, None, 0));
    let mut result = PassResult::default();
    let mut scratch = vec![Vec::new(); shape.bundle];
    let mut serials = vec![0u32; shape.flows];
    for _ in 0..shape.exchanges {
        for (flow, key) in keys.iter().enumerate() {
            let msgs = messages(fill, &mut scratch, flow, &mut serials[flow]);
            let started = Instant::now();
            let out = pair
                .client
                .sign_batch(*key, &msgs, shape.mode, now)
                .map_err(|e| format!("sign: {e}"))?;
            result.client_ns += started.elapsed().as_nanos() as u64;
            let delivered = {
                let result = &mut result;
                let tracer = &mut tracer;
                pair.pump(
                    flow,
                    out,
                    now,
                    rng,
                    &mut |_, call| match (tracer.as_mut(), root) {
                        (Some(t), Some(root)) => {
                            server_call(t, result, "engine.handle_datagrams", root, call)
                        }
                        _ => {
                            let started = Instant::now();
                            let out = call();
                            result.server_ns += started.elapsed().as_nanos() as u64;
                            result.dgrams += 1;
                            out
                        }
                    },
                )?
            };
            for payload in &delivered {
                if fill.check(payload).is_none() {
                    return Err("engine pass delivered a payload that was not signed".to_owned());
                }
            }
            result.delivered += delivered.len() as u64;
        }
    }
    if result.delivered != shape.messages() as u64 {
        return Err(format!(
            "engine pass delivered {} of {} messages",
            result.delivered,
            shape.messages()
        ));
    }
    Ok(result)
}

/// Nest the three passes' spans call by call (wire under core under
/// engine). The passes drive the same exchanges in the same order, so
/// the k-th verifier call of each is the same datagram.
pub fn nest(tracer: &mut Tracer, wire: &[usize], core: &[usize], engine: &[usize]) {
    for ((&w, &c), &e) in wire.iter().zip(core).zip(engine) {
        tracer.adopt(e, c);
        tracer.adopt(c, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{stream_rng, ALG};

    #[test]
    fn fill_round_trips_and_catches_any_changed_byte() {
        let mut rng = stream_rng(1, 2);
        let fill = Fill::new(&mut rng, 64);
        let mut msg = Vec::new();
        fill.write(&mut msg, 7, 1234, 987_654_321);
        assert_eq!(msg.len(), 64);
        assert_eq!(fill.check(&msg), Some((7, 1234, 987_654_321)));
        for i in HEADER..msg.len() {
            let mut bad = msg.clone();
            bad[i] ^= 0x10;
            assert_eq!(fill.check(&bad), None, "byte {i}");
        }
        assert_eq!(fill.check(&msg[..63]), None);
        // A changed serial names a different filler block.
        let mut other = msg.clone();
        other[15] ^= 1;
        assert_eq!(fill.check(&other), None);
    }

    #[test]
    fn passes_agree_on_the_datagrams_they_drive() {
        let shape = PassShape {
            flows: 3,
            exchanges: 4,
            bundle: 8,
            mode: Mode::Merkle,
            proto: Config::new(ALG).with_chain_len(64),
        };
        let mut rng = stream_rng(4, 4);
        let fill = Fill::new(&mut rng, 128);
        let mut tracer = Tracer::new();
        let core = assoc_pass(&shape, &fill, &mut rng, &mut tracer).expect("core pass");
        let wire = wire_pass(&core.recorded, &mut tracer);
        let engine = engine_pass(&shape, &fill, &mut rng, Some(&mut tracer)).expect("engine pass");
        let bare = engine_pass(&shape, &fill, &mut rng, None).expect("bare engine pass");
        // Per exchange the verifier gets the S1 and one frame bundling
        // the eight S2s.
        let expect = (shape.flows * shape.exchanges * 2) as u64;
        assert_eq!(core.dgrams, expect);
        assert_eq!(wire.dgrams, expect);
        assert_eq!(engine.dgrams, expect);
        assert_eq!(bare.dgrams, expect);
        assert_eq!(core.delivered, shape.messages() as u64);
        assert!(core.hashes.invocations > 0 && engine.hashes.invocations > 0);
        assert!(bare.spans.is_empty());
        nest(&mut tracer, &wire.spans, &core.spans, &engine.spans);
        let spans = tracer.spans();
        assert_eq!(spans[core.spans[0]].parent, Some(engine.spans[0]));
        assert_eq!(spans[wire.spans[0]].parent, Some(core.spans[0]));
    }
}
